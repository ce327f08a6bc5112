"""Shared builders for synthetic history windows and mini worlds, and the
scalar reference world step."""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import NamedTuple, Optional

import numpy as np
import pytest

from gflsim.fuzzy import FuzzySystem, region_codes
from gflsim.world import (
    BLOCKED,
    CONNECTED,
    CONNECTION_CUT,
    HANDOFF_COMPLETED,
    HANDOFF_INITIATED,
    Event,
    MobileTerminal,
    State,
    UnitRecord,
    World,
    _fold,
    accelerated_state,
)


class FixedPolicy:
    """Decision hook whose value is a constant crisp value."""

    def __init__(self, value: float) -> None:
        self.value = value

    def table(self, velocity, dist_norm, chan_norm, s_min, s_th):
        code = int(region_codes(self.value, s_min, s_th))
        return lambda r, chan: code


def distance_norm(ratio: float) -> float:
    """Fuzzy distance input: the boundary ratio clamped to [0, 1]."""
    return min(max(ratio, 0.0), 1.0)


def pose(world: World, m: int, **columns) -> None:
    """Set terminal ``m``'s columns in place (x, y, energy, state, serving,
    target, dwell; None for no station), to start a world mid-story."""
    for name, value in columns.items():
        if name not in ("x", "y", "energy", "state", "serving", "target", "dwell"):
            raise AttributeError(f"cannot pose terminal attribute {name!r}")
        if name in ("state", "serving", "target", "dwell"):
            value = -1 if value is None else int(value)
        getattr(world, "_" + name)[m] = value


def reference_strengths(consequents, degree_vectors, n_terms: int = 5) -> tuple[float, ...]:
    """Independent min-max firing of a complete rule grid: min-AND per cell,
    cells row-major over the degree vectors (first input slowest), and max
    aggregation per 1-based output term."""
    strengths = [0.0] * n_terms
    cells = itertools.product(*(range(len(degs)) for degs in degree_vectors))
    for flat, combo in enumerate(cells):
        w = min(degree_vectors[axis][idx] for axis, idx in enumerate(combo))
        term = consequents[flat] - 1
        if w > strengths[term]:
            strengths[term] = w
    return tuple(float(v) for v in strengths)


def reference_degrees(system: FuzzySystem, inputs) -> list[tuple[float, ...]]:
    """Scalar fuzzification: each input clamped into its universe, then one
    ``MembershipFunction.degree`` per term."""
    return [tuple(t.degree(min(max(float(x), var.lo), var.hi)) for t in var.terms)
            for var, x in zip(system.input_vars, inputs)]


def reference_value(system: FuzzySystem, consequents, inputs) -> float:
    """Scalar decision value: :func:`reference_degrees`, then
    :func:`reference_strengths`, then the exact centroid."""
    strengths = reference_strengths(consequents, reference_degrees(system, inputs),
                                    system.n_output_terms)
    return system.crisp_from_strengths(strengths)


class Snapshot(NamedTuple):
    """One terminal at one time unit, captured at its decision point."""

    velocity: float
    dist_ratio: tuple[float, ...]
    chan_norm: tuple[float, ...]
    state: State
    serving: int  # -1 when unset
    target: int   # -1 when unset
    dwell: int


def make_record(t: int, snaps) -> UnitRecord:
    """A record from one snapshot per terminal."""
    cols = {name: [getattr(s, name) for s in snaps] for name in Snapshot._fields}
    return UnitRecord(
        t=t, velocity=cols["velocity"], ratio=cols["dist_ratio"], chan=cols["chan_norm"],
        state=cols["state"], serving=cols["serving"], target=cols["target"],
        dwell=cols["dwell"],
    )


def snapshots(rec: UnitRecord) -> list[Snapshot]:
    """The record's terminals one at a time, in Python scalars."""
    cols = (rec.velocity.tolist(), map(tuple, rec.ratio.tolist()), map(tuple, rec.chan.tolist()),
            map(State, rec.state.tolist()), rec.serving.tolist(), rec.target.tolist(),
            rec.dwell.tolist())
    return [Snapshot(*row) for row in zip(*cols)]


def make_snapshot(
    *,
    velocity: float = 10.0,
    dist_ratio=(0.5, 0.5),
    chan_norm=(0.5, 0.5),
    state: State = State.DISCONNECT,
    serving: int = -1,
    target: int = -1,
    dwell: int = 0,
) -> Snapshot:
    return Snapshot(
        velocity=velocity, dist_ratio=tuple(dist_ratio), chan_norm=tuple(chan_norm),
        state=state, serving=serving, target=target, dwell=dwell,
    )


def make_window(per_unit_snapshots, start_t: int = 1) -> tuple[UnitRecord, ...]:
    """Freeze a window from a list (units) of lists (terminals) of snapshots."""
    return tuple(make_record(start_t + u, snaps) for u, snaps in enumerate(per_unit_snapshots))


def random_window(rng: np.random.Generator, n_units: int = 4, n_mts: int = 4,
                  n_stations: int = 3, dwell: int = 2) -> tuple[UnitRecord, ...]:
    """Structurally consistent window with randomized inputs and states; a
    terminal that opens in handover has 1..``dwell`` units of it left.  A
    single station has no other to hand over to, so there it opens connected."""
    units = []
    init_states = rng.integers(0, 3, size=n_mts)
    for u in range(n_units):
        snaps = []
        for m in range(n_mts):
            ratios = tuple(float(r) for r in rng.uniform(-0.5, 1.0, size=n_stations))
            chans = tuple(float(c) for c in rng.choice([0.0, 0.25, 0.5, 1.0], size=n_stations))
            if u == 0:
                state = State(int(init_states[m]))
                if state == State.HANDOVER and n_stations == 1:
                    state = State.CONNECT
                # keep the pre-decision invariants: serving iff connected-ish,
                # target and a live dwell only in handover
                if state == State.DISCONNECT:
                    serving = target = -1
                    left = 0
                else:
                    serving = int(rng.integers(0, n_stations))
                    if state == State.HANDOVER:
                        target = int((serving + 1) % n_stations)
                        left = int(rng.integers(1, dwell + 1))
                    else:
                        target, left = -1, 0
                # a connected terminal must sit inside its serving cell for
                # the window to exercise fuzzy decisions rather than force-cuts;
                # a handover decides nothing and may be cut at once
                if state == State.CONNECT and ratios[serving] <= 0:
                    ratios = tuple(
                        abs(r) + 0.05 if s == serving else r
                        for s, r in enumerate(ratios)
                    )
            else:
                # replay evolves its own state; later pre-states are unused
                state, serving, target, left = State.DISCONNECT, -1, -1, 0
            snaps.append(make_snapshot(
                velocity=float(rng.uniform(0, 35)),
                dist_ratio=ratios, chan_norm=chans,
                state=state, serving=serving, target=target, dwell=left,
            ))
        units.append(snaps)
    return make_window(units)


@dataclasses.dataclass
class ReferenceStation:
    """A station of the reference world: its spec and its held channels."""

    ident: int
    x: float
    y: float
    radius: float
    capacity: int
    occupied: int = 0


class ReferenceWorld:
    """The scalar world step: one terminal at a time, each moved, measured
    with ``math.hypot``, sent through the state machine and charged for
    energy before the next one moves.  Starts from a copy of a World."""

    def __init__(self, world: World) -> None:
        self.cfg = world.cfg
        self.stations = [ReferenceStation(i, *s.center, s.radius, s.capacity, n)
                         for i, (s, n) in enumerate(zip(world.stations, world.occupied))]
        self.mts = list(world.mts)
        self.t = world.t
        self.events: list[Event] = []
        self.connected_units = world.connected_units

    def step(self, policy) -> UnitRecord:
        self.t += 1
        t, cfg = self.t, self.cfg
        snaps = []
        for mt in self.mts:
            reference_advance(mt, t, cfg.arena, cfg.eq2_verbatim)
            ratios = tuple(reference_ratio(mt.x, mt.y, bs) for bs in self.stations)
            chans = tuple((bs.capacity - bs.occupied) / bs.capacity for bs in self.stations)
            snaps.append(Snapshot(
                mt.speed, ratios, chans, mt.state,
                -1 if mt.serving is None else mt.serving,
                -1 if mt.target is None else mt.target, mt.dwell))
            self._apply_rules(mt, policy, ratios, chans, t)
            self._energy_step(mt)
            if mt.state != State.DISCONNECT:
                self.connected_units += 1
        return make_record(t, snaps)

    def _apply_rules(self, mt, policy, ratios, chans, t) -> None:
        cfg = self.cfg
        if mt.state != State.DISCONNECT and ratios[mt.serving] <= 0.0:
            self._cut(mt, t)
            return
        if mt.state == State.CONNECT:
            sv = mt.serving
            value = policy.decide(mt.speed, distance_norm(ratios[sv]), chans[sv])
            if value < cfg.s_min:
                self._cut(mt, t)
            elif value < cfg.s_th:
                tgt = reference_target(mt.x, mt.y, self.stations, exclude=sv)
                if tgt is not None:
                    tgt.occupied += 1
                    mt.target, mt.state, mt.dwell = tgt.ident, State.HANDOVER, cfg.dwell
                    self.events.append(Event(t, mt.ident, HANDOFF_INITIATED, sv, tgt.ident))
            return
        if mt.state == State.HANDOVER:
            mt.dwell -= 1
            if mt.dwell == 0:
                old = mt.serving
                self.stations[old].occupied -= 1
                mt.serving, mt.target, mt.state = mt.target, None, State.CONNECT
                self.events.append(Event(t, mt.ident, HANDOFF_COMPLETED, old, mt.serving))
            return
        cand = reference_target(mt.x, mt.y, self.stations, require_channel=False)
        if cand is None:
            return
        value = policy.decide(mt.speed, distance_norm(ratios[cand.ident]), chans[cand.ident])
        if value > cfg.s_min:
            if cand.occupied < cand.capacity:
                cand.occupied += 1
                mt.serving, mt.state = cand.ident, State.CONNECT
                self.events.append(Event(t, mt.ident, CONNECTED, None, cand.ident))
            else:
                self.events.append(Event(t, mt.ident, BLOCKED, None, cand.ident))

    def _cut(self, mt: MobileTerminal, t: int) -> None:
        self.stations[mt.serving].occupied -= 1
        if mt.target is not None:
            self.stations[mt.target].occupied -= 1
        self.events.append(Event(t, mt.ident, CONNECTION_CUT, mt.serving, mt.target))
        mt.serving, mt.target, mt.dwell, mt.state = None, None, 0, State.DISCONNECT

    def _energy_step(self, mt: MobileTerminal) -> None:
        if mt.state == State.DISCONNECT:
            return
        eps = self.cfg.epsilon
        bs = self.stations[mt.serving]
        ew = math.hypot(mt.x - bs.x, mt.y - bs.y) / bs.radius + eps
        if mt.state == State.HANDOVER:
            bt = self.stations[mt.target]
            ew += math.hypot(mt.x - bt.x, mt.y - bt.y) / bt.radius + eps
        mt.energy = max(0.0, mt.energy - ew)


def reference_advance(mt: MobileTerminal, t_now: int, arena: tuple[float, float],
                      eq2_verbatim: bool = False) -> None:
    """Move one terminal by one unit, reflecting specularly off arena walls."""
    if mt.plan.kind == "steady":
        step = mt.plan.speed * 1.0
        mt.speed = mt.plan.speed
    else:
        a = mt.plan.accel
        x1, v = accelerated_state(a, t_now, verbatim=eq2_verbatim)
        x0, _ = accelerated_state(a, t_now - 1.0)
        step = x1 - x0
        mt.speed = v
    if step == 0.0:
        return
    cos_h, sin_h = math.cos(mt.heading), math.sin(mt.heading)
    nx, sx = _fold(mt.x + step * cos_h, 0.0, arena[0])
    ny, sy = _fold(mt.y + step * sin_h, 0.0, arena[1])
    mt.x, mt.y = nx, ny
    mt.odometer += step
    if sx < 0 or sy < 0:
        mt.heading = math.atan2(sy * sin_h, sx * cos_h)


def reference_ratio(x: float, y: float, bs: ReferenceStation) -> float:
    """Coverage depth: the boundary distance over the radius, 0 outside coverage."""
    return max((bs.radius - math.hypot(x - bs.x, y - bs.y)) / bs.radius, 0.0)


def reference_target(x: float, y: float, stations, exclude: Optional[int] = None,
                     require_channel: bool = True) -> Optional[ReferenceStation]:
    """Covering station with the deepest normalized coverage, optionally
    with a free channel; ties resolve to the lowest station id."""
    best, best_dn = None, 0.0
    for bs in stations:
        if bs.ident == exclude:
            continue
        d = bs.radius - math.hypot(x - bs.x, y - bs.y)
        if d <= 0.0 or (require_channel and bs.occupied >= bs.capacity):
            continue
        dn = distance_norm(d / bs.radius)
        if dn > best_dn:
            best, best_dn = bs, dn
    return best


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
