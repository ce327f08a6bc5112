"""Discrete-time world model: station geometry, terminal kinematics,
energy accounting, and the connect/handover/disconnect state machine.

One world instance is stepped sequentially (terminal update order is part
of determinism).  Distinct instances are independent and can run in
parallel.  Each step emits an immutable per-unit record that doubles as
the replay substrate for consequent evolution and for the audit helpers
at the bottom of this module.
"""

from __future__ import annotations

import copy
import math
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "DomainError",
    "State",
    "HANDOFF_INITIATED",
    "HANDOFF_COMPLETED",
    "CONNECTION_CUT",
    "CONNECTED",
    "BLOCKED",
    "Event",
    "StationSpec",
    "TerminalSpec",
    "BaseStation",
    "MotionPlan",
    "MobileTerminal",
    "WorldConfig",
    "MtSnapshot",
    "UnitRecord",
    "HistoryWindow",
    "FrozenWindow",
    "World",
    "acceleration_for",
    "accelerated_state",
    "advance_mt",
    "distance_to_boundary",
    "boundary_ratio",
    "distance_norm",
    "select_target_bs",
    "audit_channels",
    "audit_energy",
    "audit_motion",
    "DEFAULT_STATIONS",
]


class DomainError(ValueError):
    """An argument is outside the physical domain of the operation."""


class State(IntEnum):
    DISCONNECT = 0
    CONNECT = 1
    HANDOVER = 2


HANDOFF_INITIATED = "HandoffInitiated"
HANDOFF_COMPLETED = "HandoffCompleted"
CONNECTION_CUT = "ConnectionCut"
CONNECTED = "Connected"
BLOCKED = "Blocked"


class Event(NamedTuple):
    t: int
    mt_id: int
    kind: str
    old_bs: Optional[int]
    new_bs: Optional[int]


@dataclass(frozen=True)
class StationSpec:
    x: float
    y: float
    radius: float
    capacity: int


@dataclass(frozen=True)
class TerminalSpec:
    """Explicit terminal placement, overriding randomized initialization."""

    x: float
    y: float
    heading: float
    kind: str = "steady"       # "steady" | "accelerated"
    speed: float = 10.0        # steady plans
    distance: float = 3000.0   # accelerated plans: total path length
    duration: float = 75.0     # accelerated plans: total time units


# Station table for the shipped seven-cell scenario: (x, y, radius, capacity).
DEFAULT_STATIONS: tuple[StationSpec, ...] = (
    StationSpec(2598.0, 500.0, 1400.0, 6),
    StationSpec(866.0, 500.0, 1000.0, 4),
    StationSpec(3464.0, 2000.0, 1200.0, 5),
    StationSpec(1732.0, 2000.0, 800.0, 3),
    StationSpec(1.0, 2000.0, 900.0, 3),
    StationSpec(2598.0, 3500.0, 600.0, 2),
    StationSpec(866.0, 3500.0, 1300.0, 5),
)


@dataclass
class BaseStation:
    ident: int
    x: float
    y: float
    radius: float
    capacity: int
    occupied: int = 0

    def free_norm(self) -> float:
        """Free-channel fraction in [0, 1]."""
        return (self.capacity - self.occupied) / self.capacity

    def has_free_channel(self) -> bool:
        return self.occupied < self.capacity


@dataclass(frozen=True)
class MotionPlan:
    kind: str
    speed: float = 0.0      # steady: units per time
    distance: float = 0.0   # accelerated: total path length
    duration: float = 0.0   # accelerated: total time

    @classmethod
    def steady(cls, speed: float) -> "MotionPlan":
        if speed < 0:
            raise DomainError(f"steady speed must be >= 0, got {speed}")
        return cls("steady", speed=float(speed))

    @classmethod
    def accelerated(cls, distance: float, duration: float) -> "MotionPlan":
        acceleration_for(distance, duration)  # validates
        return cls("accelerated", distance=float(distance), duration=float(duration))

    @property
    def accel(self) -> float:
        return acceleration_for(self.distance, self.duration)


@dataclass
class MobileTerminal:
    ident: int
    x: float
    y: float
    heading: float
    plan: MotionPlan
    speed: float = 0.0
    energy: float = 100.0
    state: State = State.DISCONNECT
    serving: Optional[int] = None
    target: Optional[int] = None
    dwell: int = 0
    odometer: float = 0.0  # cumulative path length, survives wall reflections


@dataclass(frozen=True)
class WorldConfig:
    arena_width: float = 6000.0
    arena_height: float = 6000.0
    stations: tuple[StationSpec, ...] = DEFAULT_STATIONS
    mt_count: int = 50
    total_time: int = 75
    s_th: float = 0.45
    s_min: float = 0.20
    epsilon: float = 0.1
    dwell: int = 2
    initial_energy: float = 100.0
    eq2_verbatim: bool = False
    steady_speed_range: tuple[float, float] = (5.0, 30.0)
    accel_distance_range: tuple[float, float] = (1500.0, 4500.0)
    accelerated_fraction: float = 0.5
    accel_duration: Optional[float] = None  # defaults to total_time
    terminals: Optional[tuple[TerminalSpec, ...]] = None


@dataclass(frozen=True)
class MtSnapshot:
    """One terminal at one time unit, captured at its decision point.

    ``dist_ratio`` holds the signed boundary distance divided by the
    station radius (negative outside coverage) and ``chan_norm`` the
    free-channel fraction per station, both as seen by this terminal just
    before its own transition.  ``state``/``serving``/``target``/``dwell``
    are the pre-transition values.
    """

    velocity: float
    x: float
    y: float
    dist_ratio: tuple[float, ...]
    chan_norm: tuple[float, ...]
    state: State
    serving: int  # -1 when unset
    target: int   # -1 when unset
    dwell: int


@dataclass(frozen=True)
class UnitRecord:
    t: int
    snapshots: tuple[MtSnapshot, ...]
    station_occupied: tuple[int, ...]  # post-unit
    energies: tuple[float, ...]        # post-unit


class FrozenWindow(NamedTuple):
    records: tuple[UnitRecord, ...]
    checkpoint: Optional["World"]


class HistoryWindow:
    """Rolling buffer of the most recent per-unit records.

    Holds exactly ``length`` records once warm; ``freeze`` returns an
    immutable view (plus the world checkpoint aligned with the oldest
    record when checkpoints are kept) for use during an evolution run.
    """

    def __init__(self, length: int = 4, keep_checkpoints: bool = False) -> None:
        if length < 1:
            raise DomainError(f"window length must be >= 1, got {length}")
        self.length = length
        self._records: deque[UnitRecord] = deque(maxlen=length)
        self._checkpoints: Optional[deque] = deque(maxlen=length) if keep_checkpoints else None

    def push(self, record: UnitRecord, checkpoint: Optional["World"] = None) -> None:
        self._records.append(record)
        if self._checkpoints is not None:
            self._checkpoints.append(checkpoint)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def warm(self) -> bool:
        return len(self._records) == self.length

    @property
    def records(self) -> tuple[UnitRecord, ...]:
        return tuple(self._records)

    def freeze(self) -> FrozenWindow:
        cp = self._checkpoints[0] if self._checkpoints else None
        return FrozenWindow(tuple(self._records), cp)


def acceleration_for(distance: float, duration: float) -> float:
    """Constant acceleration that covers ``distance`` in ``duration`` from rest."""
    if distance <= 0:
        raise DomainError(f"distance must be > 0, got {distance}")
    if duration <= 0:
        raise DomainError(f"duration must be > 0, got {duration}")
    return 2.0 * distance / (duration * duration)


def accelerated_state(a: float, t_i: float, verbatim: bool = False) -> tuple[float, float]:
    """Path position and instantaneous speed at ``t_i`` under acceleration ``a``.

    Position is always a*t^2/2.  Speed is a*t (the position derivative) by
    default; ``verbatim`` switches to sqrt(2*a*t), the as-printed variant.
    """
    if a < 0:
        raise DomainError(f"acceleration must be >= 0, got {a}")
    if t_i < 0:
        raise DomainError(f"time must be >= 0, got {t_i}")
    x_i = 0.5 * a * t_i * t_i
    v_i = math.sqrt(2.0 * a * t_i) if verbatim else a * t_i
    return x_i, v_i


def _fold(p: float, lo: float, hi: float) -> tuple[float, float]:
    """Reflect a coordinate into [lo, hi]; returns (position, direction sign)."""
    span = hi - lo
    q = (p - lo) % (2.0 * span)
    if q <= span:
        return lo + q, 1.0
    return lo + (2.0 * span - q), -1.0


def advance_mt(
    mt: MobileTerminal,
    t_now: int,
    arena: tuple[float, float],
    dt: float = 1.0,
    eq2_verbatim: bool = False,
) -> None:
    """Move one terminal by one step, reflecting specularly off arena walls."""
    if mt.plan.kind == "steady":
        step = mt.plan.speed * dt
        mt.speed = mt.plan.speed
    else:
        a = mt.plan.accel
        x1, v = accelerated_state(a, t_now, verbatim=eq2_verbatim)
        x0, _ = accelerated_state(a, t_now - dt)
        step = x1 - x0
        mt.speed = v
    if step == 0.0:
        return
    cos_h = math.cos(mt.heading)
    sin_h = math.sin(mt.heading)
    nx, sx = _fold(mt.x + step * cos_h, 0.0, arena[0])
    ny, sy = _fold(mt.y + step * sin_h, 0.0, arena[1])
    mt.x, mt.y = nx, ny
    mt.odometer += step
    if sx < 0 or sy < 0:
        mt.heading = math.atan2(sy * sin_h, sx * cos_h)


def distance_to_boundary(mt_x: float, mt_y: float, bs: BaseStation) -> float:
    """Signed distance to the coverage edge: positive inside, negative outside."""
    return bs.radius - math.hypot(mt_x - bs.x, mt_y - bs.y)


def boundary_ratio(mt_x: float, mt_y: float, bs: BaseStation) -> float:
    """Signed boundary distance scaled by the station radius."""
    return distance_to_boundary(mt_x, mt_y, bs) / bs.radius


def distance_norm(ratio: float) -> float:
    """Fuzzy distance input: the boundary ratio clamped to [0, 1]."""
    return min(max(ratio, 0.0), 1.0)


def select_target_bs(
    mt_x: float,
    mt_y: float,
    stations: Sequence[BaseStation],
    exclude: Optional[int] = None,
    require_channel: bool = True,
) -> Optional[BaseStation]:
    """Covering station with the deepest normalized coverage.

    Only stations with strictly positive boundary distance qualify;
    ``require_channel`` additionally demands a free channel (the handoff
    case).  Ties resolve to the lowest station id.
    """
    best = None
    best_dn = 0.0
    for bs in stations:
        if bs.ident == exclude:
            continue
        d = distance_to_boundary(mt_x, mt_y, bs)
        if d <= 0.0:
            continue
        if require_channel and not bs.has_free_channel():
            continue
        dn = distance_norm(d / bs.radius)
        if dn > best_dn:
            best, best_dn = bs, dn
    return best


class World:
    """Mutable simulation state stepped one time unit at a time."""

    def __init__(
        self,
        cfg: WorldConfig,
        stations: Sequence[BaseStation],
        terminals: Sequence[MobileTerminal],
    ) -> None:
        self.cfg = cfg
        self.stations = list(stations)
        self.mts = list(terminals)
        self.t = 0
        self.events: list[Event] = []
        self.connected_units = 0  # MT-units spent connected or in handover

    @classmethod
    def build(cls, cfg: WorldConfig, rng: Optional[np.random.Generator] = None) -> "World":
        stations = [
            BaseStation(i, s.x, s.y, s.radius, s.capacity)
            for i, s in enumerate(cfg.stations)
        ]
        if cfg.terminals is not None:
            terminals = [cls._terminal_from_spec(i, spec, cfg)
                         for i, spec in enumerate(cfg.terminals)]
        else:
            if rng is None:
                raise DomainError("randomized terminal placement needs an rng")
            terminals = [cls._random_terminal(i, cfg, rng) for i in range(cfg.mt_count)]
        for mt in terminals:
            mt.energy = cfg.initial_energy
        return cls(cfg, stations, terminals)

    @staticmethod
    def _terminal_from_spec(ident: int, spec: TerminalSpec, cfg: WorldConfig) -> MobileTerminal:
        if spec.kind == "steady":
            plan = MotionPlan.steady(spec.speed)
        else:
            plan = MotionPlan.accelerated(spec.distance, spec.duration)
        return MobileTerminal(ident, spec.x, spec.y, spec.heading, plan)

    @staticmethod
    def _random_terminal(ident: int, cfg: WorldConfig, rng: np.random.Generator) -> MobileTerminal:
        x = rng.uniform(0.0, cfg.arena_width)
        y = rng.uniform(0.0, cfg.arena_height)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        if rng.random() < cfg.accelerated_fraction:
            dx = rng.uniform(*cfg.accel_distance_range)
            plan = MotionPlan.accelerated(dx, cfg.accel_duration or cfg.total_time)
        else:
            plan = MotionPlan.steady(rng.uniform(*cfg.steady_speed_range))
        return MobileTerminal(ident, x, y, heading, plan)

    def clone_state(self) -> "World":
        """Independent copy with a fresh event log (for replay checkpoints)."""
        w = World(self.cfg,
                  [copy.copy(bs) for bs in self.stations],
                  [copy.copy(mt) for mt in self.mts])
        w.t = self.t
        w.connected_units = self.connected_units
        return w

    def step(self, policy) -> UnitRecord:
        """Advance one time unit under ``policy`` (anything with .decide)."""
        self.t += 1
        t = self.t
        cfg = self.cfg
        arena = (cfg.arena_width, cfg.arena_height)
        snaps = []
        for mt in self.mts:
            advance_mt(mt, t, arena, eq2_verbatim=cfg.eq2_verbatim)
            ratios = tuple(boundary_ratio(mt.x, mt.y, bs) for bs in self.stations)
            chans = tuple(bs.free_norm() for bs in self.stations)
            snaps.append(MtSnapshot(
                velocity=mt.speed, x=mt.x, y=mt.y,
                dist_ratio=ratios, chan_norm=chans,
                state=mt.state,
                serving=-1 if mt.serving is None else mt.serving,
                target=-1 if mt.target is None else mt.target,
                dwell=mt.dwell,
            ))
            self._apply_rules(mt, policy, ratios, chans, t)
            self._energy_step(mt)
            if mt.state != State.DISCONNECT:
                self.connected_units += 1
        return UnitRecord(
            t=t,
            snapshots=tuple(snaps),
            station_occupied=tuple(bs.occupied for bs in self.stations),
            energies=tuple(mt.energy for mt in self.mts),
        )

    def _apply_rules(
        self,
        mt: MobileTerminal,
        policy,
        ratios: tuple[float, ...],
        chans: tuple[float, ...],
        t: int,
    ) -> None:
        cfg = self.cfg
        if mt.state != State.DISCONNECT:
            # Out of the serving cell: forced cut, whatever the fuzzy value.
            if ratios[mt.serving] <= 0.0:
                self._cut(mt, t)
                return

        if mt.state == State.CONNECT:
            sv = mt.serving
            value = policy.decide(mt.speed, distance_norm(ratios[sv]), chans[sv])
            if value < cfg.s_min:
                self._cut(mt, t)
            elif value < cfg.s_th:
                tgt = select_target_bs(mt.x, mt.y, self.stations,
                                       exclude=sv, require_channel=True)
                if tgt is not None:
                    tgt.occupied += 1
                    mt.target = tgt.ident
                    mt.state = State.HANDOVER
                    mt.dwell = cfg.dwell
                    self.events.append(Event(t, mt.ident, HANDOFF_INITIATED, sv, tgt.ident))
            return

        if mt.state == State.HANDOVER:
            mt.dwell -= 1
            if mt.dwell == 0:
                old = mt.serving
                self.stations[old].occupied -= 1
                mt.serving = mt.target
                mt.target = None
                mt.state = State.CONNECT
                self.events.append(Event(t, mt.ident, HANDOFF_COMPLETED, old, mt.serving))
            return

        # Disconnected: try the deepest covering station, channels or not;
        # a qualifying value with no free channel is a blocked attempt.
        cand = select_target_bs(mt.x, mt.y, self.stations, require_channel=False)
        if cand is None:
            return
        value = policy.decide(mt.speed, distance_norm(ratios[cand.ident]), chans[cand.ident])
        if value > cfg.s_min:
            if cand.has_free_channel():
                cand.occupied += 1
                mt.serving = cand.ident
                mt.state = State.CONNECT
                self.events.append(Event(t, mt.ident, CONNECTED, None, cand.ident))
            else:
                self.events.append(Event(t, mt.ident, BLOCKED, None, cand.ident))

    def _cut(self, mt: MobileTerminal, t: int) -> None:
        self.stations[mt.serving].occupied -= 1
        tgt = mt.target
        if tgt is not None:
            self.stations[tgt].occupied -= 1
        self.events.append(Event(t, mt.ident, CONNECTION_CUT, mt.serving, tgt))
        mt.serving = None
        mt.target = None
        mt.dwell = 0
        mt.state = State.DISCONNECT

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

    def verify_channels(self) -> None:
        """Raise if occupied counts drift from the serving/target census."""
        counts = [0] * len(self.stations)
        for mt in self.mts:
            if mt.serving is not None:
                counts[mt.serving] += 1
            if mt.target is not None:
                counts[mt.target] += 1
        for bs in self.stations:
            if bs.occupied != counts[bs.ident] or not 0 <= bs.occupied <= bs.capacity:
                raise RuntimeError(
                    f"channel accounting broken at station {bs.ident}: "
                    f"occupied={bs.occupied}, census={counts[bs.ident]}"
                )


def _serving_sets_by_unit(
    events: Iterable[Event],
    n_mts: int,
    n_units: int,
) -> list[list[tuple[int, ...]]]:
    """Post-unit (serving, target) station sets per terminal, from events alone."""
    holding: list[tuple[Optional[int], Optional[int]]] = [(None, None)] * n_mts
    by_unit: dict[int, list[Event]] = {}
    for ev in events:
        by_unit.setdefault(ev.t, []).append(ev)
    out = []
    for t in range(1, n_units + 1):
        for ev in by_unit.get(t, ()):
            sv, tg = holding[ev.mt_id]
            if ev.kind == CONNECTED:
                holding[ev.mt_id] = (ev.new_bs, None)
            elif ev.kind == HANDOFF_INITIATED:
                holding[ev.mt_id] = (ev.old_bs, ev.new_bs)
            elif ev.kind == HANDOFF_COMPLETED:
                holding[ev.mt_id] = (ev.new_bs, None)
            elif ev.kind == CONNECTION_CUT:
                holding[ev.mt_id] = (None, None)
        out.append([tuple(s for s in pair if s is not None) for pair in holding])
    return out


def audit_channels(records: Sequence[UnitRecord], events: Sequence[Event],
                   stations: Sequence[BaseStation | StationSpec]) -> None:
    """Cross-check recorded occupancy against an event-log reconstruction."""
    caps = [s.capacity for s in stations]
    sets = _serving_sets_by_unit(events, len(records[0].snapshots), len(records))
    for rec, per_mt in zip(records, sets):
        counts = [0] * len(caps)
        for pair in per_mt:
            for s in pair:
                counts[s] += 1
        for s, (occ, n, cap) in enumerate(zip(rec.station_occupied, counts, caps)):
            if occ != n:
                raise AssertionError(
                    f"t={rec.t} station {s}: recorded occupied {occ} != log census {n}"
                )
            if not 0 <= occ <= cap:
                raise AssertionError(f"t={rec.t} station {s}: occupied {occ} not in [0,{cap}]")


def audit_energy(records: Sequence[UnitRecord], events: Sequence[Event],
                 stations: Sequence[BaseStation | StationSpec],
                 epsilon: float, initial: float = 100.0,
                 tol: float = 1e-9) -> None:
    """Recompute every energy trajectory from events plus recorded positions."""
    n_mts = len(records[0].snapshots)
    sets = _serving_sets_by_unit(events, n_mts, len(records))
    energy = [initial] * n_mts
    prev = [initial] * n_mts
    for rec, per_mt in zip(records, sets):
        for m in range(n_mts):
            snap = rec.snapshots[m]
            ew = 0.0
            for s in per_mt[m]:
                st = stations[s]
                ew += math.hypot(snap.x - st.x, snap.y - st.y) / st.radius + epsilon
            energy[m] = max(0.0, energy[m] - ew)
            if rec.energies[m] > prev[m]:
                raise AssertionError(f"t={rec.t} mt={m}: energy increased")
            if abs(energy[m] - rec.energies[m]) > tol:
                raise AssertionError(
                    f"t={rec.t} mt={m}: recomputed energy {energy[m]} != "
                    f"recorded {rec.energies[m]}"
                )
        prev = list(rec.energies)


def audit_motion(terminals: Sequence[MobileTerminal], t: int,
                 rel_tol: float = 1e-9) -> None:
    """Accelerated terminals must have traversed their planned path length.

    Per-step displacements telescope, so the odometer at time t equals
    a*t^2/2 (reflections preserve path length); over the full plan horizon
    that is the planned distance.
    """
    for mt in terminals:
        if mt.plan.kind != "accelerated":
            continue
        expected, _ = accelerated_state(mt.plan.accel, t)
        if t == mt.plan.duration:
            expected = mt.plan.distance
        if abs(mt.odometer - expected) > rel_tol * max(expected, 1.0):
            raise AssertionError(
                f"mt={mt.ident}: traversed {mt.odometer}, expected {expected}"
            )
