"""Discrete-time world model: station geometry, terminal kinematics,
energy accounting, and the connect/handover/disconnect state machine.

A world keeps its terminals as arrays.  A step moves them and measures
every terminal-station distance at once, runs the state machine terminal
by terminal (update order is part of determinism), then charges energy.
Distinct instances are independent and can run in parallel.  Each step
emits an immutable record of the arrays a replay reads, the substrate for
consequent evolution; nothing keeps records beyond the history window.
``ConservationAudit`` checks a world's channels and energies as it steps.
"""

from __future__ import annotations

import copy
import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import IntEnum
from typing import NamedTuple, Optional

import numpy as np

from .fuzzy import _ABOVE_TH, _BELOW_MIN, _MID

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
    "UnitRecord",
    "HistoryWindow",
    "FrozenWindow",
    "World",
    "acceleration_for",
    "accelerated_state",
    "ConservationAudit",
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


_INT_FIELDS = frozenset({"state", "serving", "target", "dwell"})


@dataclass(frozen=True, eq=False)
class UnitRecord:
    """One time unit of M terminals and S stations, in read-only arrays:
    what a replay of the unit reads.

    Per terminal (M,), at its decision point: ``velocity``, and the
    pre-transition ``state``, ``serving`` and ``target`` (-1 when unset)
    and ``dwell``.  Per pair (M, S): ``ratio``, the signed boundary
    distance over the radius (negative outside coverage), and ``chan``,
    the free-channel fraction the terminal saw just before its own
    transition.  Windows and replay caches share records, so the arrays
    are copied in and cannot be written.
    """

    t: int
    velocity: np.ndarray
    ratio: np.ndarray
    chan: np.ndarray
    state: np.ndarray
    serving: np.ndarray
    target: np.ndarray
    dwell: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self)[1:]:
            a = np.array(getattr(self, f.name), dtype=np.int64 if f.name in _INT_FIELDS else float)
            a.setflags(write=False)
            object.__setattr__(self, f.name, a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnitRecord):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    def __reduce__(self):
        # Through the constructor, so unpickled arrays are read-only too.
        return UnitRecord, tuple(getattr(self, f.name) for f in fields(self))


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
    square = duration * duration
    a = 2.0 * distance / square if square > 0.0 else math.inf
    if not math.isfinite(a):
        raise DomainError(f"acceleration for distance {distance} over duration {duration} "
                          "is not finite")
    return a


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


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``math.hypot`` elementwise.  ``np.hypot`` rounds about 0.6% of
    arena-scale pairs differently, which would change event logs."""
    pairs = map(math.hypot, x.ravel().tolist(), y.ravel().tolist())
    return np.fromiter(pairs, float, x.size).reshape(x.shape)


# A decision table row holds every occupancy of a station of capacity under this,
# else a window of this many around the occupancy at the start of the unit.
_LEVELS = 16
# Plain-int states: lists and numpy arrays compare with them faster than with IntEnums.
_CONNECT, _HANDOVER, _DISCONNECT = int(State.CONNECT), int(State.HANDOVER), int(State.DISCONNECT)
# Terminal fields a World keeps as float arrays and as int lists (-1 for None).
_FLOAT_COLUMNS = ("x", "y", "heading", "speed", "energy", "odometer")
_INT_COLUMNS = ("state", "serving", "target", "dwell")


class _Terminals(Sequence):
    """Read-only view of a world's terminals: ``len`` builds nothing and
    item ``m`` is ``World.terminal(m)``."""

    __slots__ = ("_world",)

    def __init__(self, world: "World") -> None:
        self._world = world

    def __len__(self) -> int:
        return len(self._world._ids)

    def __getitem__(self, m: int) -> MobileTerminal:
        return self._world.terminal(range(len(self))[m])


class World:
    """Mutable simulation state stepped one time unit at a time.  Terminal
    ``m`` is column ``m`` of float arrays (position, heading with its cached
    cosine and sine, speed, energy, odometer) and of the int lists the state
    machine walks (state, serving, target, dwell); ``mts`` views them."""

    def __init__(self, cfg: WorldConfig, stations: Sequence[BaseStation],
                 terminals: Sequence[MobileTerminal]) -> None:
        if not stations:
            raise DomainError("a world needs at least one station")
        self.cfg = cfg
        self.stations = list(stations)
        self.t = 0
        self.events: list[Event] = []
        self.connected_units = 0  # MT-units spent connected or in handover
        self._ids = [mt.ident for mt in terminals]
        self._plans = [mt.plan for mt in terminals]
        for name in _FLOAT_COLUMNS:
            setattr(self, "_" + name, np.array([getattr(mt, name) for mt in terminals], float))
        for name in _INT_COLUMNS:
            setattr(self, "_" + name, [-1 if getattr(mt, name) is None else int(getattr(mt, name))
                                       for mt in terminals])
        self._cos = np.array([math.cos(h) for h in self._heading.tolist()])
        self._sin = np.array([math.sin(h) for h in self._heading.tolist()])
        self._accelerated = np.array([p.kind != "steady" for p in self._plans], bool)
        self._accel = np.array([p.accel if p.kind != "steady" else 0.0 for p in self._plans])
        self._plan_speed = np.array([p.speed for p in self._plans], float)
        self._bx, self._by, self._radius = (
            np.array([getattr(bs, k) for bs in self.stations], float) for k in ("x", "y", "radius"))

    @property
    def mts(self) -> Sequence[MobileTerminal]:
        return _Terminals(self)

    def terminal(self, m: int) -> MobileTerminal:
        """A detached copy of terminal ``m`` as it stands."""
        sv, tg = self._serving[m], self._target[m]
        return MobileTerminal(
            self._ids[m], float(self._x[m]), float(self._y[m]), float(self._heading[m]),
            self._plans[m], float(self._speed[m]), float(self._energy[m]),
            State(self._state[m]), None if sv < 0 else sv, None if tg < 0 else tg,
            self._dwell[m], float(self._odometer[m]))

    @classmethod
    def build(cls, cfg: WorldConfig, rng: Optional[np.random.Generator] = None) -> "World":
        if cfg.dwell < 1:
            raise DomainError(f"dwell must be >= 1, got {cfg.dwell}")
        stations = [BaseStation(i, s.x, s.y, s.radius, s.capacity)
                    for i, s in enumerate(cfg.stations)]
        if cfg.terminals is not None:
            terminals = [cls._terminal_from_spec(i, spec, cfg)
                         for i, spec in enumerate(cfg.terminals)]
        else:
            if rng is None:
                raise DomainError("randomized terminal placement needs an rng")
            terminals = [cls._random_terminal(i, cfg, rng) for i in range(cfg.mt_count)]
        return cls(cfg, stations, terminals)

    @staticmethod
    def _terminal_from_spec(ident: int, spec: TerminalSpec, cfg: WorldConfig) -> MobileTerminal:
        plan = (MotionPlan.steady(spec.speed) if spec.kind == "steady"
                else MotionPlan.accelerated(spec.distance, spec.duration))
        return MobileTerminal(ident, spec.x, spec.y, spec.heading, plan, energy=cfg.initial_energy)

    @staticmethod
    def _random_terminal(ident: int, cfg: WorldConfig, rng: np.random.Generator) -> MobileTerminal:
        x = rng.uniform(0.0, cfg.arena_width)
        y = rng.uniform(0.0, cfg.arena_height)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        if rng.random() < cfg.accelerated_fraction:
            dx = rng.uniform(*cfg.accel_distance_range)
            duration = cfg.total_time if cfg.accel_duration is None else cfg.accel_duration
            plan = MotionPlan.accelerated(dx, duration)
        else:
            plan = MotionPlan.steady(rng.uniform(*cfg.steady_speed_range))
        return MobileTerminal(ident, x, y, heading, plan, energy=cfg.initial_energy)

    def clone_state(self) -> "World":
        """Independent copy with a fresh event log (for replay checkpoints)."""
        w = copy.copy(self)
        w.stations = [copy.copy(bs) for bs in self.stations]
        w.events = []
        for name in _FLOAT_COLUMNS + _INT_COLUMNS + ("cos", "sin"):
            setattr(w, "_" + name, copy.copy(getattr(self, "_" + name)))
        return w

    def _move(self, t: int) -> None:
        """Move every terminal one step along its plan, reflecting
        specularly off the arena walls."""
        a, acc = self._accel, self._accelerated
        self._speed = np.where(acc, np.sqrt(2.0 * a * t) if self.cfg.eq2_verbatim else a * t,
                               self._plan_speed)
        step = np.where(acc, 0.5 * a * t * t - 0.5 * a * (t - 1.0) * (t - 1.0), self._plan_speed)
        moving = step != 0.0
        px = self._x + step * self._cos
        py = self._y + step * self._sin
        width, height = self.cfg.arena_width, self.cfg.arena_height
        # Inside the arena, _fold(p, 0.0, extent) is (0.0 + p, 1.0).
        self._x = np.where(moving, px + 0.0, self._x)
        self._y = np.where(moving, py + 0.0, self._y)
        self._odometer = np.where(moving, self._odometer + step, self._odometer)
        out = moving & ~((px >= 0.0) & (px <= width) & (py >= 0.0) & (py <= height))
        for m in np.flatnonzero(out).tolist():
            self._x[m], sx = _fold(float(px[m]), 0.0, width)
            self._y[m], sy = _fold(float(py[m]), 0.0, height)
            if sx < 0 or sy < 0:
                h = math.atan2(sy * float(self._sin[m]), sx * float(self._cos[m]))
                self._heading[m], self._cos[m], self._sin[m] = h, math.cos(h), math.sin(h)

    def step(self, policy) -> UnitRecord:
        """Advance one time unit under ``policy``: anything whose ``regions(velocity,
        dist_norm, chan_norm, s_min, s_th)`` gives the region codes (``fuzzy.region_codes``)
        of its value per row at each channel input (NaN above the row's capacity: unread)."""
        self.t += 1
        t, cfg = self.t, self.cfg
        self._move(t)
        dist = _hypot(self._x[:, None] - self._bx, self._y[:, None] - self._by)
        ratio = (self._radius - dist) / self._radius
        # Coverage depth (-1 outside) and the deepest covering station (lowest id on ties).
        score = np.where(ratio > 0.0, np.minimum(ratio, 1.0), -1.0)
        cand = np.where(score.max(axis=1) > 0.0, score.argmax(axis=1), -1)
        state, serving, target, dwell = self._state, self._serving, self._target, self._dwell
        before = [np.array(col, dtype=np.int64) for col in (state, serving, target, dwell)]
        # A terminal reads its own row only: the ratio of its serving station
        # (held since the unit began) or of its candidate.
        rows = np.arange(len(serving))
        own = ratio[rows, before[1]]
        occupied = [bs.occupied for bs in self.stations]
        capacity = [bs.capacity for bs in self.stations]
        held, cap = np.array(occupied, dtype=np.int64), np.array(capacity, dtype=np.int64)
        # Deciding terminals (connected in cell, or disconnected under a
        # candidate) have fixed inputs but for the channel one, which follows
        # the occupancy at their turn: a table row holds its levels (_LEVELS).
        conn = (before[0] == _CONNECT) & (own > 0.0)
        deciding = np.flatnonzero(conn | ((before[0] == _DISCONNECT) & (cand >= 0)))
        at = np.where(conn, before[1], cand)[deciding]
        room, width = cap[at, None], min(max(capacity) + 1, _LEVELS)
        base = np.clip(held[at, None] - width // 2, 0, np.maximum(room + 1 - width, 0))
        level = base + np.arange(width)
        chan_in = np.where(level <= room, (room - level) / room, np.nan)
        speed = self._speed[deciding]
        dn = np.minimum(np.maximum(np.where(conn, own, ratio[rows, cand]), 0.0), 1.0)[deciding]
        table = iter(zip(policy.regions(speed, dn, chan_in, cfg.s_min, cfg.s_th).tolist(),
                         base[:, 0].tolist(), range(len(deciding))))
        own, cand = own.tolist(), cand.tolist()
        changes: list[tuple[int, int, int]] = []  # (terminal, station, +1 or -1)
        ids, events = self._ids, self.events

        def hold(m: int, s: int, d: int) -> None:
            occupied[s] += d
            changes.append((m, s, d))

        def region(s: int) -> int:
            o, (row, lo, r) = occupied[s], next(table)
            if not 0 <= o <= capacity[s]:
                raise RuntimeError(f"channel accounting broken at station {s}: "
                                   f"occupied={o}, capacity={capacity[s]}")
            if not lo <= o < lo + len(row):  # outside the row's window: ask for this level
                row, lo = policy.regions(speed[r:r + 1], dn[r:r + 1], np.array(
                    [[(capacity[s] - o) / capacity[s]]]), cfg.s_min, cfg.s_th).tolist()[0], o
            return row[o - lo]

        def cut(m: int) -> None:
            sv, tg = serving[m], target[m]
            hold(m, sv, -1)
            if tg >= 0:
                hold(m, tg, -1)
            events.append(Event(t, ids[m], CONNECTION_CUT, sv, None if tg < 0 else tg))
            state[m], serving[m], target[m], dwell[m] = _DISCONNECT, -1, -1, 0

        for m in range(len(ids)):
            st, sv = state[m], serving[m]
            if st != _DISCONNECT and own[m] <= 0.0:
                # Out of the serving cell: forced cut, whatever the fuzzy value.
                cut(m)
            elif st == _CONNECT:
                r = region(sv)
                if r == _BELOW_MIN:
                    cut(m)
                elif r != _ABOVE_TH:
                    # Target: the deepest other covering station with a free channel.
                    depth = score[m].tolist()
                    free = [s for s, d in enumerate(depth)
                            if d > 0.0 and s != sv and occupied[s] < capacity[s]]
                    tg = max(free, key=depth.__getitem__, default=-1)
                    if tg >= 0:
                        hold(m, tg, 1)
                        state[m], target[m], dwell[m] = _HANDOVER, tg, cfg.dwell
                        events.append(Event(t, ids[m], HANDOFF_INITIATED, sv, tg))
            elif st == _HANDOVER:
                dwell[m] -= 1
                if dwell[m] == 0:
                    hold(m, sv, -1)
                    state[m], serving[m], target[m] = _CONNECT, target[m], -1
                    events.append(Event(t, ids[m], HANDOFF_COMPLETED, sv, serving[m]))
            elif cand[m] >= 0 and region(cand[m]) >= _MID:
                # Disconnected, a value above s_min for the deepest covering
                # station: connect, or without a free channel, a blocked attempt.
                c = cand[m]
                if occupied[c] < capacity[c]:
                    hold(m, c, 1)
                    state[m], serving[m] = _CONNECT, c
                    events.append(Event(t, ids[m], CONNECTED, None, c))
                else:
                    events.append(Event(t, ids[m], BLOCKED, None, c))
        for bs, n in zip(self.stations, occupied):
            bs.occupied = n

        # Channels each terminal saw: the start plus the changes made before its turn.
        delta = np.zeros(ratio.shape, dtype=np.int64)
        if changes:
            np.add.at(delta, tuple(zip(*changes))[:2], [d for _, _, d in changes])
        chan = (cap - (held + np.cumsum(delta, axis=0) - delta)) / cap

        # Energy: d/r + epsilon per held station, floored at zero.
        st, sv, tg = (np.array(col, dtype=np.int64) for col in (state, serving, target))
        spent = dist[rows, sv] / self._radius[sv] + cfg.epsilon
        spent = np.where(st == _HANDOVER,
                         spent + (dist[rows, tg] / self._radius[tg] + cfg.epsilon), spent)
        left = self._energy - spent
        self._energy = np.where(st == _DISCONNECT, self._energy, np.where(left > 0.0, left, 0.0))
        self.connected_units += int(np.count_nonzero(st != _DISCONNECT))
        return UnitRecord(t, self._speed, ratio, chan, *before)

    def verify_channels(self) -> None:
        """Raise if occupied counts drift from the serving/target census."""
        census = np.bincount([s for s in self._serving + self._target if s >= 0],
                             minlength=len(self.stations)).tolist()
        for bs, n in zip(self.stations, census):
            if bs.occupied != n or not 0 <= bs.occupied <= bs.capacity:
                raise RuntimeError(f"channel accounting broken at station {bs.ident}: "
                                   f"occupied={bs.occupied}, census={n}")


class ConservationAudit:
    """Streaming conservation audit of a world: call :meth:`unit` after each
    step.  Independent of the world's live counters, it rebuilds each
    terminal's held stations (serving, then target) from the new events and
    recomputes its energy from them and the current positions.  It checks
    each station's occupancy against that census and its capacity, and each
    energy against the recomputation (within ``tol``) and its last value.
    State is O(terminals + stations), from the world as it stands when built.
    """

    def __init__(self, world: World, tol: float = 1e-9) -> None:
        self.tol = tol
        self._t, self._seen = world.t, len(world.events)
        self._column = {ident: m for m, ident in enumerate(world._ids)}
        self._held = np.array([world._serving, world._target], dtype=np.int64).reshape(2, -1)
        self._energy, self._last = world._energy.copy(), world._energy.copy()
        self._cap = np.array([bs.capacity for bs in world.stations])

    def unit(self, world: World) -> None:
        """Check the world after its next step."""
        t, held = world.t, self._held
        if t != self._t + 1:
            raise ValueError(f"audit of t={self._t} fed t={t}: feed it after every step")
        self._t = t
        for ev in world.events[self._seen:]:
            m = self._column[ev.mt_id]
            if ev.kind == HANDOFF_INITIATED:
                held[:, m] = ev.old_bs, ev.new_bs
            elif ev.kind in (CONNECTED, HANDOFF_COMPLETED):
                held[:, m] = ev.new_bs, -1
            elif ev.kind == CONNECTION_CUT:
                held[:, m] = -1
        self._seen = len(world.events)

        census = np.bincount(held[held >= 0], minlength=len(self._cap))
        occ = np.array([bs.occupied for bs in world.stations])
        for s in np.flatnonzero((occ != census) | (occ < 0) | (occ > self._cap)).tolist():
            raise AssertionError(f"t={t} station {s}: occupied {occ[s]}, "
                                 f"event census {census[s]}, capacity {self._cap[s]}")

        spent = np.zeros(len(self._energy))
        for row in held:  # serving, then target: the step's order of terms
            on = np.flatnonzero(row >= 0)
            s = row[on]
            d = np.hypot(world._x[on] - world._bx[s], world._y[on] - world._by[s])
            spent[on] += d / world._radius[s] + world.cfg.epsilon
        self._energy = np.maximum(self._energy - spent, 0.0)
        now = world._energy
        for m in np.flatnonzero(now > self._last).tolist():
            raise AssertionError(f"t={t} mt={world._ids[m]}: energy rose from {self._last[m]} to {now[m]}")
        for m in np.flatnonzero(~(np.abs(self._energy - now) <= self.tol)).tolist():
            raise AssertionError(f"t={t} mt={world._ids[m]}: recomputed energy {self._energy[m]} "
                                 f"!= world's {now[m]}")
        self._last = now.copy()


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
            raise AssertionError(f"mt={mt.ident}: traversed {mt.odometer}, expected {expected}")
