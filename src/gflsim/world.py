"""Discrete-time world model: station geometry, terminal kinematics,
energy accounting, and the connect/handover/disconnect state machine.

A world keeps its terminals as arrays.  A step moves them and measures
every terminal-station distance at once, exactly (``math.hypot``) wherever
coverage, a decision or the energy reads it, runs the state machine terminal
by terminal (update order is part of determinism), then charges energy.
Distinct instances are independent and can run in parallel.  Each step
emits an immutable record of the arrays a replay reads, the substrate for
consequent evolution; only an evolving policy keeps records, its last few.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import IntEnum
from typing import NamedTuple, Optional

import numpy as np

from .fuzzy import _ABOVE_TH, _BELOW_MIN, _MID
from .schema import ConfigError, check_fields

__all__ = [
    "DomainError",
    "State",
    "HANDOFF_INITIATED",
    "HANDOFF_COMPLETED",
    "CONNECTION_CUT",
    "CONNECTED",
    "BLOCKED",
    "Event",
    "EVENT_KINDS",
    "EventLog",
    "StationSpec",
    "TerminalSpec",
    "MobileTerminal",
    "WorldConfig",
    "UnitRecord",
    "World",
    "acceleration_for",
    "accelerated_state",
    "DEFAULT_STATIONS",
]


class DomainError(ValueError):
    """An argument is outside the physical domain of the operation."""


class State(IntEnum):
    DISCONNECT = 0
    CONNECT = 1
    HANDOVER = 2


# Event kinds, in the order of the codes an ``EventLog`` row holds.
EVENT_KINDS = (HANDOFF_INITIATED, HANDOFF_COMPLETED, CONNECTION_CUT, CONNECTED, BLOCKED) = (
    "HandoffInitiated", "HandoffCompleted", "ConnectionCut", "Connected", "Blocked")
_INITIATED, _COMPLETED, _CUT, _CONNECTED, _BLOCKED = range(len(EVENT_KINDS))


class Event(NamedTuple):
    t: int
    mt_id: int
    kind: str
    old_bs: Optional[int]
    new_bs: Optional[int]


class EventLog(Sequence):
    """A read-only event log: per unit with events, its time and an ``array('q')`` of rows
    ``(terminal, kind code, old station, new station)`` end to end, -1 for no station and
    the code an index of ``EVENT_KINDS``.  Items are :class:`Event` rows, made on each
    read, and the log equals a list or tuple of the same rows."""

    __slots__ = ("_units",)

    def __init__(self, units=()) -> None:
        self._units = list(units)  # (t, rows); ``World.step`` appends its unit's

    def __len__(self) -> int:
        return sum(len(rows) for _, rows in self._units) // 4

    def __iter__(self):
        for t, rows in self._units:
            it = iter(rows)
            for m, k, o, n in zip(it, it, it, it):
                yield Event(t, m, EVENT_KINDS[k], None if o < 0 else o, None if n < 0 else n)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        i = range(len(self))[i]  # an IndexError past either end
        for t, rows in self._units:
            if i < len(rows) // 4:
                return next(iter(EventLog([(t, rows[4 * i:4 * i + 4])])))
            i -= len(rows) // 4

    def __eq__(self, other) -> bool:
        if not isinstance(other, (EventLog, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"EventLog({list(self)!r})"

    def kind_count(self, kind: str) -> int:
        """Events of ``kind``, counted in the kind column."""
        code = EVENT_KINDS.index(kind)
        return sum(rows[1::4].count(code) for _, rows in self._units)

    def __getstate__(self) -> array:
        # One array of the blocks, each led by its time and row count, in the narrowest
        # int type that holds them (no value is below -1).
        flat = array("q")
        for t, rows in self._units:
            flat += array("q", (t, len(rows) // 4)) + rows
        top = max(flat, default=0)
        return array(next(c for c in "bhiq" if top < 1 << 8 * array(c).itemsize - 1), flat)

    def __setstate__(self, flat: array) -> None:
        self._units, i = [], 0
        while i < len(flat):
            t, n = flat[i], 4 * flat[i + 1]
            self._units.append((t, array("q", flat[i + 2:i + 2 + n])))
            i += 2 + n


@dataclass(frozen=True)
class StationSpec:
    center: tuple[float, float]
    radius: float
    capacity: int

    def __post_init__(self) -> None:
        check_fields(self, "world", "stations")


@dataclass(frozen=True)
class TerminalSpec:
    """Explicit terminal placement, overriding randomized initialization."""

    position: tuple[float, float]
    heading: float = 0.0
    kind: str = "steady"       # "steady" | "accelerated"
    speed: float = 10.0        # steady plans
    distance: float = 3000.0   # accelerated plans: total path length
    duration: float = 75.0     # accelerated plans: total time units

    def __post_init__(self) -> None:
        check_fields(self, "world", "terminals")


# Station table for the shipped seven-cell scenario: (center, radius, capacity).
DEFAULT_STATIONS: tuple[StationSpec, ...] = (
    StationSpec((2598.0, 500.0), 1400.0, 6),
    StationSpec((866.0, 500.0), 1000.0, 4),
    StationSpec((3464.0, 2000.0), 1200.0, 5),
    StationSpec((1732.0, 2000.0), 800.0, 3),
    StationSpec((1.0, 2000.0), 900.0, 3),
    StationSpec((2598.0, 3500.0), 600.0, 2),
    StationSpec((866.0, 3500.0), 1300.0, 5),
)


class MobileTerminal(NamedTuple):
    """Terminal ``ident`` as it stands, read from the world's columns: pose, instantaneous
    ``velocity``, energy, the state machine (None for no station), the path length so far,
    and its plan as :class:`TerminalSpec` gives it, 0.0 in a field its kind does not read."""

    ident: int
    x: float
    y: float
    heading: float
    velocity: float
    energy: float
    state: State
    serving: Optional[int]
    target: Optional[int]
    dwell: int
    odometer: float  # cumulative path length, survives wall reflections
    kind: str
    speed: float
    distance: float
    duration: float


@dataclass(frozen=True)
class WorldConfig:
    arena: tuple[float, float] = (6000.0, 6000.0)
    stations: tuple[StationSpec, ...] = DEFAULT_STATIONS
    mt_count: int = 50
    total_time: int = 75
    s_th: float = 0.45
    s_min: float = 0.20
    epsilon: float = 0.1
    dwell: int = 2
    initial_energy: float = 100.0
    eq2_verbatim: bool = False
    steady_speed: tuple[float, float] = (5.0, 30.0)
    accel_distance: tuple[float, float] = (1500.0, 4500.0)
    accelerated_fraction: float = 0.5
    accel_duration: Optional[float] = None  # defaults to total_time
    terminals: Optional[tuple[TerminalSpec, ...]] = None

    def __post_init__(self) -> None:
        check_fields(self, "world")
        if self.terminals is not None:  # scripted terminals are the whole population
            object.__setattr__(self, "mt_count", len(self.terminals))
        for name in ("steady_speed", "accel_distance"):
            lo, hi = getattr(self, name)
            if hi < lo:
                raise ConfigError(f"{name}: low must not exceed high")
        if not self.s_min < self.s_th:
            raise ConfigError(f"s_min: must be < s_th, got {self.s_min} and {self.s_th}")
        width, height = self.arena
        for i, st in enumerate(self.stations):
            if st.radius > max(self.arena):
                raise ConfigError(f"stations[{i}].radius: exceeds the arena extent")
            (x, y), r = st.center, st.radius
            if math.hypot(x - min(max(x, 0.0), width), y - min(max(y, 0.0), height)) >= r:
                raise ConfigError(f"stations[{i}].center: the cell of radius {r} covers no "
                                  f"point of the arena {self.arena}, got {st.center}")
        # One unit's largest energy spend: two held stations, each less than ``reach`` radii
        # from its terminal (its cell covers a point of the arena), plus epsilon each.
        i = min(range(len(self.stations)), key=lambda i: self.stations[i].radius)
        reach = 1.0 + math.hypot(*self.arena) / self.stations[i].radius
        if not math.isfinite(2.0 * reach):
            raise ConfigError(f"stations[{i}].radius: {self.stations[i].radius} overflows "
                              f"one unit's energy spend in the arena {self.arena}")
        if not math.isfinite(2.0 * (reach + self.epsilon)):
            raise ConfigError(f"epsilon: {self.epsilon} overflows one unit's energy spend")
        if not math.isfinite(100.0 * self.initial_energy):  # the energy wastage percentage
            raise ConfigError(f"initial_energy: {self.initial_energy} overflows a percentage")
        # Every terminal-station offset is within (W + r, H + r) for the largest radius r.
        r = max(st.radius for st in self.stations)
        if not math.isfinite(math.hypot(width + r, height + r)):
            raise ConfigError(f"arena: {self.arena} with a cell of radius {r} overflows "
                              "the distance from a terminal to a station")
        if not math.isfinite(2.0 * max(self.arena)):  # a reflection folds over twice a side
            raise ConfigError(f"arena: {self.arena} overflows a reflection off its walls")
        for i, spec in enumerate(self.terminals or ()):
            if not all(0.0 <= p <= side for p, side in zip(spec.position, self.arena)):
                raise ConfigError(f"terminals[{i}].position: outside the arena {self.arena}, "
                                  f"got {spec.position}")
        # Plans keep acceleration, speed, path and a step past a wall finite over the horizon;
        # each grows with a steady speed or an accelerated distance, so the largest random
        # plan is the worst.
        plans = [("steady_speed", self.steady_speed[1], None),
                 ("accel_distance", self.accel_distance[1], self.total_time)
                 if self.accel_duration is None else
                 ("accel_duration", self.accel_distance[1], self.accel_duration)]
        plans += [(f"terminals[{i}].speed", spec.speed, None) if spec.kind == "steady" else
                  (f"terminals[{i}].duration", spec.distance, spec.duration)
                  for i, spec in enumerate(self.terminals or ())]
        horizon = self.total_time
        for path, size, duration in plans:  # duration None: a steady speed
            try:  # the plan's speed at the horizon
                v = size if duration is None else acceleration_for(size, duration) * horizon
            except DomainError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
            if not math.isfinite(v * horizon):
                raise ConfigError(f"{path}: {size} overflows the path over {horizon} time units")
            if not math.isfinite(max(self.arena) + v):  # a step is at most v
                raise ConfigError(f"{path}: {size} overflows a step off the arena {self.arena}")


_INT_FIELDS = frozenset({"state", "serving", "target", "dwell"})


@dataclass(frozen=True, eq=False)
class UnitRecord:
    """One time unit of M terminals and S stations, in read-only arrays:
    what a replay of the unit reads.

    Per terminal (M,), at its decision point: ``velocity``, and the
    pre-transition ``state``, ``serving`` and ``target`` (-1 when unset)
    and ``dwell``.  Per pair (M, S): ``ratio``, the coverage depth
    ``max((radius - distance) / radius, 0)`` (0 outside coverage), and ``chan``,
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


def acceleration_for(distance: float, duration: float) -> float:
    """Constant acceleration that covers ``distance`` in ``duration`` from rest."""
    if distance <= 0:
        raise DomainError(f"distance must be > 0, got {distance}")
    if duration <= 0:
        raise DomainError(f"duration must be > 0, got {duration}")
    square = duration * duration
    a = 2.0 * distance / square if 0.0 < square < math.inf else math.nan
    if not 0.0 < a < math.inf:
        raise DomainError(f"acceleration for distance {distance} over duration {duration} "
                          "is not finite and positive")
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


# Plain-int states: lists and numpy arrays compare with them faster than with IntEnums.
_CONNECT, _HANDOVER, _DISCONNECT = int(State.CONNECT), int(State.HANDOVER), int(State.DISCONNECT)


class _Terminals(Sequence):
    """Read-only view of a world's terminals: ``len`` builds nothing and
    item ``m`` is a :class:`MobileTerminal` row made from column ``m``."""

    __slots__ = ("_world",)

    def __init__(self, world: "World") -> None:
        self._world = world

    def __len__(self) -> int:
        return len(self._world._x)

    def __getitem__(self, m):
        if isinstance(m, slice):
            return [self[i] for i in range(len(self))[m]]
        w = self._world
        m = range(len(w._x))[m]  # the terminal's id, and an IndexError past the end
        sv, tg, size = w._serving[m], w._target[m], float(w._size[m])
        plan = (("accelerated", 0.0, size, float(w._duration[m])) if w._accelerated[m]
                else ("steady", size, 0.0, 0.0))
        return MobileTerminal(
            m, float(w._x[m]), float(w._y[m]), float(w._heading[m]), float(w._speed[m]),
            float(w._energy[m]), State(w._state[m]), None if sv < 0 else sv,
            None if tg < 0 else tg, w._dwell[m], float(w._odometer[m]), *plan)


class World:
    """Mutable simulation state stepped one time unit at a time, made by
    ``build``.  Terminal ``m`` is column ``m`` of float arrays (position,
    heading with its cached cosine and sine, speed, energy, odometer, and
    its plan's size and duration) and of the ``array('q')`` columns the state
    machine walks (state, serving, target, dwell; -1 for no station); ``mts``
    views them.  ``stations`` is the config's station tuple, ``occupied`` the
    channels each one holds, a list the step updates in place, and ``events``
    the :class:`EventLog` the step appends each unit's events to."""

    @classmethod
    def build(cls, cfg: WorldConfig, rng: Optional[np.random.Generator] = None) -> "World":
        """The world at t = 0, its terminals disconnected and at rest: the
        scripted ``cfg.terminals``, or ``cfg.mt_count`` drawn from ``rng``."""
        if cfg.terminals is not None:
            accelerated = np.array([s.kind != "steady" for s in cfg.terminals], bool)
            x, y, heading, size, duration = np.array(
                [(*s.position, s.heading, s.speed if s.kind == "steady" else s.distance,
                  s.duration) for s in cfg.terminals], float).reshape(-1, 5).T.copy()
        else:
            if rng is None:
                raise DomainError("randomized terminal placement needs an rng")
            # Five draws per terminal, in order: x, y, heading, plan kind and plan size, each
            # ``lo + (hi - lo) * u`` from its word ``u``, as the scalar ``Generator.uniform``.
            u = rng.random((cfg.mt_count, 5))
            accelerated = u[:, 3] < cfg.accelerated_fraction
            lo, hi = np.where(accelerated, np.array([cfg.accel_distance]).T,
                              np.array([cfg.steady_speed]).T)
            x, y = cfg.arena[0] * u[:, 0], cfg.arena[1] * u[:, 1]
            heading, size = 2.0 * math.pi * u[:, 2], lo + (hi - lo) * u[:, 4]
            duration = np.full(cfg.mt_count, float(
                cfg.total_time if cfg.accel_duration is None else cfg.accel_duration))
        world, m = cls.__new__(cls), len(x)
        world.cfg, world.t, world.events = cfg, 0, EventLog()
        world.connected_units = 0  # MT-units spent connected or in handover
        world.stations, world.occupied = cfg.stations, [0] * len(cfg.stations)
        world._capacity = [s.capacity for s in cfg.stations]
        world._bx, world._by = np.array([s.center for s in cfg.stations], float).T
        world._radius = np.array([s.radius for s in cfg.stations], float)
        world._x, world._y, world._heading = x, y, heading
        world._cos = np.array([math.cos(h) for h in heading.tolist()])
        world._sin = np.array([math.sin(h) for h in heading.tolist()])
        world._speed, world._odometer = np.zeros(m), np.zeros(m)
        world._energy = np.full(m, cfg.initial_energy)
        world._state, world._dwell = array("q", [_DISCONNECT]) * m, array("q", [0]) * m
        world._serving, world._target = array("q", [-1]) * m, array("q", [-1]) * m
        # A plan's size is its speed if steady, else its distance; only an accelerated plan
        # reads its duration.  The acceleration is ``acceleration_for``'s, elementwise.
        world._accelerated, world._size, world._duration = accelerated, size, duration
        world._accel = np.zeros(m)
        d = duration[accelerated]
        world._accel[accelerated] = 2.0 * size[accelerated] / (d * d)
        return world

    @property
    def mts(self) -> Sequence[MobileTerminal]:
        return _Terminals(self)

    def _move(self, t: int) -> None:
        """Move every terminal one step along its plan, reflecting
        specularly off the arena walls."""
        a, acc = self._accel, self._accelerated
        self._speed = np.where(acc, np.sqrt(2.0 * a * t) if self.cfg.eq2_verbatim else a * t,
                               self._size)
        step = np.where(acc, 0.5 * a * t * t - 0.5 * a * (t - 1.0) * (t - 1.0), self._size)
        moving = step != 0.0
        px = self._x + step * self._cos
        py = self._y + step * self._sin
        width, height = self.cfg.arena
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
        """Advance one time unit under ``policy``: anything whose ``table(velocity, dist_norm,
        chan_norm, cfg)`` over deciding terminals, at the unit's start occupancy and with the
        world's config (its ``s_min``, ``s_th`` and ``dwell``), gives ``(codes, reread)``: each
        row's region code (``fuzzy.region_codes``) there, and ``reread(row, chan)``, a row's
        code at channel input ``chan``.  Each row is read once, in terminal order: from
        ``codes`` if its station holds the occupancy it held at the unit's start, else through
        ``reread`` at the channel input of its turn."""
        self.t += 1
        t, cfg = self.t, self.cfg
        self._move(t)
        state, serving, target, dwell = self._state, self._serving, self._target, self._dwell
        before = [np.frombuffer(col, np.int64).copy() for col in (state, serving, target, dwell)]
        # ``math.hypot`` wherever a distance is read: at or inside a cell, and to a handover's
        # held target (a terminal its serving station does not cover is cut).  ``np.hypot``
        # rounds 0.6% of pairs differently, within an ulp: beyond the band both are outside.
        dx, dy = self._x[:, None] - self._bx, self._y[:, None] - self._by
        dist, rows = np.hypot(dx, dy), np.arange(len(dx))
        exact = dist <= self._radius * (1.0 + 2.0**-40)
        exact[rows, before[2]] |= before[2] >= 0
        dist[exact] = np.fromiter(map(math.hypot, dx[exact].tolist(), dy[exact].tolist()), float)
        # Coverage depth, 0 outside, and the deepest covering station (lowest id on ties).
        ratio = np.maximum((self._radius - dist) / self._radius, 0.0)
        best = ratio.argmax(axis=1)
        cand = np.where(ratio[rows, best] > 0.0, best, -1)
        # A terminal reads its own row only: the depth of its serving station
        # (held since the unit began) or of its candidate.
        own = ratio[rows, before[1]]
        occupied, capacity = self.occupied, self._capacity
        changes: list[tuple[int, int, int]] = []  # (terminal, station, +1 or -1)

        def check(s: int) -> None:
            if not 0 <= occupied[s] <= capacity[s]:
                raise RuntimeError(f"channel accounting broken at station {s}: "
                                   f"occupied={occupied[s]}, capacity={capacity[s]}")

        for s in range(len(occupied)):
            check(s)
        start = occupied[:]
        held, cap = np.array(start, dtype=np.int64), np.array(capacity, dtype=np.int64)
        # Deciding terminals (connected in cell, or disconnected under a
        # candidate) have fixed inputs but for the channel one, which follows
        # the occupancy at their turn; the table starts from the unit's.
        conn = (before[0] == _CONNECT) & (own > 0.0)
        deciding = np.flatnonzero(conn | ((before[0] == _DISCONNECT) & (cand >= 0)))
        at = np.where(conn, before[1], cand)[deciding]
        dn = np.where(conn, own, ratio[rows, cand])[deciding]
        codes, reread = policy.table(self._speed[deciding], dn, (cap[at] - held[at]) / cap[at],
                                     cfg)
        # Only a terminal that holds a station or has a candidate acts.
        acting = np.flatnonzero((before[0] != _DISCONNECT) | (cand >= 0))
        turns = zip(acting.tolist(), *(a[acting].tolist() for a in (*before[:2], cand, own)))
        log = array("q")  # one (terminal, kind code, old, new) row per event

        def hold(m: int, s: int, d: int) -> None:
            occupied[s] += d
            changes.append((m, s, d))
            check(s)

        def cut(m: int) -> None:
            sv, tg = serving[m], target[m]
            hold(m, sv, -1)
            if tg >= 0:
                hold(m, tg, -1)
            log.extend((m, _CUT, sv, tg))
            state[m], serving[m], target[m], dwell[m] = _DISCONNECT, -1, -1, 0

        i = -1  # the table row of the last deciding turn
        for m, st, sv, c, inside in turns:
            if st == _DISCONNECT:
                # Under a candidate, a value above s_min: connect, or without
                # a free channel, a blocked attempt.
                i, o = i + 1, occupied[c]
                if (codes[i] if o == start[c] else
                        reread(i, (capacity[c] - o) / capacity[c])) >= _MID:
                    if o < capacity[c]:
                        hold(m, c, 1)
                        state[m], serving[m] = _CONNECT, c
                        log.extend((m, _CONNECTED, -1, c))
                    else:
                        log.extend((m, _BLOCKED, -1, c))
            elif inside <= 0.0:
                # Out of the serving cell: forced cut, whatever the fuzzy value.
                cut(m)
            elif st == _CONNECT:
                i, o = i + 1, occupied[sv]
                r = codes[i] if o == start[sv] else reread(i, (capacity[sv] - o) / capacity[sv])
                if r == _BELOW_MIN:
                    cut(m)
                elif r != _ABOVE_TH:
                    # Target: the deepest other covering station with a free channel.
                    depth = ratio[m].tolist()
                    free = [s for s, d in enumerate(depth)
                            if d > 0.0 and s != sv and occupied[s] < capacity[s]]
                    tg = max(free, key=depth.__getitem__, default=-1)
                    if tg >= 0:
                        hold(m, tg, 1)
                        state[m], target[m], dwell[m] = _HANDOVER, tg, cfg.dwell
                        log.extend((m, _INITIATED, sv, tg))
            else:  # in handover
                dwell[m] -= 1
                if dwell[m] == 0:
                    hold(m, sv, -1)
                    state[m], serving[m], target[m] = _CONNECT, target[m], -1
                    log.extend((m, _COMPLETED, sv, serving[m]))
        if log:
            self.events._units.append((t, log))

        # Channels each terminal saw: the start plus the changes made before its turn.
        delta = np.zeros(ratio.shape, dtype=np.int64)
        if changes:
            np.add.at(delta, tuple(zip(*changes))[:2], [d for _, _, d in changes])
        chan = (cap - (held + np.cumsum(delta, axis=0) - delta)) / cap

        # Energy: d/r + epsilon per held station, floored at zero.
        st, sv, tg = (np.frombuffer(col, np.int64) for col in (state, serving, target))
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
        for s, (n, held, cap) in enumerate(zip(census, self.occupied, self._capacity)):
            if held != n or not 0 <= held <= cap:
                raise RuntimeError(f"channel accounting broken at station {s}: "
                                   f"occupied={held}, census={n}")
