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
    "StationSpec",
    "TerminalSpec",
    "MotionPlan",
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


@dataclass(frozen=True)
class MotionPlan:
    kind: str
    speed: float = 0.0      # steady: units per time
    distance: float = 0.0   # accelerated: total path length
    duration: float = 0.0   # accelerated: total time

    def __post_init__(self) -> None:
        if self.kind != "steady":
            acceleration_for(self.distance, self.duration)  # validates
        elif not 0 <= self.speed < math.inf:
            raise DomainError(f"steady speed must be finite and >= 0, got {self.speed}")

    @classmethod
    def steady(cls, speed: float) -> "MotionPlan":
        return cls("steady", speed=float(speed))

    @classmethod
    def accelerated(cls, distance: float, duration: float) -> "MotionPlan":
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
        for i, st in enumerate(self.stations):
            if st.radius > max(self.arena):
                raise ConfigError(f"stations[{i}].radius: exceeds the arena extent")
        for i, spec in enumerate(self.terminals or ()):
            if not all(0.0 <= p <= side for p, side in zip(spec.position, self.arena)):
                raise ConfigError(f"terminals[{i}].position: outside the arena {self.arena}, "
                                  f"got {spec.position}")
        # Plans keep acceleration, speed and path finite over the horizon; the path grows
        # with a steady speed or an accelerated distance, so the largest random plan is the worst.
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


# Plain-int states: lists and numpy arrays compare with them faster than with IntEnums.
_CONNECT, _HANDOVER, _DISCONNECT = int(State.CONNECT), int(State.HANDOVER), int(State.DISCONNECT)


class _Terminals(Sequence):
    """Read-only view of a world's terminals: ``len`` builds nothing and
    item ``m`` is ``World.terminal(m)``."""

    __slots__ = ("_world",)

    def __init__(self, world: "World") -> None:
        self._world = world

    def __len__(self) -> int:
        return len(self._world._x)

    def __getitem__(self, m: int) -> MobileTerminal:
        return self._world.terminal(m)


class World:
    """Mutable simulation state stepped one time unit at a time, made by
    ``build``.  Terminal ``m`` is column ``m`` of float arrays (position,
    heading with its cached cosine and sine, speed, energy, odometer, and
    its plan's size and duration) and of the int lists the state machine
    walks (state, serving, target, dwell; -1 for no station); ``mts`` views
    them.  ``stations`` is the config's station tuple and ``occupied`` the
    channels each one holds, a list the step updates in place."""

    @classmethod
    def build(cls, cfg: WorldConfig, rng: Optional[np.random.Generator] = None) -> "World":
        """The world at t = 0, its terminals disconnected and at rest: the
        scripted ``cfg.terminals``, or ``cfg.mt_count`` drawn from ``rng``."""
        if not cfg.stations:
            raise DomainError("a world needs at least one station")
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
        world.cfg, world.t, world.events = cfg, 0, []
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
        world._state, world._dwell = [_DISCONNECT] * m, [0] * m
        world._serving, world._target = [-1] * m, [-1] * m
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

    def terminal(self, m: int) -> MobileTerminal:
        """A detached copy of terminal ``m`` as it stands."""
        m = range(len(self._x))[m]  # the terminal's id, and an IndexError past the end
        sv, tg, size = self._serving[m], self._target[m], float(self._size[m])
        plan = (MotionPlan.accelerated(size, self._duration[m]) if self._accelerated[m]
                else MotionPlan.steady(size))
        return MobileTerminal(
            m, float(self._x[m]), float(self._y[m]), float(self._heading[m]), plan,
            float(self._speed[m]), float(self._energy[m]), State(self._state[m]),
            None if sv < 0 else sv, None if tg < 0 else tg, self._dwell[m],
            float(self._odometer[m]))

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
        chan_norm, s_min, s_th)`` over deciding terminals, at the unit's start occupancy, gives
        ``region(row, chan)``: the region code (``fuzzy.region_codes``) of a row's value at
        channel input ``chan``.  Each row is read once, in terminal order, at its turn's input."""
        self.t += 1
        t, cfg = self.t, self.cfg
        self._move(t)
        state, serving, target, dwell = self._state, self._serving, self._target, self._dwell
        before = [np.array(col, dtype=np.int64) for col in (state, serving, target, dwell)]
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
        held, cap = np.array(occupied, dtype=np.int64), np.array(capacity, dtype=np.int64)
        # Deciding terminals (connected in cell, or disconnected under a
        # candidate) have fixed inputs but for the channel one, which follows
        # the occupancy at their turn; the table starts from the unit's.
        conn = (before[0] == _CONNECT) & (own > 0.0)
        deciding = np.flatnonzero(conn | ((before[0] == _DISCONNECT) & (cand >= 0)))
        at = np.where(conn, before[1], cand)[deciding]
        dn = np.where(conn, own, ratio[rows, cand])[deciding]
        read = policy.table(self._speed[deciding], dn, (cap[at] - held[at]) / cap[at],
                            cfg.s_min, cfg.s_th)
        turn = iter(range(len(deciding)))
        own, cand = own.tolist(), cand.tolist()
        changes: list[tuple[int, int, int]] = []  # (terminal, station, +1 or -1)
        events = self.events

        def hold(m: int, s: int, d: int) -> None:
            occupied[s] += d
            changes.append((m, s, d))

        def region(s: int) -> int:
            o, c = occupied[s], capacity[s]
            if not 0 <= o <= c:
                raise RuntimeError(f"channel accounting broken at station {s}: "
                                   f"occupied={o}, capacity={c}")
            return read(next(turn), (c - o) / c)

        def cut(m: int) -> None:
            sv, tg = serving[m], target[m]
            hold(m, sv, -1)
            if tg >= 0:
                hold(m, tg, -1)
            events.append(Event(t, m, CONNECTION_CUT, sv, None if tg < 0 else tg))
            state[m], serving[m], target[m], dwell[m] = _DISCONNECT, -1, -1, 0

        for m in range(len(state)):
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
                    depth = ratio[m].tolist()
                    free = [s for s, d in enumerate(depth)
                            if d > 0.0 and s != sv and occupied[s] < capacity[s]]
                    tg = max(free, key=depth.__getitem__, default=-1)
                    if tg >= 0:
                        hold(m, tg, 1)
                        state[m], target[m], dwell[m] = _HANDOVER, tg, cfg.dwell
                        events.append(Event(t, m, HANDOFF_INITIATED, sv, tg))
            elif st == _HANDOVER:
                dwell[m] -= 1
                if dwell[m] == 0:
                    hold(m, sv, -1)
                    state[m], serving[m], target[m] = _CONNECT, target[m], -1
                    events.append(Event(t, m, HANDOFF_COMPLETED, sv, serving[m]))
            elif cand[m] >= 0 and region(cand[m]) >= _MID:
                # Disconnected, a value above s_min for the deepest covering
                # station: connect, or without a free channel, a blocked attempt.
                c = cand[m]
                if occupied[c] < capacity[c]:
                    hold(m, c, 1)
                    state[m], serving[m] = _CONNECT, c
                    events.append(Event(t, m, CONNECTED, None, c))
                else:
                    events.append(Event(t, m, BLOCKED, None, c))

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
        for s, (n, held, cap) in enumerate(zip(census, self.occupied, self._capacity)):
            if held != n or not 0 <= held <= cap:
                raise RuntimeError(f"channel accounting broken at station {s}: "
                                   f"occupied={held}, census={n}")
