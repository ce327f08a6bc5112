"""Shared builders for synthetic history windows and mini worlds."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from gflsim.world import (
    FrozenWindow,
    MtSnapshot,
    State,
    UnitRecord,
)


class FixedPolicy:
    """Decision hook returning a constant crisp value."""

    def __init__(self, value: float) -> None:
        self.value = value

    def decide(self, velocity, dist_norm, chan_norm) -> float:
        return self.value


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


def make_snapshot(
    *,
    velocity: float = 10.0,
    x: float = 0.0,
    y: float = 0.0,
    dist_ratio=(0.5, 0.5),
    chan_norm=(0.5, 0.5),
    state: State = State.DISCONNECT,
    serving: int = -1,
    target: int = -1,
    dwell: int = 0,
) -> MtSnapshot:
    return MtSnapshot(
        velocity=velocity, x=x, y=y,
        dist_ratio=tuple(dist_ratio), chan_norm=tuple(chan_norm),
        state=state, serving=serving, target=target, dwell=dwell,
    )


def make_window(per_unit_snapshots, start_t: int = 1) -> FrozenWindow:
    """Freeze a window from a list (units) of lists (terminals) of snapshots."""
    records = []
    for u, snaps in enumerate(per_unit_snapshots):
        n_stations = len(snaps[0].dist_ratio)
        records.append(UnitRecord(
            t=start_t + u,
            snapshots=tuple(snaps),
            station_occupied=(0,) * n_stations,
            energies=(100.0,) * len(snaps),
        ))
    return FrozenWindow(tuple(records), None)


def random_window(rng: np.random.Generator, n_units: int = 4, n_mts: int = 4,
                  n_stations: int = 3) -> FrozenWindow:
    """Structurally consistent window with randomized inputs and states."""
    units = []
    init_states = rng.integers(0, 3, size=n_mts)
    for u in range(n_units):
        snaps = []
        for m in range(n_mts):
            ratios = tuple(float(r) for r in rng.uniform(-0.5, 1.0, size=n_stations))
            chans = tuple(float(c) for c in rng.choice([0.0, 0.25, 0.5, 1.0], size=n_stations))
            if u == 0:
                state = State(int(init_states[m]))
                # keep the pre-decision invariants: serving iff connected-ish,
                # target and a live dwell only in handover
                if state == State.DISCONNECT:
                    serving = target = -1
                    dwell = 0
                else:
                    serving = int(rng.integers(0, n_stations))
                    if state == State.HANDOVER:
                        target = int((serving + 1) % n_stations)
                        dwell = int(rng.integers(1, 3))
                    else:
                        target, dwell = -1, 0
                # a connected terminal must sit inside its serving cell for
                # the window to exercise fuzzy decisions rather than force-cuts
                if state != State.DISCONNECT and ratios[serving] <= 0:
                    ratios = tuple(
                        abs(r) + 0.05 if s == serving else r
                        for s, r in enumerate(ratios)
                    )
            else:
                # replay evolves its own state; later pre-states are unused
                state, serving, target, dwell = State.DISCONNECT, -1, -1, 0
            snaps.append(make_snapshot(
                velocity=float(rng.uniform(0, 35)),
                dist_ratio=ratios, chan_norm=chans,
                state=state, serving=serving, target=target, dwell=dwell,
            ))
        units.append(snaps)
    return make_window(units)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
