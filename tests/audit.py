"""Conservation audits of a running world, for the tests: channels and
energies after every unit, and the planned path length of accelerated
terminals."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from gflsim.world import (
    CONNECTED,
    CONNECTION_CUT,
    HANDOFF_COMPLETED,
    HANDOFF_INITIATED,
    MobileTerminal,
    World,
    acceleration_for,
    accelerated_state,
)


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
        self._held = np.array([world._serving, world._target], dtype=np.int64).reshape(2, -1)
        self._energy, self._last = world._energy.copy(), world._energy.copy()
        self._cap = np.array([s.capacity for s in world.stations])

    def unit(self, world: World) -> None:
        """Check the world after its next step."""
        t, held = world.t, self._held
        if t != self._t + 1:
            raise ValueError(f"audit of t={self._t} fed t={t}: feed it after every step")
        self._t = t
        for ev in world.events[self._seen:]:
            m = ev.mt_id  # terminal ids are their columns
            if ev.kind == HANDOFF_INITIATED:
                held[:, m] = ev.old_bs, ev.new_bs
            elif ev.kind in (CONNECTED, HANDOFF_COMPLETED):
                held[:, m] = ev.new_bs, -1
            elif ev.kind == CONNECTION_CUT:
                held[:, m] = -1
        self._seen = len(world.events)

        census = np.bincount(held[held >= 0], minlength=len(self._cap))
        occ = np.array(world.occupied)
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
            raise AssertionError(f"t={t} mt={m}: energy rose from {self._last[m]} to {now[m]}")
        for m in np.flatnonzero(~(np.abs(self._energy - now) <= self.tol)).tolist():
            raise AssertionError(f"t={t} mt={m}: recomputed energy {self._energy[m]} "
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
        if mt.kind != "accelerated":
            continue
        expected, _ = accelerated_state(acceleration_for(mt.distance, mt.duration), t)
        if t == mt.duration:
            expected = mt.distance
        if abs(mt.odometer - expected) > rel_tol * max(expected, 1.0):
            raise AssertionError(f"mt={mt.ident}: traversed {mt.odometer}, expected {expected}")
