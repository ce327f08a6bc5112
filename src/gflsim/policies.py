"""Handoff decision policies.

Four policies share one decision hook, ``table``: FLS evaluates the full
three-input grid with fixed consequents, FLAH a two-input (velocity,
distance) projection of it, and GFLS/GFLAH attach an evolver that
periodically re-tunes the live consequent vector from recent history.  A
freshly evolved grid takes effect at the start of the next time unit.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .evolver import EvolverConfig, ReplayFitness, RuleEvolver
from .fuzzy import (
    DEFAULT_CONSEQUENTS,
    FuzzySystem,
    LinguisticVariable,
    default_channels,
    default_distance,
    default_output,
    default_velocity,
    DEFAULT_RESOLUTION,
    region_codes,
)

__all__ = [
    "PolicyKind",
    "HandoffPolicy",
    "derive_flah_consequents",
    "make_policy",
]


class PolicyKind(str, Enum):
    FLS = "fls"
    GFLS = "gfls"
    FLAH = "flah"
    GFLAH = "gflah"

    @property
    def evolving(self) -> bool:
        return self in (PolicyKind.GFLS, PolicyKind.GFLAH)

    @property
    def uses_channels(self) -> bool:
        return self in (PolicyKind.FLS, PolicyKind.GFLS)


def derive_flah_consequents(consequents27: Sequence[int]) -> tuple[int, ...]:
    """Project a 3x3x3 grid onto (velocity, distance) by taking the median
    consequent over the three channel levels of each pair."""
    if len(consequents27) != 27:
        raise ValueError(f"expected 27 consequents, got {len(consequents27)}")
    return tuple(sorted(consequents27[i:i + 3])[1] for i in range(0, 27, 3))


class HandoffPolicy:
    """A fuzzy rule grid bound to the simulator's decision hook."""

    def __init__(
        self,
        kind: PolicyKind,
        system: FuzzySystem,
        genes: tuple[int, ...],
        evolver: Optional[RuleEvolver] = None,
    ) -> None:
        if kind.evolving != (evolver is not None):
            raise ValueError(f"{kind.value}: evolver attached iff the policy evolves")
        n_inputs = 3 if kind.uses_channels else 2
        if len(system.input_vars) != n_inputs:
            raise ValueError(f"{kind.value} reads {n_inputs} inputs, but the fuzzy system "
                             f"has {len(system.input_vars)}")
        system.check_consequents(genes)
        self.system, self.genes = system, tuple(genes)
        self.kind = kind
        self.evolver = evolver
        self.last_evolved = 0
        self.evolution_log: list[tuple[int, float, tuple[int, ...]]] = []

    def table(self, velocity: np.ndarray, dist_norm: np.ndarray, chan_norm: np.ndarray,
              cfg) -> tuple[list, Callable[[int, float], int]]:
        """One unit's decision table over rows of inputs, settled at the world config
        ``cfg``'s thresholds: ``(codes, reread)``, where ``codes[r]`` is the region code
        (``fuzzy.region_codes``) of row ``r``'s value at its own ``chan_norm``, every row
        settled at once, and ``reread(r, chan)`` the region of :meth:`decide` for row ``r``
        at channel input ``chan``.  A two-input (FLAH) system ignores channels, so its
        ``reread`` gives the row's code.  An evolving policy raises ``ValueError`` unless
        ``cfg``'s ``s_min``, ``s_th`` and ``dwell`` are its replay's."""
        s_min, s_th = cfg.s_min, cfg.s_th
        fit = self.evolver and self.evolver.fitness  # the replay must run as the world does
        if fit and (fit.s_min, fit.s_th, fit.dwell) != (s_min, s_th, cfg.dwell):
            raise ValueError(f"{self.kind.value}: the world runs at (s_min, s_th, dwell) = "
                             f"{(s_min, s_th, cfg.dwell)}, the replay at "
                             f"{(fit.s_min, fit.s_th, fit.dwell)}")
        system = self.system
        inputs = (velocity, dist_norm, chan_norm)[: len(system.input_vars)]
        strengths = system.term_strengths(self.genes, system.fire(inputs))
        codes = system.settle(strengths, s_min, s_th).tolist()
        if len(inputs) == 2:
            return codes, lambda r, chan: codes[r]
        vel, dist = velocity.tolist(), dist_norm.tolist()
        return codes, lambda r, chan: int(region_codes(self.decide(vel[r], dist[r], chan),
                                                       s_min, s_th))

    def decide(self, velocity: float, dist_norm: float, chan_norm: float) -> float:
        """Crisp signal in [0, 1]; a two-input (FLAH) system ignores channels."""
        system = self.system
        inputs = (velocity, dist_norm, chan_norm)[: len(system.input_vars)]
        return system.crisp_from_strengths(system.term_strengths(self.genes, system.fire(inputs)))

    def on_epoch(self, record, now: int) -> None:
        """Keep unit ``now``'s record in the evolver's window; once the invocation period
        has elapsed and the window is full, evolve on it and install the best consequent
        vector.  A static policy keeps nothing."""
        evolver = self.evolver
        if evolver is None:
            return
        window = evolver.window
        window.append(record)
        if now - self.last_evolved < evolver.cfg.invocation_period or len(window) < window.maxlen:
            return
        best_fit: list[float] = []
        best = evolver.evolve(tuple(window), on_generation=lambda gen, fit: best_fit.append(fit))
        self.genes = tuple(best)
        self.last_evolved = now
        self.evolution_log.append((now, best_fit[-1], self.genes))


def make_policy(
    kind: PolicyKind | str,
    *,
    velocity_var: Optional[LinguisticVariable] = None,
    distance_var: Optional[LinguisticVariable] = None,
    channels_var: Optional[LinguisticVariable] = None,
    output_var: Optional[LinguisticVariable] = None,
    resolution: int = DEFAULT_RESOLUTION,
    consequents: Sequence[int] = DEFAULT_CONSEQUENTS,
    s_min: float = 0.20,
    s_th: float = 0.45,
    dwell: int = 2,
    evolver_cfg: Optional[EvolverConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> HandoffPolicy:
    """Assemble a policy over the given (or default) linguistic variables."""
    kind = PolicyKind(kind)
    vel = velocity_var or default_velocity()
    dist = distance_var or default_distance()
    chan = channels_var or default_channels()
    out = output_var or default_output()
    if kind.uses_channels:
        system = FuzzySystem((vel, dist, chan), out, resolution)
        genes = tuple(consequents)
    else:
        system = FuzzySystem((vel, dist), out, resolution)
        genes = derive_flah_consequents(consequents)

    evolver = None
    if kind.evolving:
        cfg = evolver_cfg or EvolverConfig()
        if rng is None:
            raise ValueError(f"{kind.value} needs a random generator stream")
        fitness = ReplayFitness(system, s_min, s_th, dwell, cfg.weight_handoff, cfg.weight_cut)
        evolver = RuleEvolver(genes, cfg, fitness, rng)
    return HandoffPolicy(kind, system, genes, evolver)
