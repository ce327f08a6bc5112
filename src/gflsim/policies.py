"""Handoff decision policies.

Four policies share one decision hook, ``regions``: FLS evaluates the full
three-input grid with fixed consequents, FLAH a two-input (velocity,
distance) projection of it, and GFLS/GFLAH attach an evolver that
periodically re-tunes the live consequent vector from recent history.  A
freshly evolved grid takes effect at the start of the next time unit.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .evolver import EvolverConfig, ReplayFitness, ResimFitness, RuleEvolver, _StaticDecider
from .fuzzy import (
    DEFAULT_CONSEQUENTS,
    FuzzySystem,
    LinguisticVariable,
    default_channels,
    default_distance,
    default_output,
    default_velocity,
    DEFAULT_RESOLUTION,
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
    out = []
    for block in range(9):
        triple = sorted(consequents27[3 * block: 3 * block + 3])
        out.append(triple[1])
    return tuple(out)


class HandoffPolicy(_StaticDecider):
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
        super().__init__(system, genes)
        self.kind = kind
        self.evolver = evolver
        self.last_evolved = 0
        self.evolution_log: list[tuple[int, float, tuple[int, ...]]] = []

    def decide(self, velocity: float, dist_norm: float, chan_norm: float) -> float:
        """Crisp signal in [0, 1]; a two-input (FLAH) system ignores channels."""
        w = self.system.fire((velocity, dist_norm, chan_norm)[: len(self.system.input_vars)])
        onehot = np.asarray(self.genes)[:, None] == np.arange(1, self.system.n_output_terms + 1)
        return self.system.crisp_from_strengths(np.where(onehot, w[:, None], 0.0).max(axis=0))

    def on_epoch(self, window, now: int) -> None:
        """Run one evolution pass when the invocation period has elapsed and
        the window is warm; installs the best consequent vector."""
        if self.evolver is None:
            return
        if now - self.last_evolved < self.evolver.cfg.invocation_period:
            return
        if not window.warm:
            return
        best_fit: list[float] = []
        best = self.evolver.evolve(
            window.freeze(), on_generation=lambda gen, fit: best_fit.append(fit))
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
        if cfg.full_resim:
            fitness = ResimFitness(system, cfg.weight_handoff, cfg.weight_cut)
        else:
            fitness = ReplayFitness(system, s_min, s_th, dwell,
                                    cfg.weight_handoff, cfg.weight_cut)
        evolver = RuleEvolver(genes, cfg, fitness, rng)
    return HandoffPolicy(kind, system, genes, evolver)
