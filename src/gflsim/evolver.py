"""Genetic search over rule-grid consequents.

Chromosomes are flat consequent vectors (one gene per antecedent cell,
values 1..5).  Fitness replays the most recent simulation snapshots
through the terminal state machine under the candidate grid and counts
handoff initiations and cut connections; lower is better.

Replay semantics: channel occupancy and every other terminal's behavior
are frozen to what the live simulation recorded, so fitness isolates the
candidate's own decisions and each terminal runs on its own.
``ReplayFitness.batch`` is the one replay loop.  It reads the threshold
region of each (chromosome, decision site) pair from one vectorized pass
over bounded per-unit region tables (two probe slots per pair, each slot
tagged with its site and gene key), and settles a batch's misses in one
``FuzzySystem.settle`` call, as the live world step settles its
decisions.  Then it steps the population through per-unit transition
tables, built once per unit and cached with its sites for the next,
overlapping window: a terminal's state is one code (disconnected,
connected to s, or handing over s -> t with d units of dwell left), and
per (terminal, code, region) the tables give the site to read, the next
code and the cost.  ``ResimFitness`` offers full re-simulation behind a
config switch.  Both offer ``batch`` and ``window_support``, all
``evolve`` asks of a fitness.

Fitness is a pure function of (chromosome, window, config), so evaluations
are cache-friendly and could run on parallel workers; the generational
loop itself is a sequential barrier and all random draws come from one
caller-supplied generator stream.  The order of a generation's draws is
the contract: the one the per-call operators ``tournament_select``,
``one_point_crossover`` and ``mutate_random_reset`` make, a pair of
offspring at a time.  The operators are the reference; on a PCG64
``Generator``, ``evolve`` reads the same draws from one block of raw
words and hands the stream back where the operators would leave it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .fuzzy import FuzzySystem
from .world import _CONNECT, _HANDOVER

__all__ = [
    "EmptyHistoryError",
    "EvolverConfig",
    "Chromosome",
    "validate_chromosome",
    "random_chromosome",
    "init_population",
    "tournament_select",
    "one_point_crossover",
    "mutate_random_reset",
    "ReplayFitness",
    "ResimFitness",
    "evolve",
    "RuleEvolver",
]

Chromosome = tuple[int, ...]

_GENE_LO, _GENE_HI = 1, 5


class EmptyHistoryError(ValueError):
    """Fitness was asked to score an empty history window."""


@dataclass(frozen=True)
class EvolverConfig:
    population_size: int = 50
    crossover_prob: float = 0.9
    mutation_prob: float = 0.1
    tournament_size: int = 10
    generations: int = 20
    invocation_period: float = 4
    window_length: int = 4
    weight_handoff: float = 1.0
    weight_cut: float = 1.0
    full_resim: bool = False

    def __post_init__(self) -> None:
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if not 0 <= self.crossover_prob <= 1:
            raise ValueError("crossover_prob must be in [0,1]")
        if not 0 <= self.mutation_prob <= 1:
            raise ValueError("mutation_prob must be in [0,1]")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ValueError("tournament_size must be in 1..population_size")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.invocation_period <= 0:
            raise ValueError("invocation_period must be positive")
        if self.window_length < 1:
            raise ValueError("window_length must be >= 1")
        if self.weight_handoff < 0 or self.weight_cut < 0:
            raise ValueError("fitness weights must be >= 0")


def validate_chromosome(genes: Sequence[int], length: int) -> None:
    if len(genes) != length:
        raise ValueError(f"chromosome length {len(genes)} != {length}")
    bad = [g for g in genes if not _GENE_LO <= g <= _GENE_HI]
    if bad:
        raise ValueError(f"genes outside {{1..5}}: {bad}")


def random_chromosome(length: int, rng: np.random.Generator) -> Chromosome:
    return tuple(int(g) for g in rng.integers(_GENE_LO, _GENE_HI + 1, size=length))


def init_population(
    seed_chromosome: Sequence[int],
    cfg: EvolverConfig,
    rng: np.random.Generator,
) -> list[Chromosome]:
    """Seed grid first, the rest drawn uniformly gene by gene."""
    seed = tuple(int(g) for g in seed_chromosome)
    validate_chromosome(seed, len(seed))
    pop: list[Chromosome] = [seed]
    for _ in range(cfg.population_size - 1):
        pop.append(random_chromosome(len(seed), rng))
    return pop


def tournament_select(
    population: Sequence[Chromosome],
    fitnesses: Sequence[float],
    k: int,
    rng: np.random.Generator,
) -> Chromosome:
    """Min-fitness winner among k members sampled without replacement.

    Ties resolve to the lowest population index.
    """
    n = len(population)
    if k > n:
        raise ValueError(f"tournament size {k} > population {n}")
    # Floyd's sampling: uniform over k-subsets, one bulk draw.
    sampled: set[int] = set()
    for u, j in zip(rng.random(k).tolist(), range(n - k, n)):
        t = int(u * (j + 1))
        sampled.add(t if t not in sampled else j)
    best = min(sampled, key=lambda i: (fitnesses[i], i))
    return population[best]


def one_point_crossover(
    p1: Chromosome,
    p2: Chromosome,
    prob: float,
    rng: np.random.Generator,
) -> tuple[Chromosome, Chromosome]:
    """Suffix swap at a uniform cut point, applied with probability ``prob``."""
    if rng.random() >= prob or len(p1) < 2:
        return tuple(p1), tuple(p2)
    cut = int(rng.integers(1, len(p1)))
    return p1[:cut] + p2[cut:], p2[:cut] + p1[cut:]


def mutate_random_reset(
    genes: Chromosome,
    pm: float,
    rng: np.random.Generator,
) -> Chromosome:
    """Each gene independently redrawn uniformly (possibly unchanged) w.p. pm."""
    hits = (rng.random(len(genes)) < pm).nonzero()[0]
    if not len(hits):
        return tuple(genes)
    out = list(genes)
    draws = rng.integers(_GENE_LO, _GENE_HI + 1, size=len(hits)).tolist()
    for i, g in zip(hits.tolist(), draws):
        out[i] = g
    return tuple(out)


# A site's memo key reads the genes at its fired cells, each minus 1, as
# base-5 digits; 27 cells (a 3x3x3 grid) is the most that stays exact in
# int64, since 5**27 - 1 < 2**63.
_DIGIT_BASE = _GENE_HI - _GENE_LO + 1
_MAX_KEY_DIGITS = 27

# Each unit's region table has a power-of-two size of at least this many
# slots per site.  A pair's 32-bit hash is bits 32 and up of a
# multiplicative hash of (site, key) in uint64, where wrap-around is
# defined.  Its low bits pick its first slot in the table's lower half and
# its high bits a second slot in the upper half (one slot serves both in a
# table of one slot).
_SLOTS_PER_SITE = 128
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)
_SITE_MUL = np.uint64(0xC2B2AE3D27D4EB4F)


def _region_table(n_sites: int) -> np.ndarray:
    """Empty two-probe region memo of one unit: a (gene key, site index in
    the unit, region) row per slot; site -1 marks an empty slot."""
    size = 1 << max(n_sites * _SLOTS_PER_SITE - 1, 0).bit_length()
    return np.tile(np.array([0, -1, 0], dtype=np.int64), (size, 1))


# Layout of a unit's transition tables (int32): each terminal has a row of
# W = S*S*dwell + 5*(S + 1) slots, and a code's value indexes them:
#   - one slot per handover code, which decides nothing: its value is its
#     slot + 1 and its site is the padding column, whose region is -1;
#   - five slots each for disconnected and connected to s, one per region
#     -1..3, whose value is their region-0 slot.
# In a unit, a terminal at value c reads region r from column ``site[c]``
# and moves to ``next[c + r]``, counting ``cost[c + r]``: a handoff in the
# bits from ``_HANDOFF_SHIFT`` up and a cut in those below.
_HANDOFF_SHIFT = 30
_CUT, _HANDOFF = 1, 1 << _HANDOFF_SHIFT


@functools.lru_cache(maxsize=8)
def _layout(n_mts: int, n_stations: int, dwell: int):
    """Code values (disconnected (M,), connected to s (M, S), handing over s -> t
    with d units left at [m, s, t, d - 1]) and the next and cost tables, every slot
    written, of a unit where all stations cover all terminals, with no free channel."""
    S, n_hand = n_stations, n_stations * n_stations * dwell
    width = n_hand + 5 * (S + 1)
    rows = np.arange(n_mts, dtype=np.int32) * width
    hand = rows[:, None, None, None] + 1 + np.arange(n_hand, dtype=np.int32).reshape(S, S, dwell)
    disc = rows + n_hand + 1
    conn = disc[:, None] + 5 * np.arange(1, S + 1, dtype=np.int32)
    nxt = np.empty(n_mts * width, dtype=np.int32)
    cost = np.zeros(n_mts * width, dtype=np.int32)
    # Per region -1..3: disconnected stays; connected is cut below s_min (or
    # when forced, region -1) and stays from s_min up.  A handover loses a
    # unit of dwell, and connects to t after its last.
    nxt[disc[:, None] + np.arange(-1, 4)] = disc[:, None]
    nxt[conn[..., None] + np.arange(-1, 4)] = np.stack(
        np.broadcast_arrays(disc[:, None], disc[:, None], conn, conn, conn), axis=-1)
    cost[conn[..., None] + np.arange(-1, 1)] = _CUT
    after = hand - 1
    after[..., 0] = conn[:, None, :]
    nxt[hand - 1] = after
    for shared in (disc, conn, hand, nxt, cost):  # every caller gets these arrays
        shared.setflags(write=False)
    return width, disc, conn, hand, nxt, cost


def _unit_steps(rec, cols: list[int], dwell: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Site, next and cost tables of one unit whose sites, in order, sit at
    the flat (terminal, station) columns ``cols``."""
    M, S = rec.ratio.shape
    width, disc, conn, hand, nxt, cost = _layout(M, S, dwell)
    nxt, cost = nxt.copy(), cost.copy()  # the cached ones are shared
    local = np.full((M, S), -1, dtype=np.int32)
    local.flat[cols] = np.arange(len(cols))
    covered = rec.ratio > 0.0
    # Deepest covering station, channels ignored, and per serving station
    # the deepest other covering one with a free channel; argmax takes the
    # first maximum, i.e. the lowest station id.
    scores = np.where(covered, np.minimum(rec.ratio, 1.0), -1.0)
    cand = scores.argmax(axis=1)
    m = np.flatnonzero(scores.max(axis=1) > 0.0)
    site = np.full(M * width, -1, dtype=np.int32)
    site[disc[m]] = local[m, cand[m]]
    site[conn] = local  # -1 outside coverage: a forced cut reads no region
    # Disconnected connects from region 2 up if its candidate has a channel.
    m = m[rec.chan[m, cand[m]] > 0.0]
    nxt[disc[m, None] + np.arange(2, 4)] = conn[m, cand[m], None]
    # Connected to s hands off at regions 1 and 2 if s has a target.
    scores = np.where(rec.chan > 0.0, scores, -1.0)
    scores = np.where(np.eye(S, dtype=bool), -1.0, scores[:, None, :])
    m, s = np.nonzero(scores.max(axis=2) > 0.0)
    at = conn[m, s, None] + np.arange(1, 3)
    nxt[at] = hand[m, s, scores[m, s].argmax(axis=1), -1, None]
    cost[at] = _HANDOFF
    # A handover is cut when s stops covering.
    m, s = np.nonzero(~covered)
    nxt[hand[m, s] - 1] = disc[m, None, None]
    cost[hand[m, s] - 1] = _CUT
    return site, nxt, cost


class _WindowPrep:
    """Per-window replay arrays: the decision sites of each unit, the
    window's region table (its units' tables end to end) and each unit's
    transition tables, whose sites are the window's site indices.  A site
    is one (time unit, terminal, station) decision point: its
    positively-firing grid cells and their weights, fixed by the recorded
    inputs."""

    def __init__(self, records, fitness: "ReplayFitness") -> None:
        system, dwell = fitness.system, fitness.dwell
        first = records[0]
        M, S = first.ratio.shape
        st, sv, tg, dw = first.state, first.serving, first.target, first.dwell
        handing = st == _HANDOVER
        if not ((dw >= 1) & (dw <= dwell))[handing].all():
            raise ValueError(f"a window that opens in handover needs 1..{dwell} units of "
                             f"dwell left (the replay's dwell), got {dw[handing].tolist()}")
        _, disc, conn, hand, _, _ = _layout(M, S, dwell)
        m = np.arange(M)
        self.start = np.select([st == _CONNECT, handing], [
            conn[m, sv], hand[m, sv, tg, np.clip(dw, 1, dwell) - 1]], disc)

        # Materialize every covered decision site: fuzzified inputs do not
        # depend on the candidate grid, only their gene mapping does.  Units
        # reused from the previous window keep their sites, region table and
        # transition tables; the cache then holds this window's units only.
        cache, fitness._site_cache = fitness._site_cache, {}
        self.sites: list[tuple[list[int], list[float]]] = []
        units, firsts = [], []
        for rec in records:
            cached = cache.get(rec.t)
            if cached is None or cached[0] is not rec:
                sites = self._unit_sites(rec, system)
                cached = (rec, sites, _region_table(len(sites)), _unit_steps(rec, list(sites), dwell))
            units.append(cached)
            firsts.append(len(self.sites))
            self.sites.extend(cached[1].values())
        # Each unit's tables with the window's site indices; a code that
        # reads no site reads the padding column, the last of the regions.
        self.steps = [(np.where(site >= 0, site + first, len(self.sites)), nxt, cost)
                      for (*_, (site, nxt, cost)), first in zip(units, firsts)]
        # Each unit keeps its slice of the window's table, so the regions a
        # batch stores stay with the unit.
        self.table = np.concatenate([table for _, _, table, _ in units])
        counts = [len(sites) for _, sites, _, _ in units]
        sizes = np.array([len(table) for _, _, table, _ in units])
        ends = np.cumsum(sizes)
        for (rec, sites, _, steps), lo, hi in zip(units, ends - sizes, ends):
            fitness._site_cache[rec.t] = (rec, sites, self.table[lo:hi], steps)
        # Per site: its index in its unit, that index's hash salt, and where
        # the two halves of its unit's table start, the hash bits (mask and
        # shift) that pick a slot in each.
        self.local = np.concatenate([np.arange(n) for n in counts])
        self.salt = self.local.astype(np.uint64) * _SITE_MUL
        half = np.maximum(sizes // 2, 1)
        self.slot_base = np.repeat(ends - sizes, counts)
        self.slot_mask = np.repeat(half - 1, counts).astype(np.uint64)
        self.alt_base = np.repeat(ends - half, counts)
        self.alt_shift = np.repeat(32 - np.log2(half).astype(np.int64), counts).astype(np.uint64)
        # Fired cells and weights per site, padded with the index of an
        # extra gene column that contributes a zero digit (see
        # ``ReplayFitness.batch``) and a zero weight.
        maxf = max((len(idx) for idx, _ in self.sites), default=1)
        self.padded_idx = np.full((len(self.sites), maxf), system.n_cells, dtype=np.int64)
        self.padded_w = np.zeros((len(self.sites), maxf))
        for gid, (idx, w) in enumerate(self.sites):
            self.padded_idx[gid, : len(idx)] = idx
            self.padded_w[gid, : len(w)] = w
        self.powers = _DIGIT_BASE ** np.arange(maxf, dtype=np.int64)
        # Sites share a few fired-cell sets, so keys are found per set.
        self.cell_sets, self.set_of = np.unique(self.padded_idx, axis=0, return_inverse=True)
        self.support = tuple(sorted({i for idx, _ in self.sites for i in idx}))

    @staticmethod
    def _unit_sites(rec, system: FuzzySystem) -> dict[int, tuple]:
        """Sites of one unit, keyed by flat (terminal, station) column in
        terminal-major order; every covered pair fires in one array pass (a
        two-input system ignores the channel input)."""
        m, s = np.nonzero(rec.ratio > 0.0)
        w = system.fire((rec.velocity[m], np.minimum(rec.ratio[m, s], 1.0), rec.chan[m, s]))
        pair, cell = np.nonzero(w > 0.0)
        cells, weights = cell.tolist(), w[pair, cell].tolist()
        ends = np.cumsum(np.bincount(pair, minlength=len(m))).tolist()
        return {col: (cells[lo:hi], weights[lo:hi])
                for col, lo, hi in zip((m * rec.ratio.shape[1] + s).tolist(), [0] + ends, ends)}


class ReplayFitness:
    """Weighted handoff + cut count from a frozen-window replay.

    :meth:`batch` is the replay; calling the instance scores one chromosome
    as a population of one.  One pass finds the region of every
    (chromosome, site) pair in the window's region table and settles the
    misses together; then each (chromosome, terminal) pair takes a few
    gathers per unit through that unit's transition tables (site, next code
    and packed cost).  ``dwell`` must be at least 1.
    """

    def __init__(
        self,
        system: FuzzySystem,
        s_min: float,
        s_th: float,
        dwell: int = 2,
        weight_handoff: float = 1.0,
        weight_cut: float = 1.0,
    ) -> None:
        if not 0 <= s_min < s_th <= 1:
            raise ValueError(f"need 0 <= s_min < s_th <= 1, got {s_min}, {s_th}")
        if dwell < 1:
            raise ValueError(f"dwell must be >= 1, got {dwell}")
        if system.n_cells > _MAX_KEY_DIGITS:
            raise ValueError(f"replay supports grids of at most {_MAX_KEY_DIGITS} cells, "
                             f"got {system.n_cells}")
        self.system = system
        self.s_min = float(s_min)
        self.s_th = float(s_th)
        self.dwell = int(dwell)
        self.weight_handoff = float(weight_handoff)
        self.weight_cut = float(weight_cut)
        self._last_prep: Optional[tuple[tuple, _WindowPrep]] = None
        # Unit t -> (source record, that unit's sites, their region table)
        # for the units of the last prepared window, so consecutive
        # overlapping windows share them; the record identity guards
        # against unrelated windows that reuse unit numbers.
        self._site_cache: dict[int, tuple] = {}

    def _prep(self, records: tuple) -> _WindowPrep:
        if self._last_prep is None or self._last_prep[0] is not records:
            self._last_prep = (records, _WindowPrep(records, self))
        return self._last_prep[1]

    def window_support(self, window) -> tuple[int, ...]:
        """Grid cells that can fire anywhere in the window.

        Genes outside this set cannot influence fitness, so populations may
        be deduplicated on this projection.
        """
        records = window.records
        if not records:
            raise EmptyHistoryError("history window is empty")
        return self._prep(records).support

    def __call__(self, genes: Sequence[int], window) -> float:
        return float(self.batch([genes], window)[0])

    def batch(self, population: Sequence[Sequence[int]], window) -> np.ndarray:
        """Fitness of every chromosome: the regions of all its (chromosome,
        site) pairs, found before the steps, then a few gathers per unit
        through that unit's transition tables."""
        records = window.records
        if not records:
            raise EmptyHistoryError("history window is empty")
        P = len(population)
        if P == 0:
            return np.zeros(0)
        prep = self._prep(records)
        # Gene digits (gene - 1) plus a zero column for padded fired slots.
        digits = np.zeros((P, self.system.n_cells + 1), dtype=np.int64)
        digits[:, :-1] = np.asarray(population, dtype=np.int64) - _GENE_LO
        reg_all = self._window_regions(prep, digits)
        regions, rows = reg_all.ravel(), np.arange(P)[:, None] * reg_all.shape[1]
        state, acc = prep.start, np.zeros((P, len(prep.start)), dtype=np.int64)
        for site, nxt, cost in prep.steps:
            at = state + regions.take(rows + site.take(state))
            state = nxt.take(at)
            acc += cost.take(at)
        ho = (acc >> _HANDOFF_SHIFT).sum(axis=1)
        cuts = (acc & (_HANDOFF - 1)).sum(axis=1)
        return self.weight_handoff * ho + self.weight_cut * cuts

    def _window_regions(self, prep: _WindowPrep, digits: np.ndarray) -> np.ndarray:
        """Region of every (chromosome, site) pair, plus a last column of -1
        that the codes which decide nothing read.  Pairs missing from
        both their table slots are settled in one ``FuzzySystem.settle`` call
        and stored with one scatter."""
        P, G = len(digits), len(prep.sites)
        keys = (digits[:, prep.cell_sets] @ prep.powers).take(prep.set_of, axis=1)
        hashes = ((keys.view(np.uint64) + prep.salt) * _HASH_MUL) >> np.uint64(32)
        slot = prep.slot_base + (hashes & prep.slot_mask).astype(np.int64)
        held = prep.table.take(slot, axis=0)
        hit = (held[..., 1] == prep.local) & (held[..., 0] == keys)
        out = np.full((P, G + 1), -1, dtype=np.int8)
        out[:, :G] = held[..., 2]
        p_miss, g_miss = np.nonzero(~hit)
        if not len(p_miss):
            return out
        k_miss = keys[p_miss, g_miss]
        alt = prep.alt_base[g_miss] + (
            hashes[p_miss, g_miss] >> prep.alt_shift[g_miss]).astype(np.int64)
        held = prep.table.take(alt, axis=0)
        found = (held[:, 1] == prep.local[g_miss]) & (held[:, 0] == k_miss)
        out[p_miss[found], g_miss[found]] = held[found, 2]
        lost = ~found
        if not lost.any():
            return out
        p_miss, g_miss, k_miss, alt = p_miss[lost], g_miss[lost], k_miss[lost], alt[lost]
        # The first pair in a slot claims it, with the later ones that match
        # it in site and key.  A pair that loses its first slot to another
        # pair tries its second; one that loses both is settled alone and
        # not stored.  (The halves of a table are disjoint, except in a table
        # of one slot, where a pair's two slots are one.)
        target = slot[p_miss, g_miss]
        for second in (False, True):
            taken, first, inv = np.unique(target, return_index=True, return_inverse=True)
            other = (g_miss != g_miss[first][inv]) | (k_miss != k_miss[first][inv])
            if second or not other.any():
                break
            target = np.where(other, alt, target)
        alone = np.flatnonzero(other)
        todo = np.concatenate([first, alone])
        # Strength rows: the largest fired weight per output term.
        n_terms = self.system.n_output_terms
        terms = digits[p_miss[todo, None], prep.padded_idx[g_miss[todo]]]
        rows = np.zeros(len(todo) * n_terms)
        np.maximum.at(rows, (np.arange(len(todo))[:, None] * n_terms + terms).ravel(),
                      prep.padded_w[g_miss[todo]].ravel())
        regions = self.system.settle(rows.reshape(-1, n_terms), self.s_min, self.s_th)
        got = regions[inv]
        got[alone] = regions[len(first):]
        out[p_miss, g_miss] = got
        prep.table[taken] = np.stack(
            [k_miss[first], prep.local[g_miss[first]], regions[: len(first)]], axis=1)
        return out


class _StaticDecider:
    """A consequent vector bound to a fuzzy system: the world step's
    decision hook, shared by full re-simulation and ``HandoffPolicy``."""

    def __init__(self, system: FuzzySystem, genes: Sequence[int]) -> None:
        self.system, self.genes = system, tuple(genes)

    def regions(self, velocity: np.ndarray, dist_norm: np.ndarray, chan_norm: np.ndarray,
                s_min: float, s_th: float) -> np.ndarray:
        """Region code of the decision value per row of inputs at each of its
        channel inputs in ``chan_norm``; a two-input system ignores those."""
        inputs = (velocity[:, None], dist_norm[:, None], chan_norm)[: len(self.system.input_vars)]
        return np.broadcast_to(self.system.regions(self.genes, inputs, s_min, s_th),
                               chan_norm.shape)


class ResimFitness:
    """Full re-simulation fitness: replays the window on a world checkpoint,
    so the candidate's decisions also feed back into channel occupancy and
    the other terminals' environment."""

    def __init__(
        self,
        system: FuzzySystem,
        weight_handoff: float = 1.0,
        weight_cut: float = 1.0,
    ) -> None:
        self.system = system
        self.weight_handoff = float(weight_handoff)
        self.weight_cut = float(weight_cut)

    def window_support(self, window) -> tuple[int, ...]:
        """Every grid cell: a re-simulated terminal may reach any input."""
        return tuple(range(self.system.n_cells))

    def batch(self, population: Sequence[Sequence[int]], window) -> np.ndarray:
        """Fitness of every chromosome, one re-simulation each."""
        return np.array([self(genes, window) for genes in population], dtype=float)

    def __call__(self, genes: Sequence[int], window) -> float:
        records = window.records
        if not records:
            raise EmptyHistoryError("history window is empty")
        checkpoint = window.checkpoint
        if checkpoint is None:
            raise EmptyHistoryError("full re-simulation needs a recorded checkpoint")
        world = checkpoint.clone_state()
        probe = _StaticDecider(self.system, tuple(genes))
        for _ in records:
            world.step(probe)
        ho = sum(1 for e in world.events if e.kind == "HandoffInitiated")
        cuts = sum(1 for e in world.events if e.kind == "ConnectionCut")
        return self.weight_handoff * ho + self.weight_cut * cuts


def _offspring_per_call(population, fits, cfg: EvolverConfig, rng) -> list[Chromosome]:
    """One generation's offspring from the operators, a pair at a time: two
    tournaments, a crossover, and a mutation of each child that is kept."""
    offspring: list[Chromosome] = []
    while len(offspring) < len(population):
        a = tournament_select(population, fits, cfg.tournament_size, rng)
        b = tournament_select(population, fits, cfg.tournament_size, rng)
        for child in one_point_crossover(a, b, cfg.crossover_prob, rng):
            if len(offspring) < len(population):
                offspring.append(mutate_random_reset(child, cfg.mutation_prob, rng))
    return offspring


def _offspring(population, fits, cfg: EvolverConfig, rng, genes: Optional[np.ndarray]):
    """:func:`_offspring_per_call`'s offspring and final ``rng`` state, read
    on a PCG64 ``Generator`` from one block of raw words.  Other generators,
    empty chromosomes and NaN fitnesses (whose tournament ties follow set
    order) take the operators.  ``genes`` may hold the population as an
    (n, L) array; the offspring come with theirs, or with None from the
    operators."""
    bitgen = getattr(rng, "bit_generator", None)
    if (type(rng) is not np.random.Generator or type(bitgen) is not np.random.PCG64
            or not population[0] or any(map(math.isnan, fits))):
        return _offspring_per_call(population, fits, cfg, rng), None
    state = bitgen.state
    # A pair draws at most 2k + 1 + 2L doubles and 1 + 2L 32-bit values.
    size = (len(population) + 1) // 2 * (2 * cfg.tournament_size + 2 + 4 * len(population[0]))
    built = _offspring_from_block(population, fits, cfg, bitgen.random_raw(size),
                                  state["has_uint32"], state["uinteger"], genes)
    bitgen.state = state
    if built is None:
        return _offspring_per_call(population, fits, cfg, rng), None
    offspring, genes, used, pending, uinteger = built
    bitgen.advance(used)
    bitgen.state = {**bitgen.state, "has_uint32": pending, "uinteger": uinteger}
    return offspring, genes


def _offspring_from_block(population, fits, cfg: EvolverConfig, block: np.ndarray,
                          pending: int, uinteger: int, genes: Optional[np.ndarray]):
    """:func:`_offspring_per_call` on a generator whose next raw words are
    ``block`` and whose pending 32-bit half is ``uinteger`` if ``pending``:
    the offspring as tuples and as an array, the words used, and the pending
    flag and last half after them; or None if Lemire's method rejects a cut
    or gene draw.

    numpy's Generator reads a PCG64 double from the top 53 bits of one word;
    a 32-bit draw takes the pending half if there is one, else the low half
    of a fresh word, whose high half becomes the pending one.
    """
    n, k, L = len(population), cfg.tournament_size, len(population[0])
    pairs = (n + 1) // 2
    u = (block >> np.uint64(11)) * 2.0**-53
    crossing, mutating = u < cfg.crossover_prob, u < cfg.mutation_prob
    # hits[a]: mutation hits among words a .. a + L - 1.  Memoryviews read
    # single values as Python ints and bools, much faster than numpy.
    hits = np.cumsum(mutating)
    hits = hits[L - 1:] - np.concatenate(([0], hits[:-L]))
    hits_at, crossing_at = memoryview(hits), memoryview(crossing)

    # Offset scan, one step per pair: the word that each pair and each
    # mutation mask starts at, and the index in ``halves`` of every cut and
    # gene draw (a pending half first, then the halves of fresh words).
    starts, masks, cut_at, gene_at = [], [], [], []
    at, last = 0, -1
    for j in range(pairs):
        starts.append(at)
        at += 2 * k + 1
        if L >= 3 and crossing_at[at - 1]:
            if pending:
                cut_at.append(last)
            else:
                cut_at.append(2 * at)
                at += 1
                last = 2 * at - 1
            pending ^= 1
        for _ in range(2 if 2 * j + 1 < n else 1):
            masks.append(at)
            count = hits_at[at]
            at += L
            if count:
                gene_at += [last] * pending + list(range(2 * at, 2 * at + count - pending))
                fresh = (count - pending + 1) >> 1
                at += fresh
                last = 2 * at - 1 if fresh else last
                pending ^= count & 1

    # Lemire's method: cuts come from integers(1, L), genes from integers(1, 6).
    halves = np.append(block.astype("<u8").view("<u4"), np.uint32(uinteger))
    bound = np.repeat(np.array([max(L - 1, 1), _DIGIT_BASE], dtype=np.uint64),
                      [len(cut_at), len(gene_at)])
    scaled = halves[np.array(cut_at + gene_at, dtype=np.int64)] * bound
    if ((scaled & np.uint64(0xFFFFFFFF)) < np.uint64(1 << 32) % bound).any():
        return None
    drawn = (scaled >> np.uint64(32)).astype(np.int64) + 1
    starts = np.array(starts)
    crossed = crossing[starts + 2 * k] & (L >= 2)
    cut = np.where(crossed, 1, L)
    cut[crossed & (L >= 3)] = drawn[: len(cut_at)]

    # Floyd's sampling for every tournament at once, one step per slot;
    # each winner is its members' lowest (fitness, index) rank.
    rows = 2 * pairs
    base = np.arange(rows) * n
    draws = u[np.add.outer(starts, np.arange(2 * k))].reshape(rows, k)
    slots = (draws * np.arange(n - k + 1, n + 1)).astype(np.int64).T + base
    member = np.zeros(rows * n, dtype=bool)
    for t, top in zip(slots, np.add.outer(np.arange(n - k, n), base)):
        t = np.where(member[t], top, t)
        member[t] = True
    rank = np.argsort(np.argsort(fits, kind="stable"))
    winners = np.where(member.reshape(rows, n), rank, n).argmin(axis=1)

    if genes is None:
        genes = np.fromiter(itertools.chain.from_iterable(population), dtype=np.int64,
                            count=n * L).reshape(n, L)
    parents = genes[winners].reshape(pairs, 2, L)
    left = (np.arange(L) < cut[:, None])[:, None, :]
    kids = np.where(left, parents, parents[:, ::-1]).reshape(rows, L)[:n]
    kids[mutating[np.add.outer(masks, np.arange(L))]] = drawn[len(cut_at):]
    return list(map(tuple, kids.tolist())), kids, at, pending, int(halves[last])


def evolve(
    population: list[Chromosome],
    window,
    fitness: ReplayFitness | ResimFitness,
    cfg: EvolverConfig,
    rng: np.random.Generator,
    on_generation: Optional[Callable[[int, float], None]] = None,
) -> Chromosome:
    """Generational loop with elitism of one; returns the all-time best.

    ``population`` is evolved in place so the caller's evolver state
    persists across invocations.  Offspring are built select -> crossover
    -> mutate; the incumbent best replaces the first offspring unchanged,
    which makes the per-generation best fitness non-increasing.
    """
    records = window.records
    if not records:
        raise EmptyHistoryError("history window is empty")
    size = cfg.population_size
    if len(population) != size:
        raise ValueError(f"population size {len(population)} != configured {size}")

    # Memo keys: a chromosome's genes on the window support as bytes, taken
    # from the population's gene array with one column gather.
    support = np.array(fitness.window_support(window), dtype=np.intp)
    memo: dict[bytes, float] = {}

    def evaluate(pop: Sequence[Chromosome], genes: Optional[np.ndarray]) -> list[float]:
        if genes is None:
            genes = np.array(pop, dtype=np.int64).reshape(len(pop), -1)
        cols = genes.take(support, axis=1).astype(np.uint8)
        keys = cols.view(f"V{len(support)}").ravel().tolist() if len(support) else [b""] * len(pop)
        pending: dict[bytes, Chromosome] = {}
        for key, chromosome in zip(keys, pop):
            if key not in memo and key not in pending:
                pending[key] = chromosome
        if pending:
            reps = list(pending.values())
            for key, val in zip(pending.keys(), fitness.batch(reps, window)):
                memo[key] = float(val)
        return [memo[key] for key in keys]

    fits = evaluate(population, None)
    best_i = min(range(size), key=fits.__getitem__)
    best, best_fit = population[best_i], fits[best_i]
    if on_generation is not None:
        on_generation(0, best_fit)

    gene_array = None
    for gen in range(cfg.generations):
        offspring, gene_array = _offspring(population, fits, cfg, rng, gene_array)
        offspring[0] = best
        if gene_array is not None:
            gene_array[0] = best
        population[:] = offspring
        fits = evaluate(population, gene_array)
        gen_i = min(range(size), key=fits.__getitem__)
        if fits[gen_i] < best_fit:
            best, best_fit = population[gen_i], fits[gen_i]
        if on_generation is not None:
            on_generation(gen + 1, best_fit)
    return best


class RuleEvolver:
    """Owns the population, generator stream, and fitness for one policy."""

    def __init__(
        self,
        seed_chromosome: Sequence[int],
        cfg: EvolverConfig,
        fitness: ReplayFitness | ResimFitness,
        rng: np.random.Generator,
    ) -> None:
        self.cfg = cfg
        self.fitness = fitness
        self.rng = rng
        self.population = init_population(seed_chromosome, cfg, rng)

    def evolve(self, window, on_generation=None) -> Chromosome:
        return evolve(self.population, window, self.fitness, self.cfg, self.rng,
                      on_generation=on_generation)
