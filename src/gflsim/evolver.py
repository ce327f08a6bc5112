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
over bounded per-unit region tables (one probe per pair, into its site's
direct-mapped block of gene key and region rows), and settles a batch's
misses, once per row and key, in one ``FuzzySystem.settle_levels`` call on
strength rows of indices into the window's fired weights, with centroid
sums per window.
Then it steps the population through per-unit transition tables, built
once per unit and reused by the next, overlapping window: a terminal's
state is one code (disconnected, connected to s, or handing over s -> t
with d units of dwell left), and per (terminal, code, region) the tables
give the site to read, the next code and the cost.  ``batch`` and
``window_support`` are all ``evolve`` asks of a fitness, and it skips
``batch`` for its last generation once the best fitness is at the floor, 0.

The population is one (population_size, genes) int64 array, which
``evolve`` changes in place; it returns the best chromosome as a tuple.
Fitness is a pure function of (chromosome, window, config), so
evaluations are cache-friendly and could run on parallel workers; the
generational loop itself is a sequential barrier and all random draws
come from one caller-supplied generator stream.  The order of a generation's draws is
the contract: the one the per-call operators ``tournament_select``,
``one_point_crossover`` and ``mutate_random_reset`` make on tuples, a pair
of offspring at a time.  The operators are the reference; on a PCG64
``Generator``, ``evolve`` reads the same draws from one block of raw
words and hands the stream back where the operators would leave it.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .fuzzy import FuzzySystem, check_genes
from .schema import ConfigError, check_fields
from .world import _CONNECT, _HANDOVER

__all__ = [
    "EmptyHistoryError",
    "EvolverConfig",
    "Chromosome",
    "validate_chromosome",
    "init_population",
    "tournament_select",
    "one_point_crossover",
    "mutate_random_reset",
    "ReplayFitness",
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

    def __post_init__(self) -> None:
        check_fields(self, "evolver")
        if self.tournament_size > self.population_size:
            raise ConfigError(f"tournament_size: must be <= population_size "
                              f"({self.population_size}), got {self.tournament_size}")


def validate_chromosome(genes: Sequence[int], length: int) -> np.ndarray:
    """The genes as an int64 array, if there are ``length`` >= 1 of them, each an integer 1..5."""
    return check_genes(genes, length, _GENE_HI)


def init_population(
    seed_chromosome: Sequence[int],
    cfg: EvolverConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """(population_size, genes) int64 array: the seed grid first, the rest
    drawn uniformly in one call, which draws what one call per row would."""
    seed = validate_chromosome(seed_chromosome, len(seed_chromosome))
    pop = np.empty((cfg.population_size, len(seed)), dtype=np.int64)
    pop[0] = seed
    pop[1:] = rng.integers(_GENE_LO, _GENE_HI + 1, size=(cfg.population_size - 1, len(seed)))
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

# A pair's row in its site's block of 2**_SLOT_BITS (key, region) rows is
# the top _SLOT_BITS bits of a multiplicative hash of its key in uint64,
# where wrap-around is defined; key -1 marks an empty row.
_SLOT_BITS = 7
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)


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


def _unit_steps(rec, cols: np.ndarray, dwell: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    scores = np.where(covered, rec.ratio, -1.0)
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
    window's region table (its units' tables end to end, a block of rows
    per site that starts at ``block``) and each unit's transition tables,
    whose sites are the window's site indices.  A site is one (time unit,
    terminal, station) decision point: its positively-firing grid cells
    and their weights, fixed by the recorded inputs."""

    def __init__(self, records, fitness: "ReplayFitness") -> None:
        # A handover with more units left than the window has cannot complete in it, so the
        # tables are built at a dwell capped just past the window, and dwell left clipped to it.
        system, first = fitness.system, records[0]
        self.dwell = dwell = min(fitness.dwell, len(records) + 1)
        M, S = first.ratio.shape
        st, sv, tg, dw = first.state, first.serving, first.target, first.dwell
        handing = st == _HANDOVER
        _, disc, conn, hand, _, _ = _layout(M, S, dwell)
        m = np.arange(M)
        self.start = np.select([st == _CONNECT, handing], [
            conn[m, sv], hand[m, sv, tg, np.clip(dw, 1, dwell) - 1]], disc)

        # Materialize every covered decision site: fuzzified inputs do not
        # depend on the candidate grid, only their gene mapping does.  Units
        # of the previous window keep their sites, region table and
        # transition tables; the record identity guards against unrelated
        # windows that reuse unit numbers.
        last = fitness._last_prep and fitness._last_prep[1]
        reuse = last.units if last and last.dwell == dwell else {}
        units = []
        for rec in records:
            unit = reuse.get(rec.t)
            if unit is None or unit[0] is not rec:
                left = rec.dwell[rec.state == _HANDOVER]
                if not ((left >= 1) & (left <= fitness.dwell)).all():
                    raise ValueError(f"unit {rec.t}: a handover needs 1..{fitness.dwell} units "
                                     f"of dwell left (the replay's dwell), got {left.tolist()}")
                cols, cells, weights = self._unit_sites(rec, system)
                table = np.full((len(cols) << _SLOT_BITS, 2), -1, dtype=np.int64)
                unit = (rec, cells, weights, table, _unit_steps(rec, cols, dwell))
            units.append(unit)
        counts = np.array([len(cells) for _, cells, *_ in units])
        firsts = np.cumsum(counts) - counts
        n_sites = int(counts.sum())
        # Each unit's tables with the window's site indices; a code that
        # reads no site reads the padding column, the last of the regions.
        self.steps = [(np.where(site >= 0, site + first, n_sites), nxt, cost)
                      for (*_, (site, nxt, cost)), first in zip(units, firsts.tolist())]
        # Each unit keeps its sites' blocks of the window's table, so the
        # regions a batch stores stay with the unit.
        self.table = np.concatenate([table for *_, table, _ in units])
        self.block = np.arange(n_sites) << _SLOT_BITS
        self.units = {rec.t: (rec, cells, weights, table, steps) for (rec, cells, weights, _, steps),
                      table in zip(units, np.split(self.table, firsts[1:] << _SLOT_BITS))}
        # Fired cells and weights (as indices into ``levels``, ascending) per
        # site, one block per unit, padded with the index of an extra gene
        # column that contributes a zero digit (see ``ReplayFitness.batch``)
        # and weight 0.0, level 0.
        maxf = max([1] + [cells.shape[1] for _, cells, *_ in units])
        self.padded_idx = np.full((n_sites, maxf), system.n_cells, dtype=np.int64)
        padded_w = np.zeros((n_sites, maxf))
        for (_, cells, weights, *_), lo in zip(units, firsts):
            self.padded_idx[lo:lo + len(cells), : cells.shape[1]] = cells
            padded_w[lo:lo + len(cells), : cells.shape[1]] = weights
        levels, level_of = np.unique(np.append(padded_w, 0.0), return_inverse=True)
        self.padded_level = level_of[:-1].reshape(padded_w.shape)
        self.level_sums = system.level_sums(levels)
        self.powers = _DIGIT_BASE ** np.arange(maxf, dtype=np.int64)
        # Sites share a few fired-cell sets, so keys are found per set.
        self.cell_sets, self.set_of = np.unique(self.padded_idx, axis=0, return_inverse=True)
        # (A 1-d np.unique would import numpy.ma, about 1 MB, in numpy 2.4.)
        fired = np.bincount(self.cell_sets.ravel(), minlength=system.n_cells + 1)[:-1]
        self.support = tuple(np.flatnonzero(fired).tolist())

    @staticmethod
    def _unit_sites(rec, system: FuzzySystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sites of one unit: flat (terminal, station) columns in terminal-major
        order, and per site its fired cells (ascending) and weights, padded with
        cell ``system.n_cells`` and weight 0.0; every covered pair fires in one
        array pass (a two-input system ignores the channel input)."""
        m, s = np.nonzero(rec.ratio > 0.0)
        inputs = (rec.velocity[m], rec.ratio[m, s], rec.chan[m, s])
        w = system.fire(inputs[: len(system.input_vars)])
        fired = w > 0.0
        # A stable sort of the unfired flags puts each site's fired cells first, ascending.
        order = np.argsort(~fired, axis=1, kind="stable")[:, : fired.sum(axis=1).max(initial=0)]
        cells = np.where(np.take_along_axis(fired, order, axis=1), order, system.n_cells)
        weights = np.where(cells < system.n_cells, np.take_along_axis(w, order, axis=1), 0.0)
        return m * rec.ratio.shape[1] + s, cells, weights


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
        if system.n_output_terms < _GENE_HI:  # a gene names an output term
            raise ValueError(f"{system.n_output_terms} output terms, but genes reach {_GENE_HI}")
        self.system = system
        self.s_min = float(s_min)
        self.s_th = float(s_th)
        self.dwell = int(dwell)
        for name, weight in (("weight_handoff", weight_handoff), ("weight_cut", weight_cut)):
            if not 0.0 <= weight < float("inf"):
                raise ValueError(f"{name} must be finite and >= 0, got {weight}")
        self.weight_handoff = float(weight_handoff)
        self.weight_cut = float(weight_cut)
        # The last prepared window; the next, overlapping one reuses its units.
        self._last_prep: Optional[tuple[tuple, _WindowPrep]] = None

    def _prep(self, records: tuple) -> _WindowPrep:
        if not records:
            raise EmptyHistoryError("history window is empty")
        if self._last_prep is None or self._last_prep[0] is not records:
            self._last_prep = (records, _WindowPrep(records, self))
        return self._last_prep[1]

    def window_support(self, window) -> tuple[int, ...]:
        """Grid cells that can fire anywhere in the window.

        Genes outside this set cannot influence fitness, so populations may
        be deduplicated on this projection.
        """
        return self._prep(window).support

    def __call__(self, genes: Sequence[int], window) -> float:
        return float(self.batch([genes], window)[0])

    def batch(self, population: Sequence[Sequence[int]], window) -> np.ndarray:
        """Fitness of every chromosome: the regions of all its (chromosome,
        site) pairs, found before the steps, then a few gathers per unit
        through that unit's transition tables."""
        prep = self._prep(window)
        P = len(population)
        if P == 0:
            return np.zeros(0)
        # Gene digits (gene - 1) plus a zero column for padded fired slots.
        digits = np.zeros((P, self.system.n_cells + 1), dtype=np.int64)
        digits[:, :-1] = self._genes(population) - _GENE_LO
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

    def _genes(self, population) -> np.ndarray:
        """The population as an integer array, if ``validate_chromosome``
        accepts every row; an error names the first row it rejects, and why."""
        try:
            genes = np.asarray(population)
            if genes.dtype.kind in "iu" and genes.shape[1:] == (self.system.n_cells,) and (
                    (genes >= _GENE_LO) & (genes <= _GENE_HI)).all():
                return genes
        except ValueError:  # rows of different lengths
            pass
        for row, chromosome in enumerate(population):
            try:
                validate_chromosome(chromosome, self.system.n_cells)
            except ValueError as e:
                raise ValueError(f"chromosome {row}: {e}") from None
        return np.asarray(population, dtype=np.int64)

    def _window_regions(self, prep: _WindowPrep, digits: np.ndarray) -> np.ndarray:
        """Region of every (chromosome, site) pair, plus a last column of -1
        that the codes which decide nothing read.  Each pair reads one row of
        its site's block.  The first pair in row-major order to miss at a
        row writes its key and region there; it and the misses with another
        key are settled in one ``FuzzySystem.settle_levels`` call, and the
        misses with its key take its region."""
        keys = (digits[:, prep.cell_sets] @ prep.powers).take(prep.set_of, axis=1)
        slots = prep.block + ((keys.view(np.uint64) * _HASH_MUL)
                              >> np.uint64(64 - _SLOT_BITS)).astype(np.int64)
        held = prep.table.take(slots, axis=0)
        out = np.full((len(digits), len(prep.block) + 1), -1, dtype=np.int8)
        out[:, :-1] = held[..., 1]
        p_miss, g_miss = np.nonzero(held[..., 0] != keys)
        if not len(p_miss):
            return out
        # One writer per row, the first miss to reach it in row-major order:
        # numpy leaves the order of repeated-index assignments open.  The
        # writers and the misses whose key is not their writer's are settled;
        # the rest take their writer's region.
        miss_keys = keys[p_miss, g_miss]
        taken, first, writer = np.unique(slots[p_miss, g_miss], return_index=True,
                                         return_inverse=True)
        writer = first[writer]
        own = miss_keys != miss_keys[writer]
        own[first] = True
        p_own, g_own = p_miss[own], g_miss[own]
        # Strength rows as level indices: the largest fired one per output term.
        n_terms = self.system.n_output_terms
        terms = digits[p_own[:, None], prep.padded_idx[g_own]]
        rows = np.zeros(len(p_own) * n_terms, dtype=np.intp)
        np.maximum.at(rows, (np.arange(len(p_own))[:, None] * n_terms + terms).ravel(),
                      prep.padded_level[g_own].ravel())
        got = np.empty(len(p_miss), dtype=np.int8)
        got[own] = self.system.settle_levels(rows.reshape(-1, n_terms), prep.level_sums,
                                             self.s_min, self.s_th)
        got[~own] = got[writer[~own]]
        out[p_miss, g_miss] = got
        prep.table[taken] = np.stack([miss_keys[first], got[first]], axis=1)
        return out


def _offspring_per_call(genes: np.ndarray, fits, cfg: EvolverConfig, rng) -> np.ndarray:
    """One generation's offspring from the operators, a pair at a time: two
    tournaments, a crossover, and a mutation of each child that is kept."""
    population = list(map(tuple, genes.tolist()))
    offspring: list[Chromosome] = []
    while len(offspring) < len(population):
        a = tournament_select(population, fits, cfg.tournament_size, rng)
        b = tournament_select(population, fits, cfg.tournament_size, rng)
        for child in one_point_crossover(a, b, cfg.crossover_prob, rng):
            if len(offspring) < len(population):
                offspring.append(mutate_random_reset(child, cfg.mutation_prob, rng))
    return np.array(offspring, dtype=np.int64)


def _offspring(genes: np.ndarray, fits, cfg: EvolverConfig, rng) -> np.ndarray:
    """:func:`_offspring_per_call`'s offspring and final ``rng`` state, read
    on a PCG64 ``Generator`` from one block of raw words.  Other generators,
    and a draw that Lemire's method rejects, take the operators."""
    bitgen = getattr(rng, "bit_generator", None)
    if type(rng) is not np.random.Generator or type(bitgen) is not np.random.PCG64:
        return _offspring_per_call(genes, fits, cfg, rng)
    state = bitgen.state
    # A pair draws at most 2k + 1 + 2L doubles and 1 + 2L 32-bit values.
    size = (len(genes) + 1) // 2 * (2 * cfg.tournament_size + 2 + 4 * genes.shape[1])
    built = _offspring_from_block(genes, fits, cfg, bitgen.random_raw(size),
                                  state["has_uint32"], state["uinteger"])
    bitgen.state = state
    if built is None:
        return _offspring_per_call(genes, fits, cfg, rng)
    kids, used, pending, uinteger = built
    bitgen.advance(used)
    bitgen.state = {**bitgen.state, "has_uint32": pending, "uinteger": uinteger}
    return kids


def _offspring_from_block(genes: np.ndarray, fits, cfg: EvolverConfig, block: np.ndarray,
                          pending: int, uinteger: int):
    """:func:`_offspring_per_call` on a generator whose next raw words are
    ``block`` and whose pending 32-bit half is ``uinteger`` if ``pending``:
    the offspring, the words used, and the pending flag and last half after
    them; or None if Lemire's method rejects a cut or gene draw.

    numpy's Generator reads a PCG64 double from the top 53 bits of one word;
    a 32-bit draw takes the pending half if there is one, else the low half
    of a fresh word, whose high half becomes the pending one.
    """
    (n, L), k = genes.shape, cfg.tournament_size
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

    parents = genes[winners].reshape(pairs, 2, L)
    left = (np.arange(L) < cut[:, None])[:, None, :]
    kids = np.where(left, parents, parents[:, ::-1]).reshape(rows, L)[:n]
    kids[mutating[np.add.outer(masks, np.arange(L))]] = drawn[len(cut_at):]
    return kids, at, pending, int(halves[last])


def evolve(
    population: np.ndarray,
    window,
    fitness: ReplayFitness,
    cfg: EvolverConfig,
    rng: np.random.Generator,
    on_generation: Optional[Callable[[int, float], None]] = None,
) -> Chromosome:
    """Generational loop with elitism of one; returns the all-time best as a tuple.

    ``window`` is a tuple of consecutive unit records.  ``population`` is
    the (population_size, genes) int64 array of :func:`init_population`; it
    is evolved in place, so the caller's evolver state persists across
    invocations.  Offspring are built select -> crossover -> mutate; the
    incumbent best replaces the first offspring unchanged, which makes the
    per-generation best fitness non-increasing.  A NaN fitness raises
    ``ValueError`` naming the chromosome's index.  Fitness is never below 0,
    so once the best reaches 0 the last generation is built but not scored:
    no score of it could replace the best, and no generation follows to
    select from it.
    """
    size = cfg.population_size
    if population.ndim != 2 or len(population) != size or not population.shape[1]:
        raise ValueError(f"population shape {population.shape} != ({size}, genes >= 1)")

    # Memo keys: a chromosome's genes on the window support as bytes, taken
    # from the population with one column gather.
    support = np.array(fitness.window_support(window), dtype=np.intp)
    memo: dict[bytes, float] = {}

    def evaluate() -> list[float]:
        cols = population.take(support, axis=1).astype(np.uint8)
        keys = cols.view(f"V{len(support)}").ravel().tolist() if len(support) else [b""] * size
        pending: dict[bytes, int] = {}
        for i, key in enumerate(keys):
            if key not in memo and key not in pending:
                pending[key] = i
        if pending:
            rows = list(pending.values())
            vals = fitness.batch(population[rows], window)
            if np.isnan(vals).any():
                raise ValueError(f"fitness of chromosome {rows[np.isnan(vals).argmax()]} is NaN")
            memo.update(zip(pending.keys(), map(float, vals)))
        return [memo[key] for key in keys]

    for gen in range(cfg.generations + 1):
        if gen:
            population[:] = _offspring(population, fits, cfg, rng)
            population[0] = best
        # No fitness is below 0 and only a strict gain replaces the best, so
        # with the best at 0 the last generation's scores change nothing.
        if gen == 0 or gen < cfg.generations or best_fit > 0:
            fits = evaluate()
            i = min(range(size), key=fits.__getitem__)
            if gen == 0 or fits[i] < best_fit:
                best, best_fit = tuple(population[i].tolist()), fits[i]
        if on_generation is not None:
            on_generation(gen, best_fit)
    return best


class RuleEvolver:
    """Owns the population (an int64 array of one chromosome per row), generator
    stream, fitness and ``window``, the last ``window_length`` unit records, of one policy."""

    def __init__(
        self,
        seed_chromosome: Sequence[int],
        cfg: EvolverConfig,
        fitness: ReplayFitness,
        rng: np.random.Generator,
    ) -> None:
        self.cfg = cfg
        self.fitness = fitness
        self.rng = rng
        self.population = init_population(seed_chromosome, cfg, rng)
        self.window: deque = deque(maxlen=cfg.window_length)

    def evolve(self, window, on_generation=None) -> Chromosome:
        return evolve(self.population, window, self.fitness, self.cfg, self.rng,
                      on_generation=on_generation)
