"""Genetic operators, replay fitness, and the generational loop."""

import itertools
import json
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    FixedPolicy,
    make_snapshot,
    make_window,
    random_window,
    reference_degrees,
    reference_value,
    snapshots,
)
from gflsim import evolver, fuzzy
from gflsim.evolver import (
    _SLOT_BITS,
    EmptyHistoryError,
    EvolverConfig,
    ReplayFitness,
    evolve,
    init_population,
    mutate_random_reset,
    one_point_crossover,
    tournament_select,
    validate_chromosome,
)
from gflsim.fuzzy import (
    DEFAULT_CONSEQUENTS,
    FuzzySystem,
    LinguisticVariable,
    default_distance,
    default_output,
    default_system,
    default_velocity,
    triangle,
)
from gflsim.policies import make_policy
from gflsim.world import (
    CONNECTION_CUT,
    HANDOFF_INITIATED,
    State,
    StationSpec,
    UnitRecord,
    World,
    WorldConfig,
)

# Table I of the shipped grid, printed row by row (velocity-major, then
# distance, then channels) with very-low..very-high encoded 1..5.
SEED_GENES = (2, 2, 3, 3, 3, 4, 4, 5, 5,
              1, 2, 2, 3, 3, 3, 4, 4, 4,
              1, 1, 2, 2, 2, 3, 3, 4, 4)

S_MIN, S_TH = 0.20, 0.45


def make_fitness(**kw):
    return ReplayFitness(default_system(), S_MIN, S_TH, dwell=2, **kw)


def random_genes(length, rng):
    """A uniform chromosome as a tuple of ints."""
    return tuple(rng.integers(1, 6, size=length).tolist())


class ScriptedRng:
    """Duck-typed generator returning scripted draws."""

    def __init__(self, randoms=(), integers=()):
        self._randoms = list(randoms)
        self._integers = list(integers)

    def random(self, size=None):
        if size is None:
            return self._randoms.pop(0)
        return np.array([self._randoms.pop(0) for _ in range(size)])

    def integers(self, lo, hi, size=None):
        if size is None:
            return self._integers.pop(0)
        return np.array([self._integers.pop(0) for _ in range(size)])


class TestPopulation:
    def test_seed_encoding_matches_shipped_grid(self):
        assert DEFAULT_CONSEQUENTS == SEED_GENES

    def test_member_zero_is_seed(self, rng):
        pop = init_population(SEED_GENES, EvolverConfig(), rng)
        assert pop.dtype == np.int64 and pop.shape == (50, 27)
        assert tuple(pop[0].tolist()) == SEED_GENES
        assert len(pop) == 50

    @pytest.mark.parametrize("length", [1, 9, 27])
    def test_bulk_draw_equals_per_row_draws(self, length):
        # One (n - 1, L) draw gives the genes and the whole generator state,
        # pending 32-bit half included, of one draw per row; an odd L*(n-1)
        # leaves a half pending.
        for size in (2, 5, 50):
            cfg = EvolverConfig(population_size=size, tournament_size=2)
            ours, ref = np.random.default_rng(length), np.random.default_rng(length)
            pop = init_population((3,) * length, cfg, ours)
            rows = [[3] * length] + [ref.integers(1, 6, size=length).tolist()
                                     for _ in range(size - 1)]
            assert pop.tolist() == rows
            assert stream_state(ours) == stream_state(ref)

    def test_random_members_stay_in_domain(self, rng):
        cfg = EvolverConfig(population_size=5, tournament_size=3)
        for _ in range(2000):
            for genes in init_population(SEED_GENES, cfg, rng)[1:]:
                assert len(genes) == 27
                assert all(1 <= g <= 5 for g in genes)

    def test_chromosome_validation(self):
        with pytest.raises(ValueError):
            validate_chromosome((1,) * 26, 27)
        with pytest.raises(ValueError):
            validate_chromosome((0,) + (1,) * 26, 27)

    def test_non_integer_and_empty_chromosomes_rejected(self, rng):
        cfg = EvolverConfig(population_size=5, tournament_size=3)
        with pytest.raises(ValueError, match="consequent 2.5 at index 0 is not an integer"):
            init_population((2.5,) * 27, cfg, rng)
        with pytest.raises(ValueError, match="consequent 3.0 at index 4 is not an integer"):
            validate_chromosome((1,) * 4 + (3.0,) + (1,) * 22, 27)
        with pytest.raises(ValueError, match="at least 1 consequents"):
            init_population((), cfg, rng)
        with pytest.raises(ValueError, match="at least 1 consequents"):
            validate_chromosome(np.zeros(0, dtype=np.int64), 0)
        assert validate_chromosome(np.array(SEED_GENES, dtype=np.int32), 27).dtype == np.int64


def tournament_reference(population, fitnesses, k, rng):
    """The array-indexing form of ``tournament_select``, kept as its oracle."""
    n = len(population)
    us = rng.random(k)
    sampled = set()
    for i, j in enumerate(range(n - k, n)):
        t = int(us[i] * (j + 1))
        sampled.add(t if t not in sampled else j)
    return population[min(sampled, key=lambda i: (fitnesses[i], i))]


def mutate_reference(genes, pm, rng):
    """The ndarray round-trip form of ``mutate_random_reset``, kept as its oracle."""
    mask = rng.random(len(genes)) < pm
    if not mask.any():
        return tuple(genes)
    arr = np.array(genes, dtype=np.int64)
    arr[mask] = rng.integers(1, 6, size=int(mask.sum()))
    return tuple(arr.tolist())


class TestTournament:
    def test_tie_breaks_to_lowest_index(self, rng):
        pop = [(i,) * 27 for i in range(50)]
        fits = [1.0] * 50
        for _ in range(200):
            winner = tournament_select(pop, fits, 50, rng)
            assert winner == pop[0]

    def test_strict_minimum_wins_when_sampled(self, rng):
        pop = [(i % 5 + 1,) * 27 for i in range(50)]
        fits = [5.0] * 50
        fits[17] = 0.0
        assert tournament_select(pop, fits, 50, rng) == pop[17]

    def test_monte_carlo_beats_median(self):
        rng = np.random.default_rng(2024)
        pop = [(1,) * 27 for _ in range(50)]
        fits = list(range(50))
        median = 24.5
        wins = sum(
            fits[pop.index(tournament_select(pop, fits, 10, rng))] <= median
            for _ in range(10_000)
        )
        assert wins >= 9_900

    def test_oversized_tournament_rejected(self, rng):
        with pytest.raises(ValueError):
            tournament_select([(1,) * 27] * 5, [0.0] * 5, 6, rng)

    def test_matches_reference_draw_for_draw(self):
        ours, ref = np.random.default_rng(5), np.random.default_rng(5)
        pop = [(i % 5 + 1,) * 27 for i in range(50)]
        fits = [float(ours.integers(0, 8)) for _ in range(50)]
        ref.integers(0, 8, size=50)
        for i in range(3000):
            k = 1 + i % 50
            assert tournament_select(pop, fits, k, ours) == tournament_reference(pop, fits, k, ref)
        assert ours.random() == ref.random()


class TestCrossover:
    def test_suffix_swap_at_cut_13(self):
        rng = ScriptedRng(randoms=[0.0], integers=[13])
        c1, c2 = one_point_crossover((1,) * 27, (5,) * 27, 0.9, rng)
        assert c1 == (1,) * 13 + (5,) * 14
        assert c2 == (5,) * 13 + (1,) * 14

    def test_zero_probability_copies_parents(self, rng):
        p1, p2 = random_genes(27, rng), random_genes(27, rng)
        for _ in range(100):
            assert one_point_crossover(p1, p2, 0.0, rng) == (p1, p2)

    def test_positionwise_conservation(self, rng):
        for _ in range(10_000):
            p1, p2 = random_genes(27, rng), random_genes(27, rng)
            c1, c2 = one_point_crossover(p1, p2, 0.9, rng)
            for a, b, c, d in zip(p1, p2, c1, c2):
                assert {a, b} == {c, d} or (a, b) == (c, d) or (a, b) == (d, c)


class TestMutation:
    def test_zero_rate_is_identity(self, rng):
        genes = random_genes(27, rng)
        assert mutate_random_reset(genes, 0.0, rng) == genes

    def test_full_rate_stays_in_domain(self, rng):
        for _ in range(200):
            out = mutate_random_reset(random_genes(27, rng), 1.0, rng)
            assert all(1 <= g <= 5 for g in out)

    def test_expected_change_rate(self):
        # each gene flips w.p. pm * 4/5 (uniform redraw may repeat the value)
        rng = np.random.default_rng(99)
        trials = 100_000
        genes = SEED_GENES
        changed = 0
        for _ in range(trials):
            out = mutate_random_reset(genes, 0.1, rng)
            changed += sum(a != b for a, b in zip(genes, out))
        mean = changed / trials
        assert abs(mean - 27 * 0.1 * 0.8) <= 0.05

    def test_matches_reference_draw_for_draw(self):
        # Same draws in the same order, so seeded GA runs stay byte-identical.
        ours, ref = np.random.default_rng(11), np.random.default_rng(11)
        genes = SEED_GENES
        for i in range(4000):
            pm = (0.0, 0.02, 0.1, 0.5, 1.0)[i % 5]
            out = mutate_random_reset(genes, pm, ours)
            assert out == mutate_reference(genes, pm, ref)
            assert all(type(g) is int for g in out)
            genes = out
        assert ours.random() == ref.random()

    def test_operators_preserve_validity(self, rng):
        for _ in range(10_000):
            p1, p2 = random_genes(27, rng), random_genes(27, rng)
            c1, c2 = one_point_crossover(p1, p2, 0.9, rng)
            m = mutate_random_reset(c1, 0.1, rng)
            for genes in (c1, c2, m):
                validate_chromosome(genes, 27)


def window_no_events() -> tuple[UnitRecord, ...]:
    """Connected terminal deep in coverage with plenty of channels."""
    snaps = [[make_snapshot(velocity=0.0, dist_ratio=(1.0, 0.5), chan_norm=(1.0, 1.0),
                            state=State.CONNECT, serving=0)]
             for _ in range(4)]
    return make_window(snaps)


def window_three_handoffs_two_cuts() -> tuple[UnitRecord, ...]:
    """Single unit, five connected terminals: three sit in the mid region
    with a free target, two in the cut region."""
    mid = make_snapshot(velocity=0.0, dist_ratio=(1e-6, 0.5), chan_norm=(0.0, 0.5),
                        state=State.CONNECT, serving=0)
    low = make_snapshot(velocity=15.0, dist_ratio=(1e-6, -1.0), chan_norm=(0.0, 0.5),
                        state=State.CONNECT, serving=0)
    return make_window([[mid, mid, mid, low, low]])


def window_single_gene_fix() -> tuple[UnitRecord, ...]:
    """One terminal whose decisions hit exactly one grid cell each unit.

    Under the seed grid the (slow, near, low) cell reads low -> one handoff
    per unit; raising that single consequent to medium or above silences
    the window completely.
    """
    snap = make_snapshot(velocity=0.0, dist_ratio=(1e-6, 0.5), chan_norm=(0.0, 0.5),
                         state=State.CONNECT, serving=0)
    return make_window([[snap] for _ in range(4)])


def flah_system() -> FuzzySystem:
    """The two-input (velocity, distance) system of the FLAH policies."""
    return FuzzySystem((default_velocity(), default_distance()), default_output())


def wide_system() -> FuzzySystem:
    """Three-input system whose three triangles per input all overlap the
    whole universe, so every one of the 27 cells fires at every site."""
    def wide(name, lo, hi):
        pad = hi - lo
        return LinguisticVariable(name, lo, hi, (
            triangle("low", lo - pad, lo, hi + pad),
            triangle("mid", lo - pad, 0.5 * (lo + hi), hi + pad),
            triangle("high", lo - pad, hi, hi + pad),
        ))
    return FuzzySystem(
        (wide("velocity", 0.0, 30.0), wide("distance", 0.0, 1.0), wide("channels", 0.0, 1.0)),
        default_output(),
    )


def reference_replay(genes, window, system=None, s_min=S_MIN, s_th=S_TH, dwell=2):
    """Step-by-step window re-simulation through the scalar decision value
    of ``reference_value``.

    A two-input ``system`` ignores the channel input, as FLAH does.
    """
    system = system or default_system()

    def value(v, dn, cn):
        return reference_value(system, genes, (v, dn, cn)[: len(system.input_vars)])

    n_stations = window[0].ratio.shape[1]
    events = 0
    units = [snapshots(rec) for rec in window]
    for m, first in enumerate(units[0]):
        state, sv, tg, dw = first.state, first.serving, first.target, first.dwell
        for unit in units:
            snap = unit[m]
            dn = [min(max(r, 0.0), 1.0) for r in snap.dist_ratio]
            if state != State.DISCONNECT and snap.dist_ratio[sv] <= 0.0:
                events += 1  # forced cut
                state, sv, tg, dw = State.DISCONNECT, -1, -1, 0
                continue
            if state == State.CONNECT:
                v = value(snap.velocity, dn[sv], snap.chan_norm[sv])
                if v < s_min:
                    events += 1
                    state, sv = State.DISCONNECT, -1
                elif v < s_th:
                    best, best_dn = -1, 0.0
                    for s in range(n_stations):
                        if s == sv or snap.dist_ratio[s] <= 0 or snap.chan_norm[s] <= 0:
                            continue
                        if dn[s] > best_dn:
                            best, best_dn = s, dn[s]
                    if best >= 0:
                        events += 1
                        state, tg, dw = State.HANDOVER, best, dwell
                continue
            if state == State.HANDOVER:
                dw -= 1
                if dw == 0:
                    state, sv, tg = State.CONNECT, tg, -1
                continue
            best, best_dn = -1, 0.0
            for s in range(n_stations):
                if snap.dist_ratio[s] > 0 and dn[s] > best_dn:
                    best, best_dn = s, dn[s]
            if best >= 0:
                v = value(snap.velocity, dn[best], snap.chan_norm[best])
                if v > s_min and snap.chan_norm[best] > 0:
                    state, sv = State.CONNECT, best
    return float(events)


def opens_in_handover(windows) -> int:
    """Terminals that open their window in handover."""
    return sum(int((w[0].state == State.HANDOVER).sum()) for w in windows)


def cut_in_handover(windows) -> int:
    """Terminals that open their window in handover and leave their serving
    cell, a forced cut, before the handover completes."""
    cut = 0
    for w in windows:
        first = w[0]
        for m in np.flatnonzero(first.state == State.HANDOVER).tolist():
            sv, left = first.serving[m], first.dwell[m]
            cut += any(rec.ratio[m, sv] <= 0.0 for rec in w[:left])
    return cut


class TestFitness:
    def test_empty_history_raises(self):
        fit = make_fitness()
        with pytest.raises(EmptyHistoryError):
            fit(SEED_GENES, ())

    def test_quiet_window_scores_zero(self):
        fit = make_fitness()
        assert fit(SEED_GENES, window_no_events()) == 0.0

    def test_weighted_event_sum(self):
        fit = make_fitness()
        assert fit(SEED_GENES, window_three_handoffs_two_cuts()) == 5.0
        weighted = make_fitness(weight_handoff=2.0, weight_cut=10.0)
        assert weighted(SEED_GENES, window_three_handoffs_two_cuts()) == 26.0

    def test_purity(self, rng):
        fit = make_fitness()
        wnd = random_window(rng)
        genes = random_genes(27, rng)
        assert fit(genes, wnd) == fit(genes, wnd)

    def test_matches_reference_replay(self, rng):
        fit = make_fitness()
        for _ in range(12):
            wnd = random_window(rng)
            for _ in range(3):
                genes = random_genes(27, rng)
                assert fit(genes, wnd) == reference_replay(genes, wnd)

    def test_ranking_matches_reference(self, rng):
        fit = make_fitness()
        wnd = random_window(rng)
        chroms = [random_genes(27, rng) for _ in range(8)]
        ours = sorted(range(8), key=lambda i: (fit(chroms[i], wnd), i))
        ref = sorted(range(8), key=lambda i: (reference_replay(chroms[i], wnd), i))
        assert ours == ref

    def test_batch_matches_reference_replay(self, rng):
        # Dwell 1..4 and 1..9 stations; a window may open mid-handover, and
        # a forced cut may end such a handover before it completes.
        for dwell in (1, 2, 3, 4):
            windows = []
            for i, system in enumerate((default_system(), flah_system(), wide_system())):
                fit = ReplayFitness(system, S_MIN, S_TH, dwell=dwell)
                for j in range(6):
                    wnd = random_window(rng, n_mts=6, n_stations=1 + (6 * i + j) % 9,
                                        dwell=dwell)
                    windows.append(wnd)
                    pop = [random_genes(system.n_cells, rng) for _ in range(20)]
                    assert list(fit.batch(pop, wnd)) == [
                        reference_replay(g, wnd, system, dwell=dwell) for g in pop]
                    assert fit(pop[0], wnd) == reference_replay(pop[0], wnd, system, dwell=dwell)
            assert opens_in_handover(windows) >= 10
            assert cut_in_handover(windows) >= 3
        # The wide grid fires all 27 cells, the most one memo key holds.
        assert fit.window_support(wnd) == tuple(range(27))

    def test_batch_matches_reference_when_every_lookup_collides(self, rng, monkeypatch):
        # One slot per site: nearly every (chromosome, site) pair misses or
        # collides in the region table, and none may read another's region.
        # (A uint64 shift by 64 gives 0, so every key lands in its site's
        # one slot.)  Small settle blocks make each batch's misses span
        # several blocks.
        monkeypatch.setattr(evolver, "_SLOT_BITS", 0)
        monkeypatch.setattr(fuzzy, "_SETTLE_ROWS", 7)
        for dwell in (1, 2, 3, 4):
            windows = []
            for i, system in enumerate((default_system(), flah_system(), wide_system())):
                fit = ReplayFitness(system, S_MIN, S_TH, dwell=dwell)
                for j in range(3):
                    wnd = random_window(rng, n_mts=6, n_stations=1 + (3 * i + j) % 9,
                                        dwell=dwell)
                    windows.append(wnd)
                    pop = [random_genes(system.n_cells, rng) for _ in range(20)]
                    expected = [reference_replay(g, wnd, system, dwell=dwell) for g in pop]
                    for _ in range(2):  # the second pass reads what the first stored
                        assert list(fit.batch(pop, wnd)) == expected
                    prep = fit._last_prep[1]
                    assert prep.table.shape == (len(prep.padded_idx), 2)
            assert opens_in_handover(windows) >= 5
            assert cut_in_handover(windows) >= 1

    @pytest.mark.parametrize("dwell", [6, 10, 10**9])
    def test_dwell_past_the_window_matches_reference_replay(self, rng, dwell):
        # The tables are built at a dwell of the window's length + 1 at most: a handover with
        # more units left cannot complete inside the window.  A dwell of 10**9 once overflowed
        # the int32 table slots.  A shorter window of the same records reads a lower cap.
        fit = ReplayFitness(default_system(), S_MIN, S_TH, dwell=dwell)
        for n_stations in (2, 3, 5):
            wnd = random_window(rng, n_units=4, n_mts=6, n_stations=n_stations, dwell=dwell)
            for part in (wnd, wnd[:2], wnd):
                pop = [random_genes(27, rng) for _ in range(10)]
                assert list(fit.batch(pop, part)) == [
                    reference_replay(g, part, dwell=dwell) for g in pop]
                assert fit._last_prep[1].dwell == min(dwell, len(part) + 1)
        assert fit.dwell == dwell

    def test_window_opening_above_the_replay_dwell_rejected(self):
        # The replay's codes hold 1..dwell units of handover left; a window
        # recorded under a longer dwell (or none) cannot be continued.
        for left in (3, 0):
            snap = make_snapshot(dist_ratio=(0.5, 0.5), state=State.HANDOVER,
                                 serving=0, target=1, dwell=left)
            wnd = make_window([[snap, make_snapshot()]])
            with pytest.raises(ValueError, match="dwell"):
                make_fitness().batch([SEED_GENES], wnd)
        assert make_fitness()(SEED_GENES, make_window([[snap._replace(dwell=2)]])) == 0.0
        # A longer world dwell shows in whichever unit records a handover,
        # not only in the one a window opens on.
        wnd = make_window([[make_snapshot()], [make_snapshot()], [snap._replace(dwell=3)]])
        with pytest.raises(ValueError, match=r"unit 3: .*1\.\.2 units of dwell left.*\[3\]"):
            make_fitness().batch([SEED_GENES], wnd)
        assert ReplayFitness(default_system(), S_MIN, S_TH, dwell=3)(SEED_GENES, wnd) >= 0.0

    def test_threshold_at_an_exact_centroid_matches_reference(self, rng):
        # With s_min at a decision's exact centroid the estimate lands on the
        # threshold, so the region (v == s_min) comes from the exact value.
        system = default_system()
        windows = [(window_single_gene_fix(), SEED_GENES)]
        while len(windows) < 8:
            wnd = random_window(rng)
            if any(s.state == State.CONNECT for s in snapshots(wnd[0])):
                windows.append((wnd, random_genes(27, rng)))
        at_min = 0
        for wnd, genes in windows:
            snap = next(s for s in snapshots(wnd[0]) if s.state == State.CONNECT)
            sv = snap.serving
            dn = min(max(snap.dist_ratio[sv], 0.0), 1.0)
            s_min = reference_value(system, genes, (snap.velocity, dn, snap.chan_norm[sv]))
            s_th = 0.5 * (s_min + 1.0)
            fit = ReplayFitness(system, s_min, s_th, dwell=2)
            assert fit(genes, wnd) == reference_replay(genes, wnd, system, s_min, s_th)
            table = fit._last_prep[1].table
            at_min += int(np.sum(table[table[:, 0] >= 0, 1] == fuzzy._AT_MIN))
        assert at_min >= len(windows)

    @pytest.mark.parametrize("name", ["weight_handoff", "weight_cut"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-300])
    def test_non_finite_or_negative_weight_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0, got {bad}"):
            make_fitness(**{name: bad})
        zeroed = make_fitness(**{name: 0.0})(SEED_GENES, window_three_handoffs_two_cuts())
        assert zeroed == {"weight_handoff": 2.0, "weight_cut": 3.0}[name]

    def test_zero_gene_rejected_with_its_row_and_index(self):
        genes = list(SEED_GENES)
        with pytest.raises(ValueError, match=r"chromosome 0: consequent 0 at index 0 is outside 1\.\.5"):
            make_fitness()([0] + genes[1:], window_three_handoffs_two_cuts())
        with pytest.raises(ValueError, match="chromosome 1: consequent 6 at index 26 "):
            make_fitness().batch(np.array([genes, genes[:-1] + [6]]), window_no_events())

    def test_fractional_gene_rejected_with_its_row_and_index(self):
        genes = list(SEED_GENES)
        with pytest.raises(ValueError, match="chromosome 0: consequent 2.5 at index 0 is not an integer"):
            make_fitness()([2.5] + genes[1:], window_three_handoffs_two_cuts())
        with pytest.raises(ValueError, match="chromosome 2: consequent 2.0 at index 4 is not"):
            make_fitness().batch([genes, genes, genes[:4] + [2.0] + genes[5:]], window_no_events())

    def test_short_chromosome_rejected_with_its_row(self):
        genes = list(SEED_GENES)
        with pytest.raises(ValueError, match=r"chromosome 0: expected 27 consequents, got shape \(26,\)"):
            make_fitness()(genes[1:], window_three_handoffs_two_cuts())
        with pytest.raises(ValueError, match=r"chromosome 1: expected 27 consequents, got shape \(28,\)"):
            make_fitness().batch([genes, genes + [1]], window_no_events())

    @pytest.mark.parametrize("dwell", [0, -3])
    def test_non_positive_dwell_rejected(self, dwell):
        with pytest.raises(ValueError, match="dwell"):
            ReplayFitness(default_system(), S_MIN, S_TH, dwell=dwell)

    def test_grids_beyond_27_cells_rejected(self):
        four = LinguisticVariable("velocity", 0.0, 30.0, (
            triangle("a", 0.0, 0.0, 10.0), triangle("b", 0.0, 10.0, 20.0),
            triangle("c", 10.0, 20.0, 30.0), triangle("d", 20.0, 30.0, 30.0),
        ))
        system = FuzzySystem((four,) + default_system().input_vars[1:], default_output())
        with pytest.raises(ValueError, match="27 cells"):
            ReplayFitness(system, S_MIN, S_TH)

    def test_outputs_without_a_term_per_gene_value_rejected(self):
        # The GA draws genes 1..5, and a gene names an output term.
        two = LinguisticVariable("rss_threshold", 0.0, 1.0, (
            triangle("low", 0.0, 0.0, 1.0), triangle("high", 0.0, 1.0, 1.0)))
        system = FuzzySystem(default_system().input_vars, two)
        with pytest.raises(ValueError, match="2 output terms, but genes reach 5"):
            ReplayFitness(system, S_MIN, S_TH)
        with pytest.raises(ValueError, match="2 output terms"):
            make_policy("gfls", output_var=two, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("bits", [0, _SLOT_BITS])
    def test_first_miss_takes_each_slot(self, bits, rng, monkeypatch):
        # A dict model of the per-site blocks: a pair's slot is its site's
        # block start plus the top bits of its key's multiplicative hash.
        # The first pair in row-major order whose key is not in its slot
        # writes the slot; it and each later miss there with another key
        # are settled.  The third batch repeats the first after the second
        # evicted some of its keys.
        monkeypatch.setattr(evolver, "_SLOT_BITS", bits)
        fit, wnd = make_fitness(), random_window(rng, n_mts=6)
        first = [random_genes(27, rng) for _ in range(30)]
        pops = [first, first[:15] + [random_genes(27, rng) for _ in range(15)], first]
        prep = fit._prep(wnd)
        settle, rows = fit.system.settle_levels, []
        fit.system.settle_levels = lambda r, *a: rows.append(len(r)) or settle(r, *a)
        table, counts = {}, []
        for pop in pops:
            written, settled = {}, 0
            for genes in pop:
                for g, cells in enumerate(prep.padded_idx.tolist()):
                    key = sum((genes[c] - 1) * 5 ** j for j, c in enumerate(cells) if c < 27)
                    slot = (g << bits) + (key * 0x9E3779B97F4A7C15 % 2**64 >> 64 - bits)
                    if table.get(slot) != key:
                        settled += written.get(slot) != key  # the slot's writer, or another key
                        written.setdefault(slot, key)
            table.update(written)
            counts.append(settled)
            assert list(fit.batch(pop, wnd)) == [reference_replay(genes, wnd) for genes in pop]
            assert table == {i: key for i, (key, _) in enumerate(prep.table.tolist())
                             if key >= 0}
        assert rows == counts
        assert counts[1] < counts[0]
        # One slot per site keeps evicting; 128 slots keep most of the keys.
        assert (counts[2] > counts[0] // 2) == (bits == 0)

    @pytest.mark.parametrize("bits", [0, _SLOT_BITS])
    def test_every_stored_region_is_the_settled_one(self, bits, rng, monkeypatch):
        # After the GA's batches on a window, each occupied slot holds the
        # region that an empty table settles for its (site, key).
        monkeypatch.setattr(evolver, "_SLOT_BITS", bits)
        for system in (default_system(), flah_system(), wide_system()):
            fit = ReplayFitness(system, S_MIN, S_TH, dwell=2)
            wnd = random_window(rng, n_mts=6, n_stations=3)
            cfg = EvolverConfig(generations=3)
            pop = init_population((3,) * system.n_cells, cfg, np.random.default_rng(1))
            evolve(pop, wnd, fit, cfg, np.random.default_rng(2))
            prep = fit._last_prep[1]
            slots = np.flatnonzero(prep.table[:, 0] >= 0)
            sites = slots >> bits
            keys = prep.table[slots, 0]
            # A chromosome per slot whose genes on its site's fired cells
            # spell the key (the key's digits past them, on padding, are 0).
            digits = np.zeros((len(slots), system.n_cells + 1), dtype=np.int64)
            cells = prep.padded_idx[sites]
            digits[np.arange(len(slots))[:, None], cells] = keys[:, None] // prep.powers % 5
            fresh = ReplayFitness(system, S_MIN, S_TH, dwell=2)
            regions = fresh._window_regions(fresh._prep(wnd), digits)
            assert len(slots) > len(prep.block) // 2
            assert (regions[np.arange(len(slots)), sites] == prep.table[slots, 1]).all()

    def test_sites_match_scalar_fuzzification(self, rng):
        # Each unit's sites, fired in one array pass, equal per-site scalar
        # degrees and their per-cell minima: same columns in the same
        # (terminal-major) order, same fired cells and the same weights,
        # padded with cell n_cells and weight 0.0.  The window holds each
        # unit's block as it is.
        for system in (default_system(), flah_system(), wide_system()):
            fit = ReplayFitness(system, S_MIN, S_TH, dwell=2)
            wnd = random_window(rng, n_units=3, n_mts=6, n_stations=4)
            fit.window_support(wnd)
            prep, lo = fit._last_prep[1], 0
            for rec in wnd:
                want = {}
                for m, snap in enumerate(snapshots(rec)):
                    for s, (r, c) in enumerate(zip(snap.dist_ratio, snap.chan_norm)):
                        if r > 0.0:
                            inputs = (snap.velocity, min(r, 1.0), c)[: len(system.input_vars)]
                            w = np.array([min(c) for c in itertools.product(
                                *reference_degrees(system, inputs))])
                            fired = np.flatnonzero(w > 0.0)
                            want[m * 4 + s] = (fired.tolist(), w[fired].tolist())
                cols, cells, weights = evolver._WindowPrep._unit_sites(rec, system)
                fired = cells < system.n_cells
                assert (weights[~fired] == 0.0).all()
                got = {col: (row[keep].tolist(), w[keep].tolist())
                       for col, row, w, keep in zip(cols.tolist(), cells, weights, fired)}
                assert list(got.items()) == list(want.items())
                _, held_cells, held_weights, *_ = prep.units[rec.t]
                assert np.array_equal(held_cells, cells) and np.array_equal(held_weights, weights)
                block = prep.padded_idx[lo:lo + len(cells)]
                assert (block[:, : cells.shape[1]] == cells).all()
                assert (block[:, cells.shape[1]:] == system.n_cells).all()
                lo += len(cells)
            assert lo == len(prep.padded_idx)

    @pytest.mark.parametrize("n_mts, n_stations, dwell", [(1, 1, 1), (3, 2, 1), (4, 7, 2),
                                                          (2, 3, 4)])
    def test_layout_next_table_holds_only_own_codes(self, n_mts, n_stations, dwell):
        # Every slot of the next table is written with a code of its own terminal.
        width, disc, conn, hand, nxt, _ = evolver._layout(n_mts, n_stations, dwell)
        assert width == n_stations ** 2 * dwell + 5 * (n_stations + 1)
        codes = np.concatenate([disc.ravel(), conn.ravel(), hand.ravel()])
        assert len(np.unique(codes)) == len(codes) == n_mts * (
            n_stations ** 2 * dwell + n_stations + 1)
        assert np.isin(nxt, codes).all()
        assert (nxt // width == np.repeat(np.arange(n_mts), width)).all()

    def test_replay_holds_at_most_one_window_of_units(self):
        world = World.build(WorldConfig(mt_count=3, total_time=2000),
                            np.random.default_rng(3))
        fit = make_fitness()
        window = deque(maxlen=4)
        policy = FixedPolicy(0.3)
        largest = 0
        most_slots = 0
        for _ in range(2000):
            window.append(world.step(policy))
            if len(window) == window.maxlen:
                fit.window_support(tuple(window))
                units = fit._last_prep[1].units
                largest = max(largest, len(units))
                # Each site has a block of 2**_SLOT_BITS slots in its unit's
                # table, and the window's table is just the units' tables.
                n_sites = len(fit._last_prep[1].padded_idx)
                n_slots = sum(len(table) for *_, table, _ in units.values())
                assert n_slots == len(fit._last_prep[1].table) == n_sites << _SLOT_BITS
                assert fit._last_prep[1].table.shape[1] == 2
                most_slots = max(most_slots, n_slots)
                # The cached transition tables are the ones this window's
                # steps read, one set per unit of the window and no more.
                steps = [unit[4] for unit in units.values()]
                assert all(ours[1] is cached[1] and ours[2] is cached[2]
                           for ours, cached in zip(fit._last_prep[1].steps, steps, strict=True))
                n_stations = len(world.stations)
                width = n_stations * n_stations * fit.dwell + 5 * (n_stations + 1)
                assert sum(a.nbytes for unit in steps for a in unit) == (
                    window.maxlen * 3 * len(world.mts) * width * np.dtype(np.int32).itemsize)
        assert largest == window.maxlen
        n_stations = len(world.stations)
        assert most_slots <= window.maxlen * 3 * n_stations << _SLOT_BITS

    def test_repeated_batch_on_evolve_long_windows_settles_almost_nothing(self):
        # Windows and populations of gfls runs at the evolve_long sizes (20
        # terminals, window 6, the GA every 2 units for 5 generations).  A
        # site's block of 128 slots holds far more keys than a population
        # brings to it, so a repeated batch reads nearly every region from
        # the table; only a pair whose slot went to another key of the first
        # batch is settled again: under 1% of the batch's (chromosome, site)
        # pairs, each of which the first batch, on an empty table, misses.
        ga = EvolverConfig(invocation_period=2, window_length=6, generations=5)
        cfg = WorldConfig(mt_count=20, total_time=40)
        rows = {"pairs": 0, "first": 0, "again": 0}
        for seed in range(2):
            policy = make_policy("gfls", evolver_cfg=ga, rng=np.random.default_rng(seed))
            world = World.build(cfg, np.random.default_rng(seed))
            window = deque(maxlen=ga.window_length)
            for t in range(1, cfg.total_time + 1):
                record = world.step(policy)
                window.append(record)
                if len(window) == window.maxlen and t % 2 == 0:
                    frozen = tuple(window)
                    fit = ReplayFitness(policy.system, cfg.s_min, cfg.s_th, cfg.dwell)
                    settle = fit.system.settle_levels
                    for batch in ("first", "again"):
                        def counted(levels, sums, s_min, s_th, batch=batch):
                            rows[batch] += len(levels)
                            return settle(levels, sums, s_min, s_th)
                        fit.system.settle_levels = counted
                        fits = fit.batch(policy.evolver.population, frozen)
                        if batch == "first":
                            expected = list(fits)
                    del fit.system.settle_levels  # the GA's own replays settle uncounted
                    assert list(fits) == expected
                    rows["pairs"] += len(policy.evolver.population) * len(fit._prep(frozen).block)
                policy.on_epoch(record, t)
        assert rows["first"] > 10_000
        assert rows["again"] * 100 <= rows["pairs"], rows

    def test_window_support_covers_mutation_sensitivity(self, rng):
        # genes outside the support provably cannot change fitness
        fit = make_fitness()
        wnd = random_window(rng)
        support = set(fit.window_support(wnd))
        genes = list(SEED_GENES)
        base = fit(tuple(genes), wnd)
        for i in set(range(27)) - support:
            for g in range(1, 6):
                mutated = list(genes)
                mutated[i] = g
                assert fit(tuple(mutated), wnd) == base


@st.composite
def live_scenarios(draw):
    """A small world with random stations, thresholds and dwell."""
    stations = tuple(
        StationSpec((draw(st.floats(0.0, 2000.0)), draw(st.floats(0.0, 2000.0))),
                    draw(st.floats(300.0, 1400.0)), draw(st.integers(1, 3)))
        for _ in range(draw(st.integers(1, 5)))
    )
    s_min = draw(st.floats(0.0, 0.9))
    s_th = min(1.0, s_min + draw(st.floats(0.01, 1.0)))
    return WorldConfig(
        arena=(2000.0, 2000.0), stations=stations,
        mt_count=draw(st.integers(1, 8)), total_time=20,
        s_min=s_min, s_th=s_th, dwell=draw(st.integers(1, 4)),
    )


class TestReplayMatchesLive:
    """Replay of the live grid counts exactly the handoffs and cuts the
    live world logged in every window, for any scenario."""

    @pytest.mark.parametrize("kind", ["fls", "flah"])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(cfg=live_scenarios(), seed=st.integers(0, 2**32 - 1),
           length=st.integers(1, 6))
    def test_fitness_equals_live_event_count(self, kind, cfg, seed, length):
        policy = make_policy(kind)
        fitness = ReplayFitness(policy.system, cfg.s_min, cfg.s_th, cfg.dwell)
        world = World.build(cfg, np.random.default_rng(seed))
        window = deque(maxlen=length)
        for _ in range(cfg.total_time):
            window.append(world.step(policy))
            if len(window) < length:
                continue
            frozen = tuple(window)
            t0, t1 = frozen[0].t, frozen[-1].t
            live = sum(1 for e in world.events if t0 <= e.t <= t1
                       and e.kind in (HANDOFF_INITIATED, CONNECTION_CUT))
            assert fitness.batch([policy.genes], frozen)[0] == live

    @pytest.mark.parametrize("kind", ["gfls", "gflah"])
    def test_fitness_equals_live_event_count_under_evolved_grids(self, kind):
        # A small GA retunes the live grid every 3 units; every window whose
        # units all ran under one grid must replay to the live count.  The
        # GA's other grids are scored first, so they fill the site memos
        # that the live grid's replay then reads.
        ga = EvolverConfig(population_size=10, tournament_size=3, generations=2,
                           invocation_period=3, window_length=4)
        checked = evolved = 0
        for seed in range(3):
            cfg = WorldConfig(mt_count=30, total_time=40)
            policy = make_policy(kind, evolver_cfg=ga, rng=np.random.default_rng(seed))
            fitness = policy.evolver.fitness
            world = World.build(cfg, np.random.default_rng(100 + seed))
            window = deque(maxlen=ga.window_length)
            grids = []
            for t in range(1, cfg.total_time + 1):
                grids.append(policy.genes)
                record = world.step(policy)
                window.append(record)
                if len(window) == window.maxlen and len(set(grids[-ga.window_length:])) == 1:
                    frozen = tuple(window)
                    t0, t1 = frozen[0].t, frozen[-1].t
                    live = sum(1 for e in world.events if t0 <= e.t <= t1
                               and e.kind in (HANDOFF_INITIATED, CONNECTION_CUT))
                    fitness.batch([g for g in policy.evolver.population.tolist()
                                   if tuple(g) != grids[-1]], frozen)
                    assert fitness.batch([grids[-1]], frozen)[0] == live, (seed, t)
                    checked += 1
                    evolved += grids[-1] != grids[0]
                policy.on_epoch(record, t)
        assert checked >= 60
        assert evolved >= 30


class TestEvolve:
    def test_zero_generations_returns_initial_best(self, rng):
        fit = make_fitness()
        wnd = window_single_gene_fix()
        cfg = EvolverConfig(generations=0)
        pop = init_population(SEED_GENES, cfg, rng)
        best = evolve(pop, wnd, fit, cfg, rng)
        fits = [fit(g, wnd) for g in pop]
        assert fit(best, wnd) == min(fits)

    def test_fixed_seed_reproduces_best(self):
        fit = make_fitness()
        wnd = window_single_gene_fix()
        cfg = EvolverConfig(generations=5)
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            pop = init_population(SEED_GENES, cfg, rng)
            outs.append(evolve(pop, wnd, fit, cfg, rng))
        assert outs[0] == outs[1]

    def test_elitism_keeps_best_fitness_non_increasing(self, rng):
        fit = make_fitness()
        cfg = EvolverConfig(generations=8, population_size=20, tournament_size=5)
        for _ in range(25):
            wnd = random_window(rng)
            pop = init_population(SEED_GENES, cfg, rng)
            trace = []
            evolve(pop, wnd, fit, cfg, rng, on_generation=lambda g, f: trace.append(f))
            assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_single_gene_fix_found_across_seeds(self):
        fit = make_fitness()
        wnd = window_single_gene_fix()
        base = fit(SEED_GENES, wnd)
        assert base > 0
        # brute-force proof that a one-gene edit can silence the window
        fixes = []
        for i in range(27):
            for g in range(1, 6):
                cand = list(SEED_GENES)
                cand[i] = g
                if fit(tuple(cand), wnd) == 0.0:
                    fixes.append((i, g))
        assert fixes, "window must be fixable by one consequent edit"
        cfg = EvolverConfig()
        found = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            pop = init_population(SEED_GENES, cfg, rng)
            best = evolve(pop, wnd, fit, cfg, rng)
            if fit(best, wnd) == 0.0:
                found += 1
        assert found >= 9

    def test_population_evolves_in_place(self, rng):
        fit = make_fitness()
        wnd = window_single_gene_fix()
        cfg = EvolverConfig(generations=2)
        pop = init_population(SEED_GENES, cfg, rng)
        snapshot = pop.copy()
        best = evolve(pop, wnd, fit, cfg, rng)
        assert len(pop) == cfg.population_size
        assert not np.array_equal(pop, snapshot)
        assert type(best) is tuple and all(type(g) is int for g in best)
        assert list(best) in pop.tolist()  # the elite, or a better final offspring

    def test_memo_keys_on_the_window_support(self, rng):
        # No terminal is covered, so no gene can matter: one replay serves a
        # whole run.  With one covered site, chromosomes that agree on its
        # fired cells share a replay.
        cfg = EvolverConfig(generations=3)
        for ratios, most in (((-0.5, -0.5), 1), ((0.3, -0.5), 5 ** 4)):
            fit = make_fitness()
            wnd = make_window([[make_snapshot(dist_ratio=ratios)]])
            replayed = []
            batch = fit.batch
            fit.batch = lambda pop, w: replayed.extend(pop) or batch(pop, w)
            evolve(init_population(SEED_GENES, cfg, rng), wnd, fit, cfg, rng)
            support = fit.window_support(wnd)
            assert len(support) == (0 if most == 1 else 4)
            assert len({tuple(g[i] for i in support) for g in replayed}) == len(replayed) <= most

    def test_empty_window_propagates(self, rng):
        cfg = EvolverConfig()
        pop = init_population(SEED_GENES, cfg, rng)
        with pytest.raises(EmptyHistoryError):
            evolve(pop, (), make_fitness(), cfg, rng)


def evolve_scoring_every_generation(population, window, fitness, cfg, rng, on_generation):
    """``evolve``'s loop with the last generation scored even at the floor."""
    for gen in range(cfg.generations + 1):
        if gen:
            population[:] = evolver._offspring(population, fits, cfg, rng)
            population[0] = best
        fits = fitness.batch(population, window).tolist()
        i = min(range(len(fits)), key=fits.__getitem__)
        if gen == 0 or fits[i] < best_fit:
            best, best_fit = tuple(population[i].tolist()), fits[i]
        on_generation(gen, best_fit)
    return best


class TestFloorSkip:
    @pytest.mark.parametrize("generations", [0, 1, 2, 5])
    def test_skipping_the_last_scores_at_zero_changes_nothing(self, generations):
        # Same best, population, stream and progress calls as scoring every
        # generation; the last generation is scored only if the best is above 0.
        cfg = EvolverConfig(generations=generations, population_size=20, tournament_size=5)
        rng = np.random.default_rng(3)
        windows = [window_no_events(), window_single_gene_fix(),
                   window_three_handoffs_two_cuts()] + [random_window(rng) for _ in range(8)]
        early = never = 0
        for wnd in windows:
            runs = []
            for run in (evolve, evolve_scoring_every_generation):
                fit, calls, scored, r = make_fitness(), [], [], np.random.default_rng(11)
                batch = fit.batch  # records the generation of each batch
                fit.batch = lambda pop, w: scored.append(len(calls)) or batch(pop, w)
                pop = init_population(SEED_GENES, cfg, r)
                best = run(pop, wnd, fit, cfg, r, lambda g, f: calls.append((g, f)))
                runs.append((best, pop.tolist(), stream_state(r), calls, scored))
            assert runs[0][:4] == runs[1][:4]
            calls, scored = runs[0][3:]
            assert scored[0] == 0
            if generations and calls[-2][1] == 0:
                early += 1
                assert generations not in scored
            never += calls[-1][1] > 0
        assert early and never or not generations


class GeneSumFitness:
    """Fitness double for any chromosome length, with few distinct values
    so that tournaments meet ties."""

    def __init__(self, n_cells, nan_mod=None):
        self.n_cells = n_cells
        self.nan_mod = nan_mod

    def window_support(self, window):
        return tuple(range(self.n_cells))

    def batch(self, population, window):
        fits = np.array([float(sum(g) % 4) for g in population])
        fits[fits == self.nan_mod] = np.nan
        return fits


def stream_state(rng):
    """The bit generator's whole state, stale 32-bit half included, as text."""
    return json.dumps(rng.bit_generator.state, default=lambda a: a.tolist(), sort_keys=True)


def evolve_trace(make_rng, fitness, length, cfg, seed):
    """Every generation's population, the best and the final stream state."""
    rng = make_rng(seed)
    pop = init_population(random_genes(length, rng), cfg, rng)
    trace = []
    best = evolve(pop, window_no_events(), fitness, cfg, rng,
                  on_generation=lambda g, f: trace.append(pop.tolist()))
    return trace, best, stream_state(rng)


class TestGenerationFromRawDraws:
    """``evolve`` reads a generation's draws from one block of raw PCG64
    words.  It must give what the operators give from the same stream, and
    leave the stream as they do; numpy does not promise its stream layout
    across releases, so this also guards an upgrade."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(size=st.integers(1, 40), length=st.sampled_from([1, 2, 3, 9, 27]),
           k_frac=st.floats(0.0, 1.0), pc=st.sampled_from([0.0, 1.0, 0.9, 0.37]),
           pm=st.sampled_from([0.0, 1.0, 0.1, 0.5]))
    @example(size=50, length=27, k_frac=0.2, pc=0.9, pm=0.1)  # the shipped GA
    @example(size=7, length=9, k_frac=1.0, pc=1.0, pm=1.0)
    @example(size=8, length=1, k_frac=1.0, pc=1.0, pm=0.0)
    @example(size=9, length=2, k_frac=0.5, pc=1.0, pm=1.0)
    @example(size=6, length=27, k_frac=1.0, pc=0.0, pm=0.0)
    def test_evolve_matches_the_operators(self, size, length, k_frac, pc, pm):
        k = max(1, round(k_frac * size))
        cfg = EvolverConfig(population_size=size, tournament_size=k, crossover_prob=pc,
                            mutation_prob=pm, generations=5)
        fitness = GeneSumFitness(length)
        built = []
        real = evolver._offspring_from_block
        with pytest.MonkeyPatch.context() as mp:
            for seed in range(6):
                mp.setattr(evolver, "_offspring_from_block",
                           lambda *a: built.append(real(*a)) or built[-1])
                fast = evolve_trace(np.random.default_rng, fitness, length, cfg, seed)
                mp.setattr(evolver, "_offspring_from_block", lambda *a: None)
                assert fast == evolve_trace(np.random.default_rng, fitness, length, cfg, seed)
                mp.undo()
        assert len(built) == 6 * cfg.generations and None not in built

    def test_rejected_draw_takes_the_operators(self, monkeypatch):
        # Zero low halves make every fresh 32-bit draw fall in Lemire's
        # rejection zone for the gene range 1..5.
        cfg = EvolverConfig(population_size=11, tournament_size=4, mutation_prob=0.5,
                            generations=4)
        fitness = GeneSumFitness(9)
        expected = [evolve_trace(np.random.default_rng, fitness, 9, cfg, seed)
                    for seed in range(4)]
        built = []
        real = evolver._offspring_from_block
        monkeypatch.setattr(
            evolver, "_offspring_from_block",
            lambda pop, fits, cfg, block, *a: built.append(
                real(pop, fits, cfg, block & np.uint64(0xFFFFFFFF00000000), *a)) or built[-1])
        got = [evolve_trace(np.random.default_rng, fitness, 9, cfg, seed) for seed in range(4)]
        assert got == expected
        assert len(built) == 4 * cfg.generations and all(b is None for b in built)

    def test_other_bit_generator_takes_the_operators(self, monkeypatch):
        cfg = EvolverConfig(population_size=10, tournament_size=3, mutation_prob=0.3,
                            generations=4)
        fitness = GeneSumFitness(9)
        mt = lambda seed: np.random.Generator(np.random.MT19937(seed))  # noqa: E731
        calls = []
        monkeypatch.setattr(evolver, "_offspring_from_block", lambda *a: calls.append(a))
        got = [evolve_trace(mt, fitness, 9, cfg, seed) for seed in range(4)]
        monkeypatch.setattr(evolver, "_offspring_from_block", lambda *a: None)
        assert got == [evolve_trace(mt, fitness, 9, cfg, seed) for seed in range(4)]
        assert calls == []

    def test_nan_fitness_rejected(self):
        # A NaN fitness has no rank; evolve names the population index of
        # the first chromosome that scores it, in generation 0 or later.
        cfg = EvolverConfig(population_size=10, tournament_size=3, mutation_prob=0.3,
                            generations=4)
        rng = np.random.default_rng(0)
        pop = init_population(random_genes(9, rng), cfg, rng)
        first = [sum(g) % 4 for g in pop.tolist()].index(3)
        with pytest.raises(ValueError, match=f"fitness of chromosome {first} is NaN"):
            evolve(pop, window_no_events(), GeneSumFitness(9, nan_mod=3), cfg, rng)

        fitness, seen = GeneSumFitness(9), []
        batch = fitness.batch

        def nan_on_the_third_batch(population, window):
            fits = batch(population, window)
            seen.append(population[-1].tolist())
            if len(seen) == 3:
                fits[-1] = np.nan
            return fits
        fitness.batch = nan_on_the_third_batch
        pop = init_population(random_genes(9, rng), cfg, rng)
        with pytest.raises(ValueError, match="is NaN") as err:
            evolve(pop, window_no_events(), fitness, cfg, rng)
        assert len(seen) == 3
        assert str(err.value) == f"fitness of chromosome {pop.tolist().index(seen[-1])} is NaN"


class TestEvolverConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            EvolverConfig(tournament_size=51)
        with pytest.raises(ValueError):
            EvolverConfig(crossover_prob=1.5)
        with pytest.raises(ValueError):
            EvolverConfig(mutation_prob=-0.1)
        with pytest.raises(ValueError):
            EvolverConfig(invocation_period=0)

    def test_defaults_match_contract(self):
        cfg = EvolverConfig()
        assert cfg.population_size == 50
        assert cfg.crossover_prob == 0.9
        assert cfg.mutation_prob == 0.1
        assert cfg.tournament_size == 10

