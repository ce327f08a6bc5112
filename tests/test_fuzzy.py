"""Membership math, rule evaluation, and centroid defuzzification."""

import math

import numpy as np
import pytest

import gflsim.fuzzy as fuzzy
from conftest import reference_strengths
from gflsim.evolver import validate_chromosome
from gflsim.experiment import ConfigError, config_from_dict
from gflsim.fuzzy import (
    DEFAULT_CONSEQUENTS,
    FuzzyDefinitionError,
    FuzzySystem,
    LinguisticVariable,
    MembershipFunction,
    NoActivationError,
    default_channels,
    default_distance,
    default_output,
    default_system,
    default_velocity,
    trapezoid,
    triangle,
)
from gflsim.policies import make_policy
from gflsim.world import World, WorldConfig

# Frozen from a 10^6-sample midpoint Riemann reference computed ahead of the
# implementation (independent numpy sum over the full output universe).
ORACLE_MIXED_VL_L = 0.2202380952382857


class TestMembership:
    def test_triangle_peak(self):
        assert triangle("t", 0, 0.5, 1).degree(0.5) == 1.0

    def test_triangle_interpolation(self):
        assert triangle("t", 0, 0.5, 1).degree(0.25) == 0.5

    def test_outside_support_is_zero(self):
        mf = triangle("t", 0, 0.5, 1)
        assert mf.degree(2.0) == 0.0
        assert mf.degree(-0.1) == 0.0

    def test_trapezoid_plateau(self):
        mf = trapezoid("t", 0, 1, 2, 3)
        assert mf.degree(1.0) == mf.degree(1.5) == mf.degree(2.0) == 1.0
        assert mf.degree(0.5) == 0.5
        assert mf.degree(2.5) == 0.5

    def test_degenerate_edges(self):
        left = triangle("l", 0, 0, 15)
        right = triangle("r", 15, 30, 30)
        assert left.degree(0.0) == 1.0
        assert left.degree(15.0) == 0.0
        assert right.degree(30.0) == 1.0
        assert right.degree(15.0) == 0.0

    def test_degrees_matches_scalar(self, rng):
        for mf in (*default_velocity().terms, trapezoid("q", 0.1, 0.3, 0.5, 0.9)):
            lo, hi = mf.support
            xs = rng.uniform(lo - 1, hi + 1, size=500)
            vec = mf.degrees(xs)
            for x, v in zip(xs, vec):
                assert v == mf.degree(float(x))

    def test_validation(self):
        with pytest.raises(FuzzyDefinitionError):
            MembershipFunction("bad", (1.0, 0.5, 2.0))
        with pytest.raises(FuzzyDefinitionError):
            MembershipFunction("bad", (0.0, 1.0))
        with pytest.raises(FuzzyDefinitionError):
            MembershipFunction("bad", (1.0, 1.0, 1.0))

    def test_degree_range_everywhere(self, rng):
        for mf in default_output().terms:
            for x in rng.uniform(-2, 2, size=2000):
                assert 0.0 <= mf.degree(float(x)) <= 1.0


class TestLinguisticVariable:
    def test_fuzzify_at_peak(self):
        assert default_velocity().fuzzify(0.0) == (1.0, 0.0, 0.0)

    def test_fuzzify_interpolates(self):
        slow, medium, fast = default_velocity().fuzzify(10.0)
        assert slow == pytest.approx(1 / 3)
        assert medium == 0.5
        assert fast == 0.0

    def test_fuzzify_clamps(self):
        assert default_velocity().fuzzify(100.0) == (0.0, 0.0, 1.0)
        assert default_velocity().fuzzify(-5.0) == (1.0, 0.0, 0.0)

    def test_coverage_over_universe(self, rng):
        for var in (default_velocity(), default_distance(),
                    default_channels(), default_output()):
            xs = rng.uniform(var.lo, var.hi, size=10_000)
            for x in xs:
                degs = var.fuzzify(float(x))
                assert all(0.0 <= d <= 1.0 for d in degs)
                assert max(degs) > 0.0, f"{var.name} uncovered at {x}"

    def test_coverage_gap_rejected(self):
        with pytest.raises(FuzzyDefinitionError, match="covers"):
            LinguisticVariable("gappy", 0.0, 1.0, (
                triangle("a", 0.0, 0.0, 0.3),
                triangle("b", 0.7, 1.0, 1.0),
            ))

    def test_peak_order_enforced(self):
        with pytest.raises(FuzzyDefinitionError, match="increase"):
            LinguisticVariable("v", 0.0, 1.0, (
                triangle("a", 0.0, 0.6, 1.0),
                triangle("b", 0.0, 0.4, 1.0),
            ))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(FuzzyDefinitionError, match="duplicate"):
            LinguisticVariable("v", 0.0, 1.0, (
                triangle("a", 0.0, 0.0, 1.0),
                triangle("a", 0.0, 1.0, 1.0),
            ))


class TestRuleBase:
    """The shipped 3x3x3 grid, laid out row-major over the input levels."""

    def test_default_grid_shape(self):
        system = default_system()
        assert system.levels == (3, 3, 3)
        assert system.n_cells == len(DEFAULT_CONSEQUENTS) == 27
        assert all(1 <= g <= 5 for g in DEFAULT_CONSEQUENTS)

    def test_consequent_lookup_is_row_major(self):
        # One crisp level per input fires exactly the cell at
        # (velocity * 3 + distance) * 3 + channels.
        system = default_system()
        for v, d, c in ((0, 0, 0), (1, 2, 1), (2, 0, 2)):
            degs = [tuple(float(i == lvl) for i in range(3)) for lvl in (v, d, c)]
            fired = np.flatnonzero(system.cell_weights(degs))
            assert fired.tolist() == [(v * 3 + d) * 3 + c]

    def test_distance_monotonicity(self):
        # For fixed velocity and channel levels the consequent index does
        # not decrease as the distance level rises.
        for v in range(3):
            for c in range(3):
                row = [DEFAULT_CONSEQUENTS[(v * 3 + d) * 3 + c] for d in range(3)]
                assert row == sorted(row), (v, c, row)

    def test_validation(self):
        # Grids enter through the config and the GA; both reject a wrong
        # cell count and a consequent outside 1..5.
        for bad in ([1] * 26, [6] + [1] * 26):
            with pytest.raises(ConfigError, match="fuzzy.consequents"):
                config_from_dict({"fuzzy": {"consequents": bad}})
            with pytest.raises(ValueError):
                validate_chromosome(bad, 27)


def fire(degs, consequents=DEFAULT_CONSEQUENTS):
    """Output-term strengths of the default system for raw degree vectors."""
    system = default_system()
    return tuple(system.strengths(system.cell_weights(degs), tuple(consequents)).tolist())


class TestEvaluateRules:
    def test_single_cell_fires(self):
        assert fire([(1, 0, 0), (1, 0, 0), (1, 0, 0)]) == (0.0, 1.0, 0.0, 0.0, 0.0)

    def test_all_zero_degrees(self):
        assert fire([(0, 0, 0), (0, 0, 0), (0, 0, 0)]) == (0.0,) * 5

    def test_two_cells_aggregate(self):
        assert fire([(0.5, 0.5, 0), (1, 0, 0), (1, 0, 0)]) == (0.5, 0.5, 0.0, 0.0, 0.0)

    def test_iteration_order_invariance(self, rng):
        # shuffled-order reference evaluation
        import itertools
        for _ in range(50):
            degs = [tuple(rng.random(3)) for _ in range(3)]
            cells = list(enumerate(itertools.product(range(3), range(3), range(3))))
            rng.shuffle(cells)
            ref = [0.0] * 5
            for flat, (i, j, k) in cells:
                w = min(degs[0][i], degs[1][j], degs[2][k])
                term = DEFAULT_CONSEQUENTS[flat] - 1
                ref[term] = max(ref[term], w)
            assert fire(degs) == tuple(ref)
            assert reference_strengths(DEFAULT_CONSEQUENTS, degs) == tuple(ref)

    def test_arity_checked(self):
        with pytest.raises(FuzzyDefinitionError):
            default_system().compute(DEFAULT_CONSEQUENTS, (10.0, 0.5))


class TestDefuzzify:
    def test_symmetric_triangle(self):
        v = default_system().crisp_from_strengths((0, 1, 0, 0, 0))
        assert abs(v - 0.25) < 1e-3

    def test_clipping_preserves_symmetry(self):
        v = default_system().crisp_from_strengths((0, 0.5, 0, 0, 0))
        assert abs(v - 0.25) < 1e-3

    def test_mixed_activation_against_frozen_oracle(self):
        v = default_system().crisp_from_strengths((0.5, 0.5, 0, 0, 0))
        assert 0.083 < v < 0.25
        assert abs(v - ORACLE_MIXED_VL_L) < 1e-3

    def test_no_activation_raises(self):
        with pytest.raises(NoActivationError):
            default_system().crisp_from_strengths((0.0,) * 5)

    def test_matched_resolution_agrees_with_independent_sum(self, rng):
        # independent reference: scalar degrees, math.fsum accumulation
        system = default_system()
        out = system.output_var
        res = system.resolution
        for _ in range(40):
            s = rng.random(5)
            s[rng.integers(0, 5)] = 0.0
            if not s.any():
                s[0] = 0.7
            num_terms = []
            den_terms = []
            for r in range(res):
                x = (r + 0.5) / res
                comp = max(min(float(sv), t.degree(x))
                           for sv, t in zip(s, out.terms))
                num_terms.append(x * comp)
                den_terms.append(comp)
            ref = math.fsum(num_terms) / math.fsum(den_terms)
            v = system.crisp_from_strengths(s)
            assert abs(v - ref) < 1e-12

    def test_high_resolution_oracle_spot_checks(self, rng):
        system = default_system()
        xs = (np.arange(1_000_000) + 0.5) / 1_000_000
        table = np.stack([t.degrees(xs) for t in system.output_var.terms])
        for _ in range(5):
            s = rng.random(5)
            comp = np.maximum.reduce(np.minimum(s[:, None], table), axis=0)
            oracle = float(np.sum(comp * xs) / np.sum(comp))
            v = system.crisp_from_strengths(s)
            assert abs(v - oracle) < 1e-3

    def test_centroid_stays_inside_universe(self, rng):
        # The centroid lies strictly inside the hull of the activated supports.
        system = default_system()
        terms = system.output_var.terms
        for _ in range(10_000):
            s = rng.random(5) * (rng.random(5) < 0.5)
            if not s.any():
                continue
            v = system.crisp_from_strengths(s)
            assert 0.0 <= v <= 1.0
            lo = min(t.support[0] for t, w in zip(terms, s) if w > 0.0)
            hi = max(t.support[1] for t, w in zip(terms, s) if w > 0.0)
            assert lo < v < hi


class TestPipeline:
    def test_slow_far_high_scores_high(self):
        v = default_system().compute(DEFAULT_CONSEQUENTS, (0.0, 1.0, 1.0))
        assert v > 0.75

    def test_fast_near_low_scores_low(self):
        v = default_system().compute(DEFAULT_CONSEQUENTS, (30.0, 0.0, 0.0))
        assert v < 0.25

    def test_deterministic_bits(self):
        system = default_system()
        a = system.compute(DEFAULT_CONSEQUENTS, (0.0, 0.0, 0.0))
        b = system.compute(DEFAULT_CONSEQUENTS, (0.0, 0.0, 0.0))
        assert a == b

    def test_fast_strengths_match_reference(self, rng):
        system = default_system()
        for _ in range(300):
            inputs = (rng.uniform(-5, 40), rng.uniform(-0.2, 1.2), rng.uniform(0, 1))
            degs = system.fuzzify(inputs)
            w = system.cell_weights(degs)
            fast = tuple(system.strengths(w, DEFAULT_CONSEQUENTS))
            assert fast == reference_strengths(DEFAULT_CONSEQUENTS, degs)


def trapezoid_output() -> LinguisticVariable:
    return LinguisticVariable("out", 0.0, 1.0, (
        trapezoid("a", 0.0, 0.0, 0.1, 0.3), trapezoid("b", 0.1, 0.25, 0.35, 0.5),
        trapezoid("c", 0.3, 0.45, 0.55, 0.7), trapezoid("d", 0.5, 0.65, 0.75, 0.9),
        trapezoid("e", 0.7, 0.9, 1.0, 1.0),
    ))


def three_way_output() -> LinguisticVariable:
    """Wide triangles: every subset of the five terms overlaps somewhere."""
    return LinguisticVariable("out", 0.0, 1.0, (
        triangle("a", 0.0, 0.0, 0.6), triangle("b", 0.0, 0.25, 0.7),
        triangle("c", 0.1, 0.5, 0.9), triangle("d", 0.3, 0.75, 1.0),
        triangle("e", 0.4, 1.0, 1.0),
    ))


def shifted_output() -> LinguisticVariable:
    return LinguisticVariable("out", -50.0, 150.0, (
        triangle("a", -50.0, -50.0, 0.0), triangle("b", -50.0, 0.0, 50.0),
        triangle("c", 0.0, 50.0, 100.0), triangle("d", 50.0, 100.0, 150.0),
        triangle("e", 100.0, 150.0, 150.0),
    ))


class TestCentroidEstimate:
    @pytest.mark.parametrize("output", [default_output, trapezoid_output,
                                        three_way_output, shifted_output])
    def test_matches_exact_centroid(self, output, rng):
        system = FuzzySystem((default_velocity(),), output())
        rows = rng.random((10_000, 5)) * (rng.random((10_000, 5)) < 0.6)
        rows[~rows.any(axis=1), 2] = 0.5
        rows[:50] = rng.integers(0, 3, size=(50, 5)) / 2  # ties and full strengths
        rows[:50][~rows[:50].any(axis=1), 0] = 1.0
        est = system.centroid_estimates(rows)
        exact = np.array([
            fuzzy._centroid_row(r, system._xs, system._table, system._spans)
            for r in rows.tolist()
        ])
        var = system.output_var
        bound = 1e-12 * max(1.0, abs(var.lo), abs(var.hi))
        assert np.abs(est - exact).max() <= bound

    def test_three_way_output_keeps_every_overlap(self):
        var = three_way_output()
        assert len(fuzzy._overlap_sums(var, 1001)[0]) == 31
        assert len(fuzzy._overlap_sums(default_output(), 1001)[0]) == 9

    def test_no_activation_estimates_nan(self):
        system = default_system()
        est = system.centroid_estimates(np.zeros((2, 5)))
        assert np.isnan(est).all()
        with pytest.raises(NoActivationError):
            system.crisp_from_strengths([0.0] * 5)


class TestCaches:
    def test_caches_stay_bounded_over_a_long_run(self, monkeypatch):
        # Live steps settle threshold regions and hardly ever defuzzify, so
        # the value cache is filled through compute: once per covered
        # (terminal, station) input of every unit of a long run.
        cap = 64
        cfg = WorldConfig(mt_count=10, total_time=150)
        reference, unbounded = World.build(cfg, np.random.default_rng(8)), make_policy("fls")
        for _ in range(cfg.total_time):
            reference.step(unbounded)
        monkeypatch.setattr(fuzzy, "_CACHE_LIMIT", cap)
        policy = make_policy("fls")
        world = World.build(cfg, np.random.default_rng(8))
        largest = 0
        for _ in range(cfg.total_time):
            rec = world.step(policy)
            for v, ratios, chans in zip(rec.velocity.tolist(), rec.ratio.tolist(),
                                        rec.chan.tolist()):
                for r, c in zip(ratios, chans):
                    if r > 0.0:
                        value = policy.decide(v, r, c)
                        assert value == unbounded.decide(v, r, c)
                        largest = max(largest, len(policy.system._value_cache))
        assert largest == cap
        assert world.events == reference.events

    def test_capped_system_computes_the_same_values(self, monkeypatch, rng):
        fresh = default_system()
        monkeypatch.setattr(fuzzy, "_CACHE_LIMIT", 8)
        capped = default_system()
        for _ in range(300):
            genes = tuple(int(g) for g in rng.integers(1, 6, size=27))
            inputs = (rng.uniform(0, 30), rng.uniform(0, 1), rng.uniform(0, 1))
            w = capped.cell_weights(capped.fuzzify(inputs))
            s = capped.strengths(w, genes)
            assert capped.compute(genes, inputs) == fuzzy._centroid_row(
                s.tolist(), fresh._xs, fresh._table, fresh._spans)
            assert len(capped._value_cache) <= 8
            assert len(capped._onehot_cache) <= 8
