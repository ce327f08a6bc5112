"""Membership math, rule evaluation, and centroid defuzzification."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gflsim.fuzzy as fuzzy
from conftest import reference_degrees, reference_strengths
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
    region_codes,
    trapezoid,
    triangle,
)
from gflsim.policies import make_policy

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
        assert default_velocity().degrees(0.0).tolist() == [1.0, 0.0, 0.0]

    def test_fuzzify_interpolates(self):
        slow, medium, fast = default_velocity().degrees(10.0).tolist()
        assert slow == pytest.approx(1 / 3)
        assert medium == 0.5
        assert fast == 0.0

    def test_fuzzify_clamps(self):
        assert default_velocity().degrees(100.0).tolist() == [0.0, 0.0, 1.0]
        assert default_velocity().degrees(-5.0).tolist() == [1.0, 0.0, 0.0]

    def test_coverage_over_universe(self, rng):
        for var in (default_velocity(), default_distance(),
                    default_channels(), default_output()):
            xs = rng.uniform(var.lo, var.hi, size=10_000)
            degs = var.degrees(xs)
            assert ((0.0 <= degs) & (degs <= 1.0)).all()
            assert (degs.max(axis=1) > 0.0).all(), f"{var.name} uncovered"

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_degrees_equal_scalar_degree(self, data):
        # A drawn triangle or trapezoid (shoulders a == b and c == z among
        # them) between two shoulder terms that cover the universe, at its
        # breakpoints, inside and outside its support and the universe, and NaN.
        a = data.draw(st.floats(-50.0, 50.0))
        gap = st.one_of(st.just(0.0), st.floats(0.001, 20.0))
        b = a + data.draw(gap)
        c = b + data.draw(gap) if data.draw(st.booleans()) else b
        z = c + data.draw(gap)
        assume(z > a)
        lo, hi = a - data.draw(st.floats(0.5, 10.0)), z + data.draw(st.floats(0.5, 10.0))
        mf = MembershipFunction("m", (a, b, z) if b == c else (a, b, c, z))
        var = LinguisticVariable("v", lo, hi, (
            triangle("lo", lo, lo, hi), mf, triangle("hi", lo, hi, hi)))
        xs = data.draw(st.lists(st.one_of(
            st.floats(lo - 20.0, hi + 20.0), st.sampled_from([lo, a, b, c, z, hi, -0.0, 0.0])),
            min_size=1, max_size=40))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = var.degrees(xs + [math.nan])
        want = [[t.degree(min(max(x, lo), hi)) for t in var.terms] for x in xs]
        assert got[:-1].tolist() == want
        assert got[-1].tolist() == [0.0, 0.0, 0.0]

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
        # The peak of one level per input fires exactly the cell at
        # (velocity * 3 + distance) * 3 + channels.
        system = default_system()
        for v, d, c in ((0, 0, 0), (1, 2, 1), (2, 0, 2)):
            peaks = [var.terms[lvl].peak for var, lvl in zip(system.input_vars, (v, d, c))]
            fired = np.flatnonzero(system.fire(peaks))
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


class TestEvaluateRules:
    """The scalar reference firing that the batched decisions are checked
    against, on raw degree vectors of the shipped grid."""

    def test_single_cell_fires(self):
        degs = [(1, 0, 0), (1, 0, 0), (1, 0, 0)]
        assert reference_strengths(DEFAULT_CONSEQUENTS, degs) == (0.0, 1.0, 0.0, 0.0, 0.0)

    def test_all_zero_degrees(self):
        degs = [(0, 0, 0), (0, 0, 0), (0, 0, 0)]
        assert reference_strengths(DEFAULT_CONSEQUENTS, degs) == (0.0,) * 5

    def test_two_cells_aggregate(self):
        degs = [(0.5, 0.5, 0), (1, 0, 0), (1, 0, 0)]
        assert reference_strengths(DEFAULT_CONSEQUENTS, degs) == (0.5, 0.5, 0.0, 0.0, 0.0)

    def test_iteration_order_invariance(self, rng):
        # shuffled-order reference evaluation
        for _ in range(50):
            degs = [tuple(rng.random(3)) for _ in range(3)]
            cells = list(enumerate(itertools.product(range(3), range(3), range(3))))
            rng.shuffle(cells)
            ref = [0.0] * 5
            for flat, (i, j, k) in cells:
                w = min(degs[0][i], degs[1][j], degs[2][k])
                term = DEFAULT_CONSEQUENTS[flat] - 1
                ref[term] = max(ref[term], w)
            assert reference_strengths(DEFAULT_CONSEQUENTS, degs) == tuple(ref)

    def test_arity_checked(self):
        # One input per variable: extra inputs are not ignored, nor missing ones left out.
        system = default_system()
        with pytest.raises(FuzzyDefinitionError, match="expected 3 inputs, got 2"):
            system.fire((10.0, 0.5))
        with pytest.raises(FuzzyDefinitionError, match="expected 3 inputs, got 4"):
            system.fire((10.0, 0.5, 0.5, 0.5))

    @pytest.mark.parametrize("n_inputs", [2, 3])
    def test_fire_is_the_outer_min_of_per_variable_degrees(self, n_inputs):
        # One degrees pass over every input term equals, bit for bit, each variable's
        # degrees and their outer min: with NaN, infinities, breakpoints, values outside
        # the universes, and scalars broadcast against arrays of two shapes.
        full = default_system()
        system = FuzzySystem(full.input_vars[:n_inputs], full.output_var)
        rng = np.random.default_rng(n_inputs)

        def outer_min(inputs):
            w = np.ones(1)
            for var, x in zip(system.input_vars, inputs):
                w = np.minimum(w[..., :, None], var.degrees(x)[..., None, :])
                w = w.reshape(w.shape[:-2] + (-1,))
            return w

        for trial in range(300):
            inputs = []
            for var in system.input_vars:
                shape = [(), (6,), (4, 6), (4, 1)][rng.integers(4)]
                span = var.hi - var.lo
                x = rng.uniform(var.lo - span, var.hi + span, shape)
                special = [math.nan, math.inf, -math.inf, var.lo, var.hi,
                           *(p for t in var.terms for p in t.points)]
                x = np.where(rng.random(shape) < 0.3, rng.choice(special, shape), x)
                inputs.append(float(x) if shape == () and trial % 2 else x)
            got, want = system.fire(tuple(inputs)), outer_min(inputs)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        with pytest.raises(FuzzyDefinitionError, match=f"expected {n_inputs} inputs"):
            system.fire(tuple(inputs) + (0.5,))


class TestRegionCodes:
    def test_codes_at_and_around_the_thresholds(self):
        for s_min, s_th in ((0.2, 0.45), (0.0, 0.5), (-0.5, 0.0)):
            near = [np.nextafter(t, d) for t in (s_min, s_th) for d in (-np.inf, np.inf)]
            values = [s_min, s_th, *near, 0.0, -0.0, np.inf, -np.inf]
            want = [0 if v < s_min else 1 if v == s_min else 2 if v < s_th else 3
                    for v in values]
            assert region_codes(np.array(values), s_min, s_th).tolist() == want
            assert [int(region_codes(v, s_min, s_th)) for v in values] == want
        # NaN compares false with both thresholds: below s_min.
        assert region_codes(np.array([np.nan]), 0.2, 0.45).tolist() == [fuzzy._BELOW_MIN]


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

    def test_term_strengths_reject_a_consequent_outside_the_output_terms(self):
        system = default_system()
        fired = system.fire((np.array([3.0]), np.array([0.3]), np.array([0.6])))
        for bad in (6, 0):
            genes = list(DEFAULT_CONSEQUENTS)
            genes[7] = bad
            with pytest.raises(ValueError, match=f"consequent {bad} at index 7 is outside 1..5"):
                system.term_strengths(genes, fired)
        with pytest.raises(ValueError, match="expected 27 consequents"):
            system.term_strengths(DEFAULT_CONSEQUENTS + (1,), fired)

    def test_term_strengths_check_a_grid_on_every_call_until_it_passes(self):
        # The check runs on a miss of the term-group cache, which keeps no
        # rejected grid, so the same bad grid fails every time.
        system = default_system()
        fired = system.fire((np.array([3.0]), np.array([0.3]), np.array([0.6])))
        genes = DEFAULT_CONSEQUENTS[:7] + (9,) + DEFAULT_CONSEQUENTS[8:]
        for _ in range(2):
            with pytest.raises(ValueError, match="consequent 9 at index 7 is outside 1..5"):
                system.term_strengths(genes, fired)
        fuzzy._term_groups.cache_clear()
        first = system.term_strengths(DEFAULT_CONSEQUENTS, fired)
        assert fuzzy._term_groups.cache_info().misses == 1
        assert (system.term_strengths(DEFAULT_CONSEQUENTS, fired) == first).all()
        assert fuzzy._term_groups.cache_info().hits == 1
        # 2.0 == 2, so a whole float would find the checked grid by value alone.
        with pytest.raises(ValueError, match="consequent 2.0 at index 0 is not an integer"):
            system.term_strengths((2.0,) + DEFAULT_CONSEQUENTS[1:], fired)

    def test_check_consequents_rejects_non_integer_and_empty_vectors(self):
        system = default_system()
        genes = list(DEFAULT_CONSEQUENTS)
        genes[5] = 2.5
        with pytest.raises(ValueError, match="consequent 2.5 at index 5 is not an integer"):
            system.check_consequents(genes)
        # A float array holds no integers, whole or not.
        with pytest.raises(ValueError, match="consequent 2.0 at index 0 is not an integer"):
            system.check_consequents(np.array(genes))
        with pytest.raises(ValueError, match="consequent nan at index 0 is not an integer"):
            system.check_consequents((float("nan"),) * 27)
        with pytest.raises(ValueError, match=r"expected 27 consequents, got shape \(0,\)"):
            system.check_consequents(())
        got = system.check_consequents(np.array(DEFAULT_CONSEQUENTS, dtype=np.uint8))
        assert got.dtype == np.int64 and got.tolist() == list(DEFAULT_CONSEQUENTS)

    def test_settle_raises_on_an_all_zero_row(self):
        rows = np.array([[0.0, 1.0, 0.0, 0.0, 0.0], [0.0] * 5])
        with pytest.raises(NoActivationError):
            default_system().settle(rows, 0.2, 0.45)

    def test_output_term_without_a_sample_rejected(self):
        # A term between two samples of the output grid would leave a
        # strength row on it alone without a centroid.
        out = LinguisticVariable("rss_threshold", 0.0, 1.0, (
            triangle("very_low", 0.0, 0.0, 0.5),
            triangle("low", 0.0, 0.25, 0.6),
            triangle("narrow", 0.51, 0.52, 0.53),
            triangle("high", 0.45, 0.75, 1.0),
            triangle("very_high", 0.75, 1.0, 1.0),
        ))
        inputs = (default_velocity(), default_distance(), default_channels())
        with pytest.raises(FuzzyDefinitionError, match="'narrow' has no sample"):
            FuzzySystem(inputs, out, resolution=10)
        FuzzySystem(inputs, out, resolution=1000)

    @pytest.mark.parametrize("resolution", [0, fuzzy.MAX_RESOLUTION + 1, 10 ** 8])
    def test_resolution_out_of_range_rejected(self, resolution, monkeypatch):
        # Rejected before any sample is laid out.
        monkeypatch.setattr(fuzzy, "np", None)
        with pytest.raises(FuzzyDefinitionError, match="resolution must be in"):
            FuzzySystem((default_velocity(),), default_output(), resolution)

    def test_largest_resolution_accepted(self):
        system = FuzzySystem((default_velocity(),), default_output(), fuzzy.MAX_RESOLUTION)
        assert len(system._xs) == fuzzy.MAX_RESOLUTION

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
        table = np.array([list(map(t.degree, xs.tolist())) for t in system.output_var.terms])
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
        assert make_policy("fls").decide(0.0, 1.0, 1.0) > 0.75

    def test_fast_near_low_scores_low(self):
        assert make_policy("fls").decide(30.0, 0.0, 0.0) < 0.25

    def test_deterministic_bits(self):
        policy = make_policy("fls")
        assert policy.decide(0.0, 0.0, 0.0) == policy.decide(0.0, 0.0, 0.0)

    def test_fast_strengths_match_reference(self, rng):
        # Array firing equals per-cell minima of the scalar degrees, inside
        # and outside the universes.
        system = default_system()
        for _ in range(300):
            inputs = (rng.uniform(-5, 40), rng.uniform(-0.2, 1.2), rng.uniform(0, 1))
            want = [min(c) for c in itertools.product(*reference_degrees(system, inputs))]
            assert system.fire(inputs).tolist() == want


@st.composite
def covered_variable(draw, name: str, n_terms: int = 0):
    """A variable over a random universe whose terms (``n_terms``, or 1 to 4),
    at random breakpoints with strictly increasing peaks, cover it."""
    lo = draw(st.floats(-100.0, 100.0))
    hi = lo + draw(st.floats(0.5, 100.0))
    n = n_terms or draw(st.integers(1, 4))
    cuts = sorted(draw(st.lists(st.integers(1, 19), min_size=n - 1, max_size=n - 1,
                                unique=True)))
    bounds = [lo] + [lo + c / 20 * (hi - lo) for c in cuts] + [hi]
    terms = []
    for i in range(n):
        a, b = bounds[i], bounds[i + 1]
        left = a - draw(st.floats(0.01, 0.3)) * (hi - lo)
        right = b + draw(st.floats(0.01, 0.3)) * (hi - lo)
        if draw(st.booleans()):
            terms.append(trapezoid(f"t{i}", left, a, b, right))
        else:
            terms.append(triangle(f"t{i}", left, 0.5 * (a + b), right))
    return LinguisticVariable(name, lo, hi, tuple(terms))


class TestAlwaysActivated:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_every_input_fires_a_cell_and_settles(self, data):
        n_inputs = data.draw(st.integers(1, 3))
        inputs = [data.draw(covered_variable(f"x{i}")) for i in range(n_inputs)]
        out = data.draw(covered_variable("out", 5))
        try:  # every output term must have a sample of positive degree
            system = FuzzySystem(inputs, out, data.draw(st.integers(5, 2000)))
        except FuzzyDefinitionError:
            assume(False)
        genes = data.draw(st.lists(st.integers(1, 5), min_size=system.n_cells,
                                   max_size=system.n_cells))
        rows = []
        for var in inputs:
            width = var.hi - var.lo
            edges = [p for t in var.terms for p in t.points]
            rows.append(data.draw(st.lists(st.one_of(
                st.floats(var.lo - width, var.hi + width), st.sampled_from(edges)),
                min_size=8, max_size=8)))
        xs = [np.array(r) for r in rows]
        fired = system.fire(xs)
        assert (fired.max(axis=-1) > 0.0).all()
        # The largest fired weight per output term: the grid's min-max strengths.
        strengths = system.term_strengths(genes, fired)
        want = np.zeros((8, 5))
        for cell, g in enumerate(genes):
            want[:, g - 1] = np.maximum(want[:, g - 1], fired[:, cell])
        assert strengths.tolist() == want.tolist()
        s_min = out.lo + data.draw(st.floats(0.0, 0.9)) * (out.hi - out.lo)
        codes = system.settle(strengths, s_min, s_min + 0.1 * (out.hi - out.lo))
        assert codes.shape == (8,) and ((codes >= 0) & (codes <= 3)).all()


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

    @pytest.mark.parametrize("output", [default_output, trapezoid_output,
                                        three_way_output, shifted_output])
    def test_level_tables_settle_as_settle(self, output, rng, monkeypatch):
        # The replay settles rows of indices into ascending levels through
        # sums tabled once per level set.  Its codes, and the rows it hands to
        # the exact centroid, equal settle's on the rows of those levels.
        system = FuzzySystem((default_velocity(),), output())
        levels = np.unique(np.append(rng.random(130), [0.0, 0.5, 1.0]))
        rows = rng.integers(0, len(levels), size=(2000, 5)) * (rng.random((2000, 5)) < 0.6)
        rows[:100] = rng.integers(1, len(levels), size=(100, 1))  # one level in every term
        rows[100:150] = rng.integers(0, 3, size=(50, 5))  # ties among the lowest levels
        rows[150:250] = 0
        rows[np.arange(150, 250), rng.integers(0, 5, 100)] = rng.integers(1, len(levels), 100)
        rows[~rows.any(axis=1), 2] = len(levels) - 1
        # Thresholds at the exact centroids of two rows (and their copies):
        # their estimates lie within the tolerance, so the exact centroid runs.
        rows[250:260], rows[260:270] = [9, 0, 0, 0, 0], [0, 0, 0, 7, 7]
        s_min, s_th = sorted(system.crisp_from_strengths(levels[r]) for r in rows[[250, 260]])
        crisp, exact = FuzzySystem.crisp_from_strengths, []
        monkeypatch.setattr(FuzzySystem, "crisp_from_strengths",
                            lambda self, s: exact.append(s.tolist()) or crisp(self, s))
        want = system.settle(levels[rows], s_min, s_th)
        want_exact, exact[:] = exact[:], []
        got = system.settle_levels(rows, system.level_sums(levels), s_min, s_th)
        assert got.tolist() == want.tolist()
        assert exact == want_exact and len(exact) >= 20
        assert {fuzzy._AT_MIN, fuzzy._ABOVE_TH} <= set(got.tolist())

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


def reduceat_strengths(system: FuzzySystem, genes, fired: np.ndarray) -> np.ndarray:
    """The older ``term_strengths``: cells sorted by consequent, one ``maximum.reduceat``
    per used term, scattered into zeros."""
    genes = np.asarray(genes)
    order = np.argsort(genes, kind="stable")
    first = np.flatnonzero(np.diff(genes[order], prepend=0))
    strengths = np.zeros(fired.shape[:-1] + (system.n_output_terms,))
    strengths[..., genes[order[first]] - 1] = np.maximum.reduceat(fired[..., order], first,
                                                                  axis=-1)
    return strengths


def gathered_estimates(system: FuzzySystem, strengths: np.ndarray) -> np.ndarray:
    """The older ``centroid_estimates``, which reads its tables by 2-D gathers."""
    terms, sign, vs, count, cum_v, cum_vx, tail_x = fuzzy._overlap_sums(
        system.output_var, system.resolution)
    m = strengths[:, terms].min(axis=2)
    k = np.empty(m.shape, dtype=np.int64)
    for j, v in enumerate(vs):
        k[:, j] = np.searchsorted(v, m[:, j])
    sub = np.arange(len(vs))
    den = (cum_v[sub, k] + m * (count - k)) @ sign
    num = (cum_vx[sub, k] + m * tail_x[sub, k]) @ sign
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / den


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestKernelsMatchTheirOlderForms:
    """``term_strengths`` and ``centroid_estimates`` equal, bit for bit, the
    ``reduceat`` and 2-D gather forms they replaced."""

    GRIDS = (DEFAULT_CONSEQUENTS, (3,) * 27, (1, 5) * 13 + (1,), tuple(range(1, 6)) * 5 + (2, 2))

    @pytest.mark.parametrize("genes", GRIDS)
    def test_term_strengths(self, genes, rng):
        system = default_system()
        fired = rng.random((300, 27)) * (rng.random((300, 27)) < 0.3)
        fired[:20] = 0.0  # all-zero rows
        fired[20:40] = rng.integers(0, 3, size=(20, 27)) / 2  # ties
        inputs = (rng.uniform(-5, 40, 100), rng.uniform(-0.2, 1.2, 100), rng.random(100))
        for batch in (fired, system.fire(inputs), fired.reshape(10, 30, 27)):
            assert same_bits(system.term_strengths(genes, batch),
                             reduceat_strengths(system, genes, batch))
        for row in (*fired[:3], fired[50], system.fire((12.0, 0.4, 0.7))):  # scalar inputs
            got = system.term_strengths(genes, row)
            assert got.shape == (5,) and same_bits(got, reduceat_strengths(system, genes, row))
        unused = sorted(set(range(1, 6)) - set(genes))
        assert (system.term_strengths(genes, fired)[:, np.array(unused, int) - 1] == 0.0).all()

    @pytest.mark.parametrize("output", [default_output, trapezoid_output,
                                        three_way_output, shifted_output])
    def test_centroid_estimates(self, output, rng):
        system = FuzzySystem((default_velocity(),), output())
        rows = rng.random((2000, 5)) * (rng.random((2000, 5)) < 0.6)
        rows[:50] = rng.integers(0, 3, size=(50, 5)) / 2  # ties, full strengths, zero rows
        rows[50:60] = 0.0
        rows[60:100, :2] = 0.0  # terms unused
        rows[100:140] = rng.random((40, 1))  # one strength in every term
        for batch in (rows, rows[:1], rows[50:51], rows[:0]):
            assert same_bits(system.centroid_estimates(batch), gathered_estimates(system, batch))
        assert np.isnan(system.centroid_estimates(rows[50:60])).all()
