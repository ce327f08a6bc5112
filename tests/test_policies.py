"""Policy wiring: grid projection, decision delegation, and evolution hooks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gflsim import fuzzy
from gflsim.evolver import EvolverConfig, ReplayFitness, mutate_random_reset, one_point_crossover
from gflsim.fuzzy import DEFAULT_CONSEQUENTS, default_system
from gflsim.policies import HandoffPolicy, PolicyKind, derive_flah_consequents, make_policy
from gflsim.world import HistoryWindow, World, WorldConfig

from conftest import FixedPolicy, random_window, reference_value


class TestPolicyKind:
    def test_evolver_attachment_rule(self):
        assert not PolicyKind.FLS.evolving
        assert PolicyKind.GFLS.evolving
        assert not PolicyKind.FLAH.evolving
        assert PolicyKind.GFLAH.evolving

    def test_channel_usage(self):
        assert PolicyKind.FLS.uses_channels
        assert PolicyKind.GFLS.uses_channels
        assert not PolicyKind.FLAH.uses_channels
        assert not PolicyKind.GFLAH.uses_channels

    def test_mismatched_evolver_rejected(self):
        with pytest.raises(ValueError):
            HandoffPolicy(PolicyKind.GFLS, default_system(), DEFAULT_CONSEQUENTS, None)

    def test_input_count_must_match_the_kind(self):
        flah = make_policy("flah")
        with pytest.raises(ValueError, match="fls reads 3 inputs.*has 2"):
            HandoffPolicy(PolicyKind.FLS, flah.system, flah.genes)
        with pytest.raises(ValueError, match="flah reads 2 inputs.*has 3"):
            HandoffPolicy(PolicyKind.FLAH, default_system(), DEFAULT_CONSEQUENTS)


class TestFlahProjection:
    def test_medians_per_pair(self):
        nine = derive_flah_consequents(DEFAULT_CONSEQUENTS)
        assert len(nine) == 9
        assert all(1 <= g <= 5 for g in nine)
        # slow/near: median of (2, 2, 3); fast/far: median of (3, 4, 4);
        # medium/medium: a constant triple
        assert nine[0] == 2
        assert nine[8] == 4
        assert nine[4] == 3

    def test_full_projection(self):
        assert derive_flah_consequents(DEFAULT_CONSEQUENTS) == (
            2, 3, 5, 2, 3, 4, 1, 2, 4)

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            derive_flah_consequents((1,) * 9)


# Breakpoints of the default input terms, and values outside their universes.
EDGE_VELOCITY = [-5.0, 0.0, 5.0, 15.0, 25.0, 30.0, 45.0]
EDGE_UNIT = [-0.5, 0.0, 0.2, 0.25, 0.4, 0.5, 0.6, 0.75, 0.8, 1.0, 1.5]


class TestDecide:
    def test_fls_delegates_to_full_pipeline(self, rng):
        policy = make_policy("fls")
        system = default_system()
        for _ in range(200):
            v, d, c = rng.uniform(0, 30), rng.random(), rng.random()
            assert policy.decide(v, d, c) == reference_value(system, DEFAULT_CONSEQUENTS,
                                                             (v, d, c))

    @pytest.mark.parametrize("kind", ["fls", "flah"])
    def test_decide_equals_scalar_reference_bit_for_bit(self, kind, rng):
        # Random grids at random inputs (inside and outside the universes)
        # and at every combination of breakpoints.
        edges = [(v, d, c) for v in EDGE_VELOCITY for d in EDGE_UNIT for c in EDGE_UNIT[::2]]
        for _ in range(5):
            policy = make_policy(kind, consequents=rng.integers(1, 6, size=27).tolist())
            n = len(policy.system.input_vars)
            randoms = zip(rng.uniform(-10, 50, 200), rng.uniform(-0.5, 1.5, 200),
                          rng.uniform(-0.5, 1.5, 200))
            for v, d, c in [*edges, *randoms]:
                assert policy.decide(v, d, c) == reference_value(
                    policy.system, policy.genes, (v, d, c)[:n]), (kind, v, d, c)

    def test_flah_ignores_channel_input(self, rng):
        policy = make_policy("flah")
        for _ in range(1000):
            v, d = rng.uniform(0, 30), rng.random()
            c1, c2 = rng.random(), rng.random()
            assert policy.decide(v, d, c1) == policy.decide(v, d, c2)

    def test_gfls_before_any_evolution_equals_fls(self, rng):
        gfls = make_policy("gfls", rng=np.random.default_rng(0))
        fls = make_policy("fls")
        for _ in range(300):
            v, d, c = rng.uniform(0, 30), rng.random(), rng.random()
            assert gfls.decide(v, d, c) == fls.decide(v, d, c)

    def test_decide_range(self, rng):
        for kind in ("fls", "flah"):
            policy = make_policy(kind)
            for _ in range(200):
                out = policy.decide(rng.uniform(-10, 50), rng.uniform(-1, 2), rng.random())
                assert 0.0 <= out <= 1.0


def channel_levels(capacity) -> np.ndarray:
    """The world step's channel inputs: (capacity - occupancy) / capacity at
    occupancy 0..max capacity per row, NaN above the row's capacity."""
    cap = np.asarray(capacity, dtype=np.int64)[:, None]
    level = np.arange(cap.max(initial=0) + 1)
    return np.where(level <= cap, (cap - level) / cap, np.nan)


@st.composite
def decision_batches(draw):
    """A policy over random consequents, rows of decision inputs (breakpoints
    of the default terms among them) and thresholds, half of the time set
    exactly to decision values of the batch."""
    kind = draw(st.sampled_from(["fls", "flah"]))
    genes = draw(st.lists(st.integers(1, 5), min_size=27, max_size=27))
    n = draw(st.integers(0, 6))
    rows = st.lists(st.tuples(
        st.one_of(st.floats(-5.0, 40.0), st.sampled_from([0.0, 5.0, 15.0, 25.0, 30.0])),
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0])),
        st.integers(1, 6)), min_size=n, max_size=n)
    return kind, genes, draw(rows), draw(st.booleans()), draw(st.integers(0, 2 ** 16))


class TestRegions:
    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(decision_batches())
    def test_batched_regions_equal_scalar_decide_at_every_level(self, batch):
        kind, genes, rows, exact, pick = batch
        policy = make_policy(kind, consequents=genes)
        velocity, dist, cap = (np.array([r[i] for r in rows], dtype=float if i < 2 else int)
                               for i in range(3))
        chan = channel_levels(cap)
        values = {(r, o): policy.decide(velocity[r], dist[r], chan[r, o])
                  for r in range(len(rows)) for o in range(cap[r] + 1)}
        s_min, s_th = 0.2, 0.45
        if exact and values:
            # Thresholds on computed crisp values: the estimate lands within
            # the tolerance, so the exact centroid settles those entries.
            ordered = sorted(set(values.values()))
            s_min = ordered[pick % len(ordered)]
            s_th = next((v for v in ordered if v > s_min), s_min + 0.25)
        got = policy.regions(velocity, dist, chan, s_min, s_th)
        assert got.shape == chan.shape
        for (r, o), v in values.items():
            want = (fuzzy._BELOW_MIN if v < s_min else fuzzy._AT_MIN if v == s_min
                    else fuzzy._MID if v < s_th else fuzzy._ABOVE_TH)
            assert got[r, o] == want, (r, o, v, s_min, s_th)
        if exact and values:
            assert (got == fuzzy._AT_MIN).any()

    def test_only_levels_up_to_capacity_are_settled(self):
        # FLS settles one row per level up to each capacity; FLAH, which
        # ignores channels, one row per terminal.
        chan = channel_levels([1, 6])
        for kind, want in (("fls", 2 + 7), ("flah", 2)):
            policy = make_policy(kind)
            settle, settled = policy.system.settle, []
            policy.system.settle = lambda rows, *th: settled.append(len(rows)) or settle(rows, *th)
            got = policy.regions(np.array([3.0, 20.0]), np.array([0.3, 0.9]), chan, 0.2, 0.45)
            assert sum(settled) == want and got.shape == (2, 7)

    def test_empty_batch(self):
        for kind in ("fls", "flah"):
            got = make_policy(kind).regions(np.zeros(0), np.zeros(0), channel_levels([]),
                                            0.2, 0.45)
            assert got.shape == (0, 1)


class TestOnEpoch:
    def test_static_policies_never_change(self, rng):
        policy = make_policy("fls")
        wnd = HistoryWindow(4)
        before = policy.genes
        for t in range(1, 10):
            policy.on_epoch(wnd, t)
        assert policy.genes == before
        assert policy.evolution_log == []

    def _warm_window(self, seed=0, units=4):
        cfg = WorldConfig(total_time=units)
        world = World.build(cfg, np.random.default_rng(seed))
        window = HistoryWindow(units)
        for _ in range(units):
            window.push(world.step(FixedPolicy(0.3)))
        return window

    def test_waits_for_period_and_warmth(self):
        policy = make_policy("gfls", rng=np.random.default_rng(1),
                             evolver_cfg=EvolverConfig(generations=1))
        cold = HistoryWindow(4)
        policy.on_epoch(cold, 4)
        assert policy.last_evolved == 0

        warm = self._warm_window()
        policy.on_epoch(warm, 3)  # period (4) not yet elapsed
        assert policy.last_evolved == 0
        policy.on_epoch(warm, 4)
        assert policy.last_evolved == 4
        assert len(policy.evolution_log) == 1
        t, fit_val, genes = policy.evolution_log[0]
        assert t == 4 and len(genes) == 27

    def test_infinite_period_disables_evolution(self):
        policy = make_policy("gfls", rng=np.random.default_rng(1),
                             evolver_cfg=EvolverConfig(generations=0,
                                                       invocation_period=float("inf")))
        warm = self._warm_window()
        for t in range(1, 80):
            policy.on_epoch(warm, t)
        assert policy.genes == DEFAULT_CONSEQUENTS

    def test_disabled_ga_reproduces_fls_event_log(self):
        import dataclasses
        from gflsim.experiment import default_config, run

        cfg = default_config()
        cfg = dataclasses.replace(
            cfg, evolver=EvolverConfig(generations=0,
                                       invocation_period=float("inf")))
        fls = run(cfg, "fls", 6)
        gfls = run(cfg, "gfls", 6)
        assert gfls.events == fls.events
        assert gfls.metrics == fls.metrics

    def test_installed_grid_never_loses_to_incumbent(self):
        policy = make_policy("gfls", rng=np.random.default_rng(3),
                             evolver_cfg=EvolverConfig(generations=6))
        warm = self._warm_window(seed=8)
        frozen = warm.freeze()
        fitness = policy.evolver.fitness
        incumbent = policy.genes
        policy.on_epoch(warm, 4)
        assert fitness(policy.genes, frozen) <= fitness(incumbent, frozen)


class TestGflahChromosomes:
    def test_nine_gene_operators(self, rng):
        policy = make_policy("gflah", rng=np.random.default_rng(0))
        pop = policy.evolver.population
        assert all(len(g) == 9 for g in pop)
        assert pop[0] == derive_flah_consequents(DEFAULT_CONSEQUENTS)
        for _ in range(2000):
            c1, c2 = one_point_crossover(pop[0], pop[1], 0.9, rng)
            m = mutate_random_reset(c1, 0.1, rng)
            for genes in (c1, c2, m):
                assert len(genes) == 9
                assert all(1 <= g <= 5 for g in genes)

    def test_flah_fitness_replays_two_input_grid(self, rng):
        policy = make_policy("gflah", rng=np.random.default_rng(0))
        wnd = random_window(rng)
        fit = policy.evolver.fitness
        assert isinstance(fit, ReplayFitness)
        pop = policy.evolver.population
        assert list(fit.batch(pop[:8], wnd)) == [fit(g, wnd) for g in pop[:8]]
