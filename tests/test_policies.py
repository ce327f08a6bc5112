"""Policy wiring: grid projection, decision delegation, and evolution hooks."""

import numpy as np
import pytest

from gflsim.evolver import EvolverConfig, ReplayFitness, mutate_random_reset, one_point_crossover
from gflsim.fuzzy import DEFAULT_CONSEQUENTS, default_system
from gflsim.policies import HandoffPolicy, PolicyKind, derive_flah_consequents, make_policy
from gflsim.world import HistoryWindow, World, WorldConfig

from conftest import FixedPolicy, random_window


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


class TestDecide:
    def test_fls_delegates_to_full_pipeline(self, rng):
        policy = make_policy("fls")
        system = default_system()
        for _ in range(200):
            v, d, c = rng.uniform(0, 30), rng.random(), rng.random()
            assert policy.decide(v, d, c) == system.compute(DEFAULT_CONSEQUENTS, (v, d, c))

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
