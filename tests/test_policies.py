"""Policy wiring: grid projection, decision delegation, and evolution hooks."""

import gc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gflsim import fuzzy
from gflsim.evolver import EvolverConfig, ReplayFitness, mutate_random_reset, one_point_crossover
from gflsim.fuzzy import DEFAULT_CONSEQUENTS, default_system
from gflsim.policies import HandoffPolicy, PolicyKind, derive_flah_consequents, make_policy
from gflsim.world import World, WorldConfig

from conftest import FixedPolicy, random_window, reference_value


def world_cfg(s_min: float = 0.2, s_th: float = 0.45, dwell: int = 2) -> types.SimpleNamespace:
    """The settings a ``table`` reads from its world's config."""
    return types.SimpleNamespace(s_min=s_min, s_th=s_th, dwell=dwell)


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
    of the default terms among them) with a capacity and a start occupancy,
    and thresholds, half of the time set exactly to decision values of the batch."""
    kind = draw(st.sampled_from(["fls", "flah"]))
    genes = draw(st.lists(st.integers(1, 5), min_size=27, max_size=27))
    n = draw(st.integers(0, 6))
    rows = st.lists(st.tuples(
        st.one_of(st.floats(-5.0, 40.0), st.sampled_from([0.0, 5.0, 15.0, 25.0, 30.0])),
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0])),
        st.integers(1, 6), st.integers(0, 6)), min_size=n, max_size=n)
    return kind, genes, draw(rows), draw(st.booleans()), draw(st.integers(0, 2 ** 16))


def region_of(v: float, s_min: float, s_th: float) -> int:
    return (fuzzy._BELOW_MIN if v < s_min else fuzzy._AT_MIN if v == s_min
            else fuzzy._MID if v < s_th else fuzzy._ABOVE_TH)


class TestTable:
    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(decision_batches())
    def test_table_equals_scalar_decide_at_every_level(self, batch):
        kind, genes, rows, exact, pick = batch
        policy = make_policy(kind, consequents=genes)
        velocity, dist, cap = (np.array([r[i] for r in rows], dtype=float if i < 2 else int)
                               for i in range(3))
        start = np.array([min(r[3], r[2]) for r in rows], dtype=int)
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
        codes, reread = policy.table(velocity, dist, chan[np.arange(len(rows)), start],
                                     world_cfg(s_min, s_th))
        # A row's code is its region at its start level; a re-read, at any level.
        assert codes == [region_of(values[r, start[r]], s_min, s_th) for r in range(len(rows))]
        got = {(r, o): reread(r, chan[r, o]) for (r, o) in values}
        for (r, o), v in values.items():
            assert got[r, o] == region_of(v, s_min, s_th), (r, o, v, s_min, s_th)
        if exact and values:
            assert fuzzy._AT_MIN in got.values()

    def test_start_inputs_settle_in_one_batch_and_other_reads_alone(self):
        # FLS settles every row at its start channel input at once; a re-read
        # at another input settles that row alone.  FLAH, which ignores
        # channels, settles each row once and answers every re-read from it.
        velocity, dist, start = np.array([3.0, 20.0]), np.array([0.3, 0.9]), np.array([1.0, 0.5])
        for kind, alone in (("fls", 2), ("flah", 0)):
            policy = make_policy(kind)
            settle, crisp = policy.system.settle, policy.system.crisp_from_strengths
            settled, exact = [], []
            policy.system.settle = lambda rows, *th: settled.append(len(rows)) or settle(rows, *th)
            codes, reread = policy.table(velocity, dist, start, world_cfg())
            policy.system.crisp_from_strengths = lambda s: exact.append(len(s)) or crisp(s)
            got = [*codes, reread(0, 0.0), reread(1, 1 / 6)]
            assert settled == [2] and exact == [5] * alone
            want = [region_of(policy.decide(v, d, c), 0.2, 0.45)
                    for v, d, c in ((3.0, 0.3, 1.0), (20.0, 0.9, 0.5), (3.0, 0.3, 0.0),
                                    (20.0, 0.9, 1 / 6))]
            assert got == want

    def test_a_read_at_another_channel_input_is_one_decide(self):
        # The re-read's region is that of decide's value there, which reads
        # ``_AT_MIN`` only if the two are the same value.  Settling the start
        # codes calls no decide.
        policy = make_policy("fls")
        value = policy.decide(20.0, 0.9, 0.25)
        decide, calls = policy.decide, []
        policy.decide = lambda *inputs: calls.append(inputs) or decide(*inputs)
        codes, reread = policy.table(np.array([3.0, 20.0]), np.array([0.3, 0.9]),
                                     np.array([1.0, 0.5]), world_cfg(value, value + 0.1))
        assert len(codes) == 2 and calls == []
        assert reread(1, 0.25) == fuzzy._AT_MIN
        assert calls == [(20.0, 0.9, 0.25)]

    def test_construction_rejects_a_consequent_outside_the_output_terms(self):
        two = fuzzy.LinguisticVariable("rss_threshold", 0.0, 1.0, (
            fuzzy.triangle("low", 0.0, 0.0, 1.0), fuzzy.triangle("high", 0.0, 1.0, 1.0)))
        for kind in ("fls", "flah"):
            with pytest.raises(ValueError, match="consequent 5 at index 0 is outside 1..2"):
                make_policy(kind, output_var=two, consequents=(5,) * 27)
        genes = list(DEFAULT_CONSEQUENTS)
        genes[4] = 6
        with pytest.raises(ValueError, match="consequent 6 at index 4 is outside 1..5"):
            HandoffPolicy(PolicyKind.FLS, default_system(), tuple(genes))
        with pytest.raises(ValueError, match="expected 27 consequents"):
            HandoffPolicy(PolicyKind.FLS, default_system(), DEFAULT_CONSEQUENTS[:9])

    def test_construction_rejects_a_non_integer_consequent(self):
        # Consequents index the output terms, so a fractional one fails at
        # construction, not at the first step.
        for kind in ("fls", "flah", "gfls", "gflah"):
            with pytest.raises(ValueError, match="consequent 2.5 at index 0 is not an integer"):
                make_policy(kind, consequents=(2.5,) * 27, rng=np.random.default_rng(0))
        genes = list(DEFAULT_CONSEQUENTS)
        genes[11] = 3.5
        with pytest.raises(ValueError, match="consequent 3.5 at index 11 is not an integer"):
            HandoffPolicy(PolicyKind.FLS, default_system(), tuple(genes))

    @pytest.mark.parametrize("kind", ["gfls", "gflah"])
    def test_evolving_table_rejects_thresholds_its_replay_does_not_use(self, kind):
        # The GA would score rules settled at other thresholds than the live
        # world's: at (0.3, 0.6) against the default (0.2, 0.45) a replay
        # counted 17 events where the world logged 18.
        policy = make_policy(kind, rng=np.random.default_rng(1))
        rows = (np.array([10.0]), np.array([0.5]), np.array([0.5]))
        with pytest.raises(ValueError, match=r"\(0\.3, 0\.6, 2\), the replay at \(0\.2, 0\.45, 2\)"):
            policy.table(*rows, world_cfg(0.3, 0.6))
        codes, reread = policy.table(*rows, world_cfg())
        assert len(codes) == 1 and callable(reread)
        cfg = WorldConfig(total_time=8, s_min=0.3, s_th=0.6)
        world = World.build(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="s_min, s_th"):
            world.step(policy)
        make_policy("fls").table(*rows, world_cfg(0.3, 0.6))  # a static policy replays nothing

    @pytest.mark.parametrize("kind", ["gfls", "gflah"])
    def test_evolving_table_rejects_a_dwell_its_replay_does_not_use(self, kind):
        # A replay at dwell 2 scores a dwell-1 world's units wrongly: on the last
        # 8 units of this 40-unit world under fls, which held 30 live handoffs
        # plus cuts, it counted 26.  The world says so at its first step.
        world = World.build(WorldConfig(total_time=40, dwell=1), np.random.default_rng(0))
        policy = make_policy(kind, dwell=2, rng=np.random.default_rng(1))
        with pytest.raises(ValueError, match=r"\(0\.2, 0\.45, 1\), the replay at "
                                             r"\(0\.2, 0\.45, 2\)"):
            world.step(policy)
        assert world.t == 1 and world.events == []

    def test_empty_batch(self):
        for kind in ("fls", "flah"):
            codes, reread = make_policy(kind).table(np.zeros(0), np.zeros(0), np.zeros(0),
                                                    world_cfg())
            assert codes == [] and callable(reread)


class TestOnEpoch:
    @staticmethod
    def _records(seed=0, units=4):
        cfg = WorldConfig(total_time=units)
        world = World.build(cfg, np.random.default_rng(seed))
        return [world.step(FixedPolicy(0.3)) for _ in range(units)]

    def test_static_policies_never_change(self):
        records = self._records()
        policy = make_policy("fls")
        before = policy.genes
        for t in range(1, 10):
            policy.on_epoch(records[(t - 1) % 4], t)
        assert policy.genes == before
        assert policy.evolution_log == []
        kept = weakref.ref(records[0])
        del records
        gc.collect()
        assert kept() is None

    def test_window_keeps_the_last_window_length_records(self):
        records = self._records(units=6)
        policy = make_policy("gfls", rng=np.random.default_rng(1),
                             evolver_cfg=EvolverConfig(invocation_period=1000))
        for t, record in enumerate(records, 1):
            policy.on_epoch(record, t)
            assert tuple(policy.evolver.window) == tuple(records[max(0, t - 4):t])
        assert policy.last_evolved == 0

    def test_waits_for_period_and_warmth(self):
        # Period 1, window 4: the period passes every unit, the window fills
        # at unit 4.  Period 4, window 2: the window is full from unit 2, the
        # period passes at unit 4.
        records = self._records()
        for period, length in ((1, 4), (4, 2)):
            policy = make_policy("gfls", rng=np.random.default_rng(1), evolver_cfg=EvolverConfig(
                generations=1, invocation_period=period, window_length=length))
            for t, record in enumerate(records[:3], 1):
                policy.on_epoch(record, t)
                assert policy.last_evolved == 0
            policy.on_epoch(records[3], 4)
            assert policy.last_evolved == 4
            assert len(policy.evolution_log) == 1
            t, fit_val, genes = policy.evolution_log[0]
            assert t == 4 and len(genes) == 27

    def test_evolves_on_a_tuple_that_later_records_leave_alone(self):
        records = self._records(units=6)
        policy = make_policy("gfls", rng=np.random.default_rng(1), evolver_cfg=EvolverConfig(
            generations=0, invocation_period=1000, window_length=2))
        evolve, seen = policy.evolver.evolve, []
        policy.evolver.evolve = lambda window, **kw: seen.append(window) or evolve(window, **kw)
        policy.last_evolved = -1000  # the period has passed at unit 1
        for t, record in enumerate(records, 1):
            policy.on_epoch(record, t)
        assert tuple(policy.evolver.window) == (records[4], records[5])
        assert seen == [(records[0], records[1])]
        assert type(seen[0]) is tuple

    def test_infinite_period_disables_evolution(self):
        # A period past the last unit stands in for an infinite one, which
        # the config table rejects as non-finite.
        policy = make_policy("gfls", rng=np.random.default_rng(1),
                             evolver_cfg=EvolverConfig(generations=0,
                                                       invocation_period=1000))
        records = self._records()
        for t in range(1, 80):
            policy.on_epoch(records[(t - 1) % 4], t)
        assert policy.genes == DEFAULT_CONSEQUENTS

    def test_disabled_ga_reproduces_fls_event_log(self):
        import dataclasses
        from gflsim.experiment import default_config, run

        cfg = default_config()
        # No invocation within the 75-unit horizon.
        cfg = dataclasses.replace(
            cfg, evolver=EvolverConfig(generations=0,
                                       invocation_period=1000))
        fls = run(cfg, "fls", 6)
        gfls = run(cfg, "gfls", 6)
        assert gfls.events == fls.events
        assert gfls.metrics == fls.metrics

    def test_installed_grid_never_loses_to_incumbent(self):
        policy = make_policy("gfls", rng=np.random.default_rng(3),
                             evolver_cfg=EvolverConfig(generations=6))
        records = self._records(seed=8)
        fitness = policy.evolver.fitness
        incumbent = policy.genes
        for t, record in enumerate(records, 1):
            policy.on_epoch(record, t)
        assert policy.last_evolved == 4
        frozen = tuple(records)
        assert fitness(policy.genes, frozen) <= fitness(incumbent, frozen)


class TestGflahChromosomes:
    def test_nine_gene_operators(self, rng):
        policy = make_policy("gflah", rng=np.random.default_rng(0))
        pop = [tuple(g) for g in policy.evolver.population.tolist()]
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
