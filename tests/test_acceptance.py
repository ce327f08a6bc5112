"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import dataclasses
import hashlib
import math
import time
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from audit import ConservationAudit, audit_motion
from conftest import FixedPolicy, pose, random_window
from gflsim.evolver import (
    EvolverConfig,
    ReplayFitness,
    evolve,
    init_population,
    mutate_random_reset,
    one_point_crossover,
    validate_chromosome,
)
from gflsim.experiment import _build_policy, compare, default_config
from gflsim.fuzzy import DEFAULT_CONSEQUENTS, default_system
from gflsim.policies import PolicyKind, make_policy
from gflsim.world import (
    BLOCKED,
    CONNECTED,
    CONNECTION_CUT,
    HANDOFF_COMPLETED,
    HANDOFF_INITIATED,
    State,
    StationSpec,
    TerminalSpec,
    World,
    WorldConfig,
)


@pytest.fixture(scope="module")
def full_comparison(tmp_path_factory):
    """The default 4-policy x 10-seed comparison, shared across criteria."""
    cfg = dataclasses.replace(
        default_config(), output_dir=str(tmp_path_factory.mktemp("compare"))
    )
    results: dict = {}
    t0 = time.perf_counter()
    report = compare(cfg, results_out=results)
    elapsed = time.perf_counter() - t0
    return cfg, report, results, elapsed


# --------------------------------------------------------------------------
# Criterion 1: centroid defuzzification vs a 10^6-sample Riemann oracle.
#
# The composite max(min(s_t, term_t(x))) is piecewise linear, so the
# n-sample midpoint sums regroup exactly into per-interval arithmetic
# series.  The oracle below computes those grouped sums (machine-precision
# equal to the literal sample loop, which the test spot-verifies) and
# stays independent of the implementation's vectorized path.
# --------------------------------------------------------------------------

def _clipped_segments(edges, s):
    """Positive linear pieces (x0, x1, y0, y1) of min(s, term(x))."""
    a, b, c, z = edges
    left = a + s * (b - a) if b > a else a
    right = z - s * (z - c) if z > c else z
    segs = []
    if b > a:
        segs.append((a, left, 0.0, s))
    if right > left:
        segs.append((left, right, s, s))
    if z > c:
        segs.append((right, z, s, 0.0))
    return segs


def _composite_value(terms, strengths, x):
    best = 0.0
    for mf, s in zip(terms, strengths):
        if s <= 0.0:
            continue
        d = mf.degree(x)
        v = s if d > s else d
        if v > best:
            best = v
    return best


def _grouped_riemann_centroid(out_var, strengths, n):
    """Midpoint-rule centroid with n samples, by exact series regrouping."""
    lo, hi = out_var.lo, out_var.hi
    h = (hi - lo) / n
    segs = []
    for mf, s in zip(out_var.terms, strengths):
        if s > 0.0:
            segs.extend(_clipped_segments(mf._edges(), s))
    cuts = {lo, hi}
    for x0, x1, _, _ in segs:
        cuts.update(p for p in (x0, x1) if lo <= p <= hi)
    for i, (x0a, x1a, y0a, y1a) in enumerate(segs):
        slope_a = (y1a - y0a) / (x1a - x0a)
        for x0b, x1b, y0b, y1b in segs[i + 1:]:
            ov_lo, ov_hi = max(x0a, x0b), min(x1a, x1b)
            if ov_hi <= ov_lo:
                continue
            slope_b = (y1b - y0b) / (x1b - x0b)
            if slope_a == slope_b:
                continue
            xc = ((y0b - slope_b * x0b) - (y0a - slope_a * x0a)) / (slope_a - slope_b)
            if ov_lo < xc < ov_hi and lo < xc < hi:
                cuts.add(xc)
    pts = sorted(cuts)
    num = den = 0.0
    r_prev = 0
    for idx in range(len(pts) - 1):
        p, q = pts[idx], pts[idx + 1]
        if idx == len(pts) - 2:
            r_next = n
        else:
            r_next = min(n, max(r_prev, math.ceil((q - lo) / h - 0.5)))
        k = r_next - r_prev
        if k <= 0:
            continue
        if q - p > 1e-12:
            x1 = p + (q - p) / 3.0
            x2 = p + 2.0 * (q - p) / 3.0
            c1 = _composite_value(out_var.terms, strengths, x1)
            c2 = _composite_value(out_var.terms, strengths, x2)
            beta = (c2 - c1) / (x2 - x1)
            alpha = c1 - beta * x1
        else:
            alpha = _composite_value(out_var.terms, strengths, 0.5 * (p + q))
            beta = 0.0
        r0, r1 = r_prev, r_next
        sum_r = (r0 + r1 - 1) * k / 2.0
        sum_r2 = ((r1 - 1) * r1 * (2 * r1 - 1) - (r0 - 1) * r0 * (2 * r0 - 1)) / 6.0
        sum_x = k * lo + h * (sum_r + 0.5 * k)
        sum_x2 = (k * lo * lo + 2.0 * lo * h * (sum_r + 0.5 * k)
                  + h * h * (sum_r2 + sum_r + 0.25 * k))
        den += alpha * k + beta * sum_x
        num += alpha * sum_x + beta * sum_x2
        r_prev = r_next
    return num / den


def test_criterion_1_defuzzification_oracle():
    system = default_system()
    out_var = system.output_var
    rng = np.random.default_rng(314159)
    S = rng.random((1000, 5))

    # self-check: grouped sums == the literal 10^6-sample loop
    n = 1_000_000
    xs = (np.arange(n) + 0.5) / n
    table = np.array([list(map(t.degree, xs.tolist())) for t in out_var.terms])
    for row in S[:5]:
        comp = np.maximum.reduce(np.minimum(row[:, None], table), axis=0)
        literal = float(np.sum(comp * xs) / np.sum(comp))
        grouped = _grouped_riemann_centroid(out_var, tuple(row), n)
        assert abs(grouped - literal) < 1e-9

    t0 = time.perf_counter()
    worst = 0.0
    for row in S:
        oracle = _grouped_riemann_centroid(out_var, tuple(row), n)
        got = system.crisp_from_strengths(row)
        worst = max(worst, abs(got - oracle))
    elapsed = time.perf_counter() - t0

    assert worst <= 1e-3, f"worst deviation {worst}"
    assert elapsed < 5.0, f"oracle check took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 PASS: 1000 activations, centroid@1001 vs 1e6-sample "
          f"oracle, worst |diff|={worst:.2e}, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# Criterion 2: exhaustive reproduction of the state-transition table.
# --------------------------------------------------------------------------

def _micro_world(state, with_target, with_channel, covered=True):
    """One terminal in a two-station world, posed in the requested state."""
    cfg = WorldConfig(
        arena=(4000.0, 4000.0),
        stations=(StationSpec((1000.0, 1000.0), 800.0, 2),
                  StationSpec((1600.0, 1000.0), 800.0, 2)),
        terminals=(TerminalSpec(position=(1300.0, 1000.0), heading=0.0, speed=0.0),),
        total_time=10,
    )
    w = World.build(cfg)
    if not covered:
        pose(w, 0, x=3900.0, y=3900.0)
    if state != State.DISCONNECT:
        pose(w, 0, state=state, serving=0)
        w.occupied[0] += 1
        if state == State.HANDOVER:
            pose(w, 0, target=1, dwell=2)
            w.occupied[1] += 1
    if state != State.HANDOVER and not with_target:
        w.occupied[1] = w.stations[1].capacity
    if state == State.DISCONNECT and not with_channel:
        w.occupied[0] = w.stations[0].capacity
        w.occupied[1] = w.stations[1].capacity
    return w


REGION_VALUES = {"below_min": 0.1, "mid": 0.3, "above_th": 0.7}

# (state, region, availability) -> (next state, event kinds this unit)
TRANSITION_TABLE = {
    (State.CONNECT, "below_min", True): (State.DISCONNECT, [CONNECTION_CUT]),
    (State.CONNECT, "below_min", False): (State.DISCONNECT, [CONNECTION_CUT]),
    (State.CONNECT, "mid", True): (State.HANDOVER, [HANDOFF_INITIATED]),
    (State.CONNECT, "mid", False): (State.CONNECT, []),
    (State.CONNECT, "above_th", True): (State.CONNECT, []),
    (State.CONNECT, "above_th", False): (State.CONNECT, []),
    (State.DISCONNECT, "below_min", True): (State.DISCONNECT, []),
    (State.DISCONNECT, "below_min", False): (State.DISCONNECT, []),
    (State.DISCONNECT, "mid", True): (State.CONNECT, [CONNECTED]),
    (State.DISCONNECT, "mid", False): (State.DISCONNECT, [BLOCKED]),
    (State.DISCONNECT, "above_th", True): (State.CONNECT, [CONNECTED]),
    (State.DISCONNECT, "above_th", False): (State.DISCONNECT, [BLOCKED]),
    # handover rides out its dwell whatever the signal does
    (State.HANDOVER, "below_min", True): (State.HANDOVER, []),
    (State.HANDOVER, "mid", True): (State.HANDOVER, []),
    (State.HANDOVER, "above_th", True): (State.HANDOVER, []),
}


def test_criterion_2_state_machine_equivalence(full_comparison):
    observed = {}
    for (state, region, avail), expected in TRANSITION_TABLE.items():
        w = _micro_world(state, with_target=avail, with_channel=avail)
        w.step(FixedPolicy(REGION_VALUES[region]))
        observed[(state, region, avail)] = (w.mts[0].state,
                                            [e.kind for e in w.events])
        assert observed[(state, region, avail)] == expected, (
            f"{state.name}/{region}/avail={avail}: "
            f"got {observed[(state, region, avail)]}, want {expected}")

    # handover completes exactly two units after initiation
    w = _micro_world(State.CONNECT, with_target=True, with_channel=True)
    w.step(FixedPolicy(0.3))
    w.step(FixedPolicy(0.3))
    assert w.mts[0].state == State.HANDOVER
    w.step(FixedPolicy(0.3))
    assert [e.kind for e in w.events][-1] == HANDOFF_COMPLETED
    assert w.events[-1].t == w.events[0].t + 2

    # the forced-cut rule preempts any value, from connect and handover alike
    for state in (State.CONNECT, State.HANDOVER):
        w = _micro_world(state, with_target=True, with_channel=True, covered=False)
        w.step(FixedPolicy(0.9))
        assert w.mts[0].state == State.DISCONNECT
        assert [e.kind for e in w.events] == [CONNECTION_CUT]
        w.verify_channels()  # both held channels released by the cut

    # every initiation in the full comparison completes exactly 2 units
    # later or is force-cut, never both
    cfg, _, results, _ = full_comparison
    horizon, checked = cfg.world.total_time, 0
    for res in results.values():
        comps = {(e.t, e.mt_id) for e in res.events if e.kind == HANDOFF_COMPLETED}
        cuts = {(e.t, e.mt_id) for e in res.events if e.kind == CONNECTION_CUT}
        for e in res.events:
            if e.kind != HANDOFF_INITIATED or e.t + 2 > horizon:
                continue
            done = (e.t + 2, e.mt_id) in comps
            cut = (e.t + 1, e.mt_id) in cuts or (e.t + 2, e.mt_id) in cuts
            assert done != cut, f"{res.policy}/{res.seed}: init t={e.t} mt={e.mt_id}"
            checked += 1
    print(f"\nACCEPTANCE 2 PASS: {len(TRANSITION_TABLE)} enumerated transitions "
          f"match the table; dwell timing verified on {checked} handoffs")


# --------------------------------------------------------------------------
# Criterion 3: GA operator properties.
# --------------------------------------------------------------------------

def test_criterion_3_operator_properties():
    rng = np.random.default_rng(271828)
    for _ in range(10_000):
        p1, p2 = (tuple(rng.integers(1, 6, size=27).tolist()) for _ in range(2))
        c1, c2 = one_point_crossover(p1, p2, 0.9, rng)
        m = mutate_random_reset(c1, 0.1, rng)
        for genes in (c1, c2, m):
            validate_chromosome(genes, 27)

    trials = 10_000
    changed = 0
    base = DEFAULT_CONSEQUENTS
    for _ in range(trials):
        changed += sum(a != b for a, b in
                       zip(base, mutate_random_reset(base, 0.1, rng)))
    mean = changed / trials
    q = 0.1 * 0.8
    sigma = math.sqrt(27 * q * (1 - q) / trials)
    assert abs(mean - 27 * q) <= 3 * sigma, f"mean {mean} vs {27 * q} +- {3 * sigma}"

    fitness = ReplayFitness(default_system(), 0.20, 0.45, dwell=2)
    cfg = EvolverConfig(generations=20)
    monotone_checked = 0
    for w in range(100):
        wnd = random_window(np.random.default_rng(5000 + w))
        pop = init_population(DEFAULT_CONSEQUENTS, cfg, rng)
        trace: list[float] = []
        evolve(pop, wnd, fitness, cfg, rng,
               on_generation=lambda g, f: trace.append(f))
        assert all(b <= a for a, b in zip(trace, trace[1:])), trace
        monotone_checked += 1
    print(f"\nACCEPTANCE 3 PASS: 10^4 operator applications valid; mutation "
          f"change rate {mean:.4f} within 3 sigma of {27 * q}; elitism "
          f"monotone on {monotone_checked} random windows")


# --------------------------------------------------------------------------
# Criterion 4: replay fitness equals the simulator's own event count.
# --------------------------------------------------------------------------

def test_criterion_4_oracle_fitness_equivalence():
    cfg = WorldConfig()
    fls = make_policy("fls")
    fitness = ReplayFitness(fls.system, cfg.s_min, cfg.s_th, cfg.dwell)
    checked = 0
    for seed in (101, 202):
        world = World.build(cfg, np.random.default_rng(seed))
        window = deque(maxlen=4)
        for _ in range(cfg.total_time):
            window.append(world.step(fls))
            if len(window) < window.maxlen:
                continue
            frozen = tuple(window)
            t0, t1 = frozen[0].t, frozen[-1].t
            live = sum(
                1 for e in world.events
                if t0 <= e.t <= t1 and e.kind in (HANDOFF_INITIATED, CONNECTION_CUT)
            )
            assert fitness(DEFAULT_CONSEQUENTS, frozen) == float(live)
            checked += 1
            if checked == 100:
                break
        if checked == 100:
            break
    assert checked == 100
    print(f"\nACCEPTANCE 4 PASS: seed-grid fitness == live event count on "
          f"{checked} recorded windows (exact integer equality)")


# --------------------------------------------------------------------------
# Criterion 5: directional comparison of the four policies.
# --------------------------------------------------------------------------

def test_criterion_5_directional_comparison(full_comparison):
    _, report, _, elapsed = full_comparison
    ho = {k: row["number_of_handoffs"].avg for k, row in report.items()}
    conn = {k: row["connection_time_pct"].avg for k, row in report.items()}
    energy = {k: row["energy_wastage_pct"].avg for k, row in report.items()}

    assert ho["gfls"] < ho["fls"], f"gfls {ho['gfls']} !< fls {ho['fls']}"
    assert ho["gflah"] < ho["flah"], f"gflah {ho['gflah']} !< flah {ho['flah']}"
    assert conn["gfls"] >= conn["fls"], f"gfls {conn['gfls']} !>= fls {conn['fls']}"
    assert elapsed < 60.0, f"comparison took {elapsed:.1f}s"

    print("\nACCEPTANCE 5 PASS: 10-seed means "
          f"({elapsed:.1f}s for 4 policies x 10 seeds)")
    for k in report:
        print(f"  {k:6s} handoffs={ho[k]:6.1f}  connection={conn[k]:5.2f}%  "
              f"energy={energy[k]:5.2f}%")


# --------------------------------------------------------------------------
# Criterion 6: byte-identical outputs across repeated comparisons.
# --------------------------------------------------------------------------

def test_criterion_6_determinism(tmp_path):
    base = dataclasses.replace(default_config(), seeds=(0,))
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        compare(dataclasses.replace(base, output_dir=str(d)))
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, f"{name} differs between executions"
    print(f"\nACCEPTANCE 6 PASS: {len(names)} output files byte-identical "
          "across two executions")


# --------------------------------------------------------------------------
# Criterion 7: conservation audits on every run of the comparison.
# --------------------------------------------------------------------------

# Each run is replayed in-process under the static policy of its arity, with
# every evolved grid installed after the step at which the run installed it;
# the replay must reproduce the run's events, and is audited at every unit.
STATIC_OF = {"fls": "fls", "gfls": "fls", "flah": "flah", "gflah": "flah"}


def test_criterion_7_conservation_audits(full_comparison):
    cfg, _, results, _ = full_comparison
    for (kind, seed), res in results.items():
        world = World.build(cfg.world, np.random.default_rng(
            np.random.SeedSequence(seed).spawn(2)[0]))
        policy = _build_policy(cfg, PolicyKind(STATIC_OF[kind]), None)
        grids = {t: genes for t, _, genes in res.evolution}
        audit = ConservationAudit(world)
        for t in range(1, cfg.world.total_time + 1):
            world.step(policy)
            audit.unit(world)
            policy.genes = grids.get(t, policy.genes)
        assert tuple(world.events) == res.events, (kind, seed)
        audit_motion(world.mts, world.t)
    print(f"\nACCEPTANCE 7 PASS: channel, energy, and motion audits clean at every "
          f"unit of {len(results)} replayed runs")


def test_default_outputs_match_their_digests(full_comparison):
    """Every file of the default comparison against ``tests/default_outputs.sha256``.

    Only a declared behaviour change may regenerate the digests, with
    ``gflsim --out DIR`` and then ``cd DIR && LC_ALL=C sha256sum * >
    <repo>/tests/default_outputs.sha256``; any other change keeps every byte.
    """
    listed = (Path(__file__).parent / "default_outputs.sha256").read_text().splitlines()
    want = dict(line.split()[::-1] for line in listed)
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in Path(full_comparison[0].output_dir).iterdir()}
    assert sorted(got) == sorted(want)
    assert [name for name in sorted(want) if got[name] != want[name]] == []
    print(f"\nOUTPUTS PASS: {len(want)} files of the default comparison match their digests")
