"""Kinematics, geometry, energy, and the terminal state machine."""

import math

import numpy as np
import pytest

from conftest import FixedPolicy
from gflsim.world import (
    BLOCKED,
    CONNECTED,
    CONNECTION_CUT,
    DEFAULT_STATIONS,
    HANDOFF_COMPLETED,
    HANDOFF_INITIATED,
    BaseStation,
    DomainError,
    HistoryWindow,
    MobileTerminal,
    MotionPlan,
    State,
    StationSpec,
    TerminalSpec,
    World,
    WorldConfig,
    acceleration_for,
    accelerated_state,
    advance_mt,
    audit_channels,
    audit_energy,
    audit_motion,
    distance_to_boundary,
    distance_norm,
    select_target_bs,
)


class TestKinematics:
    def test_acceleration_value(self):
        assert acceleration_for(4500, 75) == pytest.approx(1.6)

    def test_acceleration_identity(self):
        for t in (3.0, 10.0, 75.0):
            assert acceleration_for(0.5 * t * t, t) == pytest.approx(1.0)

    def test_acceleration_domain(self):
        with pytest.raises(DomainError):
            acceleration_for(4500, 0)
        with pytest.raises(DomainError):
            acceleration_for(-1, 75)

    def test_accelerated_state_default_speed(self):
        x, v = accelerated_state(1.6, 75)
        assert x == pytest.approx(4500.0)
        assert v == pytest.approx(120.0)

    def test_accelerated_state_verbatim_speed(self):
        x, v = accelerated_state(1.6, 75, verbatim=True)
        assert x == pytest.approx(4500.0)
        assert v == pytest.approx(math.sqrt(240.0))

    def test_accelerated_state_domain(self):
        with pytest.raises(DomainError):
            accelerated_state(1.6, -1)

    def test_steady_position(self):
        # Steady motion covers speed * t along the heading.
        mt = MobileTerminal(0, 0.0, 3000.0, 0.0, MotionPlan.steady(20.0))
        for t in range(1, 11):
            advance_mt(mt, t, (6000.0, 6000.0))
        assert (mt.x, mt.odometer) == (200.0, 200.0)
        with pytest.raises(DomainError):
            MotionPlan.steady(-1.0)


class TestAdvance:
    ARENA = (6000.0, 6000.0)

    def test_axis_aligned_step(self):
        mt = MobileTerminal(0, 0.0, 3000.0, 0.0, MotionPlan.steady(100.0))
        advance_mt(mt, 1, self.ARENA)
        assert (mt.x, mt.y) == (100.0, 3000.0)

    def test_wall_reflection(self):
        mt = MobileTerminal(0, 5950.0, 3000.0, 0.0, MotionPlan.steady(100.0))
        advance_mt(mt, 1, self.ARENA)
        assert (mt.x, mt.y) == (5950.0, 3000.0)
        assert mt.heading == math.pi

    def test_zero_speed_is_identity(self):
        mt = MobileTerminal(0, 10.0, 20.0, 1.0, MotionPlan.steady(0.0))
        advance_mt(mt, 1, self.ARENA)
        assert (mt.x, mt.y) == (10.0, 20.0)

    def test_heading_stable_without_reflection(self):
        mt = MobileTerminal(0, 3000.0, 3000.0, 1.2345, MotionPlan.steady(10.0))
        advance_mt(mt, 1, self.ARENA)
        assert mt.heading == 1.2345

    def test_accelerated_steps_telescope(self):
        plan = MotionPlan.accelerated(4500.0, 75.0)
        mt = MobileTerminal(0, 0.0, 3000.0, 0.0, plan)
        for t in range(1, 76):
            advance_mt(mt, t, self.ARENA)
        assert mt.odometer == pytest.approx(4500.0, rel=1e-12)
        assert mt.speed == pytest.approx(1.6 * 75)


class TestGeometry:
    BS = BaseStation(1, 866.0, 500.0, 1000.0, 4)

    def test_distance_at_center(self):
        assert distance_to_boundary(866.0, 500.0, self.BS) == 1000.0
        assert distance_norm(1000.0 / self.BS.radius) == 1.0

    def test_distance_on_circle(self):
        assert distance_to_boundary(1866.0, 500.0, self.BS) == 0.0

    def test_distance_outside(self):
        assert distance_to_boundary(2866.0, 500.0, self.BS) == -1000.0
        assert distance_norm(-1.0) == 0.0

    def test_free_channels_norm(self):
        assert BaseStation(0, 0, 0, 1, 6, occupied=0).free_norm() == 1.0
        assert BaseStation(0, 0, 0, 1, 2, occupied=2).free_norm() == 0.0
        assert BaseStation(0, 0, 0, 1, 5, occupied=2).free_norm() == 0.6


def default_stations():
    return [BaseStation(i, s.x, s.y, s.radius, s.capacity)
            for i, s in enumerate(DEFAULT_STATIONS)]


class TestSelectTarget:
    def test_deepest_covering_station_wins(self):
        tgt = select_target_bs(1732.0, 2000.0, default_stations())
        assert tgt is not None and tgt.ident == 3

    def test_no_coverage_returns_none(self):
        assert select_target_bs(5900.0, 5900.0, default_stations()) is None

    def test_tie_breaks_to_lowest_id(self):
        twins = [BaseStation(0, 0.0, 0.0, 100.0, 2), BaseStation(1, 0.0, 0.0, 100.0, 2)]
        tgt = select_target_bs(0.0, 0.0, twins)
        assert tgt.ident == 0

    def test_channel_filter(self):
        twins = [BaseStation(0, 0.0, 0.0, 100.0, 1, occupied=1),
                 BaseStation(1, 0.0, 10.0, 100.0, 1)]
        assert select_target_bs(0.0, 0.0, twins).ident == 1
        assert select_target_bs(0.0, 0.0, twins, require_channel=False).ident == 0

    def test_exclusion(self):
        twins = [BaseStation(0, 0.0, 0.0, 100.0, 2), BaseStation(1, 0.0, 0.0, 90.0, 2)]
        assert select_target_bs(0.0, 0.0, twins, exclude=0).ident == 1


def two_station_world(**world_kw) -> World:
    """One terminal parked inside station 0, with station 1 overlapping."""
    cfg = WorldConfig(
        arena_width=4000.0, arena_height=4000.0,
        stations=(StationSpec(1000.0, 1000.0, 800.0, 2),
                  StationSpec(1600.0, 1000.0, 800.0, 2)),
        terminals=(TerminalSpec(x=1300.0, y=1000.0, heading=0.0, kind="steady", speed=0.0),),
        mt_count=1, total_time=10,
        **world_kw,
    )
    return World.build(cfg)


def connect(world: World, mt_idx: int, station: int) -> None:
    mt = world.mts[mt_idx]
    mt.state = State.CONNECT
    mt.serving = station
    world.stations[station].occupied += 1


class TestStateMachine:
    def test_low_value_cuts_connection(self):
        w = two_station_world()
        connect(w, 0, 0)
        w.step(FixedPolicy(0.1))
        mt = w.mts[0]
        assert mt.state == State.DISCONNECT and mt.serving is None
        assert w.stations[0].occupied == 0
        assert [e.kind for e in w.events] == [CONNECTION_CUT]

    def test_mid_value_initiates_handover_and_completes_after_dwell(self):
        w = two_station_world()
        connect(w, 0, 0)
        w.step(FixedPolicy(0.3))
        mt = w.mts[0]
        assert mt.state == State.HANDOVER and mt.dwell == 2
        assert (mt.serving, mt.target) == (0, 1)
        assert w.stations[0].occupied == 1 and w.stations[1].occupied == 1
        assert [e.kind for e in w.events] == [HANDOFF_INITIATED]
        w.step(FixedPolicy(0.9))
        assert w.mts[0].state == State.HANDOVER and w.mts[0].dwell == 1
        w.step(FixedPolicy(0.9))
        mt = w.mts[0]
        assert mt.state == State.CONNECT and mt.serving == 1 and mt.target is None
        assert w.stations[0].occupied == 0 and w.stations[1].occupied == 1
        completed = [e for e in w.events if e.kind == HANDOFF_COMPLETED]
        assert len(completed) == 1 and completed[0].t == 3

    def test_mid_value_without_target_stays_connected(self):
        w = two_station_world()
        connect(w, 0, 0)
        w.stations[1].occupied = 2  # target full
        w.step(FixedPolicy(0.3))
        assert w.mts[0].state == State.CONNECT and w.mts[0].serving == 0
        assert w.events == []

    def test_high_value_stays_connected(self):
        w = two_station_world()
        connect(w, 0, 0)
        w.step(FixedPolicy(0.9))
        assert w.mts[0].state == State.CONNECT
        assert w.events == []

    def test_disconnected_connects_when_channel_free(self):
        w = two_station_world()
        w.step(FixedPolicy(0.5))
        mt = w.mts[0]
        assert mt.state == State.CONNECT
        # terminal sits deeper in station 0's cell
        assert mt.serving == 0
        assert [e.kind for e in w.events] == [CONNECTED]

    def test_disconnected_blocked_when_candidate_full(self):
        w = two_station_world()
        w.stations[0].occupied = 2
        w.step(FixedPolicy(0.5))
        assert w.mts[0].state == State.DISCONNECT
        assert [e.kind for e in w.events] == [BLOCKED]

    def test_disconnected_low_value_stays_silent(self):
        w = two_station_world()
        w.step(FixedPolicy(0.15))
        assert w.mts[0].state == State.DISCONNECT
        assert w.events == []

    def test_uncovered_terminal_is_silent(self):
        w = two_station_world()
        w.mts[0].x, w.mts[0].y = 3900.0, 3900.0
        w.step(FixedPolicy(0.9))
        assert w.events == []

    def test_forced_cut_outside_serving_coverage(self):
        w = two_station_world()
        connect(w, 0, 0)
        w.mts[0].x = 2300.0  # inside station 1 only
        w.step(FixedPolicy(0.9))
        assert w.mts[0].state == State.DISCONNECT
        assert [e.kind for e in w.events] == [CONNECTION_CUT]
        assert w.stations[0].occupied == 0

    def test_forced_cut_during_handover_releases_both(self):
        w = two_station_world()
        connect(w, 0, 0)
        mt = w.mts[0]
        mt.state = State.HANDOVER
        mt.target = 1
        mt.dwell = 2
        w.stations[1].occupied += 1
        mt.x, mt.y = 3900.0, 3900.0  # off both cells
        w.step(FixedPolicy(0.9))
        assert mt.state == State.DISCONNECT
        assert w.stations[0].occupied == 0 and w.stations[1].occupied == 0
        cut = [e for e in w.events if e.kind == CONNECTION_CUT]
        assert len(cut) == 1 and cut[0].old_bs == 0 and cut[0].new_bs == 1


class TestEnergy:
    def test_connected_decrement(self):
        w = two_station_world()
        connect(w, 0, 0)  # terminal at distance 300 from station 0 (r=800)
        w.step(FixedPolicy(0.9))
        assert w.mts[0].energy == pytest.approx(100.0 - (300.0 / 800.0 + 0.1))

    def test_spec_values(self):
        # d/r + epsilon: 700/1400 + 0.1 = 0.6; at the center only epsilon
        cfg = WorldConfig(
            stations=(StationSpec(0.0, 0.0, 1400.0, 2),),
            terminals=(TerminalSpec(x=700.0, y=0.0, heading=0.0, speed=0.0),),
            total_time=5,
        )
        w = World.build(cfg)
        connect(w, 0, 0)
        w.step(FixedPolicy(0.9))
        assert w.mts[0].energy == pytest.approx(100.0 - 0.6)

    def test_handover_charges_both_stations(self):
        w = two_station_world()
        connect(w, 0, 0)
        mt = w.mts[0]
        mt.state = State.HANDOVER
        mt.target = 1
        mt.dwell = 2
        w.stations[1].occupied += 1
        w.step(FixedPolicy(0.9))
        ew = (300.0 / 800.0 + 0.1) + (300.0 / 800.0 + 0.1)
        assert mt.energy == pytest.approx(100.0 - ew)

    def test_disconnected_wastes_nothing(self):
        w = two_station_world()
        w.step(FixedPolicy(0.15))
        assert w.mts[0].energy == 100.0

    def test_energy_floors_at_zero(self):
        w = two_station_world()
        connect(w, 0, 0)
        w.mts[0].energy = 0.3
        w.step(FixedPolicy(0.9))
        assert w.mts[0].energy == 0.0


class TestFullRuns:
    def run_world(self, value: float, seed: int = 1):
        cfg = WorldConfig()
        w = World.build(cfg, np.random.default_rng(seed))
        records = []
        for _ in range(cfg.total_time):
            records.append(w.step(FixedPolicy(value)))
            w.verify_channels()
        return w, records

    def test_channel_conservation_and_audits(self):
        w, records = self.run_world(0.3)
        audit_channels(records, w.events, w.stations)
        audit_energy(records, w.events, w.stations, w.cfg.epsilon, w.cfg.initial_energy)
        audit_motion(w.mts, w.t)

    def test_event_log_determinism(self):
        w1, _ = self.run_world(0.3, seed=7)
        w2, _ = self.run_world(0.3, seed=7)
        assert w1.events == w2.events

    def test_handover_timing(self):
        w, _ = self.run_world(0.3)
        comps = {(e.t, e.mt_id) for e in w.events if e.kind == HANDOFF_COMPLETED}
        cuts = {(e.t, e.mt_id) for e in w.events if e.kind == CONNECTION_CUT}
        for e in w.events:
            if e.kind != HANDOFF_INITIATED or e.t + 2 > w.cfg.total_time:
                continue
            done = (e.t + 2, e.mt_id) in comps
            cut = (e.t + 1, e.mt_id) in cuts or (e.t + 2, e.mt_id) in cuts
            assert done != cut, f"init at {e.t} mt {e.mt_id}: done={done} cut={cut}"

    def test_energy_never_increases(self):
        _, records = self.run_world(0.3)
        prev = [100.0] * len(records[0].energies)
        for rec in records:
            for m, e in enumerate(rec.energies):
                assert e <= prev[m]
            prev = list(rec.energies)


class TestHistoryWindow:
    def test_warm_after_length_records(self):
        win = HistoryWindow(4)
        w, records = TestFullRuns().run_world(0.5)
        for i, rec in enumerate(records[:6]):
            win.push(rec)
            assert win.warm == (i >= 3)
            assert len(win) == min(i + 1, 4)

    def test_freeze_is_stable(self):
        win = HistoryWindow(2)
        _, records = TestFullRuns().run_world(0.5)
        win.push(records[0])
        win.push(records[1])
        frozen = win.freeze()
        win.push(records[2])
        assert frozen.records == (records[0], records[1])
        assert win.freeze().records == (records[1], records[2])

    def test_checkpoint_alignment(self):
        win = HistoryWindow(2, keep_checkpoints=True)
        cfg = WorldConfig(total_time=5)
        w = World.build(cfg, np.random.default_rng(0))
        cps = []
        for _ in range(3):
            cp = w.clone_state()
            cps.append(cp)
            win.push(w.step(FixedPolicy(0.5)), cp)
        assert win.freeze().checkpoint is cps[1]


class TestWorldBuild:
    def test_randomized_initialization_is_seeded(self):
        cfg = WorldConfig()
        a = World.build(cfg, np.random.default_rng(3))
        b = World.build(cfg, np.random.default_rng(3))
        assert [(mt.x, mt.y, mt.heading, mt.plan) for mt in a.mts] == \
               [(mt.x, mt.y, mt.heading, mt.plan) for mt in b.mts]

    def test_requires_rng_without_explicit_terminals(self):
        with pytest.raises(DomainError):
            World.build(WorldConfig())

    def test_motion_plan_validation(self):
        with pytest.raises(DomainError):
            MotionPlan.steady(-1.0)
        with pytest.raises(DomainError):
            MotionPlan.accelerated(0.0, 10.0)
