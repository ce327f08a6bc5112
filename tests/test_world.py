"""Kinematics, geometry, energy, and the terminal state machine."""

import copy
import dataclasses
import math
import pickle
import re
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from audit import ConservationAudit, audit_motion
import gflsim.experiment
import gflsim.world
from conftest import FixedPolicy, ReferenceWorld, distance_norm, pose
from gflsim.experiment import config_from_dict, default_config, run
from gflsim.fuzzy import region_codes
from gflsim.policies import make_policy
from gflsim.schema import ConfigError
from gflsim.world import (
    BLOCKED,
    CONNECTED,
    CONNECTION_CUT,
    DEFAULT_STATIONS,
    EVENT_KINDS,
    HANDOFF_COMPLETED,
    HANDOFF_INITIATED,
    DomainError,
    Event,
    EventLog,
    MobileTerminal,
    State,
    StationSpec,
    TerminalSpec,
    UnitRecord,
    World,
    WorldConfig,
    acceleration_for,
    accelerated_state,
)


def lone_terminal(x: float, y: float, heading: float = 0.0, speed: float = 0.0,
                  stations=(StationSpec((866.0, 500.0), 1000.0, 4),), **spec_kw) -> World:
    """A world of one terminal in a 6000 x 6000 arena."""
    terminal = TerminalSpec(position=(x, y), heading=heading, speed=speed, **spec_kw)
    return World.build(WorldConfig(stations=tuple(stations), terminals=(terminal,)))


def at_rest(ident: int, x: float, y: float, heading: float, energy: float, kind: str,
            size: float, duration: float) -> MobileTerminal:
    """The row of a terminal as built: disconnected and at rest, its plan's size a steady
    speed or an accelerated distance, and a plan field its kind does not read 0.0."""
    plan = (size, 0.0, 0.0) if kind == "steady" else (0.0, size, duration)
    return MobileTerminal(ident, x, y, heading, 0.0, energy, State.DISCONNECT, None, None, 0,
                          0.0, kind, *plan)


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

    @pytest.mark.parametrize("duration", [1e-160, 1e-300])
    def test_acceleration_must_be_finite(self, duration):
        # The square of the duration overflows the quotient or underflows to 0.
        with pytest.raises(DomainError, match="not finite"):
            acceleration_for(4500.0, duration)

    @pytest.mark.parametrize("distance, duration", [(4500.0, 1e200), (5e-324, 1e10)])
    def test_acceleration_must_be_positive(self, distance, duration):
        # The square of the duration overflows, or the quotient underflows to 0: such a
        # terminal once never moved, and ``World.build``'s own square overflowed.
        with pytest.raises(DomainError, match="not finite and positive"):
            acceleration_for(distance, duration)

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
        w = lone_terminal(0.0, 3000.0, speed=20.0)
        for _ in range(10):
            w.step(FixedPolicy(0.0))
        assert (w.mts[0].x, w.mts[0].odometer) == (200.0, 200.0)


class TestAdvance:
    def test_axis_aligned_step(self):
        w = lone_terminal(0.0, 3000.0, speed=100.0)
        rec = w.step(FixedPolicy(0.0))
        assert (w.mts[0].x, w.mts[0].y) == (100.0, 3000.0)
        assert rec.velocity[0] == 100.0

    def test_wall_reflection(self):
        w = lone_terminal(5950.0, 3000.0, speed=100.0)
        w.step(FixedPolicy(0.0))
        assert (w.mts[0].x, w.mts[0].y) == (5950.0, 3000.0)
        assert w.mts[0].heading == math.pi
        w.step(FixedPolicy(0.0))  # the reflected heading moves it back
        assert w.mts[0].x == 5850.0

    def test_zero_speed_is_identity(self):
        w = lone_terminal(10.0, 20.0, heading=1.0)
        w.step(FixedPolicy(0.0))
        assert (w.mts[0].x, w.mts[0].y, w.mts[0].odometer) == (10.0, 20.0, 0.0)

    def test_heading_stable_without_reflection(self):
        w = lone_terminal(3000.0, 3000.0, heading=1.2345, speed=10.0)
        w.step(FixedPolicy(0.0))
        assert w.mts[0].heading == 1.2345

    def test_accelerated_steps_telescope(self):
        w = lone_terminal(0.0, 3000.0, kind="accelerated", distance=4500.0, duration=75.0)
        for _ in range(75):
            w.step(FixedPolicy(0.0))
        assert w.mts[0].odometer == pytest.approx(4500.0, rel=1e-12)
        assert w.mts[0].velocity == pytest.approx(1.6 * 75)
        assert (w.mts[0].kind, w.mts[0].speed, w.mts[0].distance) == ("accelerated", 0.0, 4500.0)


class TestGeometry:
    # Coverage depth at the one station (866, 500), radius 1000, as recorded.
    def ratio_at(self, x: float, y: float) -> float:
        return lone_terminal(x, y).step(FixedPolicy(0.0)).ratio[0, 0]

    def test_distance_at_center(self):
        assert self.ratio_at(866.0, 500.0) == 1.0
        assert distance_norm(1.0) == 1.0

    def test_distance_on_circle(self):
        assert self.ratio_at(1866.0, 500.0) == 0.0

    def test_distance_outside(self):
        assert self.ratio_at(2866.0, 500.0) == 0.0
        assert distance_norm(-1.0) == 0.0

    def test_free_channels_norm(self):
        # Recorded free-channel fraction: (capacity - occupied) / capacity.
        for capacity, occupied, free in ((6, 0, 1.0), (2, 2, 0.0), (5, 2, 0.6)):
            station = StationSpec((866.0, 500.0), 1000.0, capacity)
            w = lone_terminal(866.0, 500.0, stations=(station,))
            w.occupied[0] = occupied
            assert w.step(FixedPolicy(0.0)).chan[0, 0] == free


class TestSelectTarget:
    """A disconnected terminal tries its deepest covering station, free
    channel or not; a handoff goes to the deepest other covering station
    with a free channel."""

    def attempt(self, x: float, y: float, stations) -> list:
        w = lone_terminal(x, y, stations=stations)
        w.step(FixedPolicy(0.5))
        return [(e.kind, e.new_bs) for e in w.events]

    def handoff(self, stations, serving: int, full: int = -1) -> list:
        w = lone_terminal(0.0, 0.0, stations=stations)
        connect(w, 0, serving)
        if full >= 0:
            w.occupied[full] = w.stations[full].capacity
        w.step(FixedPolicy(0.3))
        return [(e.kind, e.new_bs) for e in w.events]

    def test_deepest_covering_station_wins(self):
        assert self.attempt(1732.0, 2000.0, DEFAULT_STATIONS) == [(CONNECTED, 3)]

    def test_no_coverage_returns_none(self):
        assert self.attempt(5900.0, 5900.0, DEFAULT_STATIONS) == []

    def test_tie_breaks_to_lowest_id(self):
        twins = [StationSpec((0.0, 0.0), 100.0, 2), StationSpec((0.0, 0.0), 100.0, 2)]
        assert self.attempt(0.0, 0.0, twins) == [(CONNECTED, 0)]
        assert self.handoff(twins + [StationSpec((0.0, 0.0), 50.0, 2)], 2) == [
            (HANDOFF_INITIATED, 0)]

    def test_channel_filter(self):
        twins = [StationSpec((0.0, 0.0), 100.0, 1), StationSpec((0.0, 10.0), 100.0, 1),
                 StationSpec((0.0, 0.0), 50.0, 1)]
        assert self.handoff(twins, 2, full=0) == [(HANDOFF_INITIATED, 1)]
        w = lone_terminal(0.0, 0.0, stations=twins)
        w.occupied[0] = 1
        w.step(FixedPolicy(0.5))
        assert [(e.kind, e.new_bs) for e in w.events] == [(BLOCKED, 0)]

    def test_exclusion(self):
        twins = [StationSpec((0.0, 0.0), 100.0, 2), StationSpec((0.0, 0.0), 90.0, 2)]
        assert self.handoff(twins, 0) == [(HANDOFF_INITIATED, 1)]


def two_station_world(**world_kw) -> World:
    """One terminal parked inside station 0, with station 1 overlapping."""
    cfg = WorldConfig(
        arena=(4000.0, 4000.0),
        stations=(StationSpec((1000.0, 1000.0), 800.0, 2),
                  StationSpec((1600.0, 1000.0), 800.0, 2)),
        terminals=(TerminalSpec(position=(1300.0, 1000.0), heading=0.0, kind="steady", speed=0.0),),
        mt_count=1, total_time=10,
        **world_kw,
    )
    return World.build(cfg)


def connect(world: World, mt_idx: int, station: int) -> None:
    pose(world, mt_idx, state=State.CONNECT, serving=station)
    world.occupied[station] += 1


class TestStateMachine:
    def test_low_value_cuts_connection(self):
        w = two_station_world()
        connect(w, 0, 0)
        w.step(FixedPolicy(0.1))
        mt = w.mts[0]
        assert mt.state == State.DISCONNECT and mt.serving is None
        assert w.occupied[0] == 0
        assert [e.kind for e in w.events] == [CONNECTION_CUT]

    def test_mid_value_initiates_handover_and_completes_after_dwell(self):
        w = two_station_world()
        connect(w, 0, 0)
        w.step(FixedPolicy(0.3))
        mt = w.mts[0]
        assert mt.state == State.HANDOVER and mt.dwell == 2
        assert (mt.serving, mt.target) == (0, 1)
        assert w.occupied[0] == 1 and w.occupied[1] == 1
        assert [e.kind for e in w.events] == [HANDOFF_INITIATED]
        w.step(FixedPolicy(0.9))
        assert w.mts[0].state == State.HANDOVER and w.mts[0].dwell == 1
        w.step(FixedPolicy(0.9))
        mt = w.mts[0]
        assert mt.state == State.CONNECT and mt.serving == 1 and mt.target is None
        assert w.occupied[0] == 0 and w.occupied[1] == 1
        completed = [e for e in w.events if e.kind == HANDOFF_COMPLETED]
        assert len(completed) == 1 and completed[0].t == 3

    def test_mid_value_without_target_stays_connected(self):
        w = two_station_world()
        connect(w, 0, 0)
        w.occupied[1] = 2  # target full
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
        w.occupied[0] = 2
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
        pose(w, 0, x=3900.0, y=3900.0)
        w.step(FixedPolicy(0.9))
        assert w.events == []

    def test_forced_cut_outside_serving_coverage(self):
        w = two_station_world()
        connect(w, 0, 0)
        pose(w, 0, x=2300.0)  # inside station 1 only
        w.step(FixedPolicy(0.9))
        assert w.mts[0].state == State.DISCONNECT
        assert [e.kind for e in w.events] == [CONNECTION_CUT]
        assert w.occupied[0] == 0

    def test_forced_cut_during_handover_releases_both(self):
        w = two_station_world()
        connect(w, 0, 0)
        pose(w, 0, state=State.HANDOVER, target=1, dwell=2)
        w.occupied[1] += 1
        pose(w, 0, x=3900.0, y=3900.0)  # off both cells
        w.step(FixedPolicy(0.9))
        assert w.mts[0].state == State.DISCONNECT
        assert w.occupied[0] == 0 and w.occupied[1] == 0
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
            stations=(StationSpec((0.0, 0.0), 1400.0, 2),),
            terminals=(TerminalSpec(position=(700.0, 0.0), heading=0.0, speed=0.0),),
            total_time=5,
        )
        w = World.build(cfg)
        connect(w, 0, 0)
        w.step(FixedPolicy(0.9))
        assert w.mts[0].energy == pytest.approx(100.0 - 0.6)

    def test_handover_charges_both_stations(self):
        w = two_station_world()
        connect(w, 0, 0)
        pose(w, 0, state=State.HANDOVER, target=1, dwell=2)
        w.occupied[1] += 1
        w.step(FixedPolicy(0.9))
        ew = (300.0 / 800.0 + 0.1) + (300.0 / 800.0 + 0.1)
        assert w.mts[0].energy == pytest.approx(100.0 - ew)

    def test_disconnected_wastes_nothing(self):
        w = two_station_world()
        w.step(FixedPolicy(0.15))
        assert w.mts[0].energy == 100.0

    def test_energy_floors_at_zero(self):
        w = two_station_world()
        connect(w, 0, 0)
        pose(w, 0, energy=0.3)
        w.step(FixedPolicy(0.9))
        assert w.mts[0].energy == 0.0


class TestFullRuns:
    def run_world(self, value: float, seed: int = 1):
        """A default world stepped for its horizon, audited after every unit."""
        cfg = WorldConfig()
        w = World.build(cfg, np.random.default_rng(seed))
        audit = ConservationAudit(w)
        records = []
        for _ in range(cfg.total_time):
            records.append(w.step(FixedPolicy(value)))
            w.verify_channels()
            audit.unit(w)
        return w, records

    def test_channel_conservation_and_audits(self):
        w, _ = self.run_world(0.3)
        audit_motion(w.mts, w.t)
        kinds = {e.kind for e in w.events}
        assert {CONNECTED, HANDOFF_INITIATED, CONNECTION_CUT} <= kinds

    def test_event_log_determinism(self):
        w1, r1 = self.run_world(0.3, seed=7)
        w2, r2 = self.run_world(0.3, seed=7)
        assert w1.events == w2.events
        assert r1 == r2

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
        cfg = WorldConfig()
        w = World.build(cfg, np.random.default_rng(1))
        audit = ConservationAudit(w)
        prev = [mt.energy for mt in w.mts]
        for _ in range(cfg.total_time):
            w.step(FixedPolicy(0.3))
            audit.unit(w)
            now = [mt.energy for mt in w.mts]
            assert all(e <= p for e, p in zip(now, prev))
            prev = now
        assert min(prev) < cfg.initial_energy

    def audited_world(self):
        """A default world and its audit after two clean units."""
        w = World.build(WorldConfig(), np.random.default_rng(1))
        audit = ConservationAudit(w)
        for _ in range(2):
            w.step(FixedPolicy(0.3))
            audit.unit(w)
        return w, audit

    def test_audit_names_the_station_whose_occupancy_drifts(self):
        w, audit = self.audited_world()
        w.step(FixedPolicy(0.3))
        w.occupied[3] += 1
        with pytest.raises(AssertionError, match=r"^t=3 station 3: occupied"):
            audit.unit(w)

    @pytest.mark.parametrize("delta, message", [(0.5, "energy rose"),
                                                (-0.5, "recomputed energy")])
    def test_audit_names_the_terminal_whose_energy_drifts(self, delta, message):
        w, audit = self.audited_world()
        w.step(FixedPolicy(0.3))
        pose(w, 7, energy=w.mts[7].energy + delta)
        with pytest.raises(AssertionError, match=rf"^t=3 mt=7: {message}"):
            audit.unit(w)


class TestWorldBuild:
    def test_randomized_initialization_is_seeded(self):
        cfg = WorldConfig()
        a = World.build(cfg, np.random.default_rng(3))
        b = World.build(cfg, np.random.default_rng(3))
        assert list(a.mts) == list(b.mts)

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("duration", [None, 30.0])
    def test_drawn_terminals_take_five_scalar_draws_each(self, fraction, duration):
        # Per terminal in order: x, y, heading, plan kind and plan size, each
        # one word of the stream, as scalar uniform and random calls take them.
        cfg = WorldConfig(arena=(5000.0, 3000.0), mt_count=40, accelerated_fraction=fraction,
                          accel_duration=duration)
        for seed in range(5):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            want = []
            for i in range(cfg.mt_count):
                x, y = ref.uniform(0.0, 5000.0), ref.uniform(0.0, 3000.0)
                heading = ref.uniform(0.0, 2.0 * math.pi)
                if ref.random() < fraction:
                    plan = ("accelerated", ref.uniform(*cfg.accel_distance),
                            cfg.total_time if duration is None else duration)
                else:
                    plan = ("steady", ref.uniform(*cfg.steady_speed), 0.0)
                want.append(at_rest(i, x, y, heading, cfg.initial_energy, *plan))
            world = World.build(cfg, rng)
            assert list(world.mts) == want
            assert rng.bit_generator.state == ref.bit_generator.state
            # The step's acceleration column is the plans' own, bit for bit.
            assert world._accel.tolist() == [
                acceleration_for(mt.distance, mt.duration) if mt.kind == "accelerated" else 0.0
                for mt in want]

    def test_scripted_terminals_are_their_specs(self):
        # Steady and accelerated specs of different durations, among them a
        # steady one whose duration no plan reads, each at rest with the
        # config's energy and its plan read from the plan columns.
        specs = (TerminalSpec((10.0, 20.0), 0.5, speed=12.0),
                 TerminalSpec((300.0, 40.0), -1.0, "accelerated", distance=2500.0, duration=30.0),
                 TerminalSpec((5.0, 5999.0), 3.0, speed=0.0, duration=1e-200),
                 TerminalSpec((6000.0, 0.0), 2.0, "accelerated", distance=4500.0),
                 TerminalSpec((1.5, 2.5), kind="accelerated", distance=10.0, duration=0.3))
        cfg = WorldConfig(terminals=specs, initial_energy=40.0)
        want = [at_rest(i, *spec.position, spec.heading, cfg.initial_energy, spec.kind,
                        spec.speed if spec.kind == "steady" else spec.distance, spec.duration)
                for i, spec in enumerate(specs)]
        world = World.build(cfg)
        assert list(world.mts) == want and world.mts[-1] == want[-1]
        assert world.mts[2].duration == 0.0  # a steady plan reads no duration
        assert world._accel.tolist() == [
            acceleration_for(mt.distance, mt.duration) if mt.kind == "accelerated" else 0.0
            for mt in want]
        assert world.stations is cfg.stations and world.occupied == [0] * len(cfg.stations)

    def test_build_and_run_make_no_terminal_plan_or_station_object(self, monkeypatch):
        # A world is columns from its config to the run's report.
        scripted = WorldConfig(terminals=(TerminalSpec((100.0, 200.0), speed=5.0),
                                          TerminalSpec((900.0, 500.0), kind="accelerated")))
        drawn, config = WorldConfig(mt_count=20), default_config()

        def refuse(*args, **kwargs):
            raise AssertionError("built an object")
        for module in (gflsim.world, gflsim.experiment):
            for name in ("MobileTerminal", "StationSpec", "TerminalSpec"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert len(World.build(scripted).mts) == 2
        assert len(World.build(drawn, np.random.default_rng(0)).mts) == 20
        assert run(config, "fls", 0).sim_time == config.world.total_time

    def test_scripted_terminals_set_the_terminal_count(self):
        # mt_count counts the terminals a world holds, so a scripted list overrides it.
        one = (TerminalSpec((1.0, 1.0)),)
        cfg = WorldConfig(terminals=one, mt_count=7)
        assert cfg.mt_count == 1 == len(World.build(cfg).mts)
        assert dataclasses.replace(cfg, terminals=one * 3).mt_count == 3
        with pytest.raises(ConfigError, match="^terminals: expected at least 1 items, got 0"):
            dataclasses.replace(cfg, terminals=())

    @pytest.mark.parametrize("key", ["stations", "terminals"])
    def test_needs_a_station_and_a_terminal(self, key):
        # A config built in code holds as many items as a file must.
        with pytest.raises(ConfigError, match=f"^{key}: expected at least 1 items, got 0"):
            WorldConfig(**{key: ()})
        with pytest.raises(ConfigError, match=f"^world.{key}: expected at least 1 items"):
            config_from_dict({"world": {key: []}})

    @pytest.mark.parametrize("dwell", [0, -3])
    def test_non_positive_dwell_rejected(self, dwell):
        # A handover that starts at dwell 0 or below never completes and
        # holds its two channels for good.
        with pytest.raises(ConfigError, match="^dwell: must be >= 1"):
            World.build(WorldConfig(dwell=dwell), np.random.default_rng(0))

    @pytest.mark.parametrize("change, key", [
        ({"epsilon": -1.0}, "epsilon"),
        ({"s_min": 0.5, "s_th": 0.4}, "s_min"),
        ({"accelerated_fraction": 2.0}, "accelerated_fraction"),
        ({"initial_energy": 0.0}, "initial_energy"),
        ({"dwell": 0}, "dwell"),
    ])
    def test_config_built_in_code_is_checked(self, change, key):
        # The bounds the config schema puts on a file hold for a config
        # built in code too, before any world is built from it.
        with pytest.raises(ConfigError, match=f"^{key}: "):
            dataclasses.replace(WorldConfig(), **change)

    @staticmethod
    def rejected_before_build(world: dict, key: str) -> None:
        # A world takes every value from its config, so a non-finite one stops
        # at the key that holds it, in a config file and in code alike.
        with pytest.raises(ConfigError, match=f"^world.{re.escape(key)}: expected finite"):
            config_from_dict({"world": world})
        specs = {"terminals": TerminalSpec, "stations": StationSpec}
        with pytest.raises(ConfigError, match=f"^{re.escape(key.split('.')[-1])}: "):
            World.build(WorldConfig(**{
                name: tuple(specs[name](**spec) for spec in value) if name in specs else value
                for name, value in world.items()}), np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["x", "y", "heading", "speed", "energy"])
    def test_non_finite_terminal_rejected(self, name, bad):
        world, key = {
            "x": ({"terminals": [{"position": (bad, 0.0)}]}, "terminals[0].position[0]"),
            "y": ({"terminals": [{"position": (0.0, bad)}]}, "terminals[0].position[1]"),
            "heading": ({"terminals": [{"position": (0.0, 0.0), "heading": bad}]},
                        "terminals[0].heading"),
            "speed": ({"terminals": [{"position": (0.0, 0.0), "speed": bad}]},
                      "terminals[0].speed"),
            "energy": ({"initial_energy": bad}, "initial_energy"),
        }[name]
        self.rejected_before_build(world, key)

    @pytest.mark.parametrize("name", ["x", "y", "radius"])
    def test_non_finite_station_rejected(self, name):
        station = {"x": {"center": (math.nan, 0.0), "radius": 100.0},
                   "y": {"center": (0.0, math.nan), "radius": 100.0},
                   "radius": {"center": (0.0, 0.0), "radius": math.nan}}[name]
        key = {"x": "center[0]", "y": "center[1]", "radius": "radius"}[name]
        self.rejected_before_build(
            {"stations": [{"center": (0.0, 0.0), "radius": 500.0, "capacity": 2},
                          {**station, "capacity": 1}]}, f"stations[1].{key}")

    def test_requires_rng_without_explicit_terminals(self):
        with pytest.raises(DomainError):
            World.build(WorldConfig())

    def test_terminal_plan_validation(self):
        with pytest.raises(ConfigError, match="^speed: must be >= 0"):
            TerminalSpec((0.0, 0.0), speed=-1.0)
        with pytest.raises(ConfigError, match="^distance: must be > 0"):
            TerminalSpec((0.0, 0.0), kind="accelerated", distance=0.0, duration=10.0)


@st.composite
def scenarios(draw):
    """A small world with crowded, sometimes twin, capacity-starved stations
    and fast terminals near the walls, plus a number of units to step."""
    coord = st.floats(0.0, 2000.0, allow_nan=False)
    stations = draw(st.lists(st.builds(
        StationSpec, st.tuples(coord, coord), st.floats(100.0, 1500.0), st.integers(1, 3)),
        min_size=1, max_size=4))
    if draw(st.booleans()):
        stations.append(stations[0])  # a twin: ties go to the lower id
    near_wall = st.sampled_from([0.0, 1e-9, 5.0, 1995.0, 2000.0 - 1e-9, 2000.0])
    spot = st.one_of(coord, near_wall)
    heading = st.floats(-10.0, 10.0, allow_nan=False)
    steady = st.builds(TerminalSpec, st.tuples(spot, spot), heading, st.just("steady"),
                       st.sampled_from([0.0, 3.5, 40.0, 950.0, 4100.0]))
    accelerated = st.builds(TerminalSpec, st.tuples(spot, spot), heading, st.just("accelerated"),
                            distance=st.floats(10.0, 9000.0), duration=st.floats(1.0, 40.0))
    terminals = draw(st.lists(st.one_of(steady, accelerated), min_size=1, max_size=8))
    cfg = WorldConfig(arena=(2000.0, 2000.0), stations=tuple(stations),
                      terminals=tuple(terminals), eq2_verbatim=draw(st.booleans()),
                      dwell=draw(st.integers(1, 3)), epsilon=draw(st.sampled_from([0.0, 0.1])),
                      initial_energy=draw(st.sampled_from([3.0, 100.0])))
    return cfg, draw(st.integers(1, 25)), draw(st.integers(0, 2 ** 16))


class SignalPolicy:
    """A value that depends on every decide input, hitting s_min and s_th
    exactly at some of them.  As the scalar step's hook it logs each decide
    call.  As the array step's hook it logs, per table, each row's start
    inputs and its effective read: the row at its start channel input,
    replaced by its re-read (the row at the re-read's channel input) when it
    has one, and the rows re-read, in order.  Both classify the same values
    with ``region_codes``."""

    def __init__(self, cfg: WorldConfig, salt: int) -> None:
        self.values = (cfg.s_min, 0.05, cfg.s_th, 0.3, 0.9)
        self.salt = salt
        self.calls: list[tuple] = []
        self.tables: list[tuple[list, list, list]] = []  # (start rows, reads, rows re-read)

    def value(self, velocity, dist_norm, chan_norm) -> float:
        key = hash((velocity, dist_norm, chan_norm, self.salt))
        return self.values[key % len(self.values)]

    def decide(self, velocity, dist_norm, chan_norm) -> float:
        self.calls.append((velocity, dist_norm, chan_norm))
        return self.value(velocity, dist_norm, chan_norm)

    def table(self, velocity, dist_norm, chan_norm, cfg):
        assert all(a.dtype == float and a.shape == velocity.shape
                   for a in (velocity, dist_norm, chan_norm))
        s_min, s_th = cfg.s_min, cfg.s_th
        starts = list(zip(velocity.tolist(), dist_norm.tolist(), chan_norm.tolist()))
        reads, reread_rows = list(starts), []
        self.tables.append((starts, reads, reread_rows))

        def region(row) -> int:
            return int(region_codes(self.value(*row), s_min, s_th))

        def reread(r, chan):
            assert not reread_rows or r > reread_rows[-1], "rows are re-read once each, in order"
            reread_rows.append(r)
            reads[r] = (*starts[r][:2], chan)
            return region(reads[r])
        return [region(row) for row in starts], reread


class TestArrayStepMatchesReference:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(scenarios())
    def test_units_and_final_state_equal_the_scalar_step(self, scenario):
        cfg, units, salt = scenario
        world = World.build(cfg)
        ref = ReferenceWorld(world)
        live, scalar = SignalPolicy(cfg, salt), SignalPolicy(cfg, salt)
        for _ in range(units):
            n = len(scalar.calls)
            rec = world.step(live)
            want = ref.step(scalar)
            assert world.events == ref.events
            for f in dataclasses.fields(UnitRecord):
                a, b = getattr(rec, f.name), getattr(want, f.name)
                assert np.array_equal(a, b) and np.shape(a) == np.shape(b), (rec.t, f.name)
            # Positions, energies and occupancy after the unit.
            assert list(world.mts) == ref.mts, rec.t
            assert world.occupied == [bs.occupied for bs in ref.stations], rec.t
            # One effective read per scalar decide call, in the same order and
            # at the same inputs; a row is re-read exactly when its station's
            # occupancy at its turn is not the unit's start occupancy, which
            # is when its channel input differs from the start one.
            starts, reads, reread_rows = live.tables[-1]
            assert reads == scalar.calls[n:], rec.t
            assert reread_rows == [r for r, (row, read) in enumerate(zip(starts, reads))
                                   if read[2] != row[2]], rec.t
        assert len(live.tables) == units
        assert world.connected_units == ref.connected_units
        world.verify_channels()

    def test_decide_value_at_s_min_takes_the_handover_branch(self):
        # Connected: s_min is not below s_min, so the value starts a handover.
        w = two_station_world()
        connect(w, 0, 0)
        w.step(FixedPolicy(w.cfg.s_min))
        assert [e.kind for e in w.events] == [HANDOFF_INITIATED]
        # Disconnected: s_min is not above s_min, so no attempt is made.
        w = two_station_world()
        w.step(FixedPolicy(w.cfg.s_min))
        assert w.events == [] and w.mts[0].state == State.DISCONNECT


def boundary_spots(rng: np.random.Generator, station: StationSpec, count: int,
                   inside: bool) -> list[tuple[float, float]]:
    """A seeded search for spots at ``station``'s radius where ``np.hypot`` and
    ``math.hypot`` put the distance on opposite sides of it: inside coverage by
    ``math.hypot`` if ``inside``, else outside."""
    (cx, cy), radius = station.center, station.radius
    spots: list[tuple[float, float]] = []
    while len(spots) < count:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        x, y0 = cx + radius * math.cos(theta), cy + radius * math.sin(theta)
        for y in (y0 + k * math.ulp(y0) for k in range(-4, 5)):
            by_math = math.hypot(x - cx, y - cy) < radius
            if by_math == inside and by_math != (float(np.hypot(x - cx, y - cy)) < radius):
                spots.append((x, y))
                break
    return spots


class TestBoundaryBand:
    """The step takes ``np.hypot`` for every pair and ``math.hypot`` where a distance
    is read; at spots where the two round differently, it equals the scalar step."""

    STATIONS = (StationSpec((1000.0, 1000.0), 700.3, 40), StationSpec((1500.0, 1450.0), 300.7, 40))

    def test_coverage_at_the_radius_equals_the_scalar_step(self):
        rng = np.random.default_rng(2026)
        spots = [(s, inside, spot) for s, station in enumerate(self.STATIONS)
                 for inside in (True, False)
                 for spot in boundary_spots(rng, station, 4, inside)]
        cfg = WorldConfig(arena=(2000.0, 2000.0), stations=self.STATIONS,
                          terminals=tuple(TerminalSpec(spot, speed=0.0) for *_, spot in spots))
        for kind in ("fls", "flah"):
            world = World.build(cfg)
            for m in range(1, len(spots), 2):  # every other one starts served at its edge
                connect(world, m, spots[m][0])
            ref, live, scalar = ReferenceWorld(world), make_policy(kind), make_policy(kind)
            for _ in range(3):
                rec = world.step(live)
                assert rec == ref.step(scalar) and world.events == ref.events, kind
                assert list(world.mts) == ref.mts and world.occupied == [
                    bs.occupied for bs in ref.stations], kind
                assert [rec.ratio[m, s] > 0.0 for m, (s, *_) in enumerate(spots)] == [
                    inside for _, inside, _ in spots]
            assert any(e.kind == CONNECTION_CUT for e in world.events), kind

    def test_handover_to_a_target_out_of_coverage_charges_math_hypot_energy(self):
        # Terminals deep in station 0 in handover to station 1, which no longer
        # covers them, at spots where np.hypot would charge another energy.
        (sx, sy), serving_radius = self.STATIONS[0].center, self.STATIONS[0].radius
        (tx, ty), radius = self.STATIONS[1].center, self.STATIONS[1].radius
        rng, energy, eps = np.random.default_rng(7), 8.0, WorldConfig().epsilon

        def charged(x: float, y: float, hypot) -> float:
            spent = math.hypot(x - sx, y - sy) / serving_radius + eps
            return energy - (spent + (float(hypot(x - tx, y - ty)) / radius + eps))

        spots: list[tuple[float, float]] = []
        while len(spots) < 6:
            x, y = rng.uniform(700.0, 1300.0, 2).tolist()
            if (math.hypot(x - tx, y - ty) > radius
                    and 0.0 < charged(x, y, math.hypot) != charged(x, y, np.hypot)):
                spots.append((x, y))
        cfg = WorldConfig(arena=(2000.0, 2000.0), stations=self.STATIONS, initial_energy=energy,
                          terminals=tuple(TerminalSpec(spot, speed=0.0) for spot in spots))
        world = World.build(cfg)
        for m in range(len(spots)):
            connect(world, m, 0)
            pose(world, m, state=State.HANDOVER, target=1, dwell=2)
            world.occupied[1] += 1
        ref = ReferenceWorld(world)
        world.step(FixedPolicy(0.9))
        ref.step(FixedPolicy(0.9))
        assert world.events == ref.events == []
        assert list(world.mts) == ref.mts
        assert [mt.energy for mt in world.mts] == [charged(*spot, math.hypot) for spot in spots]


class TestDecisionTable:
    """The step reads each deciding terminal's region at its station's
    occupancy from one table per unit."""

    @staticmethod
    def log_reads(policy, starts_ok=lambda chan_norm: True) -> list:
        """Wrap ``policy.table``: each table's start inputs must pass ``starts_ok``, and
        each read logs False for a start code and, for a re-read, True (its channel
        input must differ from its row's start)."""
        reads, table = [], policy.table

        class Codes(list):
            def __getitem__(self, r):
                reads.append(False)
                return super().__getitem__(r)

        def logged(velocity, dist_norm, chan_norm, cfg):
            assert starts_ok(chan_norm)
            codes, reread = table(velocity, dist_norm, chan_norm, cfg)

            def logged_reread(r, chan):
                assert chan != chan_norm[r]
                reads.append(True)
                return reread(r, chan)
            return Codes(codes), logged_reread

        policy.table = logged
        return reads

    def test_unit_without_deciding_terminals(self):
        # Uncovered, in handover, and connected out of coverage (a forced cut):
        # the table has no rows.
        for kind in ("fls", "flah"):
            w = lone_terminal(5000.0, 5000.0)
            w.step(make_policy(kind))
            assert w.events == []
            w = two_station_world()
            connect(w, 0, 0)
            pose(w, 0, state=State.HANDOVER, target=1, dwell=2)
            w.occupied[1] += 1
            w.step(make_policy(kind))
            assert w.events == []
            pose(w, 0, x=3900.0)
            w.step(make_policy(kind))
            assert [e.kind for e in w.events] == [CONNECTION_CUT]

    def test_large_station_reads_away_from_the_start_occupancy_equal_the_scalar_step(self):
        # The 30 terminals start disconnected under the one station, so its
        # occupancy climbs within the first unit and most turns read the
        # table at an occupancy other than the unit's start.  Such a read
        # settles its row alone; every read equals the scalar step's decide.
        terminals = tuple(TerminalSpec((1000.0 + 10.0 * i, 1000.0), 0.0, speed=5.0)
                          for i in range(30))
        cfg = WorldConfig(arena=(2000.0, 2000.0), terminals=terminals,
                          stations=(StationSpec((1000.0, 1000.0), 900.0, 37),))
        for kind in ("fls", "flah"):
            live, scalar = make_policy(kind), make_policy(kind)
            # Rows start at the occupancy the station has when the unit begins.
            reads = self.log_reads(live, lambda chan_norm: (
                chan_norm == (37 - world.occupied[0]) / 37).all())
            world = World.build(cfg)
            ref = ReferenceWorld(world)
            for _ in range(8):
                rec = world.step(live)
                assert rec == ref.step(scalar) and world.events == ref.events
            assert world.occupied == [bs.occupied for bs in ref.stations]
            assert world.occupied[0] > 16 and sum(reads) >= 20, kind

    def test_walk_heavy_units_equal_the_scalar_step(self):
        # Forty terminals stream east through a two-channel cell, which a
        # one-channel cell overlaps, the leading ones first in turn order.
        # In the first unit every turn after the first connect sees another
        # occupancy than the unit's start, so most reads are re-reads;
        # later, cells fill, terminals leave them and are cut, and others connect.
        terminals = tuple(TerminalSpec((1590.0 - 30.0 * i, 1000.0 + 40.0 * (i % 5)), 0.0,
                                       speed=100.0) for i in range(40))
        cfg = WorldConfig(arena=(2000.0, 2000.0), terminals=terminals, stations=(
            StationSpec((1000.0, 1000.0), 600.0, 2), StationSpec((1150.0, 1000.0), 300.0, 1)))
        for kind in ("fls", "flah"):
            live, scalar = make_policy(kind), make_policy(kind)
            reads = self.log_reads(live)
            world = World.build(cfg)
            ref = ReferenceWorld(world)
            for u in range(12):
                rec = world.step(live)
                assert rec == ref.step(scalar) and world.events == ref.events, kind
                assert list(world.mts) == ref.mts, kind
                assert world.occupied == [bs.occupied for bs in ref.stations], kind
                if u == 0:
                    assert sum(reads) > len(reads) / 2 > 15, kind
            assert sum(reads) > 50, kind
            kinds = {e.kind for e in world.events}
            assert {CONNECTED, BLOCKED, CONNECTION_CUT} <= kinds, kind

    def test_two_input_table_never_calls_decide(self):
        # FLAH ignores channels: its re-reads give the start codes.
        terminals = tuple(TerminalSpec((1000.0 + 10.0 * i, 1000.0), speed=0.0)
                          for i in range(20))
        cfg = WorldConfig(arena=(2000.0, 2000.0), terminals=terminals,
                          stations=(StationSpec((1000.0, 1000.0), 900.0, 3),))
        policy, world = make_policy("flah"), World.build(cfg)
        reads = self.log_reads(policy)
        policy.decide = None  # a call raises TypeError
        for _ in range(3):
            world.step(policy)
        assert any(reads) and world.occupied == [3]

    def test_two_input_table_settles_once_per_unit(self):
        # FLAH ignores channels: each unit settles its rows in one batch, one
        # row per read, and reads at any occupancy settle nothing more.
        world = World.build(WorldConfig(mt_count=60, total_time=6), np.random.default_rng(2))
        policy, settled = make_policy("flah"), []
        settle, reads = policy.system.settle, self.log_reads(policy)
        policy.system.settle = lambda rows, *th: settled.append(len(rows)) or settle(rows, *th)
        for _ in range(6):
            world.step(policy)
        assert len(settled) == 6 and sum(settled) == len(reads)
        assert any(reads) and len(world.events) > 0

    @pytest.mark.parametrize("occupied", [-1, 3])
    def test_occupancy_outside_capacity_raises_naming_the_station(self, occupied):
        w = two_station_world()
        connect(w, 0, 1)
        w.occupied[1] = occupied
        with pytest.raises(RuntimeError, match="station 1: occupied=" + str(occupied)):
            w.step(FixedPolicy(0.9))

    def test_a_hold_outside_capacity_raises_naming_the_station(self):
        # The unit starts within capacity, but station 1 does not count the
        # channel its terminal holds: the cut releases it below zero.
        w = two_station_world()
        connect(w, 0, 1)
        w.occupied[1] = 0
        with pytest.raises(RuntimeError, match="station 1: occupied=-1, capacity=2"):
            w.step(FixedPolicy(0.1))


class TestRecords:
    def test_record_arrays_are_read_only(self):
        _, records = TestFullRuns().run_world(0.3)
        rec = records[-1]
        for f in dataclasses.fields(UnitRecord)[1:]:
            with pytest.raises(ValueError):
                getattr(rec, f.name)[0] = 0
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec
        for f in dataclasses.fields(UnitRecord)[1:]:
            with pytest.raises(ValueError):
                getattr(back, f.name)[0] = 0

    def test_records_do_not_follow_the_world(self):
        w = two_station_world()
        rec = w.step(FixedPolicy(0.9))
        kept = copy.deepcopy(rec)
        pose(w, 0, x=10.0, energy=1.0)
        later = w.step(FixedPolicy(0.9))
        assert rec == kept and later.ratio[0, 0] != rec.ratio[0, 0]

    def test_terminal_slices_are_lists_of_terminals(self):
        w = World.build(WorldConfig(mt_count=6), np.random.default_rng(3))
        for s in (slice(1, 3), slice(None, None, -1), slice(4, 1, -2), slice(-2, None),
                  slice(3, 3), slice(10, 20), slice(2, 5, -1)):
            assert w.mts[s] == [w.mts[i] for i in range(len(w.mts))[s]], s
        assert len(w.mts[1:3]) == 2 and w.mts[4:1] == []
        assert w.mts[-1] == w.mts[5] and [mt.ident for mt in w.mts] == list(range(6))
        for i in (6, -7):
            with pytest.raises(IndexError):
                w.mts[i]

    def test_terminals_are_immutable_rows(self):
        w = World.build(WorldConfig(mt_count=6), np.random.default_rng(3))
        for mt in (w.mts[0], *w.mts[2:4]):
            assert type(mt) is MobileTerminal
            with pytest.raises(AttributeError):
                mt.x = 0.0
        with pytest.raises(TypeError):
            w.mts[0] = w.mts[1]

    def test_terminal_count_builds_no_terminal(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a terminal row")
        w = two_station_world()
        monkeypatch.setattr(gflsim.world, "MobileTerminal", refuse)
        assert len(w.mts) == 1
        with pytest.raises(AssertionError, match="built a terminal row"):
            w.mts[0]


class TestEventLog:
    """``World.events`` and ``RunResult.events``: per-unit int blocks read as ``Event`` rows."""

    @staticmethod
    def result():
        res = run(default_config(), "fls", 0)
        assert {e.kind for e in res.events} == set(EVENT_KINDS)
        return res

    def test_equals_a_list_and_a_tuple_of_its_events(self):
        log = self.result().events
        rows = list(log)
        assert all(type(e) is Event for e in rows)
        assert log == rows and rows == log and log == tuple(rows) and tuple(rows) == log
        assert log == EventLog(log._units) and hash(log) == hash(tuple(rows))
        assert log != rows[:-1] and log != rows[::-1] and log != [] and log != ()
        assert (log == 5) is False and (log == set(rows)) is False
        assert EventLog() == [] == EventLog() and EventLog() == ()

    def test_length_indexes_slices_and_iteration(self):
        log = self.result().events
        rows = list(log)
        assert len(log) == len(rows) > 100 and list(iter(log)) == rows
        assert [log[i] for i in range(-len(rows), len(rows))] == rows + rows
        assert log[-1] == rows[-1] and log[0] == rows[0]
        for s in (slice(3, 10), slice(None, None, -3), slice(-5, None), slice(7, 7)):
            assert log[s] == rows[s]
        for i in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                log[i]
        with pytest.raises(TypeError):
            log[0] = rows[0]
        assert not hasattr(log, "append") and not hasattr(log, "__dict__")

    def test_pickle_round_trip(self):
        log = self.result().events
        back = pickle.loads(pickle.dumps(log))
        assert type(back) is EventLog and back == log == list(back)
        assert len(pickle.dumps(log)) < len(pickle.dumps(tuple(log)))
        # Ids that need wider ints than the default run's, and an empty log.
        wide = EventLog([(3, array("q", [70_000, 4, -1, 2, 5, 2, 40_000, -1])),
                         (2 ** 40, array("q", [1, 0, 0, 1]))])
        for log in (wide, EventLog()):
            back = pickle.loads(pickle.dumps(log))
            assert back == log and back._units == log._units

    def test_kind_counts_from_the_kind_column(self):
        res = self.result()
        for kind in EVENT_KINDS:
            assert res.events.kind_count(kind) == sum(e.kind == kind for e in res.events) > 0
        assert res.metrics.number_of_handoffs == res.events.kind_count(HANDOFF_INITIATED)
        with pytest.raises(ValueError):
            res.events.kind_count("Teleported")
