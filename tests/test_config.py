"""Configuration schema round-trip and validation tests."""

import configparser

import pytest
from hypothesis import given, reject, settings, strategies as st

from satgnc.config import (CONTROLLER_KINDS, ESTIMATOR_KINDS, LAYOUT, MODULATOR_KINDS,
                           MonteCarloConfig, NOMINAL_INERTIA, SimConfig,
                           UNCERTAIN_INERTIA, dump_sim_config, load_sim_config,
                           parse_sim_config)
from satgnc.dynamics import AngularVelocity, EulerAngles, InertiaTensor, Torque
from satgnc.pwpf import PwpfParams
from satgnc.sensors import CalendarInstant, GeoPosition, NoiseSpec

# -0.0, the smallest subnormal, the smallest normal, a float with a long
# shortest repr, and the largest finite double
SPECIAL = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                           0.1 / 3.0, -0.1 / 3.0, 1.7976931348623157e308])
FLOATS = st.floats(allow_nan=False) | SPECIAL
POSITIVE = (st.floats(min_value=5e-324, max_value=1e6)
            | st.sampled_from([5e-324, 2.2250738585072014e-308, 0.1 / 3.0]))
SIGMAS = st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from([-0.0, 5e-324])
TRIPLES = st.tuples(FLOATS, FLOATS, FLOATS)
EPOCHS = (st.builds(CalendarInstant, st.integers(1900, 2100), st.integers(1, 12),
                    st.integers(1, 31), st.integers(0, 23), st.integers(0, 59),
                    st.floats(0.0, 60.0, exclude_max=True) | SPECIAL)
          | st.sampled_from([CalendarInstant(1900, 1, 1, 0, 0, 0.0),
                             CalendarInstant(2100, 12, 31, 23, 59, 59.999999999999993)]))
PATHS = st.from_regex(r"[A-Za-z0-9_./-]{0,16}", fullmatch=True)


@st.composite
def sim_configs(draw):
    """Random valid run configurations, edge values included."""
    dt = draw(POSITIVE)
    u_off = draw(POSITIVE)
    try:
        return SimConfig(
            dt=dt, duration=max(dt, draw(POSITIVE)),
            seed=draw(st.integers(-2 ** 63, 2 ** 63)),
            inertia_nominal=InertiaTensor(*draw(st.tuples(POSITIVE, POSITIVE, POSITIVE))),
            inertia_true=InertiaTensor(*draw(st.tuples(POSITIVE, POSITIVE, POSITIVE))),
            initial_euler=EulerAngles(*draw(TRIPLES)),
            initial_omega=AngularVelocity(*draw(TRIPLES)),
            desired_euler=EulerAngles(*draw(TRIPLES)),
            noise=NoiseSpec(draw(SIGMAS), draw(SIGMAS), draw(SIGMAS),
                            draw(st.integers(0, 2 ** 31))),
            disturbance_const=Torque(*draw(TRIPLES)),
            disturbance_amp=Torque(*draw(TRIPLES)),
            disturbance_freq_hz=draw(FLOATS),
            geo=GeoPosition(draw(FLOATS), draw(FLOATS), draw(FLOATS)),
            epoch=draw(EPOCHS),
            controller=draw(st.sampled_from(CONTROLLER_KINDS)),
            estimator=draw(st.sampled_from(ESTIMATOR_KINDS)),
            modulator=draw(st.sampled_from(MODULATOR_KINDS)),
            pwpf=PwpfParams(km=draw(FLOATS), tm=draw(POSITIVE),
                            u_on=u_off + draw(POSITIVE), u_off=u_off,
                            thrust=draw(POSITIVE)),
            gains_file=draw(PATHS), bundle_dir=draw(PATHS))
    except ValueError:      # u_on rounded down onto u_off
        reject()


class TestSimConfig:
    def test_defaults_sane(self):
        cfg = SimConfig()
        assert cfg.n_steps == 2000
        assert cfg.inertia_nominal == NOMINAL_INERTIA
        assert cfg.controller == "pid"

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0)

    def test_duration_must_cover_one_step(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.1, duration=0.05)

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError, match="controller"):
            SimConfig(controller="fuzzy")
        with pytest.raises(ValueError, match="estimator"):
            SimConfig(estimator="kalman")
        with pytest.raises(ValueError, match="modulator"):
            SimConfig(modulator="pwm")

    def test_uncertain_inertia_constant(self):
        assert UNCERTAIN_INERTIA == InertiaTensor(2.5, 4.0, 3.3)


class TestRoundTrip:
    def test_default_round_trip(self):
        cfg = SimConfig()
        assert parse_sim_config(dump_sim_config(cfg)) == cfg

    def test_nontrivial_round_trip(self):
        cfg = SimConfig(
            dt=0.005, duration=12.5, seed=99,
            inertia_true=UNCERTAIN_INERTIA,
            initial_euler=EulerAngles(-3.25, 7.5, 0.125),
            initial_omega=AngularVelocity(0.01, -0.02, 0.03),
            desired_euler=EulerAngles(1.0, 2.0, 3.0),
            noise=NoiseSpec(0.002, 0.003, 2e-4, seed=7),
            disturbance_const=Torque(1e-4, 0.0, -1e-4),
            disturbance_amp=Torque(0.0, 1e-5, 0.0),
            disturbance_freq_hz=0.25,
            epoch=CalendarInstant(2021, 7, 4, 6, 30, 15.5),
            controller="anfis", estimator="anfis", modulator="pwpf",
            pwpf=PwpfParams(km=9.0, thrust=0.5),
            gains_file="g.ini", bundle_dir="b",
        )
        assert parse_sim_config(dump_sim_config(cfg)) == cfg

    def test_floats_survive_exactly(self):
        cfg = SimConfig(dt=0.1 / 3.0)
        assert parse_sim_config(dump_sim_config(cfg)).dt == cfg.dt

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.ini"
        cfg = SimConfig(seed=5)
        path.write_text(dump_sim_config(cfg))
        assert load_sim_config(path) == cfg

    def test_partial_config_uses_defaults(self):
        cfg = parse_sim_config("[simulation]\nseed = 3\n")
        assert cfg.seed == 3
        assert cfg.dt == SimConfig().dt

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_sim_config("not an ini file [[[")

    def test_malformed_epoch_rejected(self):
        with pytest.raises(ValueError, match="epoch"):
            parse_sim_config("[geo]\nepoch = yesterday\n")

    def test_malformed_triple_rejected(self):
        with pytest.raises(ValueError):
            parse_sim_config("[inertia]\nnominal = 1.0, 2.0\n")


@pytest.mark.filterwarnings("ignore:.*triangle inequality")   # valid, if unrealizable
class TestRoundTripProperties:
    @settings(max_examples=300, deadline=None)
    @given(sim_configs())
    def test_dump_parse_round_trip(self, cfg):
        text = dump_sim_config(cfg)
        back = parse_sim_config(text)
        assert back == cfg
        # == cannot tell -0.0 from 0.0; the text can
        assert dump_sim_config(back) == text

    @settings(max_examples=200, deadline=None)
    @given(sim_configs(), st.sampled_from(LAYOUT))
    def test_one_key_overrides_defaults(self, cfg, row):
        # a file holding one key sets that key and leaves every other one
        # at SimConfig()'s value
        section, key = row[:2]
        full = configparser.ConfigParser()
        full.read_string(dump_sim_config(cfg))
        try:
            parsed = parse_sim_config(f"[{section}]\n{key} = {full[section][key]}\n")
        except ValueError:      # the one key clashes with a default (say dt > duration)
            reject()
        got = configparser.ConfigParser()
        got.read_string(dump_sim_config(parsed))
        want = configparser.ConfigParser()
        want.read_string(dump_sim_config(SimConfig()))
        want[section][key] = full[section][key]
        assert {s: dict(got[s]) for s in got.sections()} == \
            {s: dict(want[s]) for s in want.sections()}


class TestMonteCarloConfig:
    def test_defaults(self):
        mc = MonteCarloConfig(base=SimConfig())
        assert mc.n_runs == 200
        assert mc.angle_range_deg == 15.0
        assert mc.inertia_range == 1.0

    def test_n_runs_floor(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(base=SimConfig(), n_runs=0)
