"""Configuration schema round-trip and validation tests."""

import configparser
import math
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, reject, settings, strategies as st

from satgnc.config import (CONTROLLER_KINDS, ESTIMATOR_KINDS, LAYOUT, MAX_STEPS,
                           MODULATOR_KINDS, MonteCarloConfig, NOMINAL_INERTIA, SimConfig,
                           UNCERTAIN_INERTIA, dump_sim_config, load_sim_config,
                           parse_sim_config)
from satgnc.dynamics import AngularVelocity, EulerAngles, InertiaTensor, Torque
from satgnc.pwpf import PwpfParams
from satgnc.sensors import NoiseSpec

# -0.0, the smallest subnormal, the smallest normal, a float with a long
# shortest repr, and the largest finite double
SPECIAL = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                           0.1 / 3.0, -0.1 / 3.0, 1.7976931348623157e308])
FLOATS = st.floats(allow_nan=False) | SPECIAL
FINITE = st.floats(allow_nan=False, allow_infinity=False) | SPECIAL
POSITIVE = (st.floats(min_value=5e-324, max_value=1e6)
            | st.sampled_from([5e-324, 2.2250738585072014e-308, 0.1 / 3.0]))
SIGMAS = st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from([-0.0, 5e-324])
TRIPLES = st.tuples(FINITE, FINITE, FINITE)
PATHS = st.from_regex(r"[A-Za-z0-9_./-]{0,16}", fullmatch=True)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@st.composite
def sim_configs(draw):
    """Random valid run configurations, edge values included."""
    dt = draw(POSITIVE)
    duration = max(dt, draw(POSITIVE))
    if not duration / dt <= MAX_STEPS:      # over the limit: draw a step count within it
        duration = dt * draw(st.floats(1.0, MAX_STEPS / 2))
    u_off = draw(POSITIVE)
    try:
        return SimConfig(
            dt=dt, duration=duration,
            seed=draw(st.integers(-2 ** 63, 2 ** 63)),
            inertia_true=InertiaTensor(*draw(st.tuples(POSITIVE, POSITIVE, POSITIVE))),
            initial_euler=EulerAngles(*draw(TRIPLES)),
            initial_omega=AngularVelocity(*draw(TRIPLES)),
            desired_euler=EulerAngles(*draw(TRIPLES)),
            noise=NoiseSpec(draw(SIGMAS), draw(SIGMAS), draw(SIGMAS)),
            disturbance_const=Torque(*draw(TRIPLES)),
            disturbance_amp=Torque(*draw(TRIPLES)),
            disturbance_freq_hz=draw(FINITE),
            controller=draw(st.sampled_from(CONTROLLER_KINDS)),
            estimator=draw(st.sampled_from(ESTIMATOR_KINDS)),
            modulator=draw(st.sampled_from(MODULATOR_KINDS)),
            pwpf=PwpfParams(km=draw(FLOATS), tm=draw(POSITIVE),
                            u_on=u_off + draw(POSITIVE), u_off=u_off,
                            thrust=draw(POSITIVE)),
            gains_file=draw(PATHS), bundle_dir=draw(PATHS))
    except ValueError:      # u_on rounded down onto u_off, or an infinite km
        reject()


class TestSimConfig:
    def test_defaults_sane(self):
        cfg = SimConfig()
        assert cfg.n_steps == 2000
        assert cfg.inertia_true == NOMINAL_INERTIA
        assert cfg.controller == "pid"

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0)

    @pytest.mark.parametrize("field", ["dt", "duration"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
    def test_non_finite_dt_and_duration_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("field", ["initial_euler", "initial_omega", "desired_euler",
                                       "disturbance_const", "disturbance_amp",
                                       "disturbance_freq_hz"])
    def test_non_finite_scenario_rejected(self, field):
        # a NaN or infinite setting is refused by name, not met mid-run; a
        # zero-amplitude disturbance with a NaN frequency too
        default = getattr(SimConfig(), field)
        for value in (math.nan, math.inf, -math.inf):
            bad = value if field == "disturbance_freq_hz" else type(default)(0.0, value, 0.0)
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                SimConfig(**{field: bad})

    def test_step_count_must_be_finite(self):
        # a subnormal dt overflows duration / dt; the step count was int(round(inf))
        with pytest.raises(ValueError, match=r"duration 1\.0 / dt 1e-320 is not a finite step"):
            SimConfig(dt=1e-320, duration=1.0)

    def test_step_count_within_limit(self):
        # 2e10 steps failed allocating a 447 GiB record, or tuned for hours
        assert SimConfig(dt=2e-5, duration=20.0).n_steps == MAX_STEPS
        for dt, steps in ((1e-9, "20,000,000,000"), (1.9999e-5, "1,000,050")):
            with pytest.raises(ValueError, match=rf"duration 20\.0 / dt {dt} is not a finite "
                               rf"step count within MAX_STEPS = 1,000,000: {steps} steps"):
                SimConfig(dt=dt, duration=20.0)

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
            noise=NoiseSpec(0.002, 0.003, 2e-4),
            disturbance_const=Torque(1e-4, 0.0, -1e-4),
            disturbance_amp=Torque(0.0, 1e-5, 0.0),
            disturbance_freq_hz=0.25,
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

    def test_malformed_triple_rejected(self):
        with pytest.raises(ValueError):
            parse_sim_config("[inertia]\ntrue = 1.0, 2.0\n")

    def test_keys_outside_layout_warn_and_are_ignored(self):
        # a configuration written for a layout that still held the nominal
        # plant, the position and the epoch loads, naming what it ignores
        text = ("[simulation]\nseed = 3\n[inertia]\nnominal = 1.5, 2.6, 3.0\n"
                "[noise]\nseed = 0\n[geo]\nlatitude_deg = 0.0\nepoch = 2020-03-21 12:00:0.0\n")
        with pytest.warns(UserWarning) as caught:
            cfg = parse_sim_config(text)
        assert cfg == SimConfig(seed=3)
        assert len(caught) == 1
        assert str(caught[0].message) == (
            "ignored configuration keys outside the layout: [inertia] nominal, "
            "[noise] seed, [geo] latitude_deg, [geo] epoch")

    def test_loaded_file_warning_names_the_file_and_its_caller(self, tmp_path):
        path = tmp_path / "old.ini"
        path.write_text("[simulation]\nseed = 3\n[noise]\nseed = 0\n")
        with pytest.warns(UserWarning) as caught:
            cfg = load_sim_config(path)
        assert cfg == SimConfig(seed=3)
        assert len(caught) == 1
        assert str(caught[0].message) == (
            f"ignored configuration keys outside the layout in {path}: [noise] seed")
        assert caught[0].filename == __file__

    def test_nominal_plant_position_and_epoch_are_not_keys(self):
        assert len(LAYOUT) == 23
        assert not {"inertia_nominal", "geo", "epoch"} & {f.name for f in fields(SimConfig)}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.name)
def test_example_config_holds_only_layout_keys(path):
    # parse_sim_config ignores any other key, with a warning
    cp = configparser.ConfigParser()
    cp.read(path)
    keys = {(section, key) for section in cp.sections() for key in cp[section]}
    assert keys <= {row[:2] for row in LAYOUT}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_sim_config(path)


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
        assert (mc.n_runs, mc.master_seed) == (200, 0)
        # the envelope is the teacher runs': no campaign field widens it
        assert [f.name for f in fields(MonteCarloConfig)] == ["base", "n_runs", "master_seed"]

    def test_n_runs_floor(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(base=SimConfig(), n_runs=0)
