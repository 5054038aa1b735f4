"""Role-pipeline tests: datasets, training wrappers, bundle inference and
persistence.  Heavy training shares the session fixtures from conftest."""

import csv
import dataclasses
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from satgnc import anfis, roles
from satgnc.anfis import AnfisModel
from satgnc.config import SimConfig
from satgnc.dynamics import AngularVelocity, IntegrationDivergedError, Quaternion, Torque
from satgnc.harness import final_euler_error, run_closed_loop
from satgnc.pid import MC_MAX, PidGains, PidState, pid_step, saturate
from satgnc.roles import (EstimateInvalidError, RoleBundle,
                          RoleDataset, anfis_control, anfis_estimate,
                          anfis_integrated, load_bundle, save_bundle)
from satgnc.sensors import SENSOR_CHANNELS, NoiseSpec

QUICK_GAINS = PidGains(kp=(-3.0, -5.2, -6.0), kd=(-3.0, -5.2, -6.0),
                       kq=(-0.01, -0.01, -0.01), kw=(-0.01, -0.01, -0.01))
# a short scenario with the default sensor noise
SENSOR_BASE = SimConfig(duration=2.0, seed=3, noise=NoiseSpec())
FLOATS = st.floats(allow_nan=False)       # -0.0, subnormals and infinities too
FINITE = st.floats(allow_nan=False, allow_infinity=False)    # a model's values
METADATA = st.dictionaries(st.text(max_size=4), FLOATS | st.text(max_size=4), max_size=3)


@st.composite
def role_bundles(draw):
    """Any bundle a file can hold: 1-4 inputs of 2-4 MFs, named by sensor
    channels for a sensor role, 1-3 output channels, any finite premise and
    consequent values, and metadata."""
    mfs = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=4)))
    n_in, k = len(mfs), draw(st.integers(1, 3))
    model = AnfisModel(
        mfs, *(draw(arrays(np.float64, sum(mfs), elements=FINITE)) for _ in "abc"),
        coeffs=draw(arrays(np.float64, (k, int(np.prod(mfs)), n_in + 1), elements=FINITE)),
        # finite, so the bundle's envelope arithmetic stays finite
        input_ranges=draw(arrays(np.float64, (n_in, 2), elements=st.floats(-1e300, 1e300))))
    role = draw(st.sampled_from(tuple(roles.ROLES)))
    names = (draw(st.permutations(SENSOR_CHANNELS))[:n_in] if role in roles.SENSOR_ROLES
             else [f"x{i}" for i in range(n_in)])
    return RoleBundle(role, model, tuple(names), tuple(f"y{j}" for j in range(k)),
                      draw(METADATA))


class TestRoleDataset:
    def test_split_by_whole_runs(self):
        x = np.arange(40, dtype=float).reshape(20, 2)
        y = np.arange(20, dtype=float).reshape(20, 1)
        ids = np.repeat(np.arange(10), 2)
        ds = RoleDataset(x, y, ids, ("a", "b"), ("t",))
        train, hold = ds.split_by_run()
        # HOLDOUT_FRACTION of the 10 runs, the last ones
        assert roles.HOLDOUT_FRACTION == 0.1
        assert len(train) == 18 and len(hold) == 2
        assert set(np.unique(hold.run_ids)) == {9}
        assert not set(np.unique(train.run_ids)) & set(np.unique(hold.run_ids))

    def test_csv_bytes_are_csv_writers(self, tmp_path):
        # write_csv writes what csv.writer writes, byte for byte, on the
        # values whose repr is special: nan, infinities, -0.0, the smallest
        # subnormal and a small number printed in exponent form
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-05]
        ds = RoleDataset(np.array([special, special[::-1]]), np.array([[1.5], [-2.0]]),
                         [0, 7], tuple(f"x{i}" for i in range(6)), ("y",))
        ds.to_csv(tmp_path / "fast.csv")
        with open(tmp_path / "writer.csv", "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(("run",) + ds.input_names + ds.target_names)
            wr.writerows([rid] + x + y for rid, x, y in zip(
                ds.run_ids.tolist(), ds.inputs.tolist(), ds.targets.tolist()))
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "writer.csv").read_bytes()

    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        extremes = np.tile([[5e-324, 1.7976931348623157e308, 1e-5],
                            [-0.0, -5e-324, -1.7976931348623157e308]], 2)
        for inputs in (rng.normal(size=(15, 6)),
                       np.vstack([rng.normal(size=(13, 6)), extremes])):
            ds = RoleDataset(inputs, rng.normal(size=(15, 3)),
                             np.repeat([0, 1, 2], 5), roles.CONTROLLER_CHANNELS,
                             roles.TORQUE_CHANNELS)
            path = tmp_path / "data.csv"
            ds.to_csv(path)
            back = RoleDataset.from_csv(path, "controller")
            # bit for bit, which also tells -0.0 from 0.0
            assert back.inputs.tobytes() == ds.inputs.tobytes()
            assert back.targets.tobytes() == ds.targets.tobytes()
            np.testing.assert_array_equal(back.run_ids, ds.run_ids)
            assert back.input_names == ds.input_names
            assert back.target_names == ds.target_names


class TestDataGeneration:
    def test_controller_data_shape_and_determinism(self):
        a = roles.generate_controller_data(QUICK_GAINS, 2, SimConfig(duration=2.0, seed=3))
        b = roles.generate_controller_data(QUICK_GAINS, 2, SimConfig(duration=2.0, seed=3))
        assert a.inputs.shape == (2 * 200, 6)
        assert a.targets.shape == (2 * 200, 3)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_diverging_teacher_gives_up(self):
        # gains that diverge from every start at a 1 s step: a bounded number
        # of redraws, then an error that says how many diverged
        bad = PidGains(kp=(1e6, 1e6, 1e6), kd=(1e6, 1e6, 1e6))
        for generate in (roles.generate_controller_data, roles.generate_sensor_data):
            with pytest.warns(UserWarning, match="redrawn"), pytest.raises(
                    IntegrationDivergedError, match=f"^{roles.MAX_DIVERGED_DRAWS} teacher runs"):
                generate(bad, 2, SimConfig(dt=1.0, duration=20.0))

    def test_targets_are_unsaturated_commands(self):
        # aggressive gains from a large error exceed the clamp in the record
        ds = roles.generate_controller_data(QUICK_GAINS, 3, SimConfig(duration=2.0, seed=1))
        assert np.max(np.abs(ds.targets)) > MC_MAX

    def test_sensor_data_channels(self):
        ds = roles.generate_sensor_data(QUICK_GAINS, 2, SENSOR_BASE)
        assert ds.inputs.shape[1] == 15
        assert ds.targets.shape[1] == 10
        # measured directions are unit vectors
        np.testing.assert_allclose(np.linalg.norm(ds.inputs[:, 0:3], axis=1),
                                   1.0, atol=1e-12)
        # state targets carry unit quaternions
        np.testing.assert_allclose(np.linalg.norm(ds.targets[:, 0:4], axis=1),
                                   1.0, atol=1e-9)

    def test_estimator_and_integrated_are_views(self):
        ds = roles.generate_sensor_data(QUICK_GAINS, 2, SENSOR_BASE)
        est = roles.role_view(ds, "estimator")
        intg = roles.role_view(ds, "integrated")
        assert est.target_names == roles.ROLES["estimator"].outputs
        assert intg.target_names == roles.ROLES["integrated"].outputs
        np.testing.assert_array_equal(est.targets, ds.targets[:, :7])
        np.testing.assert_array_equal(intg.targets, ds.targets[:, 7:])
        assert est.inputs is ds.inputs and intg.inputs is ds.inputs
        # a controller dataset is its own view
        ctrl = roles.generate_controller_data(QUICK_GAINS, 1, SimConfig(duration=1.0))
        view = roles.role_view(ctrl, "controller")
        np.testing.assert_array_equal(view.targets, ctrl.targets)
        assert view.target_names == ctrl.target_names

    def test_role_table_matches_datasets(self):
        # every role's dataset carries the channels the table says its
        # bundle reads, and the outputs it learns
        ctrl = roles.generate_controller_data(QUICK_GAINS, 1, SimConfig(duration=1.0))
        sensor = roles.generate_sensor_data(QUICK_GAINS, 1,
                                            SimConfig(duration=1.0, noise=NoiseSpec()))
        assert ctrl.input_names == roles.ROLES["controller"].inputs
        for role, spec in roles.ROLES.items():
            ds = sensor if role in roles.SENSOR_ROLES else ctrl
            assert set(spec.inputs) <= set(ds.input_names), role
            assert set(spec.outputs) <= set(ds.target_names), role


@pytest.mark.parametrize("source", ["pid", "controller", "integrated"])
def test_clamps_at_mc_max(source):
    # the PID teacher and both torque roles drive one actuator: a command of
    # (5, -5, 0.5) N*m comes out as (MC_MAX, -MC_MAX, 0.5)
    want = (MC_MAX, -MC_MAX, 0.5)
    if source == "pid":
        gains = PidGains(kp=(-10.0,) * 3, kd=(0.0,) * 3)
        mc, raw = pid_step((-0.5, 0.5, -0.05), (0.0, 0.0, 0.0), PidState(), gains, 0.01)
        assert raw == Torque(5.0, -5.0, 0.5) and mc == want
        return
    # a bundle whose every rule outputs the command, whatever it reads
    inputs = roles.ROLES[source].inputs
    model = anfis.grid_partition_init(np.tile([-1.0, 1.0], (len(inputs), 1)), 2)
    model.coeffs = np.zeros((3,) + model.coeffs.shape[1:])
    model.coeffs[:, :, -1] = np.array([5.0, -5.0, 0.5])[:, None]
    bundle = RoleBundle(source, model, inputs, roles.TORQUE_CHANNELS)
    got = (anfis_control(bundle, (0.1, 0.0, -0.1), (0.0, 0.01, 0.0)) if source == "controller"
           else anfis_integrated(bundle, [0.1] * len(SENSOR_CHANNELS)))
    # the unclamped axis is the rules' normalized sum, to rounding
    assert got[:2] == want[:2] and got[2] == pytest.approx(0.5, abs=1e-15)


class TestControllerBundle:
    def test_mimicry_and_shape(self, controller_art):
        bundle = controller_art["bundle"]
        assert bundle.n_inputs == 6
        assert bundle.model.coeffs.shape == (3, 2 ** 6, 7)
        assert all(r <= 0.05 for r in bundle.metadata["holdout_rmse"])

    def test_control_saturates_to_bound(self, controller_art):
        bundle = controller_art["bundle"]
        mc = anfis_control(bundle, (0.9, -0.9, 0.9), (0.1, -0.1, 0.1))
        assert all(abs(v) <= MC_MAX for v in mc)

    def test_role_mismatch_rejected(self, controller_art, sensor_art):
        with pytest.raises(ValueError, match="controller"):
            anfis_control(sensor_art["estimator"], (0.0,) * 3, (0.0,) * 3)
        with pytest.raises(ValueError, match="estimator"):
            anfis_estimate(controller_art["bundle"],
                           np.ones(15))

    def test_extrapolation_warns_once(self, controller_art):
        bundle = load_bundle_roundtrip(controller_art["bundle"])
        with pytest.warns(UserWarning, match="envelope"):
            anfis_control(bundle, (5.0, 5.0, 5.0), (9.0, 9.0, 9.0))


def load_bundle_roundtrip(bundle, tmp=None):
    with tempfile.TemporaryDirectory() as d:
        save_bundle(bundle, d)
        return load_bundle(d)


class TestSensorBundles:
    def test_estimator_outputs(self, sensor_art):
        ds = sensor_art["clean_estimator_data"]
        bundle = sensor_art["estimator"]
        q, w = anfis_estimate(bundle, ds.inputs[0])
        assert isinstance(q, Quaternion) and isinstance(w, AngularVelocity)
        assert q.norm() == pytest.approx(1.0, abs=1e-12)

    def test_estimator_accuracy_on_clean_data(self, sensor_art):
        ds = sensor_art["clean_estimator_data"]
        bundle = sensor_art["estimator"]
        x = ds.inputs[::50, list(bundle.input_columns)]
        pred = bundle.predict_batch(x)
        true_q = ds.targets[::50, 0:4]
        qn = pred[:, 0:4] / np.linalg.norm(pred[:, 0:4], axis=1, keepdims=True)
        dots = np.abs(np.sum(qn * true_q, axis=1))
        angles = 2.0 * np.degrees(np.arccos(np.minimum(1.0, dots)))
        assert np.sqrt(np.mean(angles ** 2)) <= 2.0

    def test_invalid_norm_raises(self, sensor_art):
        bundle = sensor_art["estimator"]
        model = bundle.model.copy()
        model.coeffs[0:4] = 0.0
        broken = RoleBundle("estimator", model, bundle.input_names, bundle.output_names)
        with pytest.raises(EstimateInvalidError):
            anfis_estimate(broken, np.ones(15) * 0.1)

    def test_nan_estimate_raises(self, sensor_art):
        # an all-NaN row fires every rule at NaN: its quaternion norm is NaN
        with pytest.raises(EstimateInvalidError, match="nan"):
            anfis_estimate(sensor_art["estimator"], np.full(15, np.nan))

    def test_integrated_saturates(self, sensor_art):
        bundle = sensor_art["integrated"]
        out = anfis_integrated(bundle, np.ones(15))
        assert isinstance(out, Torque)
        assert all(abs(v) <= MC_MAX for v in out)

    def test_bundle_file_names_inputs_only(self, bundles, tmp_path):
        # a bundle file says what its bundle reads by name alone; the bundle
        # works out the sensor-row positions from the names.  Its one
        # metadata object holds both fit scores
        for role, bundle in bundles.items():
            names = roles.ROLES[role].inputs
            save_bundle(bundle, tmp_path / role)
            assert [p.name for p in (tmp_path / role).iterdir()] == [roles.BUNDLE_FILE]
            doc = json.loads((tmp_path / role / roles.BUNDLE_FILE).read_text())
            assert doc["input_names"] == list(names)
            assert "input_columns" not in doc
            assert sorted(doc["metadata"]) == ["holdout_rmse", "train_rmse"]
            assert bundle.input_columns == (
                tuple(SENSOR_CHANNELS.index(n) for n in names) if role != "controller"
                else None)

    def test_dropped_directions_keep_one_sign(self, sensor_art):
        # a body-frame direction component the sensor roles drop is known
        # from the unit norm only up to its sign: over the teacher data it
        # must keep one sign, well away from zero
        x = sensor_art["data"].inputs
        kept = {n for role in ("estimator", "integrated") for n in roles.ROLES[role].inputs}
        dropped = [i for i, name in enumerate(SENSOR_CHANNELS)
                   if name.startswith(("ub_body_", "us_body_")) and name not in kept]
        assert dropped
        for i in dropped:
            assert np.all(x[:, i] >= 0.5) or np.all(x[:, i] <= -0.5), SENSOR_CHANNELS[i]

    @pytest.mark.filterwarnings("ignore:.*training envelope")
    def test_bundle_reads_its_own_columns(self, sensor_art, tuned, tmp_path):
        # sensor bundles on other channel sets than ROLES names: one on the
        # nine body-frame and gyro channels, before the sensor roles dropped
        # two, and one on today's seven.  Each goes through its bundle file
        # and flies, reading the channels its input_names name from the row
        data = sensor_art["data"]
        rng = np.random.default_rng(0)
        for cols in ((0, 1, 2, 3, 4, 5, 12, 13, 14), (0, 1, 4, 5, 12, 13, 14)):
            x = data.inputs[:, list(cols)]
            ranges = np.column_stack([x.min(axis=0), x.max(axis=0)])
            bundles = {}
            for role in ("estimator", "integrated"):
                view = roles.role_view(data, role)
                # every rule holds the global linear fit, so the bundle is that fit
                model = anfis.grid_partition_init(ranges, roles.MFS_PER_INPUT)
                beta = np.linalg.lstsq(np.column_stack([x, np.ones(len(x))]), view.targets,
                                       rcond=None)[0]
                model.coeffs = np.ascontiguousarray(np.broadcast_to(
                    beta.T[:, None, :], (beta.shape[1], model.n_rules, len(cols) + 1)))
                d = tmp_path / f"{len(cols)}" / role
                save_bundle(RoleBundle(role, model, tuple(SENSOR_CHANNELS[i] for i in cols),
                                       view.target_names), d)
                bundles[role] = load_bundle(d)
                assert bundles[role].input_columns == cols
                for row in data.inputs[rng.choice(len(data), 5)]:
                    y = np.append(row[list(cols)], 1.0) @ beta
                    if role == "integrated":
                        got = anfis_integrated(bundles[role], row)
                        want = saturate(y)
                    else:
                        q, w = anfis_estimate(bundles[role], row)
                        got, want = (*q, *w), np.append(y[:4] / np.linalg.norm(y[:4]), y[4:])
                    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
            for cfg in (SimConfig(seed=3, controller="integrated"),
                        SimConfig(seed=3, estimator="anfis")):
                rec = run_closed_loop(cfg, tuned["gains"], bundles)
                assert np.max(np.abs(final_euler_error(rec))) < 0.2, (cols, cfg)


class TestBundlePersistence:
    @pytest.mark.filterwarnings("ignore:.*training envelope")
    def test_round_trip(self, bundles, tmp_path):
        # a loaded bundle of each role answers as the trained one, bit for bit
        rng = np.random.default_rng(4)
        for role, bundle in bundles.items():
            save_bundle(bundle, tmp_path / role)
            loaded = load_bundle(tmp_path / role)
            assert loaded.role == bundle.role
            assert loaded.output_names == bundle.output_names
            assert loaded.metadata == bundle.metadata
            r = bundle.model.input_ranges
            x = rng.uniform(r[:, 0] - 0.5 * (r[:, 1] - r[:, 0]), r[:, 1], size=(100, len(r)))
            assert loaded.predict_batch(x).tobytes() == bundle.predict_batch(x).tobytes()
            for row in x[:20].tolist():
                assert loaded.predict(row).tobytes() == bundle.predict(row).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(role_bundles())
    def test_round_trip_property(self, bundle):
        # bit for bit, for one output channel or a stack of them, and saving
        # the loaded bundle gives the same file
        with tempfile.TemporaryDirectory() as d:
            first, second = Path(d, "first"), Path(d, "second")
            save_bundle(bundle, first)
            loaded = load_bundle(first)
            save_bundle(loaded, second)
            saved = [(p / roles.BUNDLE_FILE).read_bytes() for p in (first, second)]
            assert saved[1] == saved[0]
        for name in ("a", "b", "c", "coeffs", "input_ranges"):
            got, want = getattr(loaded.model, name), getattr(bundle.model, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        for name in ("role", "input_names", "output_names", "input_columns", "metadata"):
            assert getattr(loaded, name) == getattr(bundle, name), name
        assert loaded.model.mfs_per_input == bundle.model.mfs_per_input

    def test_missing_bundle_file(self, tmp_path):
        # no directory, and a directory in the earlier two-file format
        # (manifest.json and model.json), which no reader is kept for
        old = tmp_path / "old"
        old.mkdir()
        for name in ("manifest.json", "model.json"):
            (old / name).write_text('{"format_version": 2}\n')
        for d in (tmp_path / "nope", old):
            with pytest.raises(FileNotFoundError, match=roles.BUNDLE_FILE):
                load_bundle(d)

    def test_version_checked(self, tmp_path, controller_art):
        d = tmp_path / "ctrl"
        save_bundle(controller_art["bundle"], d)
        path = d / roles.BUNDLE_FILE
        current = json.loads(path.read_text())
        missing = {k: v for k, v in current.items() if k != "format_version"}
        for doc in (dict(current, format_version=999), dict(current, format_version=2),
                    dict(current, format_version="3"), missing):
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match="format version") as exc:
                load_bundle(d)
            assert str(path) in str(exc.value)

    def test_malformed_manifest_names_file(self, tmp_path, controller_art):
        # the bundle's own entries, which a manifest.json beside the model
        # held before the one-file format; test_anfis breaks the model's
        d = tmp_path / "ctrl"
        save_bundle(controller_art["bundle"], d)
        path = d / roles.BUNDLE_FILE
        good = json.loads(path.read_text())
        docs = [{k: v for k, v in good.items() if k != key}
                for key in ("role", "input_names", "output_names", "metadata")]
        for bad in [json.dumps(doc) for doc in docs] + ["[]", "{"]:
            path.write_text(bad)
            with pytest.raises(ValueError, match="bundle file") as exc:
                load_bundle(d)
            assert str(path) in str(exc.value)

    def test_non_finite_model_rejected(self, tmp_path, controller_art):
        # a NaN consequent makes every run of the bundle diverge; a NaN holdout
        # RMSE (a one-run dataset holds none out) is metadata, and loads
        d = tmp_path / "ctrl"
        save_bundle(controller_art["bundle"], d)
        path = d / roles.BUNDLE_FILE
        good = json.loads(path.read_text())
        for key, value in (("consequents", math.nan), ("a", math.inf),
                           ("c", math.nan), ("input_ranges", -math.inf)):
            values = np.array(good[key])
            values.flat[1] = value
            path.write_text(json.dumps(dict(good, **{key: values.tolist()})))
            with pytest.raises(ValueError, match="hold non-finite values") as exc:
                load_bundle(d)
            assert str(path) in str(exc.value)
        path.write_text(json.dumps(dict(good, metadata={"holdout_rmse": [math.nan] * 3})))
        assert math.isnan(load_bundle(d).metadata["holdout_rmse"][0])

    @pytest.mark.filterwarnings("ignore:.*training envelope")
    def test_shared_premise_fast_path_matches_generic(self, bundles):
        # the single-sample path the closed loop uses must agree with the
        # batch path bit for bit, inside and well outside the training
        # envelope, and every channel must match a per-rule reference: the
        # normalized firing times each rule's explicit linear consequent
        rng = np.random.default_rng(1)
        for role in ("integrated", "estimator", "controller"):
            # a fresh bundle, so the session one keeps its one-time warning
            bundle = dataclasses.replace(bundles[role])
            r = bundle.model.input_ranges
            span = r[:, 1] - r[:, 0]
            x = np.vstack([rng.uniform(r[:, 0], r[:, 1], size=(300, bundle.n_inputs)),
                           rng.uniform(r[:, 0] - 2.0 * span, r[:, 1] + 2.0 * span,
                                       size=(60, bundle.n_inputs))])
            fast = np.array([bundle.predict(row) for row in x])
            batch = bundle.predict_batch(x)
            np.testing.assert_array_equal(fast, batch)
            wbar = anfis.normalized_firing(bundle.model, x)
            ref = np.column_stack([(wbar * (x @ table[:, :-1].T + table[:, -1])).sum(axis=1)
                                   for table in bundle.model.coeffs])
            # the reference sums in another order than the forward pass
            np.testing.assert_allclose(batch, ref, rtol=0.0,
                                       atol=1e-13 * np.abs(ref).max())

    @pytest.mark.filterwarnings("ignore:.*training envelope")
    def test_row_output_does_not_depend_on_batch_size(self, bundles):
        # each row of a batch is predict's output for that row, bit for bit,
        # at every batch size: around FIRING_BLOCK (64) rows and at the
        # training holdout's 1,600.  A 2-D GEMM of the firing strengths with
        # the consequent table would round differently by batch size
        rng = np.random.default_rng(3)
        for role in ("integrated", "estimator", "controller"):
            bundle = dataclasses.replace(bundles[role])
            r = bundle.model.input_ranges
            span = r[:, 1] - r[:, 0]
            x = rng.uniform(r[:, 0] - 0.5 * span, r[:, 1] + 0.5 * span,
                            size=(1600, bundle.n_inputs))
            rows = np.array([bundle.predict(row) for row in x])
            for n in (1, 2, 63, 64, 65, 200, 1600):
                np.testing.assert_array_equal(bundle.predict_batch(x[:n]), rows[:n])

    @pytest.mark.filterwarnings("ignore:.*(training envelope|underflow)")
    def test_role_calls_match_batch_rows(self, bundles):
        # each role call is its bundle's predict_batch row, clamped with
        # min/max or renormalized by np.linalg.norm as the calls did before,
        # bit for bit, in Python floats: inside and outside the training
        # envelope, and on inputs that underflow every rule
        rng = np.random.default_rng(2)
        for role in ("integrated", "estimator", "controller"):
            bundle = dataclasses.replace(bundles[role])
            r = bundle.model.input_ranges
            span = r[:, 1] - r[:, 0]
            x = np.vstack([rng.uniform(r[:, 0], r[:, 1], size=(200, bundle.n_inputs)),
                           rng.uniform(r[:, 0] - 2.0 * span, r[:, 1] + 2.0 * span,
                                       size=(40, bundle.n_inputs)),
                           r[:, 1] + 1e30 * span])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                batch = bundle.predict_batch(x)
            assert any("underflow" in str(w.message) for w in caught)
            rows = np.zeros((len(x), len(SENSOR_CHANNELS)))
            if bundle.input_columns is not None:
                rows[:, list(bundle.input_columns)] = x
            for xn, row, y in zip(x, rows, batch):
                if role == "estimator":
                    qn = float(np.linalg.norm(y[:4]))
                    want = (*(y[:4] / qn), *y[4:])
                    q, w = anfis_estimate(bundle, row)
                    got = (*q, *w)
                else:
                    want = tuple(min(MC_MAX, max(-MC_MAX, float(v))) for v in y)
                    got = (anfis_integrated(bundle, row) if role == "integrated"
                           else anfis_control(bundle, tuple(xn[:3]), tuple(xn[3:])))
                assert all(type(v) is float for v in got)
                assert [v.hex() for v in got] == [float(v).hex() for v in want]

    def test_shared_premise_underflow_falls_back_to_uniform(self):
        model = anfis.grid_partition_init(np.array([[-1.0, 1.0]]), 2)
        model.b[:] = 50.0
        model.coeffs = np.zeros((2,) + model.coeffs.shape[1:])
        model.coeffs[:, :, -1] = [[1.0, 3.0], [-2.0, 0.0]]
        bundle = RoleBundle("integrated", model, ("gyro_x",), ("y1", "y2"))
        with pytest.warns(UserWarning, match="underflow"):
            y = bundle.predict(np.array([1e9]))
        np.testing.assert_array_equal(y, [2.0, -1.0])

    def test_role_calls_outside_a_run_silence_overflow(self):
        # b = 50 memberships overflow far off.  A run holds the overflow guard
        # once; outside one the role calls enter it themselves: no
        # RuntimeWarning, and an overflowing membership is exactly 0.0.  The
        # integrated row fires no rule (the biases' uniform mean); the
        # controller row zeroes input 0's b = 50 membership while its b = 2
        # one still fires, and matches its batch row bit for bit
        model = anfis.grid_partition_init(np.array([[-1.0, 1.0]]), 2)
        model.b[:] = 50.0
        model.coeffs = np.zeros((3,) + model.coeffs.shape[1:])
        model.coeffs[:, :, -1] = [[1.0, 3.0], [-2.0, 0.0], [0.5, 0.25]]
        integrated = RoleBundle("integrated", model, ("gyro_x",), roles.TORQUE_CHANNELS)
        row = [0.0] * len(SENSOR_CHANNELS)
        row[SENSOR_CHANNELS.index("gyro_x")] = 1e9
        model = anfis.grid_partition_init(np.tile([-1.0, 1.0], (6, 1)), 2)
        model.b[0] = 50.0
        model.coeffs = np.random.default_rng(8).normal(0.0, 1e-5, (3,) + model.coeffs.shape[1:])
        controller = RoleBundle("controller", model, roles.CONTROLLER_CHANNELS,
                                roles.TORQUE_CHANNELS)
        qe, w = (1e4, 0.1, -0.2), (0.05, -0.05, 0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            far = anfis.bell(qe[0], model.a[0], model.b[0], model.c[0])
            torques = anfis_integrated(integrated, row), anfis_control(controller, qe, w)
            batch = controller.predict_batch(np.array([(*qe, *w)]))[0]
        assert not [c for c in caught if issubclass(c.category, RuntimeWarning)]
        assert far == 0.0 and anfis.bell(qe[0], model.a[1], model.b[1], model.c[1]) > 0.0
        assert torques[0] == (MC_MAX, -1.0, 0.375)
        assert [v.hex() for v in torques[1]] == [v.hex() for v in saturate(batch.tolist())]

    def test_mismatched_channels_rejected(self, tmp_path):
        # the consequent stack holds one table per output channel
        model = anfis.grid_partition_init(np.array([[-1.0, 1.0], [0.0, 1.0]]), 2)
        for coeffs in (model.coeffs[0], np.zeros((3, 4, 3)), np.zeros((2, 3, 3)),
                       np.zeros((2, 4, 2))):
            with pytest.raises(ValueError, match="consequent"):
                RoleBundle("controller", dataclasses.replace(model, coeffs=coeffs),
                           ("x1", "x2"), ("y1", "y2"))
        # hand-edited bundle files are rejected on load: a stack with a table
        # too many, and one whose tables have the wrong width
        model.coeffs = np.zeros((2, 4, 3))
        save_bundle(RoleBundle("controller", model, ("x1", "x2"), ("y1", "y2")), tmp_path)
        path = tmp_path / roles.BUNDLE_FILE
        good = json.loads(path.read_text())
        for coeffs in (np.zeros((3, 4, 3)), np.zeros((2, 4, 2))):
            path.write_text(json.dumps(dict(good, consequents=coeffs.tolist())))
            with pytest.raises(ValueError, match="consequent"):
                load_bundle(tmp_path)

    def test_input_names_checked(self, tmp_path):
        # a bundle names one input per model input, and a sensor role's
        # bundle names only sensor channels; a hand-edited bundle file that
        # breaks either is rejected on load, naming the file
        model = anfis.grid_partition_init(np.array([[-1.0, 1.0], [0.0, 1.0]]), 2)
        model.coeffs = np.zeros((3, 4, 3))
        outputs = roles.TORQUE_CHANNELS
        for role, names, match in (("controller", ("x1",), "names 1 inputs"),
                                   ("integrated", ("gyro_x", "gyro_y", "gyro_z"), "names 3"),
                                   ("integrated", ("gyro_x", "gyro_w"), "gyro_w")):
            with pytest.raises(ValueError, match=match):
                RoleBundle(role, model, names, outputs)
        save_bundle(RoleBundle("integrated", model, ("gyro_x", "gyro_y"), outputs), tmp_path)
        path = tmp_path / roles.BUNDLE_FILE
        good = json.loads(path.read_text())
        for names, match in ((["gyro_x"], "names 1 inputs"), (["gyro_x", "qe1"], "qe1")):
            path.write_text(json.dumps(dict(good, input_names=names)))
            with pytest.raises(ValueError, match=match) as exc:
                load_bundle(tmp_path)
            assert str(path) in str(exc.value)
