"""Role-pipeline tests: datasets, training wrappers, bundle inference and
persistence.  Heavy training shares the session fixtures from conftest."""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from satgnc import anfis, roles
from satgnc.anfis import AnfisModel
from satgnc.config import SimConfig
from satgnc.dynamics import AngularVelocity, IntegrationDivergedError, Quaternion, Torque
from satgnc.pid import PidGains
from satgnc.roles import (EstimateInvalidError, PRUNED_COLUMNS, RoleBundle,
                          RoleDataset, anfis_control, anfis_estimate,
                          anfis_integrated, load_bundle, save_bundle)
from satgnc.sensors import NoiseSpec

QUICK_GAINS = PidGains(kp=(-3.0, -5.2, -6.0), kd=(-3.0, -5.2, -6.0),
                       kq=(-0.01, -0.01, -0.01), kw=(-0.01, -0.01, -0.01))
# a short scenario with the default sensor noise
SENSOR_BASE = SimConfig(duration=2.0, seed=3, noise=NoiseSpec())
FLOATS = st.floats(allow_nan=False)       # -0.0, subnormals and infinities too
METADATA = st.dictionaries(st.text(max_size=4), FLOATS | st.text(max_size=4), max_size=3)


@st.composite
def role_bundles(draw):
    """Any bundle a directory can hold: 1-4 inputs of 2-4 MFs, 1-3 output
    channels, any premise and consequent values."""
    mfs = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=4)))
    n_in, k = len(mfs), draw(st.integers(1, 3))
    model = AnfisModel(
        mfs, *(draw(arrays(np.float64, sum(mfs), elements=FLOATS)) for _ in "abc"),
        coeffs=draw(arrays(np.float64, (k, int(np.prod(mfs)), n_in + 1), elements=FLOATS)),
        # finite, so the bundle's envelope arithmetic stays finite
        input_ranges=draw(arrays(np.float64, (n_in, 2), elements=st.floats(-1e300, 1e300))),
        metadata=draw(METADATA))
    columns = draw(st.none() | st.lists(st.integers(0, 14), min_size=n_in,
                                        max_size=n_in).map(tuple))
    return RoleBundle(draw(st.sampled_from(tuple(roles.ROLES))), model,
                      tuple(f"x{i}" for i in range(n_in)), tuple(f"y{j}" for j in range(k)),
                      columns, draw(FLOATS), draw(METADATA))


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

    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        extremes = np.array([[5e-324, 1.7976931348623157e308, 1e-5],
                             [-0.0, -5e-324, -1.7976931348623157e308]])
        for inputs in (rng.normal(size=(15, 3)),
                       np.vstack([rng.normal(size=(13, 3)), extremes])):
            ds = RoleDataset(inputs, rng.normal(size=(15, 2)),
                             np.repeat([0, 1, 2], 5), ("x1", "x2", "x3"),
                             ("y1", "y2"))
            path = tmp_path / "data.csv"
            ds.to_csv(path)
            back = RoleDataset.from_csv(path, 3)
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
        # gains that diverge from every start: a bounded number of redraws,
        # then an error that says how many diverged
        bad = PidGains(kp=(1e6, 1e6, 1e6), kd=(1e6, 1e6, 1e6), mc_max=1e9)
        with pytest.warns(UserWarning, match="redrawn"), pytest.raises(
                IntegrationDivergedError, match=f"^{roles.MAX_DIVERGED_DRAWS} teacher runs"):
            roles.generate_controller_data(bad, 2, SimConfig(duration=2.0))

    def test_targets_are_unsaturated_commands(self):
        # aggressive gains from a large error exceed the clamp in the record
        ds = roles.generate_controller_data(QUICK_GAINS, 3, SimConfig(duration=2.0, seed=1))
        assert np.max(np.abs(ds.targets)) > QUICK_GAINS.mc_max

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
        assert est.metadata["role"] == "estimator"
        # a controller dataset is its own view
        ctrl = roles.generate_controller_data(QUICK_GAINS, 1, SimConfig(duration=1.0))
        view = roles.role_view(ctrl, "controller")
        np.testing.assert_array_equal(view.targets, ctrl.targets)
        assert view.target_names == ctrl.target_names

    def test_role_table_matches_datasets(self):
        # every role's dataset carries the table's input channels, and its
        # bundle columns index into them
        ctrl = roles.generate_controller_data(QUICK_GAINS, 1, SimConfig(duration=1.0))
        sensor = roles.generate_sensor_data(QUICK_GAINS, 1,
                                            SimConfig(duration=1.0, noise=NoiseSpec()))
        for role, spec in roles.ROLES.items():
            ds = ctrl if spec.inputs == ctrl.input_names else sensor
            assert ds.input_names == spec.inputs, role
            assert set(spec.outputs) <= set(ds.target_names), role
            assert spec.columns is None or max(spec.columns) < len(spec.inputs)


class TestControllerBundle:
    def test_mimicry_and_shape(self, controller_art):
        bundle = controller_art["bundle"]
        assert bundle.n_inputs == 6
        assert bundle.model.coeffs.shape == (3, 2 ** 6, 7)
        assert all(r <= 0.05 for r in bundle.metadata["holdout_rmse"])

    def test_control_saturates_to_bound(self, controller_art):
        bundle = controller_art["bundle"]
        mc = anfis_control(bundle, (0.9, -0.9, 0.9), (0.1, -0.1, 0.1))
        assert all(abs(v) <= bundle.mc_max for v in mc)

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
        broken = RoleBundle("estimator", model, bundle.input_names,
                            bundle.output_names, bundle.input_columns, bundle.mc_max)
        with pytest.raises(EstimateInvalidError):
            anfis_estimate(broken, np.ones(15) * 0.1)

    def test_integrated_saturates(self, sensor_art):
        bundle = sensor_art["integrated"]
        out = anfis_integrated(bundle, np.ones(15))
        assert isinstance(out, Torque)
        assert all(abs(v) <= bundle.mc_max for v in out)

    def test_pruned_columns_recorded(self, sensor_art):
        assert sensor_art["estimator"].input_columns == PRUNED_COLUMNS
        assert sensor_art["estimator"].metadata["pruned_columns"] == list(PRUNED_COLUMNS)


class TestBundlePersistence:
    def test_round_trip(self, controller_art, tmp_path):
        bundle = controller_art["bundle"]
        d = tmp_path / "ctrl"
        save_bundle(bundle, d)
        loaded = load_bundle(d)
        assert loaded.role == bundle.role
        assert loaded.output_names == bundle.output_names
        assert loaded.mc_max == bundle.mc_max
        x = np.array([0.01, -0.02, 0.03, 0.001, 0.0, -0.001])
        np.testing.assert_array_equal(loaded.predict(x), bundle.predict(x))

    @settings(max_examples=40, deadline=None)
    @given(role_bundles())
    def test_round_trip_property(self, bundle):
        # bit for bit, and saving the loaded bundle gives the same files
        with tempfile.TemporaryDirectory() as d:
            first, second = Path(d, "first"), Path(d, "second")
            save_bundle(bundle, first)
            loaded = load_bundle(first)
            save_bundle(loaded, second)
            for name in ("manifest.json", roles.MODEL_FILE):
                assert (second / name).read_bytes() == (first / name).read_bytes()
        for name in ("a", "b", "c", "coeffs", "input_ranges"):
            got, want = getattr(loaded.model, name), getattr(bundle.model, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        for name in ("role", "input_names", "output_names", "input_columns", "metadata"):
            assert getattr(loaded, name) == getattr(bundle, name), name
        assert loaded.model.metadata == bundle.model.metadata
        assert np.float64(loaded.mc_max).tobytes() == np.float64(bundle.mc_max).tobytes()

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_bundle(tmp_path / "nope")

    def test_version_checked(self, tmp_path, controller_art):
        d = tmp_path / "ctrl"
        save_bundle(controller_art["bundle"], d)
        manifest = d / "manifest.json"
        current = json.loads(manifest.read_text())
        # a future version, and a version-1 directory (one model file per
        # channel, listed under "files")
        v1 = dict(current, format_version=1,
                  files=[f"channel_{name}.json" for name in current["output_names"]])
        for doc in (dict(current, format_version=999), v1):
            manifest.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match="unsupported bundle format version"):
                load_bundle(d)

    def test_malformed_manifest_names_file(self, tmp_path, controller_art):
        d = tmp_path / "ctrl"
        save_bundle(controller_art["bundle"], d)
        manifest = d / "manifest.json"
        good = json.loads(manifest.read_text())
        missing = {k: v for k, v in good.items() if k != "output_names"}
        for text in (json.dumps(missing), json.dumps(dict(good, mc_max=None)), "[]", "{"):
            manifest.write_text(text)
            with pytest.raises(ValueError, match="malformed bundle manifest") as exc:
                load_bundle(d)
            assert str(manifest) in str(exc.value)

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

    def test_shared_premise_underflow_falls_back_to_uniform(self):
        model = anfis.grid_partition_init(np.array([[-1.0, 1.0]]), 2)
        model.b[:] = 50.0
        model.coeffs = np.zeros((2,) + model.coeffs.shape[1:])
        model.coeffs[:, :, -1] = [[1.0, 3.0], [-2.0, 0.0]]
        bundle = RoleBundle("integrated", model, ("x",), ("y1", "y2"))
        with pytest.warns(UserWarning, match="underflow"):
            y = bundle.predict(np.array([1e9]))
        np.testing.assert_array_equal(y, [2.0, -1.0])

    def test_mismatched_channels_rejected(self, tmp_path):
        # the consequent stack holds one table per output channel
        model = anfis.grid_partition_init(np.array([[-1.0, 1.0], [0.0, 1.0]]), 2)
        for coeffs in (model.coeffs[0], np.zeros((3, 4, 3)), np.zeros((2, 3, 3)),
                       np.zeros((2, 4, 2))):
            with pytest.raises(ValueError, match="consequent"):
                RoleBundle("controller", dataclasses.replace(model, coeffs=coeffs),
                           ("x1", "x2"), ("y1", "y2"))
        # hand-edited model files are rejected on load: a stack with a table
        # too many, and one whose tables have the wrong width
        model.coeffs = np.zeros((2, 4, 3))
        save_bundle(RoleBundle("controller", model, ("x1", "x2"), ("y1", "y2")), tmp_path)
        path = tmp_path / "model.json"
        good = json.loads(path.read_text())
        for coeffs in (np.zeros((3, 4, 3)), np.zeros((2, 4, 2))):
            path.write_text(json.dumps(dict(good, consequents=coeffs.tolist())))
            with pytest.raises(ValueError, match="consequent"):
                load_bundle(tmp_path)
