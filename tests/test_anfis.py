"""Takagi-Sugeno core tests: forward pass, training, persistence."""

import dataclasses
import itertools
import json
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from satgnc import anfis, roles
from satgnc.anfis import (AnfisModel, TrainConfig, bell, design_matrix,
                          fit_consequents, forward, grid_partition_init,
                          linear_consequent_prior, normalized_firing, premise_gradient,
                          train)

RANGES_2D = np.array([[-1.0, 1.0], [-2.0, 2.0]])
FLOATS = st.floats(allow_nan=False, allow_infinity=False)   # -0.0 and subnormals too


@st.composite
def models(draw):
    """Any model a bundle file can hold: 1-4 inputs of 2-4 MFs, any finite
    premise and consequent values, and a stack of 1-3 consequent tables."""
    mfs = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=4)))
    stack = (draw(st.integers(1, 3)), int(np.prod(mfs)), len(mfs) + 1)
    return AnfisModel(
        mfs, *(draw(arrays(np.float64, sum(mfs), elements=FLOATS)) for _ in "abc"),
        coeffs=draw(arrays(np.float64, stack, elements=FLOATS)),
        # finite, so the bundle's envelope arithmetic stays finite
        input_ranges=draw(arrays(np.float64, (len(mfs), 2), elements=st.floats(-1e300, 1e300))))


def save_model(m, dirpath):
    """Save m the one way a model is kept on disk: inside a role bundle's
    file (roles.save_bundle).  Returns that file's path."""
    names = tuple(f"x{i}" for i in range(m.n_inputs))
    roles.save_bundle(roles.RoleBundle("controller", m, names,
                                       tuple(f"y{j}" for j in range(len(m.coeffs)))), dirpath)
    return Path(dirpath) / roles.BUNDLE_FILE


def load_model(dirpath):
    return roles.load_bundle(dirpath).model


def assert_rejected(path, doc, match="bundle file"):
    """A bundle file holding doc (JSON text, or an object to dump) fails to
    load with a ValueError that matches and names the file."""
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(ValueError, match=match) as exc:
        load_model(path.parent)
    assert str(path) in str(exc.value)


def random_model(rng, n_inputs=2, mfs=2):
    ranges = np.column_stack([-rng.uniform(0.5, 2.0, n_inputs),
                              rng.uniform(0.5, 2.0, n_inputs)])
    m = grid_partition_init(ranges, mfs)
    for start, stop in m.bounds:
        m.a[start:stop] *= rng.uniform(0.5, 1.5, stop - start)
        m.b[start:stop] *= rng.uniform(0.8, 1.3, stop - start)
        m.c[start:stop] += rng.normal(0.0, 0.05, stop - start)
    m.coeffs = rng.normal(0.0, 1.0, m.coeffs.shape)
    return m, ranges


class TestBell:
    def test_peak_at_center(self):
        assert bell(1.5, 2.0, 3.0, 1.5) == 1.0

    def test_half_height_at_width(self):
        # |x - c| = a gives exactly 1/2 regardless of the slope exponent
        for b in (1.0, 2.0, 5.0):
            assert bell(2.0, 2.0, b, 0.0) == pytest.approx(0.5)

    def test_symmetric(self):
        assert bell(1.0, 0.7, 2.0, 0.0) == pytest.approx(bell(-1.0, 0.7, 2.0, 0.0))

    def test_monotone_decay(self):
        xs = np.linspace(0.0, 5.0, 50)
        mu = bell(xs, 1.0, 2.0, 0.0)
        assert np.all(np.diff(mu) <= 0.0)


class TestGridInit:
    def test_centers_span_range(self):
        m = grid_partition_init(RANGES_2D, (3, 2))
        np.testing.assert_allclose(m.c, [-1.0, 0.0, 1.0, -2.0, 2.0])
        assert m.bounds == ((0, 3), (3, 5))
        assert m.n_rules == 6
        assert m.coeffs.shape == (1, 6, 3)

    def test_scalar_mf_count_broadcast(self):
        m = grid_partition_init(RANGES_2D, 2)
        assert m.mfs_per_input == (2, 2)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            grid_partition_init(np.array([[1.0, 1.0]]), 2)

    def test_single_mf_rejected(self):
        with pytest.raises(ValueError):
            grid_partition_init(RANGES_2D, 1)


class TestForward:
    def test_normalized_firing_sums_to_one(self):
        rng = np.random.default_rng(0)
        m, ranges = random_model(rng)
        x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(40, 2))
        wbar = normalized_firing(m, x)
        np.testing.assert_allclose(wbar.sum(axis=1), 1.0, atol=1e-12)

    def test_firing_matches_rule_grid_product(self):
        # reference: per-input bell rows gathered through a rule table (row-
        # major over the inputs' MF indices, the first input slowest) and
        # multiplied input by input, then normalized; same bits required,
        # over a batch of several firing blocks
        rng = np.random.default_rng(8)
        m = grid_partition_init(np.array([[-1.0, 1.0], [0.0, 2.0], [3.0, 4.0]]),
                                (2, 3, 4))
        for start, stop in m.bounds:
            m.b[start:stop] *= rng.uniform(0.8, 1.3, stop - start)
            m.c[start:stop] += rng.normal(0.0, 0.05, stop - start)
        x = rng.uniform(-1.0, 4.0, size=(2 * anfis.FIRING_BLOCK + 22, 3))
        rules = np.array(list(itertools.product(*map(range, m.mfs_per_input))))
        w = np.ones((len(x), m.n_rules))
        for i, (start, stop) in enumerate(m.bounds):
            mu = bell(x[:, i:i + 1], m.a[start:stop], m.b[start:stop], m.c[start:stop])
            w = w * mu[:, rules[:, i]]
        want = w / w.sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(normalized_firing(m, x), want)
        np.testing.assert_array_equal(normalized_firing(m, x[7]), want[7:8])

    def test_constant_consequents_give_constant_output(self):
        rng = np.random.default_rng(1)
        m, ranges = random_model(rng)
        m.coeffs[..., :-1] = 0.0
        m.coeffs[..., -1] = 3.25
        x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(10, 2))
        np.testing.assert_allclose(forward(m, x), np.full((10, 1), 3.25), atol=1e-12)

    def test_shared_linear_consequents_reproduce_linear_map(self):
        rng = np.random.default_rng(2)
        m, ranges = random_model(rng)
        beta = np.array([0.7, -1.2, 0.3])
        m.coeffs = np.tile(beta, (1, m.n_rules, 1))
        x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(30, 2))
        want = x @ beta[:-1] + beta[-1]
        np.testing.assert_allclose(forward(m, x), want[:, None], atol=1e-12)

    def test_single_sample_matches_batch(self):
        rng = np.random.default_rng(3)
        m, ranges = random_model(rng)
        x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(5, 2))
        batch = forward(m, x)[:, 0]
        for row, y_batch in zip(x, batch):
            # a sample's output does not depend on the batch it is in
            assert forward(m, row)[0, 0] == forward(m, row[None, :])[0, 0] == y_batch
            wbar = normalized_firing(m, row)[0]                    # layer 3
            assert wbar.sum() == pytest.approx(1.0)
            weighted = wbar * (m.coeffs[0] @ np.append(row, 1.0))  # layer 4
            assert weighted.sum() == pytest.approx(y_batch)

    def test_wrong_input_count_rejected(self):
        rng = np.random.default_rng(4)
        m, _ = random_model(rng)
        with pytest.raises(ValueError):
            forward(m, np.zeros((3, 5)))

    def test_underflow_falls_back_to_uniform(self):
        m = grid_partition_init(np.array([[-1.0, 1.0]]), 2)
        m.b[:] = 50.0
        m.coeffs[..., -1] = 1.0
        with pytest.warns(UserWarning, match="underflow"):
            y = forward(m, np.array([[1e9]]))
        assert y[0, 0] == pytest.approx(1.0)

    def test_stack_matches_single_channel_models(self):
        # a k = 3 stack is three single-output models over its premise.  Not
        # bit for bit: the BLAS kernels that contract the firing strengths
        # with the consequent table, and the table with [x, 1], group their
        # terms by the table's width, so by k, and the tolerance is that of
        # the sum order
        rng = np.random.default_rng(13)
        m, ranges = random_model(rng, n_inputs=3)
        m.coeffs = rng.normal(size=(3,) + m.coeffs.shape[1:])
        x = rng.uniform(ranges[:, 0] - 1.0, ranges[:, 1] + 1.0, size=(200, 3))
        stacked = forward(m, x)
        assert stacked.shape == (200, 3)
        for j, table in enumerate(m.coeffs):
            single = forward(dataclasses.replace(m, coeffs=table[None]), x)
            np.testing.assert_allclose(single, stacked[:, j:j + 1], rtol=0.0,
                                       atol=1e-13 * np.abs(stacked).max())


class TestLse:
    def test_exact_fit_linear_target(self):
        rng = np.random.default_rng(5)
        m, ranges = random_model(rng)
        x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(400, 2))
        y = 0.5 * x[:, 0] - 0.25 * x[:, 1] + 0.1
        _, rmse = fit_consequents(m, x, y[:, None], ridge=1e-12)
        assert rmse.shape == (1,) and rmse[0] < 1e-6

    def test_ridge_zero_is_plain_least_squares(self):
        # the shrinkage toward the linear prior moves nothing on a full-rank
        # system at ridge 0 (c04's 3 x 3 grid, 500 samples, noisy targets):
        # the fit is the paper's least-squares solve, to rounding (the
        # design matrix's condition number is about 55)
        rng = np.random.default_rng(10)
        m = grid_partition_init(RANGES_2D, 3)
        x = rng.uniform(RANGES_2D[:, 0], RANGES_2D[:, 1], size=(500, 2))
        y = np.column_stack([np.sin(3.0 * x[:, 0]) * x[:, 1], x[:, 0] - x[:, 1] ** 2])
        y += rng.normal(0.0, 0.1, y.shape)
        a_mat = design_matrix(m, x)
        sol, _, rank, _ = np.linalg.lstsq(a_mat, y, rcond=None)
        assert rank == a_mat.shape[1] == 27
        coeffs, rmse = fit_consequents(m, x, y, ridge=0.0)
        want = sol.T.reshape(coeffs.shape)
        np.testing.assert_allclose(coeffs, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
        np.testing.assert_allclose(rmse, np.sqrt(np.mean((a_mat @ sol - y) ** 2, axis=0)),
                                   rtol=1e-12)

    def test_design_matrix_consistent_with_forward(self):
        rng = np.random.default_rng(6)
        m, ranges = random_model(rng)
        x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(20, 2))
        a_mat = design_matrix(m, x)
        np.testing.assert_allclose(a_mat @ m.coeffs[0].ravel(),
                                   forward(m, x)[:, 0], atol=1e-12)

    def test_prior_is_reproduced_with_no_signal(self):
        # shrinking toward the tiled global linear fit: with a huge ridge the
        # solution collapses onto the prior, which reproduces that linear map
        rng = np.random.default_rng(7)
        m, ranges = random_model(rng)
        x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(300, 2))
        y = 1.5 * x[:, 0] + 0.5 * x[:, 1] - 2.0
        prior = linear_consequent_prior(m, x, y)
        coeffs, rmse = fit_consequents(m, x, y[:, None], ridge=1e12)
        np.testing.assert_allclose(coeffs, prior.reshape(coeffs.shape), atol=1e-6)
        assert rmse[0] < 1e-6

    def test_empty_rejected(self):
        m = grid_partition_init(RANGES_2D, 2)
        with pytest.raises(ValueError):
            fit_consequents(m, np.zeros((0, 2)), np.zeros((0, 1)), ridge=1e-8)

    def test_underdetermined_warns(self):
        m = grid_partition_init(RANGES_2D, 2)
        x = np.array([[0.0, 0.0], [0.5, 0.5]])
        with pytest.warns(UserWarning, match="underdetermined"):
            fit_consequents(m, x, np.array([[1.0], [2.0]]), ridge=1e-6)

    def test_targets_must_be_one_row_per_sample(self):
        # (N,) targets would broadcast against the (N, 1) outputs
        m = grid_partition_init(RANGES_2D, 2)
        x = np.zeros((5, 2))
        for y in (np.zeros(5), np.zeros((4, 1))):
            with pytest.raises(ValueError, match="targets"):
                fit_consequents(m, x, y, ridge=1e-6)
            with pytest.raises(ValueError, match="targets"):
                premise_gradient(m, x, y)


class TestPremiseGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(20):
            n_in = int(rng.integers(1, 4))
            m, ranges = random_model(rng, n_inputs=n_in,
                                     mfs=int(rng.integers(2, 4)))
            x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(20, n_in))
            y = rng.normal(size=(20, 1))
            ga, gb, gc = premise_gradient(m, x, y)

            def loss(mm):
                r = (forward(mm, x) - y).ravel()
                return float(r @ r)

            eps = 1e-6
            for which, grads in (("a", ga), ("b", gb), ("c", gc)):
                assert grads.shape == (sum(m.mfs_per_input),)
                for j, an in enumerate(grads):
                    mp, mn = m.copy(), m.copy()
                    getattr(mp, which)[j] += eps
                    getattr(mn, which)[j] -= eps
                    fd = (loss(mp) - loss(mn)) / (2.0 * eps)
                    worst = max(worst, abs(fd - an)
                                / max(1e-8, abs(fd), abs(an)))
        assert worst < 1e-5

    def test_zero_residual_zero_gradient(self):
        rng = np.random.default_rng(9)
        m, ranges = random_model(rng)
        x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(30, 2))
        y = forward(m, x)
        ga, gb, gc = premise_gradient(m, x, y)
        for grads in (ga, gb, gc):
            np.testing.assert_allclose(grads, 0.0, atol=1e-9)

    @pytest.mark.filterwarnings("ignore:.*underflow")
    def test_sample_firing_no_rule_adds_nothing(self):
        # the first sample fires no rule, so forward gives it uniform weights,
        # which do not depend on the premise: the gradient is that of the
        # second sample alone.  At 0.3 the steep bells leave a gradient near
        # 1e-10, below what differences of the loss resolve, so the finite
        # differences are taken at 0.01, row by row (the first row's loss
        # is the same bits on both sides and cancels exactly)
        m = grid_partition_init(np.array([[-1.0, 1.0]]), 2)
        m.b[:] = 50.0
        m.coeffs[0] = [[1.0, 1.0], [-2.0, 0.5]]
        eps = 1e-6
        for x1, check_fd in ((0.3, False), (0.01, True)):
            x, y = np.array([[1e9], [x1]]), np.array([[1.0], [0.2]])
            grads = premise_gradient(m, x, y)
            alone = premise_gradient(m, x[1:], y[1:])
            for which, got, want in zip("abc", grads, alone):
                assert np.isfinite(got).all(), which
                np.testing.assert_array_equal(got, want)
                for j, an in enumerate(got if check_fd else ()):
                    mp, mn = m.copy(), m.copy()
                    getattr(mp, which)[j] += eps
                    getattr(mn, which)[j] -= eps
                    fd = np.sum((forward(mp, x) - y) ** 2
                                - (forward(mn, x) - y) ** 2) / (2.0 * eps)
                    assert abs(fd - an) <= 1e-5 * max(1e-8, abs(fd), abs(an)), (which, j)


class TestTrain:
    def test_synthetic_model_recovered(self):
        rng = np.random.default_rng(10)
        truth = grid_partition_init(RANGES_2D, 3)
        truth.coeffs = rng.normal(0.0, 1.0, truth.coeffs.shape)
        x = rng.uniform(RANGES_2D[:, 0], RANGES_2D[:, 1], size=(500, 2))
        y = forward(truth, x)
        model, history = train(grid_partition_init(RANGES_2D, 3), x, y,
                               TrainConfig(epochs=50, learning_rate=0.005, ridge=0.0))
        assert min(history) < 1e-6
        assert len(history) == 50

    def test_history_best_is_returned(self):
        rng = np.random.default_rng(11)
        m, ranges = random_model(rng)
        x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(200, 2))
        y = (np.sin(x[:, 0]) * np.cos(x[:, 1]))[:, None]
        model, history = train(grid_partition_init(ranges, 2), x, y,
                               TrainConfig(epochs=8, learning_rate=0.05))
        final = float(np.sqrt(np.mean((forward(model, x) - y) ** 2)))
        assert final <= min(history) + 1e-12

    def test_non_finite_gradient_stops_training(self, monkeypatch):
        # a premise step that cannot be taken is an error, not a skipped step
        m = grid_partition_init(RANGES_2D, 2)
        x = np.random.default_rng(14).uniform(-1.0, 1.0, size=(50, 2))
        nan = np.full(4, np.nan)
        monkeypatch.setattr(anfis, "premise_gradient", lambda *_: (nan, nan, nan))
        with pytest.raises(anfis.TrainingDivergedError, match="gradient"):
            train(m, x, x[:, :1], TrainConfig(epochs=3))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(ridge=-1e-3)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        m, _ = random_model(rng, n_inputs=3, mfs=2)
        # a single table, and a stack of two channels over the same premise
        for coeffs in (m.coeffs, rng.normal(size=(2,) + m.coeffs.shape[1:])):
            m.coeffs = coeffs
            save_model(m, tmp_path)
            loaded = load_model(tmp_path)
            assert loaded.mfs_per_input == m.mfs_per_input
            np.testing.assert_array_equal(loaded.a, m.a)
            np.testing.assert_array_equal(loaded.b, m.b)
            np.testing.assert_array_equal(loaded.c, m.c)
            np.testing.assert_array_equal(loaded.coeffs, m.coeffs)
            np.testing.assert_array_equal(loaded.input_ranges, m.input_ranges)

    @settings(max_examples=40, deadline=None)
    @given(models())
    def test_round_trip_property(self, m):
        # bit for bit, and saving the loaded model gives the same bytes
        with tempfile.TemporaryDirectory() as d:
            first = save_model(m, Path(d, "first"))
            loaded = load_model(first.parent)
            second = save_model(loaded, Path(d, "second"))
            assert second.read_bytes() == first.read_bytes()
        assert loaded.mfs_per_input == m.mfs_per_input
        for name in ("a", "b", "c", "coeffs", "input_ranges"):
            got, want = getattr(loaded, name), getattr(m, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_pickle_keeps_rule_major_layout(self):
        # a pool task pickles its bundles; the unpickled model is laid out as
        # the constructor lays it, so forward's table stays a view
        rng = np.random.default_rng(14)
        m, ranges = random_model(rng, n_inputs=3, mfs=3)
        m = AnfisModel(m.mfs_per_input, m.a, m.b, m.c, rng.normal(size=(3,) + m.coeffs.shape[1:]),
                       m.input_ranges)
        back = pickle.loads(pickle.dumps(m))
        assert back.coeffs.swapaxes(0, 1).flags.c_contiguous
        for name in ("a", "b", "c", "coeffs", "input_ranges"):
            assert getattr(back, name).tobytes() == getattr(m, name).tobytes(), name
        assert back.mfs_per_input == m.mfs_per_input
        x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(50, 3))
        assert forward(back, x).tobytes() == forward(m, x).tobytes()
        for row in x[:10]:
            assert forward(back, row).tobytes() == forward(m, row).tobytes()

    def test_premise_length_mismatch_rejected(self, tmp_path):
        m = grid_partition_init(RANGES_2D, 2)
        with pytest.raises(ValueError, match="membership functions"):
            AnfisModel(m.mfs_per_input, m.a, m.b, m.c[:3], m.coeffs, m.input_ranges)
        good = json.loads(save_model(m, tmp_path).read_text())
        # three centres for a two-MF input, then three whole MFs for it
        for keys in ("c", "abc"):
            assert_rejected(tmp_path / roles.BUNDLE_FILE,
                            dict(good, **{k: good[k] + [0.5] for k in keys}),
                            match="membership functions")

    def test_consequents_must_be_a_stack(self, tmp_path):
        # a bare (n_rules, n_inputs + 1) table is not a model's consequents
        m = grid_partition_init(RANGES_2D, 2)
        with pytest.raises(ValueError, match="consequents"):
            dataclasses.replace(m, coeffs=m.coeffs[0])
        good = json.loads(save_model(m, tmp_path).read_text())
        assert_rejected(tmp_path / roles.BUNDLE_FILE,
                        dict(good, consequents=good["consequents"][0]), match="consequents")

    def test_input_ranges_must_be_pairs(self, tmp_path):
        # one (low, high) pair per input
        m = grid_partition_init(RANGES_2D, 2)
        r = m.input_ranges
        for ranges in (r[0], r[:1], np.column_stack([r, r[:, :1]])):
            with pytest.raises(ValueError, match="input ranges"):
                dataclasses.replace(m, input_ranges=ranges)
        good = json.loads(save_model(m, tmp_path).read_text())
        assert_rejected(tmp_path / roles.BUNDLE_FILE,
                        dict(good, input_ranges=good["input_ranges"][0]), match="input ranges")

    def test_version_mismatch_rejected(self, tmp_path):
        assert_rejected(tmp_path / roles.BUNDLE_FILE, '{"format_version": 999}\n',
                        match="version")

    def test_malformed_json_rejected(self, tmp_path):
        text = save_model(grid_partition_init(RANGES_2D, 2), tmp_path).read_text()
        for bad in ("not json at all", text[:len(text) // 2]):
            assert_rejected(tmp_path / roles.BUNDLE_FILE, bad)

    def test_missing_fields_rejected(self, tmp_path):
        # each of the model's entries dropped in turn; test_roles drops the
        # bundle's own
        good = json.loads(save_model(grid_partition_init(RANGES_2D, 2), tmp_path).read_text())
        for key in ("mfs_per_input", "a", "b", "c", "consequents", "input_ranges"):
            assert_rejected(tmp_path / roles.BUNDLE_FILE,
                            {k: v for k, v in good.items() if k != key})
