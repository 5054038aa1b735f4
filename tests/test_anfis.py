"""Takagi-Sugeno core tests: forward pass, training, persistence."""

import numpy as np
import pytest

from satgnc import anfis
from satgnc.anfis import (AnfisModel, ModelFormatError, TrainConfig,
                          TrainingSet, bell, design_matrix, forward_batch, grid_partition_init,
                          linear_consequent_prior, lse_consequents,
                          normalized_firing, premise_gradient, train)

RANGES_2D = np.array([[-1.0, 1.0], [-2.0, 2.0]])


def random_model(rng, n_inputs=2, mfs=2):
    ranges = np.column_stack([-rng.uniform(0.5, 2.0, n_inputs),
                              rng.uniform(0.5, 2.0, n_inputs)])
    m = grid_partition_init(ranges, mfs)
    for i in range(n_inputs):
        m.a[i] = m.a[i] * rng.uniform(0.5, 1.5, len(m.a[i]))
        m.b[i] = m.b[i] * rng.uniform(0.8, 1.3, len(m.b[i]))
        m.c[i] = m.c[i] + rng.normal(0.0, 0.05, len(m.c[i]))
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
        np.testing.assert_allclose(m.c[0], [-1.0, 0.0, 1.0])
        np.testing.assert_allclose(m.c[1], [-2.0, 2.0])
        assert m.n_rules == 6
        assert m.coeffs.shape == (6, 3)

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
        # reference: per-input bell rows gathered through rule_index and
        # multiplied input by input, then normalized; same bits required
        rng = np.random.default_rng(8)
        m = grid_partition_init(np.array([[-1.0, 1.0], [0.0, 2.0], [3.0, 4.0]]),
                                (2, 3, 4))
        for i in range(m.n_inputs):
            m.b[i] = m.b[i] * rng.uniform(0.8, 1.3, len(m.b[i]))
            m.c[i] = m.c[i] + rng.normal(0.0, 0.05, len(m.c[i]))
        x = rng.uniform(-1.0, 4.0, size=(50, 3))
        w = np.ones((len(x), m.n_rules))
        for i in range(m.n_inputs):
            w = w * bell(x[:, i:i + 1], m.a[i], m.b[i], m.c[i])[:, m.rule_index[:, i]]
        want = w / w.sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(normalized_firing(m, x), want)
        np.testing.assert_array_equal(normalized_firing(m, x[7]), want[7:8])

    def test_constant_consequents_give_constant_output(self):
        rng = np.random.default_rng(1)
        m, ranges = random_model(rng)
        m.coeffs[:, :-1] = 0.0
        m.coeffs[:, -1] = 3.25
        x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(10, 2))
        np.testing.assert_allclose(forward_batch(m, x), 3.25, atol=1e-12)

    def test_shared_linear_consequents_reproduce_linear_map(self):
        rng = np.random.default_rng(2)
        m, ranges = random_model(rng)
        beta = np.array([0.7, -1.2, 0.3])
        m.coeffs = np.tile(beta, (m.n_rules, 1))
        x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(30, 2))
        want = x @ beta[:-1] + beta[-1]
        np.testing.assert_allclose(forward_batch(m, x), want, atol=1e-12)

    def test_single_sample_matches_batch(self):
        rng = np.random.default_rng(3)
        m, ranges = random_model(rng)
        x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(5, 2))
        batch = forward_batch(m, x)
        for row, y_batch in zip(x, batch):
            # a sample's output does not depend on the batch it is in
            assert forward_batch(m, row)[0] == forward_batch(m, row[None, :])[0] == y_batch
            wbar = normalized_firing(m, row)[0]                    # layer 3
            assert wbar.sum() == pytest.approx(1.0)
            weighted = wbar * (m.coeffs @ np.append(row, 1.0))     # layer 4
            assert weighted.sum() == pytest.approx(y_batch)

    def test_wrong_input_count_rejected(self):
        rng = np.random.default_rng(4)
        m, _ = random_model(rng)
        with pytest.raises(ValueError):
            forward_batch(m, np.zeros((3, 5)))

    def test_underflow_falls_back_to_uniform(self):
        m = grid_partition_init(np.array([[-1.0, 1.0]]), 2)
        m.b[0][:] = 50.0
        m.coeffs[:, -1] = 1.0
        with pytest.warns(UserWarning, match="underflow"):
            y = forward_batch(m, np.array([[1e9]]))
        assert y[0] == pytest.approx(1.0)


class TestLse:
    def test_exact_fit_linear_target(self):
        rng = np.random.default_rng(5)
        m, ranges = random_model(rng)
        x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(400, 2))
        y = 0.5 * x[:, 0] - 0.25 * x[:, 1] + 0.1
        fitted, rmse = lse_consequents(m, TrainingSet(x, y), ridge=1e-12)
        assert rmse < 1e-6

    def test_design_matrix_consistent_with_forward(self):
        rng = np.random.default_rng(6)
        m, ranges = random_model(rng)
        x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(20, 2))
        a_mat = design_matrix(m, x)
        np.testing.assert_allclose(a_mat @ m.coeffs.ravel(),
                                   forward_batch(m, x), atol=1e-12)

    def test_prior_is_reproduced_with_no_signal(self):
        # shrinking toward the tiled global linear fit: with a huge ridge the
        # solution collapses onto the prior, which reproduces that linear map
        rng = np.random.default_rng(7)
        m, ranges = random_model(rng)
        x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(300, 2))
        y = 1.5 * x[:, 0] + 0.5 * x[:, 1] - 2.0
        prior = linear_consequent_prior(m, x, y)
        fitted, rmse = lse_consequents(m, TrainingSet(x, y), ridge=1e12,
                                       prior=prior)
        np.testing.assert_allclose(fitted.coeffs, prior.reshape(fitted.coeffs.shape),
                                   atol=1e-6)
        assert rmse < 1e-6

    def test_empty_rejected(self):
        m = grid_partition_init(RANGES_2D, 2)
        with pytest.raises(ValueError):
            lse_consequents(m, TrainingSet(np.zeros((0, 2)), np.zeros(0)))

    def test_underdetermined_warns(self):
        m = grid_partition_init(RANGES_2D, 2)
        x = np.array([[0.0, 0.0], [0.5, 0.5]])
        with pytest.warns(UserWarning, match="underdetermined"):
            lse_consequents(m, TrainingSet(x, np.array([1.0, 2.0])), ridge=1e-6)


class TestPremiseGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(20):
            n_in = int(rng.integers(1, 4))
            m, ranges = random_model(rng, n_inputs=n_in,
                                     mfs=int(rng.integers(2, 4)))
            x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(20, n_in))
            y = rng.normal(size=20)
            data = TrainingSet(x, y)
            ga, gb, gc = premise_gradient(m, data)

            def loss(mm):
                r = forward_batch(mm, x) - y
                return float(r @ r)

            eps = 1e-6
            for which, grads in (("a", ga), ("b", gb), ("c", gc)):
                for i in range(n_in):
                    for j in range(len(grads[i])):
                        mp, mn = m.copy(), m.copy()
                        getattr(mp, which)[i][j] += eps
                        getattr(mn, which)[i][j] -= eps
                        fd = (loss(mp) - loss(mn)) / (2.0 * eps)
                        an = grads[i][j]
                        worst = max(worst, abs(fd - an)
                                    / max(1e-8, abs(fd), abs(an)))
        assert worst < 1e-5

    def test_zero_residual_zero_gradient(self):
        rng = np.random.default_rng(9)
        m, ranges = random_model(rng)
        x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(30, 2))
        y = forward_batch(m, x)
        ga, gb, gc = premise_gradient(m, TrainingSet(x, y))
        for grads in (ga, gb, gc):
            for g in grads:
                np.testing.assert_allclose(g, 0.0, atol=1e-9)


class TestTrain:
    def test_synthetic_model_recovered(self):
        rng = np.random.default_rng(10)
        truth = grid_partition_init(RANGES_2D, 3)
        truth.coeffs = rng.normal(0.0, 1.0, truth.coeffs.shape)
        x = rng.uniform(RANGES_2D[:, 0], RANGES_2D[:, 1], size=(500, 2))
        y = forward_batch(truth, x)
        model, history = train(grid_partition_init(RANGES_2D, 3),
                               TrainingSet(x, y),
                               TrainConfig(epochs=50, learning_rate=0.005,
                                           ridge=0.0, linear_prior=False))
        assert min(history) < 1e-6
        assert len(history) == 50

    def test_history_best_is_returned(self):
        rng = np.random.default_rng(11)
        m, ranges = random_model(rng)
        x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(200, 2))
        y = np.sin(x[:, 0]) * np.cos(x[:, 1])
        model, history = train(grid_partition_init(ranges, 2), TrainingSet(x, y),
                               TrainConfig(epochs=8, learning_rate=0.05))
        final = float(np.sqrt(np.mean((forward_batch(model, x) - y) ** 2)))
        assert final <= min(history) + 1e-12

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
        m.metadata["note"] = "fixture"
        # a single table, and a stack of two channels over the same premise
        for coeffs in (m.coeffs, rng.normal(size=(2,) + m.coeffs.shape)):
            m.coeffs = coeffs
            path = tmp_path / "model.json"
            anfis.save_model(m, path)
            loaded = anfis.load_model(path)
            assert loaded.mfs_per_input == m.mfs_per_input
            for i in range(m.n_inputs):
                np.testing.assert_array_equal(loaded.a[i], m.a[i])
                np.testing.assert_array_equal(loaded.b[i], m.b[i])
                np.testing.assert_array_equal(loaded.c[i], m.c[i])
            np.testing.assert_array_equal(loaded.coeffs, m.coeffs)
            np.testing.assert_array_equal(loaded.input_ranges, m.input_ranges)
            assert loaded.metadata["note"] == "fixture"

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 999}\n')
        with pytest.raises(ModelFormatError, match="version"):
            anfis.load_model(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(ModelFormatError):
            anfis.load_model(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 1, "mfs_per_input": [2]}\n')
        with pytest.raises(ModelFormatError):
            anfis.load_model(path)
