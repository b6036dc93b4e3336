"""Tests for the GP and random-forest surrogates."""

import numpy as np
import pytest

from bbo.errors import InsufficientDataError
from bbo.surrogate import (
    SQRT5,
    GPModel,
    fit_gp,
    fit_prf,
    gp_log_marginal_likelihood,
    matern52,
)


def finite_difference_gradient(fn, theta, h=1e-5):
    grad = np.empty_like(theta)
    for k in range(theta.size):
        plus = theta.copy()
        minus = theta.copy()
        plus[k] += h
        minus[k] -= h
        grad[k] = (fn(plus) - fn(minus)) / (2 * h)
    return grad


class TestGP:
    def test_matern_matches_per_dimension_form(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(1, 13))
            X2 = rng.uniform(size=(30, d))
            # exact duplicates of training rows, fresh rows, and far-apart rows
            X1 = np.vstack([X2[:10], rng.uniform(size=(20, d)), X2[:5] + 5.0, -40.0 * X2[:3]])
            lengthscales = np.exp(rng.uniform(np.log(0.05), np.log(5.0), size=d))
            signal_var = float(np.exp(rng.uniform(-2.0, 2.0)))
            r = np.sqrt((((X1[:, None, :] - X2[None, :, :]) / lengthscales) ** 2).sum(axis=2))
            expected = signal_var * (1.0 + SQRT5 * r + (5.0 / 3.0) * r**2) * np.exp(-SQRT5 * r)
            got = matern52(X1, X2, lengthscales, signal_var)
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)

    def test_constant_targets(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(6, 2))
        model = fit_gp(X, np.full(6, 3.7), rng=rng)
        mean, var = model.predict(rng.uniform(size=(10, 2)))
        assert np.max(np.abs(mean - 3.7)) <= 1e-6
        assert np.all(var >= 0)

    def test_interpolates_smooth_function(self):
        X = np.linspace(0, 1, 8).reshape(-1, 1)
        y = np.sin(6 * X[:, 0])
        model = fit_gp(X, y, restarts=3, rng=np.random.default_rng(1))
        mean, _ = model.predict(X)
        assert np.max(np.abs(mean - y)) <= 0.05

    def test_posterior_shrinkage_at_training_points(self):
        X = np.linspace(0.1, 0.6, 8).reshape(-1, 1)
        y = np.sin(6 * X[:, 0])
        model = fit_gp(X, y, rng=np.random.default_rng(2))
        _, var_train = model.predict(X[:1])
        _, var_far = model.predict(np.array([[1.0]]))
        assert var_train[0] <= var_far[0]

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_gp(np.array([[0.5]]), np.array([1.0]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n, d = 10, rng.integers(1, 4)
            X = rng.uniform(size=(n, d))
            y = rng.normal(size=n)
            model = GPModel(X, y, np.full(d, 0.4), 1.2, 1e-3)
            theta = np.concatenate([
                rng.uniform(np.log(0.1), np.log(1.0), size=d),
                [rng.uniform(np.log(0.5), np.log(2.0)), rng.uniform(np.log(1e-4), np.log(1e-2))],
            ])
            _, grad = gp_log_marginal_likelihood(model, theta)
            fd = finite_difference_gradient(
                lambda t: gp_log_marginal_likelihood(model, t)[0], theta
            )
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)
            assert np.max(rel) <= 1e-4

    def test_duplicate_training_point_is_robust(self):
        X = np.array([[0.2], [0.2], [0.8]])
        y = np.array([1.0, 1.0, 2.0])
        model = GPModel(X, y, np.array([0.5]), 1.0, 1e-6)
        value, _ = gp_log_marginal_likelihood(
            model, np.log(np.array([0.5, 1.0, 1e-6]))
        )
        assert np.isfinite(value)

    def test_lml_drops_away_from_noise_optimum(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(12, 1))
        y = np.sin(4 * X[:, 0]) + 0.01 * rng.normal(size=12)
        model = fit_gp(X, y, rng=rng)
        base = np.log(np.array([model.lengthscales[0], model.signal_var, model.noise_var]))
        best, _ = gp_log_marginal_likelihood(model, base)
        # 1-D scan over the noise hyperparameter
        for log_noise in (np.log(1e-8), np.log(0.09)):
            theta = base.copy()
            theta[2] = log_noise
            value, _ = gp_log_marginal_likelihood(model, theta)
            assert value <= best + 1e-8

    def test_variance_never_increases_with_data(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(12, 2))
        y = rng.normal(size=12)
        ell, sf2, sn2 = np.array([0.4, 0.6]), 1.0, 1e-4
        small = GPModel(X[:11], y[:11], ell, sf2, sn2)
        big = GPModel(X, y, ell, sf2, sn2)
        queries = rng.uniform(size=(32, 2))
        _, var_small = small.predict(queries)
        _, var_big = big.predict(queries)
        assert np.all(var_big <= var_small + 1e-9)

    def test_single_point_prediction_helper(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(5, 2))
        model = GPModel(X, np.arange(5.0), np.array([0.5, 0.5]), 1.0, 1e-4)
        mean, var = model.predict(X[0])
        assert mean.shape == var.shape == (1,) and var[0] >= 0


class TestPRF:
    def test_constant_targets(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(10, 2))
        model = fit_prf(X, np.full(10, 2.5), rng=rng)
        mean, var = model.predict(rng.uniform(size=(20, 2)))
        assert np.all(mean == 2.5)
        assert np.all(var <= 1e-12 + 1e-15)

    def test_predictions_within_target_range(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(40, 3))
        y = rng.normal(size=40)
        model = fit_prf(X, y, rng=rng)
        mean, _ = model.predict(rng.uniform(size=(10_000, 3)))
        assert np.all(mean >= y.min() - 1e-12)
        assert np.all(mean <= y.max() + 1e-12)

    def test_ensemble_variance_formula(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(30, 2))
        y = np.sin(5 * X[:, 0]) + X[:, 1]
        model = fit_prf(X, y, n_trees=7, rng=rng)
        queries = rng.uniform(size=(50, 2))
        _, var = model.predict(queries)
        means = np.array([t.predict(queries)[0] for t in model.trees])
        variances = np.array([t.predict(queries)[1] for t in model.trees])
        expected = (variances + means**2).mean(axis=0) - means.mean(axis=0) ** 2
        assert var == pytest.approx(np.maximum(expected, 1e-12))

    def test_deterministic_given_rng(self):
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        X = np.random.default_rng(0).uniform(size=(25, 2))
        y = np.random.default_rng(1).normal(size=25)
        q = np.random.default_rng(2).uniform(size=(5, 2))
        a = fit_prf(X, y, rng=rng_a).predict(q)
        b = fit_prf(X, y, rng=rng_b).predict(q)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_full_depth_single_tree_interpolates(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(20, 2))
        y = np.arange(20.0)  # all distinct
        model = fit_prf(
            X, y, n_trees=1, rng=rng, min_samples_leaf=1, bootstrap=False
        )
        mean, var = model.predict(X)
        assert np.allclose(mean, y)
        assert np.all(var <= 1e-12 + 1e-15)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_prf(np.array([[0.1]]), np.array([1.0]))

    def test_single_point_helper(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(10, 2))
        model = fit_prf(X, X[:, 0], rng=rng)
        mean, var = model.predict(X[0])
        assert mean.shape == var.shape == (1,) and var[0] >= 0


class TestFitSpeed:
    def test_fit_and_predict_under_two_seconds(self):
        import time

        rng = np.random.default_rng(6)
        X = rng.uniform(size=(50, 10))
        y = rng.normal(size=50)
        start = time.perf_counter()
        gp = fit_gp(X, y, rng=rng)
        gp.predict(X)
        prf = fit_prf(X, y, rng=rng)
        prf.predict(X)
        assert time.perf_counter() - start < 2.0
