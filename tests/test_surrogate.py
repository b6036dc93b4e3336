"""Tests for the GP and random-forest surrogates."""

import math
import sys
import threading

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, solve_triangular

from bbo import surrogate
from bbo.errors import InsufficientDataError, NumericError
from bbo.surrogate import (
    JITTERS,
    SQRT5,
    GPModel,
    fit_gp,
    fit_prf,
    gp_log_marginal_likelihood,
    matern52,
    one_blas_thread,
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


# --- oracles: the GP linear algebra through scipy's checked wrappers and an
# (n, n, d) distance tensor, as the kernels were before they called LAPACK
# directly on a dimension-major tensor ---


def oracle_chol_with_jitter(K):
    for jitter in JITTERS:
        try:
            return cholesky(K + jitter * np.eye(K.shape[0]), lower=True), jitter
        except np.linalg.LinAlgError:
            continue
    raise NumericError("kernel matrix is not positive definite even at jitter 1e-4")


def oracle_lml_and_grad(X, y, log_hypers):
    n, d = X.shape
    ell = np.exp(log_hypers[:d])
    sf2 = math.exp(log_hypers[d])
    sn2 = math.exp(log_hypers[d + 1])
    d2 = (X[:, None, :] - X[None, :, :]) ** 2
    scaled = d2 / ell**2
    r = np.sqrt(np.maximum(scaled.sum(axis=2), 0.0))
    decay = np.exp(-SQRT5 * r)
    K_f = sf2 * (1.0 + SQRT5 * r + (5.0 / 3.0) * r**2) * decay
    K = K_f + sn2 * np.eye(n)
    L, _ = oracle_chol_with_jitter(K)
    alpha = cho_solve((L, True), y)
    lml = -0.5 * float(y @ alpha) - float(np.log(np.diag(L)).sum()) - 0.5 * n * math.log(2.0 * math.pi)
    W = np.outer(alpha, alpha) - cho_solve((L, True), np.eye(n))
    grad = np.empty(d + 2)
    base = (5.0 / 3.0) * sf2 * (1.0 + SQRT5 * r) * decay
    for k in range(d):
        grad[k] = 0.5 * float(np.sum(W * (base * scaled[:, :, k])))
    grad[d] = 0.5 * float(np.sum(W * K_f))
    grad[d + 1] = 0.5 * sn2 * float(np.trace(W))
    return lml, grad


def oracle_predict(X, y, ell, sf2, sn2, Xq):
    y_mean = float(y.mean())
    std = float(y.std())
    y_std = std if std > 1e-12 else 1.0
    K = matern52(X, X, ell, sf2)
    K[np.diag_indices_from(K)] += sn2
    L, _ = oracle_chol_with_jitter(K)
    alpha = cho_solve((L, True), (y - y_mean) / y_std)
    k_star = matern52(Xq, X, ell, sf2)
    v = solve_triangular(L, k_star.T, lower=True)
    var = np.maximum(sf2 - np.einsum("ij,ij->j", v, v), 0.0)
    return (k_star @ alpha) * y_std + y_mean, var * y_std**2


def assert_close(got, want):
    """Agreement to 1e-12 relative to the largest magnitude."""
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * max(np.abs(want).max(), 1e-300))


def random_gp_problem(rng, d):
    n = int(rng.integers(2, 61))
    X = rng.uniform(size=(n, d))
    if n > 3:
        X[-1] = X[0]  # a duplicate row
    y = rng.normal(size=n)
    log_hypers = np.concatenate([
        rng.uniform(np.log(0.05), np.log(5.0), size=d),
        [rng.uniform(np.log(0.1), np.log(10.0)), rng.uniform(np.log(1e-6), np.log(1e-1))],
    ])
    return X, y, log_hypers


class TestLinearAlgebraOracles:
    DIMS = (1, 2, 3, 7, 8, 9, 12)

    def test_lml_and_gradient_match_oracle(self):
        rng = np.random.default_rng(21)
        for d in self.DIMS:
            for _ in range(15):
                X, y, theta = random_gp_problem(rng, d)
                model = GPModel(X, y, np.ones(d), 1.0, 1e-3)
                lml, grad = gp_log_marginal_likelihood(model, theta)
                want_lml, want_grad = oracle_lml_and_grad(X, model.y, theta)
                assert_close(lml, want_lml)
                assert_close(grad, want_grad)

    def test_predictions_match_oracle(self):
        rng = np.random.default_rng(22)
        for d in self.DIMS:
            for _ in range(15):
                X, y, theta = random_gp_problem(rng, d)
                ell, sf2, sn2 = np.exp(theta[:d]), math.exp(theta[d]), math.exp(theta[d + 1])
                Xq = np.vstack([X[:3], rng.uniform(-0.5, 1.5, size=(40, d))])
                mean, var = GPModel(X, y, ell, sf2, sn2).predict(Xq)
                want_mean, want_var = oracle_predict(X, y, ell, sf2, sn2, Xq)
                assert_close(mean, want_mean)
                assert_close(var, want_var)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("where, value", [("X", np.nan), ("X", np.inf), ("y", np.nan)])
    def test_fit_gp_and_model_reject(self, where, value):
        rng = np.random.default_rng(23)
        X = rng.uniform(size=(8, 2))
        y = rng.normal(size=8)
        if where == "X":
            X[3, 1] = value
        else:
            y[5] = value
        with pytest.raises(ValueError):
            fit_gp(X, y, rng=rng)
        with pytest.raises(ValueError):
            GPModel(X, y, np.array([0.5, 0.5]), 1.0, 1e-3)


class TestJitterEscalation:
    def test_singular_psd_gets_smallest_working_jitter(self):
        X = np.array([[0.1, 0.2], [0.1, 0.2], [0.5, 0.9], [0.7, 0.3], [0.5, 0.9]])
        K = matern52(X, X, np.array([0.4, 0.4]), 1.0)  # duplicate rows, zero noise
        L, jitter = surrogate._chol_with_jitter(K)
        _, want = oracle_chol_with_jitter(K)
        assert jitter == want == JITTERS[1]
        np.testing.assert_allclose(L @ L.T, K + jitter * np.eye(5), atol=1e-12)

    def test_indefinite_matrix_raises(self):
        with pytest.raises(NumericError):
            surrogate._chol_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_negative_info_raises_instead_of_escalating(self, monkeypatch):
        calls = []

        class BadLapack:
            @staticmethod
            def dpotrf(a, lower):
                calls.append(lower)
                return a, -1

        monkeypatch.setattr(surrogate, "lapack", BadLapack)
        with pytest.raises(ValueError, match="argument 1"):
            surrogate._chol_with_jitter(np.eye(3))
        assert len(calls) == 1

    def test_fit_on_identical_rows_returns_a_model(self):
        X = np.full((6, 2), 0.3)
        y = np.random.default_rng(24).normal(size=6)
        model = fit_gp(X, y, rng=np.random.default_rng(0))
        mean, var = model.predict(np.array([[0.3, 0.3], [0.9, 0.1]]))
        assert np.all(np.isfinite(mean)) and np.all(var >= 0)


@pytest.fixture
def openblas_at_two_threads():
    """The OpenBLAS (get, set) pairs, every count set to 2 and restored after."""
    controls = surrogate._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread-count symbol found")
    before = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    yield controls
    for (_, set_), count in zip(controls, before):
        set_(count)


def blas_counts(controls):
    return [get() for get, _ in controls]


class TestBlasThreadCap:
    def test_nested_entry_restores_the_count(self, openblas_at_two_threads):
        controls = openblas_at_two_threads
        with one_blas_thread():
            assert blas_counts(controls) == [1] * len(controls)
            with one_blas_thread():
                assert blas_counts(controls) == [1] * len(controls)
            assert blas_counts(controls) == [1] * len(controls)
        assert blas_counts(controls) == [2] * len(controls)

    def test_two_threads_at_once_restore_the_count(self, openblas_at_two_threads):
        controls = openblas_at_two_threads
        inside = threading.Barrier(2)
        seen = []

        def work():
            with one_blas_thread():
                inside.wait(timeout=10)
                seen.append(blas_counts(controls))
                inside.wait(timeout=10)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [[1] * len(controls)] * 2
        assert blas_counts(controls) == [2] * len(controls)

    def test_many_threads_entering_and_leaving(self, openblas_at_two_threads):
        controls = openblas_at_two_threads
        wrong = []

        def work():
            for _ in range(200):
                with one_blas_thread():
                    counts = blas_counts(controls)
                    if counts != [1] * len(controls):
                        wrong.append(counts)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert blas_counts(controls) == [2] * len(controls)

    def test_no_symbol_is_a_no_op(self, monkeypatch):
        real = surrogate._openblas_thread_controls()
        before = blas_counts(real)
        monkeypatch.setattr(surrogate, "_openblas_thread_controls", lambda: ())
        with one_blas_thread():
            assert blas_counts(real) == before
        assert blas_counts(real) == before

    def test_model_based_ask_runs_on_one_thread(self, openblas_at_two_threads, monkeypatch):
        from bbo import advisor as advisor_module
        from bbo.advisor import Advisor, TaskSpec
        from bbo.history import Observation
        from bbo.space import ParameterSpec, SearchSpace

        controls = openblas_at_two_threads
        seen = []
        maximize = advisor_module.maximize_acquisition

        def recording(*args, **kwargs):
            seen.append(blas_counts(controls))
            return maximize(*args, **kwargs)

        monkeypatch.setattr(advisor_module, "maximize_acquisition", recording)
        space = SearchSpace([ParameterSpec("x", "float", low=0.0, high=1.0)])
        advisor = Advisor(TaskSpec(space=space, max_runs=10, init_count=3, seed=0))
        for _ in range(4):
            config = advisor.ask()
            advisor.tell(Observation(config=config, objectives=[config["x"] ** 2]))
        assert seen == [[1] * len(controls)]
        assert blas_counts(controls) == [2] * len(controls)
