"""Tests for the GP and random-forest surrogates."""

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.optimize
from scipy.linalg import cho_solve, cholesky, solve_triangular

from bbo import surrogate
from bbo.errors import InsufficientDataError, NumericError
from bbo.surrogate import (
    JITTERS,
    SQRT5,
    GPModel,
    PRFModel,
    _chol_with_jitter,
    _grow_tree,
    _lml_and_grad,
    _load_gp_libraries,
    _matern52_scaled,
    _scaled_rows,
    _sq_dists_per_dim,
    _sum_dims,
    fit_gp,
    fit_prf,
    gp_log_marginal_likelihood,
    one_blas_thread,
)


def matern52(X1, X2, lengthscales, signal_var):
    """Matern-5/2 kernel between the rows of X1 and X2, both scaled and
    centred on X2's mean, through the kernel GPModel evaluates."""
    centre = X2.mean(axis=0)
    return _matern52_scaled(
        *_scaled_rows(X1, centre, lengthscales), *_scaled_rows(X2, centre, lengthscales), signal_var
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

    def test_model_factor_is_the_factor_of_its_kernel(self):
        rng = np.random.default_rng(12)
        with one_blas_thread():
            # sizes at which numpy's symmetric X @ X.T rounds unlike the general product
            for n, d in [(20, 2), (39, 5), (100, 13)]:
                X = rng.uniform(size=(n, d))
                lengthscales = np.exp(rng.uniform(np.log(0.1), np.log(2.0), size=d))
                model = GPModel(X, rng.normal(size=n), lengthscales, 1.3, 1e-4)
                K = matern52(X, X, lengthscales, 1.3)
                K[np.diag_indices_from(K)] += 1e-4
                L, jitter = _chol_with_jitter(K)
                np.testing.assert_array_equal(model.L, L)
                assert model.jitter == jitter

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


class TestStartRule:
    """Which L-BFGS starts fit_gp runs, counted at optimize.minimize."""

    @pytest.fixture
    def starts(self, monkeypatch):
        calls = []
        _load_gp_libraries()
        minimize = surrogate.optimize.minimize

        def counting(fun, x0, *args, **kwargs):
            calls.append(np.array(x0, copy=True))
            return minimize(fun, x0, *args, **kwargs)

        monkeypatch.setattr(surrogate.optimize, "minimize", counting)
        return calls

    @staticmethod
    def problem():
        rng = np.random.default_rng(31)
        X = rng.uniform(size=(12, 2))
        return X, np.sin(6 * X[:, 0]) + X[:, 1]

    DEFAULT = np.log([0.5, 0.5, 1.0, 1e-3])
    WARM = np.log([0.3, 0.8, 1.5, 1e-4])

    def test_warm_start_alone(self, starts):
        fit_gp(*self.problem(), restarts=0, extra_inits=(self.WARM,))
        assert len(starts) == 1
        np.testing.assert_array_equal(starts[0], self.WARM)

    def test_default_start_without_warm_one(self, starts):
        fit_gp(*self.problem(), restarts=0)
        assert len(starts) == 1
        np.testing.assert_array_equal(starts[0], self.DEFAULT)

    def test_deep_fit_adds_default_and_random_starts(self, starts):
        fit_gp(*self.problem(), restarts=2)
        assert len(starts) == 3
        np.testing.assert_array_equal(starts[0], self.DEFAULT)

    def test_deep_warm_fit_keeps_every_start(self, starts):
        fit_gp(*self.problem(), restarts=2, extra_inits=(self.WARM,))
        assert len(starts) == 4
        np.testing.assert_array_equal(starts[0], self.WARM)
        np.testing.assert_array_equal(starts[1], self.DEFAULT)


class TestStopRule:
    """Each L-BFGS start stops once an iteration gains under about 1e-3 nats."""

    @pytest.fixture
    def results(self, monkeypatch):
        """(ftol, result) of every optimize.minimize call."""
        calls = []
        _load_gp_libraries()
        minimize = surrogate.optimize.minimize

        def recording(*args, **kwargs):
            res = minimize(*args, **kwargs)
            calls.append((kwargs["options"]["ftol"], res))
            return res

        monkeypatch.setattr(surrogate.optimize, "minimize", recording)
        return calls

    @staticmethod
    def linear_rows(seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(39, 2))
        return X, 6.0 - (5.0 * X[:, 1] + 8.1 * X[:, 0])

    @pytest.mark.parametrize("seed", range(5))
    def test_warm_refit_on_noiseless_linear_targets(self, seed, results):
        X, y = self.linear_rows(seed)
        warm = fit_gp(X[:38], y[:38]).log_hypers
        results.clear()
        fit_gp(X, y, restarts=0, extra_inits=(warm,))
        ((_, res),) = results
        assert res.message.startswith("CONVERGENCE"), res.message
        assert res.nfev <= 20

        # reference: the same start run by scipy with a tight relative stop
        y_std = (y - y.mean()) / y.std()
        d2 = _sq_dists_per_dim(X)

        def negative_lml(theta):
            lml, grad = _lml_and_grad(y_std, theta, d2)
            return -lml, -grad

        lower, upper = np.log(
            [surrogate.LENGTHSCALE_BOUNDS] * 2 + [surrogate.SIGNAL_VAR_BOUNDS, surrogate.NOISE_VAR_BOUNDS]
        ).T
        reference = scipy.optimize.minimize(
            negative_lml,
            warm,
            jac=True,
            method="L-BFGS-B",
            bounds=list(zip(lower, upper)),
            options={"maxiter": surrogate._LBFGS_MAXITER, "ftol": 1e-12, "gtol": 1e-4},
        )
        assert -res.fun >= -reference.fun - 1e-3

    def test_start_value_is_evaluated_once(self, results, monkeypatch):
        evaluations = []

        def counting(*args):
            evaluations.append(1)
            return _lml_and_grad(*args)

        monkeypatch.setattr(surrogate, "_lml_and_grad", counting)
        fit_gp(*TestStartRule.problem(), restarts=2, extra_inits=(TestStartRule.WARM,))
        assert len(results) == 4
        assert len(evaluations) == sum(res.nfev for _, res in results)

    def test_penalized_start_keeps_the_relative_stop(self, results, monkeypatch):
        evaluations = []

        def failing_first(y, theta, d2):
            evaluations.append(1)
            if len(evaluations) == 1:
                raise NumericError("not positive definite")
            return _lml_and_grad(y, theta, d2)

        monkeypatch.setattr(surrogate, "_lml_and_grad", failing_first)
        fit_gp(*TestStartRule.problem(), restarts=1, extra_inits=(TestStartRule.WARM,))
        assert results[0][0] == 1e-8
        assert results[0][1].fun == 1e25
        # the other starts scale the stop by their start's likelihood
        assert all(ftol > 1e-8 for ftol, _ in results[1:])


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
        model = fit_prf(X, y, rng=rng)
        queries = rng.uniform(size=(50, 2))
        _, var = model.predict(queries)
        # one-root forests over the same table predict each tree alone
        trees = [PRFModel(model.nodes, [root]).predict(queries) for root in model.roots]
        means = np.array([mean for mean, _ in trees])
        variances = np.array([variance for _, variance in trees])
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
        # one tree on the unresampled rows, split down to single-row leaves
        nodes = []
        root = _grow_tree(nodes, X, y, rng, min_samples_leaf=1, max_features=2)
        mean, var = PRFModel(np.array(nodes), [root]).predict(X)
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

    def test_matches_forest_reference(self, monkeypatch):
        """Fitted node tables, predictions and the RNG state after the fit
        equal the per-tree, per-feature reference bit for bit."""
        for seed in range(200):
            problem = np.random.default_rng(seed)
            X, y, queries = random_forest_problem(problem)
            min_samples_leaf = 1 if seed % 2 else surrogate._MIN_SAMPLES_LEAF
            monkeypatch.setattr(surrogate, "_MIN_SAMPLES_LEAF", min_samples_leaf)
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            model = fit_prf(X, y, rng=rng)
            nodes, roots, predict = forest_reference(X, y, rng_ref, min_samples_leaf)
            assert np.array_equal(model.nodes, nodes) and np.array_equal(model.roots, roots)
            assert rng.integers(2**62) == rng_ref.integers(2**62)
            # thresholds as query values reach the <= boundary of every split
            thresholds = nodes[nodes[:, 0] >= 0, 1]
            if thresholds.size:
                queries = np.vstack([queries, problem.choice(thresholds, size=(20, X.shape[1]))])
            for got, want in zip(model.predict(queries), predict(queries)):
                assert np.array_equal(got, want)


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


# --- oracle: the forest as it was before one node table held every tree:
# one object per tree, each split searched one feature at a time ---


@dataclass
class ReferenceTree:
    """Flat-array regression tree; leaves have feature == -1."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    mean: np.ndarray
    var: np.ndarray

    def predict(self, X):
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature[node] >= 0
        while np.any(active):
            idx = np.flatnonzero(active)
            feats = self.feature[node[idx]]
            go_left = X[idx, feats] <= self.threshold[node[idx]]
            node[idx] = np.where(go_left, self.left[node[idx]], self.right[node[idx]])
            active = self.feature[node] >= 0
        return self.mean[node], self.var[node]


def reference_grow_tree(X, y, rng, min_samples_leaf, max_features):
    feature, threshold, left, right, mean, var = [], [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        mean.append(0.0)
        var.append(0.0)
        return len(feature) - 1

    def build(idx):
        node = new_node()
        y_node = y[idx]
        mean[node] = float(y_node.mean())
        var[node] = float(y_node.var())
        if idx.shape[0] < 2 * min_samples_leaf or var[node] <= 0.0:
            return node
        cand_feats = rng.permutation(X.shape[1])[:max_features]
        best = None  # (score, feat, thresh, left_idx, right_idx)
        for f in cand_feats:
            vals = X[idx, f]
            order = np.argsort(vals, kind="stable")
            sv = vals[order]
            sy = y_node[order]
            n = sv.shape[0]
            csum = np.cumsum(sy)
            csum2 = np.cumsum(sy**2)
            total, total2 = csum[-1], csum2[-1]
            s_all = np.arange(min_samples_leaf, n - min_samples_leaf + 1)
            s_all = s_all[sv[s_all - 1] != sv[s_all]]
            if s_all.size == 0:
                continue
            nl = s_all.astype(float)
            nr = n - nl
            sl, sl2 = csum[s_all - 1], csum2[s_all - 1]
            var_l = sl2 / nl - (sl / nl) ** 2
            var_r = (total2 - sl2) / nr - ((total - sl) / nr) ** 2
            scores = (nl * var_l + nr * var_r) / n
            k = int(np.argmin(scores))
            if best is None or scores[k] < best[0]:
                s = int(s_all[k])
                thresh = 0.5 * (sv[s - 1] + sv[s])
                best = (float(scores[k]), int(f), float(thresh), idx[order[:s]], idx[order[s:]])
        if best is None:
            return node
        _, f, thresh, idx_l, idx_r = best
        feature[node] = f
        threshold[node] = thresh
        left[node] = build(idx_l)
        right[node] = build(idx_r)
        return node

    build(np.arange(X.shape[0]))
    return ReferenceTree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        mean=np.array(mean, dtype=float),
        var=np.array(var, dtype=float),
    )


def forest_reference(X, y, rng, min_samples_leaf):
    """The reference forest as (node table, roots, predict): its trees'
    rows stacked in tree order with child indices offset into the stack,
    and the per-tree ensemble prediction."""
    n, d = X.shape
    max_features = max(1, math.ceil(d * surrogate._FEATURE_FRACTION))
    trees = []
    for _ in range(surrogate._N_TREES):
        idx = rng.integers(n, size=n)
        trees.append(reference_grow_tree(X[idx], y[idx], rng, min_samples_leaf, max_features))

    tables, roots, base = [], [], 0
    for tree in trees:
        children = [np.where(c >= 0, c + base, -1) for c in (tree.left, tree.right)]
        tables.append(np.column_stack([tree.feature, tree.threshold, *children, tree.mean, tree.var]))
        roots.append(base)
        base += tree.feature.size

    def predict(Xq):
        means = np.empty((len(trees), Xq.shape[0]))
        variances = np.empty_like(means)
        for t, tree in enumerate(trees):
            means[t], variances[t] = tree.predict(Xq)
        mean = means.mean(axis=0)
        var = (variances + means**2).mean(axis=0) - mean**2
        return mean, np.maximum(var, 1e-12)

    return np.vstack(tables).astype(float), np.array(roots), predict


def random_forest_problem(rng):
    """Training rows, targets and query rows: n log-uniform in [2, 120],
    d in [1, 19], about half the columns discrete with tied values, and
    integer targets (tied split scores) in about a third of the problems."""
    n = int(round(math.exp(rng.uniform(math.log(2), math.log(120)))))
    d = int(rng.integers(1, 20))
    X = rng.uniform(size=(n, d))
    discrete = rng.random(d) < 0.5
    levels = int(rng.integers(2, 6))
    X[:, discrete] = rng.integers(0, levels, size=(n, int(discrete.sum()))) / (levels - 1)
    if rng.random() < 1 / 3:
        y = rng.integers(0, 4, size=n).astype(float)
    else:
        y = np.sin(4 * X[:, 0]) + rng.normal(scale=0.3, size=n)
    queries = np.vstack([X, rng.uniform(size=(30, d))])
    return X, y, queries


def reference_walk(model, queries):
    """The forest's prediction walked one row and one tree at a time through
    the node table (left when ``x <= threshold``, so a NaN goes right), the
    trees' leaf values added in tree order as Python floats."""
    nodes, trees = model.nodes, len(model.roots)
    mean, var = np.empty(len(queries)), np.empty(len(queries))
    for r, x in enumerate(queries):
        leaves = []
        for root in model.roots:
            k = int(root)
            while nodes[k, 0] >= 0:
                k = int(nodes[k, 2] if x[int(nodes[k, 0])] <= nodes[k, 1] else nodes[k, 3])
            leaves.append((float(nodes[k, 4]), float(nodes[k, 5])))
        total, second = leaves[0][0], leaves[0][1] + leaves[0][0] * leaves[0][0]
        for leaf_mean, leaf_var in leaves[1:]:
            total += leaf_mean
            second += leaf_var + leaf_mean * leaf_mean
        mean[r] = total / trees
        var[r] = max(second / trees - mean[r] * mean[r], 1e-12)
    return mean, var


def assert_same_bits(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


def leaf_and_chain_table(n):
    """A node table of two trees: a single leaf (root row 0) and a chain on
    the rows x_i = i / (n - 1) whose every split peels off one row, its
    feature alternating between 0 and 1. Children are appended before their
    parent, so the chain's root is the last row."""
    nodes = [[-1, 0.0, -1, -1, 7.0, 0.25]]
    below = len(nodes)
    nodes.append([-1, 0.0, -1, -1, float(n - 1), 0.0])
    for j in range(n - 2, -1, -1):
        nodes.append([-1, 0.0, -1, -1, float(j), 0.0])
        nodes.append([j % 2, (j + 0.5) / (n - 1), len(nodes) - 1, below, j + 1.0, 2.0])
        below = len(nodes) - 1
    return np.array(nodes), 0, below


class TestForestWalk:
    """The fixed-pass walk against a per-row walker, and the row
    independence the Shapley importance's reuse of predictions relies on."""

    def test_rows_predict_alone_as_in_any_call(self):
        for seed in range(60):
            problem = np.random.default_rng(seed)
            X, y, queries = random_forest_problem(problem)
            model = fit_prf(X, y, rng=np.random.default_rng(seed))
            mean, var = model.predict(queries)
            idx = problem.integers(len(queries), size=int(problem.integers(2, 40)))
            assert_same_bits(model.predict(queries[idx]), (mean[idx], var[idx]))
            for i in problem.integers(len(queries), size=5):
                assert_same_bits(model.predict(queries[i]), (mean[i : i + 1], var[i : i + 1]))
                assert_same_bits(model.predict(queries[i : i + 1]), (mean[i : i + 1], var[i : i + 1]))

    def test_matches_reference_walker_one_row_at_a_time(self):
        for seed in range(30):
            problem = np.random.default_rng(seed)
            X, y, queries = random_forest_problem(problem)
            model = fit_prf(X, y, rng=np.random.default_rng(seed))
            assert_same_bits(model.predict(queries), reference_walk(model, queries))
            assert_same_bits(model.predict(queries[:1]), reference_walk(model, queries[:1]))

    def test_nan_goes_right_at_every_split(self):
        for seed in range(30):
            problem = np.random.default_rng(seed)
            X, y, queries = random_forest_problem(problem)
            model = fit_prf(X, y, rng=np.random.default_rng(seed))
            queries = queries.copy()
            queries[problem.random(queries.shape) < 0.3] = np.nan
            queries = np.vstack([queries, np.full(X.shape[1], np.nan)])
            assert_same_bits(model.predict(queries), reference_walk(model, queries))
        # a one-split tree sends NaN to its right leaf
        nodes = np.array([[0, 0.5, 1, 2, 0.0, 0.0], [-1, 0.0, -1, -1, -1.0, 0.0], [-1, 0.0, -1, -1, 1.0, 0.0]])
        mean, _ = PRFModel(nodes, [0]).predict(np.array([[np.nan], [0.2], [0.9]]))
        assert mean.tolist() == [1.0, -1.0, 1.0]

    @pytest.mark.parametrize("n", [2, 3, 17])
    def test_hand_built_leaf_and_chain_trees(self, n):
        nodes, leaf_root, chain_root = leaf_and_chain_table(n)
        grid = np.linspace(0.0, 1.0, n)
        thresholds = (np.arange(n - 1) + 0.5) / (n - 1)
        rng = np.random.default_rng(n)
        queries = np.vstack(
            [
                np.column_stack([grid, grid]),
                np.column_stack([thresholds, thresholds]),
                rng.uniform(-0.5, 1.5, size=(40, 2)),
                [[np.nan, 0.0], [0.0, np.nan], [np.nan, np.nan]],
            ]
        )
        forest = PRFModel(nodes, [leaf_root, chain_root])
        leaf, chain = PRFModel(nodes, [leaf_root]), PRFModel(nodes, [chain_root])
        assert (forest.depth, leaf.depth, chain.depth) == (n - 1, 0, n - 1)
        for model in (forest, leaf, chain):
            assert_same_bits(model.predict(queries), reference_walk(model, queries))
        # the chain leaves each training row in its own leaf
        assert chain.predict(np.column_stack([grid, grid]))[0].tolist() == list(range(n))
        assert np.all(leaf.predict(queries)[0] == 7.0)


class TestConditionedForest:
    """A forest told more rows without regrowing, as a constant-liar
    follower tells its lies."""

    def test_leaves_equal_two_pass_moments_of_bag_and_lies(self):
        # tree 0 splits x0 at 0.5; tree 1 is one leaf holding every bag row
        bags = {1: [1.0, 2.0, 4.5], 2: [10.0, 12.5], 3: [1.0, 2.0, 4.5, 10.0, 12.5]}
        nodes = [[0, 0.5, 1, 2, 0.0, 0.0]] + [[-1, 0.0, -1, -1, np.mean(b), np.var(b)] for b in bags.values()]
        forest = PRFModel(np.array(nodes), [0, 3])
        forest._counts = np.array([5.0, 3.0, 2.0, 5.0])
        lies_X, lies_y = np.array([[0.2], [0.4]]), np.array([3.25, -7.0])  # both reach leaf 1
        conditioned = forest._conditioned(lies_X, lies_y)
        for leaf, bag in bags.items():
            told = bag + (list(lies_y) if leaf in (1, 3) else [])
            assert conditioned._counts[leaf] == len(told)
            assert abs(conditioned.nodes[leaf, 4] - np.mean(told)) <= 1e-12
            assert abs(conditioned.nodes[leaf, 5] - np.var(told)) <= 1e-12
        assert np.array_equal(conditioned.nodes[2], forest.nodes[2])
        assert np.array_equal(conditioned.nodes[:, :4], forest.nodes[:, :4])

    def test_told_forest_is_unchanged(self):
        rng = np.random.default_rng(9)
        X, y = rng.uniform(size=(30, 3)), rng.normal(size=30)
        forest = fit_prf(X, y, rng=rng)
        nodes, counts, roots = forest.nodes.copy(), forest._counts.copy(), forest.roots.copy()
        queries = rng.uniform(size=(20, 3))
        before = forest.predict(queries)
        conditioned = forest._conditioned(rng.uniform(size=(3, 3)), np.full(3, np.median(y)))
        assert np.array_equal(forest.nodes, nodes) and np.array_equal(forest._counts, counts)
        assert np.array_equal(forest.roots, roots) and conditioned.roots.tolist() == roots.tolist()
        assert_same_bits(forest.predict(queries), before)
        # each of the three rows joins one leaf of every tree
        assert conditioned._counts.sum() == counts.sum() + 3 * len(roots)

    def test_fit_counts_each_nodes_bag_rows(self):
        rng = np.random.default_rng(10)
        X, y = rng.uniform(size=(25, 2)), rng.normal(size=25)
        forest = fit_prf(X, y, rng=rng)
        leaf = forest.nodes[:, 0] < 0
        # a root holds its tree's whole bootstrap sample, a parent its children's rows
        assert forest._counts[forest.roots].tolist() == [25.0] * len(forest.roots)
        inner = np.flatnonzero(~leaf)
        children = forest.nodes[inner][:, 2:4].astype(int)
        assert np.array_equal(forest._counts[inner], forest._counts[children].sum(axis=1))
        assert forest._counts[leaf].min() >= surrogate._MIN_SAMPLES_LEAF


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


def unshared_lml_and_grad(y, log_hypers, d2):
    """``_lml_and_grad`` as it was before it shared terms and worked in place:
    sqrt5 r formed twice, the noise added through an identity matrix, the
    diagonal halved through ``np.diag_indices`` and one gradient sum per
    lengthscale."""
    _load_gp_libraries()
    d, n = d2.shape[0], d2.shape[1]
    ell = np.exp(log_hypers[:d])
    sf2 = math.exp(log_hypers[d])
    sn2 = math.exp(log_hypers[d + 1])
    scaled = d2 / (ell**2)[:, None, None]
    r = np.sqrt(np.maximum(_sum_dims(scaled), 0.0))
    decay = np.exp(-SQRT5 * r)
    K_f = sf2 * (1.0 + SQRT5 * r + (5.0 / 3.0) * r**2) * decay
    L, _ = _chol_with_jitter(K_f + sn2 * np.eye(n))
    alpha, _ = surrogate.lapack.dpotrs(L, y, lower=1)
    lml = -0.5 * float(y @ alpha) - float(np.log(np.diag(L)).sum()) - 0.5 * n * math.log(2.0 * math.pi)
    K_inv, _ = surrogate.lapack.dpotri(L, lower=1, overwrite_c=1)
    K_inv += K_inv.T
    K_inv[np.diag_indices(n)] *= 0.5
    W = np.outer(alpha, alpha) - K_inv
    grad = np.empty(d + 2)
    base = (5.0 / 3.0) * sf2 * (1.0 + SQRT5 * r) * decay
    for k in range(d):
        grad[k] = 0.5 * float(np.sum(W * (base * scaled[k])))
    grad[d] = 0.5 * float(np.sum(W * K_f))
    grad[d + 1] = 0.5 * sn2 * float(np.trace(W))
    return lml, grad


def unblocked_matern52(X1, X2, lengthscales, signal_var):
    """``matern52`` as one expression over whole matrices, as it was before
    it worked in place."""
    centre = X2.mean(axis=0)
    A = (X1 - centre) / lengthscales
    B = (X2 - centre) / lengthscales
    d2 = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
    r = np.sqrt(np.maximum(d2, 0.0))
    return signal_var * (1.0 + SQRT5 * r + (5.0 / 3.0) * r**2) * np.exp(-SQRT5 * r)


def unblocked_predict(model, Xq):
    """``GPModel.predict`` as it was before it scored the rows in blocks: one
    kernel over every query row, one solve and one product."""
    _load_gp_libraries()
    k_star = unblocked_matern52(Xq, model.X, model.lengthscales, model.signal_var)
    mean = k_star @ model.alpha
    v, _ = surrogate.lapack.dtrtrs(model.L, k_star.T, lower=1)
    var = np.maximum(model.signal_var - np.einsum("ij,ij->j", v, v), 0.0)
    return mean * model.y_std + model.y_mean, var * model.y_std**2


class TestLikelihoodBits:
    def test_lml_and_gradient_bits_match_the_unshared_formula(self):
        rng = np.random.default_rng(24)
        with one_blas_thread():
            for d in TestLinearAlgebraOracles.DIMS:
                for _ in range(15):
                    X, y, theta = random_gp_problem(rng, d)
                    d2 = _sq_dists_per_dim(X)
                    lml, grad = _lml_and_grad(y, theta, d2)
                    want_lml, want_grad = unshared_lml_and_grad(y, theta, d2)
                    assert lml == want_lml
                    np.testing.assert_array_equal(grad, want_grad)


class TestBlockedPredict:
    N_TRAIN = 39  # a 40-trial run's last fit
    BLOCK = 420  # rows of 2**14 // 39, rounded down to a multiple of 4

    def model(self, rng, d):
        X = rng.uniform(size=(self.N_TRAIN, d))
        y = np.sin(3.0 * X).sum(axis=1) + 0.1 * rng.normal(size=self.N_TRAIN)
        return GPModel(X, y, np.exp(rng.uniform(np.log(0.1), np.log(2.0), size=d)), 1.7, 1e-4)

    @pytest.mark.parametrize("d", [1, 2, 13])
    def test_matches_unblocked_prediction(self, d):
        rng = np.random.default_rng(40 + d)
        model = self.model(rng, d)
        with one_blas_thread():
            for rows in (1, self.BLOCK, self.BLOCK + 1, 5078):
                Xq = rng.uniform(-0.2, 1.2, size=(rows, d))
                mean, var = model.predict(Xq)
                want_mean, want_var = unblocked_predict(model, Xq)
                np.testing.assert_array_equal(var, want_var)
                assert_close(mean, want_mean)

    def test_small_blocks_match_unblocked_prediction(self, monkeypatch):
        # 2**8 elements: blocks of 4 rows, so the last block takes a remainder
        monkeypatch.setattr(surrogate, "_PREDICT_BLOCK_ELEMENTS", 1 << 8)
        rng = np.random.default_rng(43)
        model = self.model(rng, 2)
        with one_blas_thread():
            for rows in (1, 3, 4, 5, 9, 30, 101):
                Xq = rng.uniform(size=(rows, 2))
                mean, var = model.predict(Xq)
                want_mean, want_var = unblocked_predict(model, Xq)
                np.testing.assert_array_equal(var, want_var)
                assert_close(mean, want_mean)

    def test_each_block_is_bounded(self, monkeypatch):
        rng = np.random.default_rng(44)
        model = self.model(rng, 2)
        sizes = []
        kernel = surrogate._matern52_scaled

        def recording(A, *args):
            sizes.append(len(A))
            return kernel(A, *args)

        monkeypatch.setattr(surrogate, "_matern52_scaled", recording)
        model.predict(rng.uniform(size=(5078, 2)))
        # whole blocks of BLOCK rows, the last one taking the remainder
        assert sizes == [self.BLOCK] * 11 + [5078 - 11 * self.BLOCK]
        assert self.BLOCK * self.N_TRAIN <= surrogate._PREDICT_BLOCK_ELEMENTS


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
