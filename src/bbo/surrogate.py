"""Probabilistic surrogate models: Gaussian process and random forest.

Both map unit-cube encoded configurations to a predictive (mean, variance)
pair. Targets are handled in raw units; the GP standardizes internally and
un-standardizes on prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .errors import InsufficientDataError, NumericError

SQRT5 = math.sqrt(5.0)

# log-space hyperparameter bounds: lengthscales, signal variance, noise variance
LENGTHSCALE_BOUNDS = (1e-3, 1e3)
SIGNAL_VAR_BOUNDS = (1e-3, 1e3)
NOISE_VAR_BOUNDS = (1e-8, 1e-1)

JITTERS = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)


def _sq_dists_per_dim(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Pairwise squared differences per dimension, shape (n1, n2, d)."""
    return (X1[:, None, :] - X2[None, :, :]) ** 2


def matern52(
    X1: np.ndarray,
    X2: np.ndarray,
    lengthscales: np.ndarray,
    signal_var: float,
) -> np.ndarray:
    """Matern-5/2 kernel with ARD lengthscales, from ||a||^2 + ||b||^2 - 2 a.b
    clipped at 0 on inputs scaled and centred on X2's mean (no 3-D tensor)."""
    centre = X2.mean(axis=0)
    A = (X1 - centre) / lengthscales
    B = (X2 - centre) / lengthscales
    d2 = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
    r = np.sqrt(np.maximum(d2, 0.0))
    return signal_var * (1.0 + SQRT5 * r + (5.0 / 3.0) * r**2) * np.exp(-SQRT5 * r)


def _chol_with_jitter(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky factor of K (+ jitter I), escalating jitter geometrically."""
    for jitter in JITTERS:
        try:
            L = cholesky(K + jitter * np.eye(K.shape[0]), lower=True)
            return L, jitter
        except np.linalg.LinAlgError:
            continue
    raise NumericError("kernel matrix is not positive definite even at jitter 1e-4")


class GPModel:
    """Gaussian process regressor with a Matern-5/2 ARD kernel, zero mean
    after target standardization, and a cached Cholesky factor."""

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        lengthscales: np.ndarray,
        signal_var: float,
        noise_var: float,
    ):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y row counts differ")
        if np.any(np.asarray(lengthscales) <= 0) or signal_var <= 0 or noise_var <= 0:
            raise ValueError("GP hyperparameters must be positive")
        self.X = X
        self.y_mean = float(y.mean())
        std = float(y.std())
        self.y_std = std if std > 1e-12 else 1.0
        self.y = (y - self.y_mean) / self.y_std
        self.lengthscales = np.asarray(lengthscales, dtype=float)
        self.signal_var = float(signal_var)
        self.noise_var = float(noise_var)

        K = matern52(X, X, self.lengthscales, self.signal_var)
        K[np.diag_indices_from(K)] += self.noise_var
        self.L, self.jitter = _chol_with_jitter(K)
        self.alpha = cho_solve((self.L, True), self.y)

    @property
    def log_hypers(self) -> np.ndarray:
        """[log lengthscales..., log signal_var, log noise_var]."""
        return np.log(
            np.concatenate([self.lengthscales, [self.signal_var, self.noise_var]])
        )

    def predict(self, X_query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance (un-standardized) at query rows."""
        Xq = np.atleast_2d(np.asarray(X_query, dtype=float))
        k_star = matern52(Xq, self.X, self.lengthscales, self.signal_var)
        mean = k_star @ self.alpha
        v = solve_triangular(self.L, k_star.T, lower=True)
        var = self.signal_var - np.einsum("ij,ij->j", v, v)
        var = np.maximum(var, 0.0)
        return mean * self.y_std + self.y_mean, var * self.y_std**2


def gp_log_marginal_likelihood(
    model: GPModel, log_hypers: np.ndarray
) -> tuple[float, np.ndarray]:
    """Log marginal likelihood of the model's standardized targets at the
    given hyperparameters, with the analytic gradient.

    ``log_hypers`` is [log l_1 .. log l_d, log signal_var, log noise_var];
    the gradient is taken with respect to these log quantities.
    """
    return _lml_and_grad(model.X, model.y, np.asarray(log_hypers, dtype=float))


def _lml_and_grad(X: np.ndarray, y: np.ndarray, log_hypers: np.ndarray, d2=None):
    n, d = X.shape
    ell = np.exp(log_hypers[:d])
    sf2 = math.exp(log_hypers[d])
    sn2 = math.exp(log_hypers[d + 1])

    if d2 is None:
        d2 = _sq_dists_per_dim(X, X)  # (n, n, d)
    scaled = d2 / ell**2
    r = np.sqrt(np.maximum(scaled.sum(axis=2), 0.0))
    decay = np.exp(-SQRT5 * r)
    K_f = sf2 * (1.0 + SQRT5 * r + (5.0 / 3.0) * r**2) * decay
    K = K_f + sn2 * np.eye(n)

    L, jitter = _chol_with_jitter(K)
    alpha = cho_solve((L, True), y)
    lml = (
        -0.5 * float(y @ alpha)
        - float(np.log(np.diag(L)).sum())
        - 0.5 * n * math.log(2.0 * math.pi)
    )

    # dLML/dtheta = 0.5 tr((alpha alpha^T - K^-1) dK/dtheta)
    K_inv = cho_solve((L, True), np.eye(n))
    W = np.outer(alpha, alpha) - K_inv

    grad = np.empty(d + 2)
    # d K / d log l_k = (5/3) sf2 (1 + sqrt5 r) exp(-sqrt5 r) * (d_k^2 / l_k^2)
    base = (5.0 / 3.0) * sf2 * (1.0 + SQRT5 * r) * decay
    for k in range(d):
        grad[k] = 0.5 * float(np.sum(W * (base * scaled[:, :, k])))
    grad[d] = 0.5 * float(np.sum(W * K_f))
    grad[d + 1] = 0.5 * sn2 * float(np.trace(W))
    return lml, grad


def fit_gp(
    X: np.ndarray,
    y: np.ndarray,
    restarts: int = 2,
    rng: np.random.Generator | None = None,
    extra_inits: tuple = (),
    maxiter: int = 60,
) -> GPModel:
    """Fit GP hyperparameters by maximizing the log marginal likelihood.

    Multi-start L-BFGS over log hyperparameters: one default initialization,
    ``restarts`` random ones drawn from the bounded log-space, plus any
    ``extra_inits`` (e.g. warm starts from a previous fit).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] < 2:
        raise InsufficientDataError("GP fitting needs at least 2 observations")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    if rng is None:
        rng = np.random.default_rng(0)
    n, d = X.shape

    y_mean = y.mean()
    y_scale = y.std() if y.std() > 1e-12 else 1.0
    y_std = (y - y_mean) / y_scale
    d2 = _sq_dists_per_dim(X, X)

    def objective(theta):
        try:
            lml, grad = _lml_and_grad(X, y_std, theta, d2)
        except NumericError:
            return 1e25, np.zeros_like(theta)
        return -lml, -grad

    lo = np.log(np.array([LENGTHSCALE_BOUNDS[0]] * d + [SIGNAL_VAR_BOUNDS[0], NOISE_VAR_BOUNDS[0]]))
    hi = np.log(np.array([LENGTHSCALE_BOUNDS[1]] * d + [SIGNAL_VAR_BOUNDS[1], NOISE_VAR_BOUNDS[1]]))
    bounds = list(zip(lo, hi))

    default = np.log(np.concatenate([np.full(d, 0.5), [1.0, 1e-3]]))
    inits = [np.clip(np.asarray(t, dtype=float), lo, hi) for t in extra_inits]
    inits.append(default)
    for _ in range(max(0, restarts)):
        ell0 = rng.uniform(np.log(0.05), np.log(2.0), size=d)
        sf0 = rng.uniform(np.log(0.5), np.log(2.0))
        sn0 = rng.uniform(np.log(1e-6), np.log(1e-2))
        inits.append(np.concatenate([ell0, [sf0, sn0]]))

    best_theta, best_val = None, np.inf
    for theta0 in inits:
        res = optimize.minimize(
            objective,
            theta0,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": maxiter, "ftol": 1e-8, "gtol": 1e-4},
        )
        if res.fun < best_val:
            best_val = res.fun
            best_theta = res.x
    if best_theta is None:
        raise NumericError("all GP hyperparameter optimizations failed")

    ell = np.exp(best_theta[:d])
    sf2 = math.exp(best_theta[d])
    sn2 = math.exp(best_theta[d + 1])
    return GPModel(X, y, ell, sf2, sn2)


# --- probabilistic random forest ---


@dataclass
class _Tree:
    """Flat-array regression tree; leaves have feature == -1."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    mean: np.ndarray
    var: np.ndarray

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature[node] >= 0
        while np.any(active):
            idx = np.flatnonzero(active)
            feats = self.feature[node[idx]]
            go_left = X[idx, feats] <= self.threshold[node[idx]]
            node[idx] = np.where(go_left, self.left[node[idx]], self.right[node[idx]])
            active = self.feature[node] >= 0
        return self.mean[node], self.var[node]


class PRFModel:
    """Probabilistic random forest: bagged variance-split regression trees
    whose leaves store the mean and variance of their training targets."""

    def __init__(self, trees: list[_Tree]):
        if not trees:
            raise ValueError("forest needs at least one tree")
        self.trees = trees

    def predict(self, X_query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ensemble mean and law-of-total-variance variance per query row."""
        Xq = np.atleast_2d(np.asarray(X_query, dtype=float))
        means = np.empty((len(self.trees), Xq.shape[0]))
        variances = np.empty_like(means)
        for t, tree in enumerate(self.trees):
            means[t], variances[t] = tree.predict(Xq)
        mean = means.mean(axis=0)
        var = (variances + means**2).mean(axis=0) - mean**2
        return mean, np.maximum(var, 1e-12)


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    min_samples_leaf: int,
    max_features: int,
) -> _Tree:
    feature, threshold, left, right, mean, var = [], [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        mean.append(0.0)
        var.append(0.0)
        return len(feature) - 1

    def build(idx: np.ndarray) -> int:
        node = new_node()
        y_node = y[idx]
        mean[node] = float(y_node.mean())
        var[node] = float(y_node.var())
        if idx.shape[0] < 2 * min_samples_leaf or var[node] <= 0.0:
            return node

        d = X.shape[1]
        cand_feats = rng.permutation(d)[:max_features]
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
            # split after position s: left = first s sorted samples
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
    return _Tree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        mean=np.array(mean, dtype=float),
        var=np.array(var, dtype=float),
    )


def fit_prf(
    X: np.ndarray,
    y: np.ndarray,
    n_trees: int = 10,
    rng: np.random.Generator | None = None,
    min_samples_leaf: int = 3,
    feature_fraction: float = 0.8,
    bootstrap: bool = True,
) -> PRFModel:
    """Fit a probabilistic random forest.

    Each tree grows on a bootstrap resample; splits minimize the weighted
    child variance over a random subset of ceil(d * feature_fraction)
    features and all distinct-value midpoint thresholds.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] < 2:
        raise InsufficientDataError("forest fitting needs at least 2 observations")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    n, d = X.shape
    max_features = max(1, math.ceil(d * feature_fraction))
    trees = []
    for _ in range(n_trees):
        idx = rng.integers(n, size=n) if bootstrap else np.arange(n)
        trees.append(_grow_tree(X[idx], y[idx], rng, min_samples_leaf, max_features))
    return PRFModel(trees)
