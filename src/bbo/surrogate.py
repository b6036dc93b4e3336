"""Probabilistic surrogate models: Gaussian process and random forest.

Both map unit-cube encoded configurations to a predictive (mean, variance)
pair. Targets are handled in raw units; the GP standardizes internally and
un-standardizes on prediction. The forest keeps all its trees in one node
table of ``[feature, threshold, left, right, mean, var]`` rows, grown and
split as arrays. It predicts by stepping one walker per (tree, query row)
through walk tables built once per forest, a fixed number of passes (the
forest's depth), and by adding the trees' leaf values in tree order, so a
row's prediction is the same bits whatever other rows share the call. A
fitted forest can be told more rows without regrowing: each joins the leaf
it reaches in every tree, which updates that leaf's mean and variance.

Only the GP needs ``scipy.optimize`` (its L-BFGS hyperparameter fit) and
``scipy.linalg`` (its LAPACK Cholesky routines), and the two take about
half of what ``import bbo`` would otherwise cost. So GP code loads them on
first use, through ``_load_gp_libraries``, and an ``Advisor`` whose plan
uses a GP loads them when it is built; a forest, an evolutionary or random
run, and a report never do. Once loaded, they are the module attributes
``optimize`` and ``lapack``.
"""

from __future__ import annotations

import ctypes
import math
import threading
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy

from .errors import InsufficientDataError, NumericError

SQRT5 = math.sqrt(5.0)

# log-space hyperparameter bounds: lengthscales, signal variance, noise variance
LENGTHSCALE_BOUNDS = (1e-3, 1e3)
SIGNAL_VAR_BOUNDS = (1e-3, 1e3)
NOISE_VAR_BOUNDS = (1e-8, 1e-1)

JITTERS = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
_LBFGS_MAXITER = 60  # iterations per hyperparameter start
_LBFGS_STOP_NATS = 1e-3  # an L-BFGS start stops once an iteration gains less LML
_FEATURE_FRACTION = 0.8  # share of features each forest split considers
_N_TREES = 10
_MIN_SAMPLES_LEAF = 3
# elements of each (query rows, training rows) kernel block in predict: 128 KB
_PREDICT_BLOCK_ELEMENTS = 1 << 14


# OpenBLAS thread-count setters and getters, most specific name first: the
# prefixed ones of numpy's and scipy's wheels, then plain OpenBLAS builds
_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


@lru_cache(maxsize=None)
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of the OpenBLAS libraries bundled
    with numpy and scipy; empty when none is found."""
    controls = []
    for package in (np, scipy):
        root = Path(package.__file__).parent
        paths = [*root.parent.glob(f"{package.__name__}.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]
        for path in sorted(paths):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for symbol in _OPENBLAS_THREAD_SYMBOLS:
                get = getattr(lib, symbol.format("get"), None)
                set_ = getattr(lib, symbol.format("set"), None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    controls.append((get, set_))
                    break
    return tuple(controls)


_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved: list = []


@contextmanager
def one_blas_thread():
    """Cap numpy's and scipy's OpenBLAS to one thread, then restore the
    caller's counts. Reentrant and thread-safe: the outermost entry of any
    thread caps, the last exit restores. A no-op without OpenBLAS.

    Small GP matrices gain nothing from BLAS threads, and on a busy machine
    the threads of several processes oversubscribe the cores. The count is
    process-wide, so the nesting depth is module state under a lock."""
    global _blas_depth, _blas_saved
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = [(set_, get()) for get, set_ in _openblas_thread_controls()]
            for set_, _ in _blas_saved:
                set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for set_, count in _blas_saved:
                    set_(count)


def _load_gp_libraries() -> None:
    """Bind ``optimize`` and ``lapack`` as module globals, each only if it is
    not already bound (so a test's stand-in stays in place)."""
    global optimize, lapack
    if "optimize" not in globals():
        from scipy import optimize
    if "lapack" not in globals():
        from scipy.linalg import lapack


def _sq_dists_per_dim(X: np.ndarray) -> np.ndarray:
    """Pairwise squared differences between the rows of X, dimension-major
    (d, n, n), so each dimension's matrix is contiguous."""
    Xt = np.ascontiguousarray(X.T)
    return (Xt[:, :, None] - Xt[:, None, :]) ** 2


def _sum_dims(parts: np.ndarray) -> np.ndarray:
    """Sum of a (d, n, n) stack over d, added in the order numpy's pairwise
    summation adds a contiguous last axis, so the result equals the
    (n, n, d) form's ``sum(axis=2)`` bit for bit."""
    d = parts.shape[0]
    if d < 8:
        return parts.sum(axis=0)
    if d <= 128:
        acc = parts[:8].copy()
        stop = d - d % 8
        for i in range(8, stop, 8):
            acc += parts[i : i + 8]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for k in range(stop, d):
            total += parts[k]
        return total
    half = d // 2
    half -= half % 8
    return _sum_dims(parts[:half]) + _sum_dims(parts[half:])


def _check_finite(X: np.ndarray, y: np.ndarray) -> None:
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("GP inputs and targets must be finite")


def _lapack_check(name: str, info: int) -> None:
    """Raise on a LAPACK call's negative info (an illegal argument)."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {name}")


def _scaled_rows(X: np.ndarray, centre: np.ndarray, lengthscales: np.ndarray):
    """Rows of X centred and divided by the lengthscales, and their squared norms."""
    A = (X - centre) / lengthscales
    return A, (A * A).sum(axis=1)


def _matern52_scaled(A, A_sq, B, B_sq, signal_var: float) -> np.ndarray:
    """Matern-5/2 kernel between scaled rows A and B with squared norms A_sq
    and B_sq, in three (rows(A), rows(B)) buffers operated on in place."""
    ab = A @ B.T
    ab *= 2.0
    r = np.add.outer(A_sq, B_sq)
    r -= ab
    np.maximum(r, 0.0, out=r)
    np.sqrt(r, out=r)
    s = np.multiply(r, SQRT5, out=ab)
    one_s = s + 1.0
    np.square(r, out=r)
    r *= 5.0 / 3.0
    r += one_s
    r *= signal_var
    np.negative(s, out=s)
    r *= np.exp(s, out=s)
    return r


def _chol_with_jitter(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K (+ jitter I), escalating jitter geometrically
    while LAPACK's dpotrf reports a leading minor that is not positive."""
    _load_gp_libraries()
    for jitter in JITTERS:
        L, info = lapack.dpotrf(K + jitter * np.eye(K.shape[0]) if jitter else K, lower=1)
        _lapack_check("dpotrf", info)
        if info == 0:
            return L, jitter
    raise NumericError("kernel matrix is not positive definite even at jitter 1e-4")


def _standardize(y: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Targets less their mean over their standard deviation (over 1 where
    that is under 1e-12, as for constant targets), with the mean and scale."""
    mean, std = float(y.mean()), float(y.std())
    scale = std if std > 1e-12 else 1.0
    return (y - mean) / scale, mean, scale


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
        if not (np.all(np.asarray(lengthscales) > 0) and signal_var > 0 and noise_var > 0):
            raise ValueError("GP hyperparameters must be positive")
        _check_finite(X, y)
        _load_gp_libraries()
        self.X = X
        self.y, self.y_mean, self.y_std = _standardize(y)
        self.lengthscales = np.asarray(lengthscales, dtype=float)
        self.signal_var = float(signal_var)
        self.noise_var = float(noise_var)

        # the training side of K and of every kernel predict evaluates
        self._centre = X.mean(axis=0)
        self._B, self._B_sq = _scaled_rows(X, self._centre, self.lengthscales)
        # a copy as the other operand: given one array as A and B, numpy
        # would form A @ A.T by a symmetric product that rounds differently
        K = _matern52_scaled(self._B.copy(), self._B_sq, self._B, self._B_sq, self.signal_var)
        K[np.diag_indices_from(K)] += self.noise_var
        self.L, self.jitter = _chol_with_jitter(K)
        self.alpha, info = lapack.dpotrs(self.L, self.y, lower=1)
        _lapack_check("dpotrs", info)

    @property
    def log_hypers(self) -> np.ndarray:
        """[log lengthscales..., log signal_var, log noise_var]."""
        return np.log(
            np.concatenate([self.lengthscales, [self.signal_var, self.noise_var]])
        )

    def predict(self, X_query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance (un-standardized) at query rows.

        Rows are scored in blocks of b = 2**14 // n_train rows, rounded down
        to a multiple of 4, the last block taking the remainder, so each
        kernel temporary holds about 2**14 doubles (128 KB) and a call needs
        O(b x n_train) memory however many rows it scores. Whole blocks keep
        OpenBLAS on the kernels one product over all rows uses (a one-row
        block would not), so on the builds tested the results equal the
        unblocked ones bit for bit."""
        Xq = np.atleast_2d(np.asarray(X_query, dtype=float))
        mean, var = np.empty(len(Xq)), np.empty(len(Xq))
        step = max(4, _PREDICT_BLOCK_ELEMENTS // len(self.X) // 4 * 4)
        edges = [k * step for k in range(max(1, len(Xq) // step))] + [len(Xq)]
        for lo, hi in zip(edges, edges[1:]):
            rows = slice(lo, hi)
            A, A_sq = _scaled_rows(Xq[rows], self._centre, self.lengthscales)
            k_star = _matern52_scaled(A, A_sq, self._B, self._B_sq, self.signal_var)
            mean[rows] = k_star @ self.alpha
            v, info = lapack.dtrtrs(self.L, k_star.T, lower=1, overwrite_b=1)
            _lapack_check("dtrtrs", info)
            var[rows] = np.einsum("ij,ij->j", v, v)
        var = np.maximum(self.signal_var - var, 0.0)
        return mean * self.y_std + self.y_mean, var * self.y_std**2


def gp_log_marginal_likelihood(
    model: GPModel, log_hypers: np.ndarray
) -> tuple[float, np.ndarray]:
    """Log marginal likelihood of the model's standardized targets at the
    given hyperparameters, with the analytic gradient.

    ``log_hypers`` is [log l_1 .. log l_d, log signal_var, log noise_var];
    the gradient is taken with respect to these log quantities.
    """
    return _lml_and_grad(model.y, np.asarray(log_hypers, dtype=float), _sq_dists_per_dim(model.X))


def _lml_and_grad(y: np.ndarray, log_hypers: np.ndarray, d2: np.ndarray):
    """LML and its gradient from the (d, n, n) per-dimension squared
    distances (GPML Alg. 2.1 through LAPACK)."""
    d, n = d2.shape[0], d2.shape[1]
    ell = np.exp(log_hypers[:d])
    sf2 = math.exp(log_hypers[d])
    sn2 = math.exp(log_hypers[d + 1])

    scaled = d2 / (ell**2)[:, None, None]
    r = np.sqrt(np.maximum(_sum_dims(scaled), 0.0))
    s = SQRT5 * r
    decay = np.exp(-s)
    one_s = 1.0 + s
    K_f = sf2 * (one_s + (5.0 / 3.0) * r**2) * decay
    K = K_f.copy()
    K.flat[:: n + 1] += sn2

    L, jitter = _chol_with_jitter(K)
    alpha, info = lapack.dpotrs(L, y, lower=1)
    _lapack_check("dpotrs", info)
    lml = (
        -0.5 * float(y @ alpha)
        - float(np.log(np.diag(L)).sum())
        - 0.5 * n * math.log(2.0 * math.pi)
    )

    # dLML/dtheta = 0.5 tr((alpha alpha^T - K^-1) dK/dtheta); dpotri gives
    # K^-1's lower triangle over L's storage, the upper one is L's zeros
    K_inv, info = lapack.dpotri(L, lower=1, overwrite_c=1)
    _lapack_check("dpotri", info)
    K_inv += K_inv.T
    K_inv.flat[:: n + 1] *= 0.5
    W = np.subtract(np.outer(alpha, alpha), K_inv, out=K_inv)

    grad = np.empty(d + 2)
    # d K / d log l_k = (5/3) sf2 (1 + sqrt5 r) exp(-sqrt5 r) * (d_k^2 / l_k^2)
    base = (5.0 / 3.0) * sf2 * one_s * decay
    grad[:d] = 0.5 * (W * (base * scaled)).sum(axis=(1, 2))
    grad[d] = 0.5 * float(np.sum(W * K_f))
    grad[d + 1] = 0.5 * sn2 * float(np.trace(W))
    return lml, grad


def fit_gp(
    X: np.ndarray,
    y: np.ndarray,
    restarts: int = 2,
    rng: np.random.Generator | None = None,
    extra_inits: tuple = (),
) -> GPModel:
    """Fit GP hyperparameters by maximizing the log marginal likelihood.

    L-BFGS over log hyperparameters from each start, keeping the best:
    first the ``extra_inits`` (e.g. a previous fit's hyperparameters), then
    the fixed default ``[log 0.5 .., log 1, log 1e-3]``, then ``restarts``
    random starts drawn from the bounded log-space. The default start is
    added only when ``restarts > 0`` or no ``extra_inits`` are given, so
    ``restarts=0, extra_inits=(warm,)`` runs the warm start alone.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] < 2:
        raise InsufficientDataError("GP fitting needs at least 2 observations")
    _check_finite(X, y)
    _load_gp_libraries()
    if rng is None:
        rng = np.random.default_rng(0)
    n, d = X.shape

    y_std, _, _ = _standardize(y)
    d2 = _sq_dists_per_dim(X)

    first = []  # (start, value): the start's own evaluation, handed to minimize once

    def objective(theta):
        if first and np.array_equal(theta, first[0][0]):
            return first.pop()[1]
        try:
            lml, grad = _lml_and_grad(y_std, theta, d2)
        except NumericError:
            return 1e25, np.zeros_like(theta)
        return -lml, -grad

    lo = np.log(np.array([LENGTHSCALE_BOUNDS[0]] * d + [SIGNAL_VAR_BOUNDS[0], NOISE_VAR_BOUNDS[0]]))
    hi = np.log(np.array([LENGTHSCALE_BOUNDS[1]] * d + [SIGNAL_VAR_BOUNDS[1], NOISE_VAR_BOUNDS[1]]))
    bounds = list(zip(lo, hi))

    inits = [np.clip(np.asarray(t, dtype=float), lo, hi) for t in extra_inits]
    if restarts > 0 or not inits:
        inits.append(np.log(np.concatenate([np.full(d, 0.5), [1.0, 1e-3]])))
    for _ in range(max(0, restarts)):
        ell0 = rng.uniform(np.log(0.05), np.log(2.0), size=d)
        sf0 = rng.uniform(np.log(0.5), np.log(2.0))
        sn0 = rng.uniform(np.log(1e-6), np.log(1e-2))
        inits.append(np.concatenate([ell0, [sf0, sn0]]))

    best_theta, best_val = None, np.inf
    for theta0 in inits:
        start_value = objective(theta0)
        first[:] = [(theta0, start_value)]
        # L-BFGS-B stops when (f_k - f_k+1) / max(|f_k|, |f_k+1|, 1) <= ftol;
        # scaling ftol by the start's |f| stops an iteration that gains under
        # _LBFGS_STOP_NATS while |LML| stays near its start value, as in a
        # warm refit. Where |LML| grows during a deep start the threshold is
        # looser. Never tighter than 1e-8, which a 1e25 penalty start keeps.
        ftol = max(1e-8, _LBFGS_STOP_NATS / max(1.0, abs(start_value[0])))
        res = optimize.minimize(
            objective,
            theta0,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": _LBFGS_MAXITER, "ftol": ftol, "gtol": 1e-4},
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


class PRFModel:
    """Probabilistic random forest: bagged variance-split regression trees
    whose leaves store the mean and variance of their training targets.

    Every tree lives in one node table, a float array with one row
    ``[feature, threshold, left, right, mean, var]`` per node; leaves have
    feature -1, and ``left``/``right`` are row indices into the same table.
    ``roots`` holds the row of each tree's root, in tree order.

    The constructor derives walk tables from the node table once: a feature
    and threshold per node, and its children in (right, left) order. A leaf
    tests feature 0 against +inf and both its children are itself, so a
    walker that reaches a leaf stays there. ``depth`` is the longest
    root-to-leaf path from the given roots, the number of passes ``predict``
    makes.

    The training rows each node holds are counted beside the table, in
    ``_counts``: ``fit_prf`` sets them, and ``_conditioned`` updates its
    copy. A forest built from a table alone has none and cannot be
    conditioned.
    """

    _counts: np.ndarray | None = None

    def __init__(self, nodes: np.ndarray, roots: np.ndarray):
        if len(roots) == 0:
            raise ValueError("forest needs at least one tree")
        self.nodes = np.asarray(nodes, dtype=float)
        self.roots = np.asarray(roots, dtype=np.int64)
        leaf = self.nodes[:, 0] < 0
        self._feature = np.where(leaf, 0, self.nodes[:, 0]).astype(np.int64)
        self._threshold = np.where(leaf, np.inf, self.nodes[:, 1])
        itself = np.arange(len(self.nodes))
        right, left = (np.where(leaf, itself, self.nodes[:, c]).astype(np.int64) for c in (3, 2))
        # walker at node k goes to _children[2k + (x <= threshold)]
        self._children = np.column_stack([right, left]).ravel()
        self.depth = 0
        level = self.roots[~leaf[self.roots]]
        while level.size:
            self.depth += 1
            level = np.concatenate([left[level], right[level]])
            level = level[~leaf[level]]

    def predict(self, X_query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ensemble mean and law-of-total-variance variance per query row.

        The trees' leaf values are added in tree order, so a row's result
        does not depend on the other rows of the call."""
        return self._moments(self._leaves(np.atleast_2d(np.asarray(X_query, dtype=float))))

    def _mean(self, X_query: np.ndarray) -> np.ndarray:
        """The ensemble mean of :meth:`predict` alone."""
        return _tree_mean(self.nodes[self._leaves(np.atleast_2d(np.asarray(X_query, dtype=float))), 4])

    def _moments(self, leaves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`predict` at rows that reach the (trees, rows) ``leaves``.
        A forest conditioned from this one shares its structure, so the
        leaves found in either index both node tables."""
        means = self.nodes[leaves, 4]
        mean = _tree_mean(means)
        var = _tree_mean(self.nodes[leaves, 5] + means**2) - mean**2
        return mean, np.maximum(var, 1e-12)

    def _leaves(self, Xq: np.ndarray) -> np.ndarray:
        """The (trees, rows) leaf rows the query rows reach. One walker per
        (tree, query row) steps one level a pass, ``depth`` passes in all,
        and goes right exactly when ``x <= threshold`` is false, so a NaN
        feature value goes right at every split."""
        n, d = Xq.shape
        node = np.repeat(self.roots, n)
        offset = np.tile(np.arange(n) * d, len(self.roots))
        flat = Xq.ravel()
        for _ in range(self.depth):
            go_left = flat[offset + self._feature[node]] <= self._threshold[node]
            node = self._children[2 * node + go_left]
        return node.reshape(len(self.roots), n)

    def _conditioned(self, X: np.ndarray, y: np.ndarray) -> PRFModel:
        """This forest told the rows (X, y) without regrowing: each row joins
        the leaf it reaches in every tree, whose row count, mean and variance
        are updated one row at a time by Welford's running rule. No split
        moves and no random draw is made; this forest's arrays stay as they
        are. Needs the row counts ``fit_prf`` keeps."""
        leaves = self._leaves(np.atleast_2d(np.asarray(X, dtype=float)))
        nodes, counts = self.nodes.copy(), self._counts.copy()
        # within one row every tree reaches its own leaf, so no index repeats
        for rows, value in zip(leaves.T, np.asarray(y, dtype=float)):
            n, mean = counts[rows], nodes[rows, 4]
            delta = value - mean
            new_mean = mean + delta / (n + 1)
            nodes[rows, 5] = (nodes[rows, 5] * n + delta * (value - new_mean)) / (n + 1)
            nodes[rows, 4], counts[rows] = new_mean, n + 1
        model = PRFModel(nodes, self.roots)
        model._counts = counts
        return model


def _tree_mean(values: np.ndarray) -> np.ndarray:
    """Mean over axis 0 of a (trees, rows) array, the trees added in order.

    This is ``values.mean(axis=0)`` bit for bit when there are two or more
    rows; for one row numpy would add the trees pairwise instead, so the
    row's result would depend on the call's row count."""
    total = values[0].copy()
    for row in values[1:]:
        total += row
    return total / len(values)


def _grow_tree(
    nodes: list,
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    min_samples_leaf: int,
    max_features: int,
) -> int:
    """Append a tree on (X, y) to the node rows, parents before children and
    the left subtree first, and return its root's row index. Each row is a
    node table row followed by the node's training row count."""
    row = len(nodes)
    n = y.shape[0]
    # the sums ndarray.mean and ndarray.var reduce by, without their wrappers
    mean = np.add.reduce(y) / n
    dev = y - mean
    y_var = float(np.add.reduce(dev * dev) / n)
    nodes.append([-1, 0.0, -1, -1, float(mean), y_var, n])
    if n < 2 * min_samples_leaf or y_var <= 0.0:
        return row

    # score every drawn feature's split positions in one sorted (n, k) pass;
    # position s sends the first s sorted rows left
    feats = rng.permutation(X.shape[1])[:max_features]
    cols = X[:, feats]
    order = np.argsort(cols, axis=0, kind="stable")
    sv = cols[order, np.arange(len(feats))]
    sy = y[order]
    csum, csum2 = np.cumsum(sy, axis=0), np.cumsum(sy**2, axis=0)
    s = np.arange(min_samples_leaf, n - min_samples_leaf + 1)
    nl = s.astype(float)[:, None]
    nr = n - nl
    sl, sl2 = csum[s - 1], csum2[s - 1]
    var_l = sl2 / nl - (sl / nl) ** 2
    var_r = (csum2[-1] - sl2) / nr - ((csum[-1] - sl) / nr) ** 2
    scores = (nl * var_l + nr * var_r) / n
    scores[sv[s - 1] == sv[s]] = np.inf  # no threshold between equal values
    # ties go to the first drawn feature, then to the first position
    j, i = divmod(int(np.argmin(scores.T)), s.size)
    if scores[i, j] == np.inf:
        return row

    cut = s[i]
    go_left, go_right = order[:cut, j], order[cut:, j]
    nodes[row][:2] = [feats[j], 0.5 * (sv[cut - 1, j] + sv[cut, j])]
    nodes[row][2] = _grow_tree(nodes, X[go_left], y[go_left], rng, min_samples_leaf, max_features)
    nodes[row][3] = _grow_tree(nodes, X[go_right], y[go_right], rng, min_samples_leaf, max_features)
    return row


def fit_prf(X: np.ndarray, y: np.ndarray, rng: np.random.Generator | None = None) -> PRFModel:
    """Fit a probabilistic random forest of _N_TREES trees.

    Each tree grows on a bootstrap resample down to leaves of at least
    _MIN_SAMPLES_LEAF rows; splits minimize the weighted child variance over
    a random subset of ceil(d * _FEATURE_FRACTION) features and all
    distinct-value midpoint thresholds.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] < 2:
        raise InsufficientDataError("forest fitting needs at least 2 observations")
    if rng is None:
        rng = np.random.default_rng(0)
    n, d = X.shape
    max_features = max(1, math.ceil(d * _FEATURE_FRACTION))
    nodes: list = []
    roots = []
    for _ in range(_N_TREES):
        idx = rng.integers(n, size=n)
        roots.append(_grow_tree(nodes, X[idx], y[idx], rng, _MIN_SAMPLES_LEAF, max_features))
    table = np.array(nodes)
    model = PRFModel(table[:, :6], np.array(roots))
    model._counts = table[:, 6]
    return model
