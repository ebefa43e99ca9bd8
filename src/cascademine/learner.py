"""Classifiers and evaluation for long/short cascade prediction.

Two learners, both written against plain numpy arrays:

* elastic-net logistic regression fit by proximal gradient descent (gradient
  step on the smooth log-loss + ridge part, soft-threshold for the L1 part),
  with per-feature standardization learned from the training data only;
* gradient-boosted regression trees on the logistic loss: each stage fits an
  axis-aligned squared-error tree to the current residuals y - p and assigns
  leaf values with a Newton step sum(r) / sum(p * (1 - p)). The split search
  is the exact greedy "column block" one of XGBoost (Chen & Guestrin, KDD
  2016): every feature column is sorted once per training set, a node filters
  its parent's per-feature orders with its own row mask (a stable filter, so
  tied values stay in ascending row order; the root needs none), and gains
  are computed only at the candidate splits, where the sorted value changes
  and both sides keep ``min_leaf`` rows (the root's found once per fit). The
  residual cumsum still runs over each whole sorted row, so the gains are bit
  for bit those of scoring every position. Within a feature the lowest
  threshold among equal gains wins; a later feature replaces an earlier one
  only if it gains more than 1e-15 more.

Evaluation is stratified k-fold cross-validation with the ROC pooled over
out-of-fold scores and AUC by the trapezoid rule; it fits one model per fold
and nothing else. :func:`cross_validate` runs the folds in turn; the
``evaluate`` stage takes the fold fits of every city and learner from
:func:`cv_plan` and runs them in one pool. The scores, and so the report,
are the same either way. Feature importance is read from a model fitted on
all rows (the `train` stage's) and follows the depth of the decision nodes
that use a feature: each split contributes 2**(-depth), so a root split
counts 1, its children 1/2, and so on; split gain totals are kept alongside
as a secondary ranking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

MAX_LEAF_VALUE = 10.0  # Newton leaf updates are clipped to keep stages stable
LOGREG_TOL = 1e-10  # proximal gradient stops once the objective moves less than this


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def log_loss(raw: np.ndarray, y: np.ndarray) -> float:
    """Mean logistic loss of raw scores (log-odds) against 0/1 labels."""
    return float(np.mean(np.logaddexp(0.0, raw) - y * raw))


def _check_binary(y: np.ndarray) -> None:
    classes = np.unique(y)
    if not np.all(np.isin(classes, (0, 1))):
        raise ValueError("labels must be 0/1")
    if len(classes) < 2:
        raise ValueError("need both classes present")


def _check_finite(X: np.ndarray) -> None:
    # a -inf/+inf pair would put a split threshold at NaN, any of them a score
    bad = np.flatnonzero(~np.isfinite(X).all(axis=0))
    if bad.size:
        raise ValueError(f"feature column {bad[0]} has non-finite values")


# ---------------------------------------------------------------------------
# elastic-net logistic regression


@dataclass
class LogRegModel:
    weights: np.ndarray
    bias: float
    feature_mean: np.ndarray
    feature_std: np.ndarray
    n_iter: int = 0

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        Xs = (np.asarray(X, dtype=np.float64) - self.feature_mean) / self.feature_std
        return sigmoid(Xs @ self.weights + self.bias)


def logistic_smooth_objective(w: np.ndarray, b: float, Xs: np.ndarray, y: np.ndarray,
                              l2: float, raw: np.ndarray | None = None) -> float:
    """Differentiable part of the objective: mean log-loss + (l2/2)||w||^2.
    ``raw``, when the caller has it, is the scores ``Xs @ w + b``."""
    if raw is None:
        raw = Xs @ w + b
    return log_loss(raw, y) + 0.5 * l2 * float(w @ w)


def logistic_smooth_grad(w: np.ndarray, b: float, Xs: np.ndarray, y: np.ndarray,
                         l2: float, raw: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Analytic gradient of logistic_smooth_objective in (w, b); ``raw`` as there."""
    n = len(y)
    if raw is None:
        raw = Xs @ w + b
    residual = sigmoid(raw) - y
    return Xs.T @ residual / n + l2 * w, float(residual.mean())


def elastic_net_objective(w: np.ndarray, b: float, Xs: np.ndarray, y: np.ndarray,
                          l1: float, l2: float, raw: np.ndarray | None = None) -> float:
    return logistic_smooth_objective(w, b, Xs, y, l2, raw) + l1 * float(np.abs(w).sum())


def _soft_threshold(w: np.ndarray, t: float) -> np.ndarray:
    return np.sign(w) * np.maximum(np.abs(w) - t, 0.0)


def train_logreg(X: np.ndarray, y: np.ndarray, l1: float = 0.0, l2: float = 0.0,
                 epochs: int = 500) -> LogRegModel:
    """Proximal gradient descent on standardized features.

    The step is 1/L with L the Lipschitz constant of the smooth gradient
    bounded by lambda_max([Xs 1]^T [Xs 1]) / (4n) + l2.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_binary(y)
    if l1 < 0 or l2 < 0:
        raise ValueError("penalties must be nonnegative")
    _check_finite(X)

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    Xs = (X - mean) / std
    n, d = Xs.shape

    aug = np.hstack([Xs, np.ones((n, 1))])
    lam_max = float(np.linalg.eigvalsh(aug.T @ aug).max())
    step = 1.0 / (lam_max / (4.0 * n) + l2 + 1e-12)

    w = np.zeros(d)
    b = 0.0
    raw = Xs @ w + b  # the scores of (w, b), for its objective and the next gradient
    prev = np.inf
    n_iter = 0
    for n_iter in range(1, epochs + 1):
        grad_w, grad_b = logistic_smooth_grad(w, b, Xs, y, l2, raw)
        w = _soft_threshold(w - step * grad_w, step * l1)
        b -= step * grad_b
        raw = Xs @ w + b
        obj = elastic_net_objective(w, b, Xs, y, l1, l2, raw)
        if abs(prev - obj) < LOGREG_TOL:
            break
        prev = obj
    return LogRegModel(w, b, mean, std, n_iter)


# ---------------------------------------------------------------------------
# gradient-boosted trees


@dataclass
class Tree:
    """Flat regression tree; node 0 is the root. feature[i] < 0 marks a leaf."""

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)
    depth: list[int] = field(default_factory=list)
    gain: list[float] = field(default_factory=list)

    def add_node(self, depth: int) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        self.depth.append(depth)
        self.gain.append(0.0)
        return len(self.feature) - 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X), dtype=np.float64)
        stack = [(0, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if self.feature[node] < 0:
                out[idx] = self.value[node]
                continue
            go_left = X[idx, self.feature[node]] <= self.threshold[node]
            stack.append((self.left[node], idx[go_left]))
            stack.append((self.right[node], idx[~go_left]))
        return out


def _candidates(xs: np.ndarray, min_leaf: int):
    """Where sorted values ``xs`` (features, n >= 2 * min_leaf) can split: where
    x changes, with ``min_leaf`` rows or more on each side. Returns each one's
    left size and flat index in ``xs`` of its last left row, in (feature,
    position) order, and ``starts``: feature f's are ``starts[f]:starts[f + 1]``."""
    d, n = xs.shape
    m = n - 2 * min_leaf + 1  # positions min_leaf - 1 .. n - min_leaf - 1
    f, j = np.divmod(np.flatnonzero(xs[:, min_leaf - 1:n - min_leaf]
                                    != xs[:, min_leaf:n - min_leaf + 1]), m)
    sizes = j + min_leaf
    return sizes, f * n + (sizes - 1), np.searchsorted(f, np.arange(d + 1))


def _best_split(xs: np.ndarray, rs: np.ndarray, total: float, min_leaf: int,
                candidates=None):  # candidates: _candidates(xs, min_leaf), if known
    """Greedy squared-error split of one node: maximize S_L^2/n_L + S_R^2/n_R - S^2/n.

    Row f of ``xs`` and ``rs`` holds feature f's values and the residuals of
    the node's rows in ascending order of that feature, ties in ascending row
    order; ``total`` is the residual sum in ascending row order. Returns
    (gain, feature, threshold) or None. Ties resolve to the lowest threshold of
    a feature, then to the lowest feature index unless a later one gains more
    than 1e-15 more, so training is deterministic for a fixed row order.
    """
    d, n = xs.shape
    if n < 2 * min_leaf:
        return None
    sizes, last, starts = candidates or _candidates(xs, min_leaf)
    if not sizes.size:
        return None
    parent = total * total / n
    # gains at the candidates alone, from the sequential cumsum of each whole row
    s_left = np.cumsum(rs, axis=1).ravel()[last]
    # s_left**2 / sizes + (total - s_left)**2 / (n - sizes) - parent, in place
    gain = s_left * s_left
    gain /= sizes
    right = total - s_left
    right *= right
    right /= n - sizes
    gain += right
    gain -= parent
    some = starts[1:] > starts[:-1]
    best_gain = np.full(d, -np.inf)
    best_gain[some] = np.maximum.reduceat(gain, starts[:-1][some])
    best = None
    for f in np.flatnonzero(best_gain > 1e-12).tolist():
        if best is None or best_gain[f] > best_gain[best] + 1e-15:
            best = f
    if best is None:
        return None
    i = last[starts[best] + np.argmax(gain[starts[best]:starts[best + 1]])]
    x = xs.ravel()
    return float(best_gain[best]), best, float(0.5 * (x[i] + x[i + 1]))


def _fit_tree(XT: np.ndarray, orders: np.ndarray, xs: np.ndarray, root, r: np.ndarray,
              hess: np.ndarray, max_depth: int, min_leaf: int) -> tuple[Tree, np.ndarray]:
    """Grow one tree on all rows, given each feature's presorted row ``orders``
    and sorted values ``xs``, and their ``_candidates`` (None: too few rows).

    Nodes grow from a work list that takes the left child first, so they are
    numbered in preorder and no tree depth reaches Python's recursion limit.
    A child below the depth limit filters its parent's orders and values with
    its own row mask, which keeps them sorted with ties in ascending row order;
    a pending child holds only its own rows' arrays. Returns the tree and
    every training row's leaf value.
    """
    tree = Tree()
    fitted = np.empty(len(r), dtype=np.float64)
    d = len(orders)
    # (row mask, its orders and sorted values, depth, the parent link to set)
    work = [(np.ones(len(r), dtype=bool), orders, xs, 0, None)]
    while work:
        rows, orders, xs, depth, link = work.pop()
        node = tree.add_node(depth)
        if link is not None:
            side, parent = link
            side[parent] = node
        total = r[rows].sum()
        split = None
        if depth < max_depth:
            split = _best_split(xs, r[orders], total, min_leaf, None if depth else root)
        if split is None:
            den = max(hess[rows].sum(), 1e-12)
            value = float(np.clip(total / den, -MAX_LEAF_VALUE, MAX_LEAF_VALUE))
            tree.value[node] = value
            fitted[rows] = value
            continue
        gain, f, threshold = split
        go_left = XT[f] <= threshold
        tree.feature[node] = f
        tree.threshold[node] = threshold
        tree.gain[node] = gain
        for side, child in ((tree.right, rows & ~go_left), (tree.left, rows & go_left)):
            child_orders = child_xs = None
            if depth + 1 < max_depth:
                keep = np.flatnonzero(child[orders])
                n_child = len(keep) // d
                child_orders = orders.ravel()[keep].reshape(d, n_child)
                child_xs = xs.ravel()[keep].reshape(d, n_child)
            work.append((child, child_orders, child_xs, depth + 1, (side, node)))
    return tree, fitted


@dataclass
class GbdtModel:
    trees: list[Tree]
    learning_rate: float
    base_score: float  # log-odds of the training base rate

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        raw = np.full(len(X), self.base_score)
        for tree in self.trees:
            raw += self.learning_rate * tree.predict(X)
        return raw

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.raw_scores(X))


def train_gbdt(X: np.ndarray, y: np.ndarray, n_trees: int = 100, max_depth: int = 3,
               learning_rate: float = 0.1, min_leaf: int = 5) -> GbdtModel:
    """Stagewise boosting of squared-error trees on logistic-loss residuals."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_binary(y)
    if not 0.0 < learning_rate <= 1.0:
        raise ValueError("learning_rate must be in (0, 1]")
    if n_trees < 0 or max_depth < 1 or min_leaf < 1:
        raise ValueError("bad tree hyperparameters")
    _check_finite(X)

    p0 = float(np.clip(y.mean(), 1e-6, 1.0 - 1e-6))
    base = float(np.log(p0 / (1.0 - p0)))
    raw = np.full(len(y), base)
    XT = np.ascontiguousarray(X.T)
    orders = np.argsort(XT, axis=1, kind="stable")
    xs = np.take_along_axis(XT, orders, axis=1)
    root = _candidates(xs, min_leaf) if len(y) >= 2 * min_leaf else None
    trees: list[Tree] = []
    for _ in range(n_trees):
        p = sigmoid(raw)
        tree, fitted = _fit_tree(XT, orders, xs, root, y - p, p * (1.0 - p), max_depth,
                                 min_leaf)
        trees.append(tree)
        raw += learning_rate * fitted
    return GbdtModel(trees, learning_rate, base)


def feature_importance(model: GbdtModel, feature_names: Sequence[str]
                       ) -> list[tuple[str, float]]:
    """Rank features by sum of 2**(-depth) over the decision nodes using them.

    Shallower use counts more; a feature split at the root of one tree scores
    1.0 from that node. Ties break by feature index.
    """
    return _node_scores(model, lambda tree, node: 2.0 ** (-tree.depth[node]), feature_names)


def split_gain_importance(model: GbdtModel, feature_names: Sequence[str]
                          ) -> list[tuple[str, float]]:
    """Secondary ranking: total squared-error gain of each feature's splits."""
    return _node_scores(model, lambda tree, node: tree.gain[node], feature_names)


def _node_scores(model: GbdtModel, node_score: Callable,
                 feature_names: Sequence[str]) -> list[tuple[str, float]]:
    totals = np.zeros(len(feature_names))
    for tree in model.trees:
        for node, f in enumerate(tree.feature):
            if f >= 0:
                totals[f] += node_score(tree, node)
    order = sorted(range(len(feature_names)), key=lambda i: (-totals[i], i))
    return [(feature_names[i], float(totals[i])) for i in order]


# ---------------------------------------------------------------------------
# cross-validation and metrics


def stratified_folds(y: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Fold index per example; class counts per fold differ by at most one."""
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(y), dtype=np.int64)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        assignment[idx] = np.arange(len(idx)) % folds
    return assignment


def roc_curve(scores: np.ndarray, y: np.ndarray) -> list[tuple[float, float, float]]:
    """(fpr, tpr, threshold) points from (0,0) to (1,1), one step per distinct
    score, descending threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs both classes")
    if not np.all(np.isfinite(scores)):
        raise ValueError("ROC needs finite scores")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_y = y[order]
    # One point per tie group: counts up to the group's last member, threshold
    # from its first (0.0 and -0.0 tie, and the first one's sign is reported).
    ends = np.flatnonzero(np.append(sorted_scores[1:] != sorted_scores[:-1], True))
    starts = np.append(0, ends[:-1] + 1)
    tp = np.cumsum(sorted_y == 1)[ends].tolist()
    fp = np.cumsum(sorted_y == 0)[ends].tolist()
    thresholds = sorted_scores[starts].tolist()
    return [(0.0, 0.0, float("inf"))] + [
        (f / n_neg, t / n_pos, thr) for f, t, thr in zip(fp, tp, thresholds)]


def auc_trapezoid(points: Sequence[tuple[float, float, float]]) -> float:
    total = 0.0
    for (x0, y0, _), (x1, y1, _) in zip(points, points[1:]):
        total += (x1 - x0) * (y1 + y0) / 2.0
    return total


@dataclass
class CrossValReport:
    fold_accuracies: list[float]
    mean_accuracy: float
    roc: list[tuple[float, float, float]]
    auc: float


FitFunction = Callable[[np.ndarray, np.ndarray], object]


class TooFewExamples(ValueError):
    """A class has fewer examples than there are folds."""


def cv_plan(X: np.ndarray, y: np.ndarray, fit: FitFunction, folds: int = 5,
            seed: int = 0) -> tuple[Callable, Callable]:
    """:func:`cross_validate` in two halves, after its checks, which raise here:
    ``fold_scores(f)`` fits fold f and returns its out-of-fold scores, and
    ``report(scores)`` builds the report from every fold's scores in order."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    _check_binary(y)
    for cls in (0, 1):
        if int((y == cls).sum()) < folds:
            raise TooFewExamples(f"need at least {folds} examples of class {cls}")

    assignment = stratified_folds(y, folds, seed)

    def fold_scores(f: int) -> np.ndarray:
        test = assignment == f
        return fit(X[~test], y[~test]).predict_proba(X[test])

    def report(scores: Iterable[np.ndarray]) -> CrossValReport:
        pooled_scores = np.empty(len(y), dtype=np.float64)
        fold_acc = []
        for f, proba in enumerate(scores):
            test = assignment == f
            pooled_scores[test] = proba
            fold_acc.append(float(np.mean((proba >= 0.5).astype(np.int64) == y[test])))
        points = roc_curve(pooled_scores, y)
        return CrossValReport(fold_acc, float(np.mean(fold_acc)), points, auc_trapezoid(points))

    return fold_scores, report


def cross_validate(X: np.ndarray, y: np.ndarray, fit: FitFunction, folds: int = 5,
                   seed: int = 0) -> CrossValReport:
    """Stratified k-fold CV; the ROC pools out-of-fold scores from all folds.

    ``fit`` is called exactly ``folds`` times, each on the training folds
    only, so any inner standardization never sees test rows. No model is fit
    on all rows here: the `train` stage's full-data fit is the one importance
    comes from. The folds run here, in turn.
    """
    fold_scores, report = cv_plan(X, y, fit, folds, seed)
    return report(map(fold_scores, range(folds)))
