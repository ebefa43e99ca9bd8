import os
import pickle

import numpy as np
import pytest

from cascademine.learner import (GbdtModel, Tree, auc_trapezoid, cross_validate,
                                 elastic_net_objective, feature_importance, log_loss,
                                 logistic_smooth_grad, logistic_smooth_objective,
                                 roc_curve, sigmoid, split_gain_importance,
                                 stratified_folds, train_gbdt, train_logreg)
from cascademine.util import fork_map
from oracles import mann_whitney_auc, reference_train_gbdt, roc_by_walking, staged_raw_scores


def separable_1d(n=60):
    X = np.concatenate([np.linspace(-3, -1, n // 2), np.linspace(1, 3, n // 2)])
    y = (X > 0).astype(np.int64)
    return X.reshape(-1, 1), y


def xor_data(rng, n=200):
    bits = rng.integers(0, 2, size=(n, 2))
    X = bits + rng.normal(0, 0.08, size=(n, 2))
    y = (bits[:, 0] ^ bits[:, 1]).astype(np.int64)
    return X, y


class TestLogReg:
    def test_separable_reaches_full_accuracy(self):
        X, y = separable_1d()
        model = train_logreg(X, y, l1=0.01, l2=0.01, epochs=2000)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_huge_l1_zeroes_weights_and_bias_predicts_prior(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 5))
        y = (rng.random(200) < 0.7).astype(np.int64)
        model = train_logreg(X, y, l1=1e3, l2=0.0, epochs=3000)
        assert np.all(model.weights == 0.0)
        assert sigmoid(model.bias) == pytest.approx(y.mean(), abs=0.01)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(40, 6))
        y = (rng.random(40) < 0.5).astype(np.int64)
        y[0], y[1] = 0, 1
        Xs = (X - X.mean(0)) / X.std(0)
        l2 = 0.3
        eps = 1e-6
        for _ in range(20):
            w = rng.normal(size=6)
            b = float(rng.normal())
            grad_w, grad_b = logistic_smooth_grad(w, b, Xs, y, l2)
            for j in range(6):
                e = np.zeros(6)
                e[j] = eps
                fd = (logistic_smooth_objective(w + e, b, Xs, y, l2)
                      - logistic_smooth_objective(w - e, b, Xs, y, l2)) / (2 * eps)
                assert abs(fd - grad_w[j]) / max(abs(fd), abs(grad_w[j]), 1e-12) < 1e-5
            fd_b = (logistic_smooth_objective(w, b + eps, Xs, y, l2)
                    - logistic_smooth_objective(w, b - eps, Xs, y, l2)) / (2 * eps)
            assert abs(fd_b - grad_b) / max(abs(fd_b), abs(grad_b), 1e-12) < 1e-5

    def test_objective_convex_midpoint(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 4))
        y = (rng.random(50) < 0.5).astype(np.int64)
        y[:2] = [0, 1]
        Xs = (X - X.mean(0)) / X.std(0)
        for _ in range(50):
            w1, w2 = rng.normal(size=4), rng.normal(size=4)
            b1, b2 = float(rng.normal()), float(rng.normal())
            mid = elastic_net_objective((w1 + w2) / 2, (b1 + b2) / 2, Xs, y, 0.05, 0.1)
            avg = (elastic_net_objective(w1, b1, Xs, y, 0.05, 0.1)
                   + elastic_net_objective(w2, b2, Xs, y, 0.05, 0.1)) / 2
            assert mid <= avg + 1e-9

    def test_single_class_rejected(self):
        X = np.zeros((10, 2))
        with pytest.raises(ValueError):
            train_logreg(X, np.ones(10))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_feature_rejected(self, bad):
        X, y = separable_1d()
        X = np.hstack([X, X])
        X[7, 1] = bad
        with pytest.raises(ValueError, match="feature column 1 has non-finite values"):
            train_logreg(X, y)

    def test_standardization_from_training_data(self):
        X, y = separable_1d()
        model = train_logreg(X, y, epochs=100)
        assert model.feature_mean[0] == pytest.approx(X.mean())
        assert model.feature_std[0] == pytest.approx(X.std())


class TestGbdt:
    def test_xor_learnable(self, rng):
        X, y = xor_data(rng)
        model = train_gbdt(X, y, n_trees=50, max_depth=2, learning_rate=0.1)
        assert np.mean(model.predict(X) == y) >= 0.95

    def test_zero_trees_predicts_base_rate(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = np.array([0] * 14 + [1] * 6)
        model = train_gbdt(X, y, n_trees=0)
        assert np.allclose(model.predict_proba(X), 0.3)

    def test_training_loss_nonincreasing(self, rng):
        X = rng.normal(size=(150, 5))
        y = (rng.random(150) < 0.5).astype(np.int64)
        y[:2] = [0, 1]
        model = train_gbdt(X, y, n_trees=40, max_depth=3, learning_rate=0.1)
        losses = [log_loss(raw, y) for raw in staged_raw_scores(model, X)]
        assert len(losses) == 41
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-12

    def test_deterministic_given_input(self, rng):
        X = rng.normal(size=(100, 4))
        y = (X[:, 0] + rng.normal(0, 0.4, 100) > 0).astype(np.int64)
        m1 = train_gbdt(X, y, n_trees=10)
        m2 = train_gbdt(X, y, n_trees=10)
        assert np.array_equal(m1.raw_scores(X), m2.raw_scores(X))

    def test_depth_respected(self, rng):
        X = rng.normal(size=(200, 3))
        y = (rng.random(200) < 0.5).astype(np.int64)
        y[:2] = [0, 1]
        model = train_gbdt(X, y, n_trees=5, max_depth=2)
        for tree in model.trees:
            for node, f in enumerate(tree.feature):
                if f >= 0:
                    assert tree.depth[node] < 2
                assert tree.depth[node] <= 2

    def test_min_leaf_respected(self, rng):
        X = rng.normal(size=(60, 2))
        y = (rng.random(60) < 0.5).astype(np.int64)
        y[:2] = [0, 1]
        model = train_gbdt(X, y, n_trees=5, max_depth=4, min_leaf=10)
        for tree in model.trees:
            # count samples reaching each leaf
            raw = tree.predict(X)
            leaves = {}
            for node, f in enumerate(tree.feature):
                if f < 0:
                    leaves[node] = 0
            stack = [(0, np.arange(len(X)))]
            while stack:
                node, idx = stack.pop()
                if tree.feature[node] < 0:
                    assert len(idx) >= 10
                    continue
                go_left = X[idx, tree.feature[node]] <= tree.threshold[node]
                stack.append((tree.left[node], idx[go_left]))
                stack.append((tree.right[node], idx[~go_left]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_feature_rejected(self, rng, bad):
        X = rng.normal(size=(40, 3))
        y = (X[:, 0] > 0).astype(np.int64)
        X[5, 2] = bad
        X[9, 2] = -bad  # with inf, a -inf/+inf neighbour pair in one column
        with pytest.raises(ValueError, match="feature column 2 has non-finite values"):
            train_gbdt(X, y, n_trees=3)


def tie_heavy_columns(rng, n: int, d: int) -> np.ndarray:
    """Columns of mixed kinds: continuous, few integer levels, constant, and
    0.0/-0.0/1.0 (signed zeros compare equal)."""
    cols = []
    for _ in range(d):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            cols.append(rng.normal(size=n))
        elif kind == 1:
            cols.append(rng.integers(0, int(rng.integers(2, 5)), size=n).astype(float))
        elif kind == 2:
            cols.append(np.full(n, float(rng.normal())))
        else:
            cols.append(rng.choice([0.0, -0.0, 1.0], size=n))
    return np.column_stack(cols)


class TestGbdtMatchesReference:
    """The presorted split search grows the same trees, bit for bit, as the
    per-node argsort search in tests/oracles.py."""

    @staticmethod
    def assert_same_model(X, y, **params):
        got = train_gbdt(X, y, **params)
        want = reference_train_gbdt(X, y, **params)
        assert pickle.dumps(got) == pickle.dumps(want), params

    @pytest.mark.parametrize("seed", range(40))
    def test_random_tie_heavy_data(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 90))
        X = tie_heavy_columns(rng, n, int(rng.integers(1, 7)))
        y = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(np.int64)
        y[:2] = [0, 1]
        self.assert_same_model(X, y, n_trees=int(rng.integers(1, 8)),
                               max_depth=int(rng.integers(1, 6)),
                               min_leaf=int(rng.integers(1, 9)),
                               learning_rate=float(rng.uniform(0.05, 1.0)))

    def test_too_few_rows_to_split(self, rng):
        X = tie_heavy_columns(rng, 9, 3)
        y = np.array([0, 1] * 4 + [1])
        self.assert_same_model(X, y, n_trees=3, max_depth=3, min_leaf=5)

    @pytest.mark.parametrize("seed", range(3))
    def test_benchmark_shape(self, seed):
        # a full_paper city at the default hyperparameters: about 240 rows of
        # 30 features, each with 2 to 240 distinct values
        rng = np.random.default_rng(seed)
        n = 240
        levels = np.concatenate([[2, n], rng.integers(2, n + 1, size=28)])
        X = np.column_stack([rng.normal(size=k)[np.arange(n) % k][rng.permutation(n)]
                             for k in levels])
        y = (X[:, 3] + X[:, 7] + rng.normal(size=n) > 0).astype(np.int64)
        self.assert_same_model(X, y, n_trees=100, max_depth=3, min_leaf=5)

    def test_root_without_candidate_split(self, rng):
        # every column changes only where one side would hold fewer than min_leaf rows
        X = np.zeros((20, 3))
        X[0, 0] = X[[4, 9], 1] = 1.0
        X[:, 2] = 7.0
        y = np.array([0, 1] * 10)
        self.assert_same_model(X, y, n_trees=4, max_depth=3, min_leaf=5)
        assert all(tree.feature == [-1] for tree in train_gbdt(X, y, n_trees=4, min_leaf=5).trees)

    def test_min_leaf_above_half_the_rows(self, rng):
        X = tie_heavy_columns(rng, 30, 4)
        y = np.array([0, 1] * 15)
        self.assert_same_model(X, y, n_trees=5, max_depth=3, min_leaf=16)
        assert all(tree.feature == [-1] for tree in train_gbdt(X, y, n_trees=5, min_leaf=16).trees)

    @pytest.mark.parametrize("max_depth", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("min_leaf", [1, 2, 5, 8])
    def test_depth_and_leaf_grid(self, rng, max_depth, min_leaf):
        X = tie_heavy_columns(rng, 120, 5)
        y = (X[:, 0] + rng.normal(0, 1.0, 120) > 0).astype(np.int64)
        y[:2] = [0, 1]
        self.assert_same_model(X, y, n_trees=6, max_depth=max_depth, min_leaf=min_leaf)


class TestImportance:
    def manual_tree(self, feature, depth):
        tree = Tree()
        root = tree.add_node(0)
        tree.feature[root] = feature
        tree.threshold[root] = 0.0
        tree.gain[root] = 2.5
        left = tree.add_node(1)
        right = tree.add_node(1)
        tree.left[root], tree.right[root] = left, right
        tree.value[left], tree.value[right] = -1.0, 1.0
        return tree

    def test_single_root_split_scores_one(self):
        model = GbdtModel([self.manual_tree(3, 0)], 0.1, 0.0)
        ranking = feature_importance(model, [f"f{i}" for i in range(5)])
        assert ranking[0] == ("f3", 1.0)
        assert all(score == 0.0 for _, score in ranking[1:])

    def test_zero_trees_all_zero(self):
        model = GbdtModel([], 0.1, 0.0)
        ranking = feature_importance(model, [f"f{i}" for i in range(4)])
        assert all(score == 0.0 for _, score in ranking)
        assert [name for name, _ in ranking] == ["f0", "f1", "f2", "f3"]

    def test_planted_feature_ranked_first(self, rng):
        n = 400
        y = rng.integers(0, 2, size=n)
        X = rng.normal(size=(n, 8))
        X[:, 5] = y + rng.normal(0, 0.3, size=n)
        model = train_gbdt(X, y.astype(np.int64), n_trees=30, max_depth=3)
        assert feature_importance(model, [f"f{i}" for i in range(8)])[0][0] == "f5"
        assert split_gain_importance(model, [f"f{i}" for i in range(8)])[0][0] == "f5"

    def test_depth_weighting(self):
        # one split at depth 0 on f0 outweighs two splits at depth 1 on f1
        tree = Tree()
        root = tree.add_node(0)
        tree.feature[root], tree.threshold[root] = 0, 0.0
        l, r = tree.add_node(1), tree.add_node(1)
        tree.left[root], tree.right[root] = l, r
        for node in (l, r):
            tree.feature[node], tree.threshold[node] = 1, 0.0
            a, b = tree.add_node(2), tree.add_node(2)
            tree.left[node], tree.right[node] = a, b
        model = GbdtModel([tree], 0.1, 0.0)
        scores = dict(feature_importance(model, [f"f{i}" for i in range(2)]))
        assert scores["f0"] == 1.0
        assert scores["f1"] == 1.0  # 2 * 2^-1; ties break to lower index
        assert feature_importance(model, [f"f{i}" for i in range(2)])[0][0] == "f0"


class TestCrossValidation:
    def test_perfectly_separable(self):
        X, y = separable_1d(100)
        report = cross_validate(X, y, lambda X, y: train_logreg(X, y, epochs=2000),
                                folds=5, seed=0)
        assert report.mean_accuracy == 1.0
        assert report.auc == 1.0

    def test_fold_partition_and_stratification(self, rng):
        y = (rng.random(103) < 0.45).astype(np.int64)
        y[:2] = [0, 1]
        assignment = stratified_folds(y, 5, seed=3)
        assert len(assignment) == 103
        assert set(assignment) == set(range(5))
        for cls in (0, 1):
            counts = np.bincount(assignment[y == cls], minlength=5)
            assert counts.max() - counts.min() <= 1

    def test_fit_never_sees_test_fold(self, rng):
        X = rng.normal(size=(60, 3))
        y = np.array([0, 1] * 30)
        seen = []

        class Dummy:
            def predict_proba(self, X):
                return np.full(len(X), 0.5)

        def spy_fit(Xtr, ytr):
            seen.append(Xtr.copy())
            return Dummy()

        report = cross_validate(X, y, spy_fit, folds=5, seed=1)
        assignment = stratified_folds(y, 5, seed=1)
        for fold in range(5):
            train_rows = X[assignment != fold]
            assert np.array_equal(seen[fold], train_rows)
        # perturbing a test fold's features leaves that fold's training set alone
        X2 = X.copy()
        X2[assignment == 2] += 100.0
        seen.clear()
        cross_validate(X2, y, spy_fit, folds=5, seed=1)
        assert np.array_equal(seen[2], X[assignment != 2])

    def test_auc_equals_mann_whitney(self, rng):
        for _ in range(10):
            scores = np.round(rng.random(80), 2)  # rounding forces ties
            y = (rng.random(80) < 0.5).astype(np.int64)
            y[:2] = [0, 1]
            points = roc_curve(scores, y)
            assert abs(auc_trapezoid(points) - mann_whitney_auc(scores, y)) < 1e-10

    def test_roc_matches_walk_with_heavy_ties(self, rng):
        for case in range(300):
            n = int(rng.integers(2, 40))
            levels = np.array([-1.5, -0.0, 0.0, 0.25, 0.25, 0.5, 3.0])
            scores = rng.choice(levels[: int(rng.integers(1, len(levels) + 1))], size=n)
            y = rng.integers(0, 2, size=n)
            y[:2] = [0, 1]
            got = roc_curve(scores, y)
            assert repr(got) == repr(roc_by_walking(scores, y)), case

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_roc_rejects_non_finite_scores(self, bad):
        with pytest.raises(ValueError, match="finite"):
            roc_curve(np.array([0.2, bad, 0.7]), np.array([0, 1, 1]))

    def test_roc_monotone_and_endpoints(self, rng):
        scores = rng.random(50)
        y = (rng.random(50) < 0.5).astype(np.int64)
        y[:2] = [0, 1]
        points = roc_curve(scores, y)
        assert points[0][:2] == (0.0, 0.0)
        assert points[-1][:2] == (1.0, 1.0)
        fprs = [p[0] for p in points]
        tprs = [p[1] for p in points]
        assert fprs == sorted(fprs)
        assert tprs == sorted(tprs)

    def test_permutation_null_near_half(self):
        inside = 0
        seeds = range(12)
        for seed in seeds:
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(500, 10))
            y = np.array([0, 1] * 250)
            rng.shuffle(y)
            report = cross_validate(
                X, y, lambda X, y: train_logreg(X, y, l2=1e-2, epochs=200),
                folds=5, seed=seed)
            if 0.4 <= report.mean_accuracy <= 0.6 and 0.4 <= report.auc <= 0.6:
                inside += 1
        assert inside >= len(seeds) - 1

    def test_too_few_examples_rejected(self):
        X = np.zeros((6, 2))
        y = np.array([0, 0, 0, 1, 1, 1])
        with pytest.raises(ValueError, match="at least 5"):
            cross_validate(X, y, lambda X, y: train_logreg(X, y), folds=5)

    def test_fit_called_once_per_fold(self, rng):
        X = rng.normal(size=(80, 4))
        y = (X[:, 1] > 0).astype(np.int64)
        calls = []

        def counting_fit(Xtr, ytr):
            calls.append(len(ytr))
            return train_gbdt(Xtr, ytr, n_trees=10)

        cross_validate(X, y, counting_fit, folds=4, seed=0)
        assert len(calls) == 4
        assert all(n < len(y) for n in calls)  # no fit on all rows

    def test_forked_folds_report_equals_serial(self, rng, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        X = rng.normal(size=(120, 4))
        y = (X[:, 0] + rng.normal(size=120) > 0).astype(np.int64)
        for fit in (lambda A, b: train_gbdt(A, b, n_trees=10), train_logreg):
            serial = cross_validate(X, y, fit, folds=5, seed=2)
            forked = cross_validate(X, y, fit, folds=5, seed=2, mapper=fork_map)
            assert pickle.dumps(forked) == pickle.dumps(serial)
