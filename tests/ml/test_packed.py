"""Bit-parity and pickle-form tests for the packed ensemble engine.

The contract under test (see ROADMAP "packed prediction contract"): packed
predictions are **byte-identical** to the historical per-tree object path for
every ensemble and seed, and the packed arena is the pickle form of fitted
ensembles.  Reference implementations in this module deliberately spell out
the pre-packed code paths (per-tree ``predict`` loops, per-leaf masked
medians, per-node depth walks) so a regression in either side breaks parity.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.ml.adaboost import AdaBoostRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.gradient_boosting import GradientBoostingRegressor
from repro.ml.linear import LinearRegression
from repro.ml.packed import (
    _BLOCK_SAMPLES,
    PACKED_STATE_VERSION,
    PackedEnsemble,
    committee_predictions,
    pack_trees_state,
    running_sums,
    unpack_trees_state,
)
from repro.ml.tree import _TREE_LEAF, _TREE_UNDEFINED, DecisionTreeRegressor


def _make_data(seed: int, n: int = 120, n_features: int = 4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features))
    y = X[:, 0] ** 2 + np.sin(3.0 * X[:, 1]) - X[:, 2] * X[:, 3] + 0.1 * rng.normal(size=n)
    X_new = rng.normal(size=(n // 2, n_features))
    return X, y, X_new


def _fit_random_trees(seed: int, n_trees: int = 5) -> tuple[list, np.ndarray, np.ndarray]:
    """Trees with assorted shapes (depths, leaf sizes, feature subsampling)."""
    rng = np.random.default_rng(seed)
    X, y, X_new = _make_data(seed)
    trees = []
    for i in range(n_trees):
        tree = DecisionTreeRegressor(
            max_depth=int(rng.integers(1, 7)),
            min_samples_leaf=int(rng.integers(1, 5)),
            max_features=["sqrt", None, 2][i % 3],
            random_state=int(rng.integers(0, 2**31 - 1)),
        )
        trees.append(tree.fit(X, y))
    return trees, X, X_new


class TestPackedArena:
    def test_arena_layout_and_dtypes(self):
        trees, _, _ = _fit_random_trees(seed=0)
        packed = PackedEnsemble.from_trees(trees)
        assert packed.feature.dtype == np.int32
        assert packed.children_left.dtype == np.int32
        assert packed.children_right.dtype == np.int32
        assert packed.threshold.dtype == np.float64
        assert packed.value.dtype == np.float64
        for arr in (packed.feature, packed.threshold, packed.children_left,
                    packed.children_right, packed.value):
            assert arr.flags["C_CONTIGUOUS"]
        assert packed.n_trees == len(trees)
        assert packed.n_nodes == sum(t.n_nodes_ for t in trees)
        # Per-tree slices reproduce each member's node arrays.
        for i, tree in enumerate(trees):
            lo, hi = packed.tree_slice(i)
            assert hi - lo == tree.n_nodes_
            assert np.array_equal(packed.feature[lo:hi], tree.feature_)
            assert np.array_equal(packed.value[lo:hi], tree.value_)
            # Child pointers are rebased to global arena indices.
            cl = packed.children_left[lo:hi].astype(np.int64)
            expect = np.where(tree.children_left_ == _TREE_LEAF, _TREE_LEAF,
                              tree.children_left_ + lo)
            assert np.array_equal(cl, expect)

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_apply_and_leaf_values_match_per_tree_path(self, seed):
        trees, X, X_new = _fit_random_trees(seed=seed)
        packed = PackedEnsemble.from_trees(trees)
        for X_eval in (X, X_new):
            nodes = packed.apply(X_eval)
            leaves = packed.leaf_values(X_eval)
            leaves_tm = packed.leaf_values(X_eval, tree_major=True)
            assert nodes.shape == (X_eval.shape[0], len(trees))
            for i, tree in enumerate(trees):
                lo, _ = packed.tree_slice(i)
                assert np.array_equal(nodes[:, i], tree.apply(X_eval) + lo)
                assert np.array_equal(leaves[:, i], tree.predict(X_eval))
                assert np.array_equal(leaves_tm[i], tree.predict(X_eval))

    def test_tree_prefix_selects_first_members(self):
        trees, _, X_new = _fit_random_trees(seed=3)
        packed = PackedEnsemble.from_trees(trees)
        prefix = packed.leaf_values(X_new, n_trees=2)
        assert np.array_equal(prefix, packed.leaf_values(X_new)[:, :2])

    def test_accumulate_matches_sequential_loop(self):
        trees, _, X_new = _fit_random_trees(seed=9)
        packed = PackedEnsemble.from_trees(trees)
        preds = np.full(X_new.shape[0], 0.25)
        for tree in trees:
            preds += 0.1 * tree.predict(X_new)
        assert np.array_equal(packed.accumulate(X_new, init=0.25, scale=0.1), preds)

    def test_concat_stacks_arenas(self):
        trees_a, _, X_new = _fit_random_trees(seed=5, n_trees=3)
        trees_b, _, _ = _fit_random_trees(seed=6, n_trees=2)
        combined = PackedEnsemble.concat(
            [PackedEnsemble.from_trees(trees_a), PackedEnsemble.from_trees(trees_b)]
        )
        direct = PackedEnsemble.from_trees(trees_a + trees_b)
        assert np.array_equal(combined.offsets, direct.offsets)
        assert np.array_equal(combined.leaf_values(X_new), direct.leaf_values(X_new))

    def test_input_validation(self):
        trees, _, _ = _fit_random_trees(seed=1)
        packed = PackedEnsemble.from_trees(trees)
        with pytest.raises(ValueError, match="features"):
            packed.apply(np.zeros((3, 7)))
        with pytest.raises(ValueError, match="n_trees"):
            packed.leaf_values(np.zeros((3, 4)), n_trees=0)
        with pytest.raises(ValueError, match="empty"):
            PackedEnsemble.from_trees([])
        with pytest.raises(ValueError, match="fitted"):
            PackedEnsemble.from_trees([DecisionTreeRegressor()])

    def test_non_finite_inputs_fail_loudly(self):
        # The per-tree path rejected NaN/inf via check_array; the packed
        # engine must keep that loud failure (a NaN would otherwise route
        # through the inverted comparison and silently differ).
        trees, X, X_new = _fit_random_trees(seed=2)
        packed = PackedEnsemble.from_trees(trees)
        bad = X_new.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            packed.leaf_values(bad)
        y = X[:, 0]
        member = GradientBoostingRegressor(
            n_estimators=4, max_depth=2, random_state=0
        ).fit(X, y)
        with pytest.raises(ValueError, match="NaN"):
            committee_predictions([member], bad)


class TestEnsembleParity:
    """Every ensemble's packed predictions replay the per-tree object path."""

    def test_gradient_boosting_predict_and_staged(self):
        X, y, X_new = _make_data(seed=11)
        gb = GradientBoostingRegressor(
            n_estimators=25, max_depth=4, subsample=0.8, random_state=2
        ).fit(X, y)
        ref = np.full(X_new.shape[0], gb.init_)
        staged_ref = []
        for tree in gb.estimators_:
            ref += gb.learning_rate * tree.predict(X_new)
            staged_ref.append(ref.copy())
        assert np.array_equal(gb.predict(X_new), ref)
        for got, want in zip(gb.staged_predict(X_new), staged_ref):
            assert np.array_equal(got, want)
        # Stage-prefix predictions (learning curves) use the arena prefix.
        prefix_ref = np.full(X_new.shape[0], gb.init_)
        for tree in gb.estimators_[:7]:
            prefix_ref += gb.learning_rate * tree.predict(X_new)
        assert np.array_equal(gb._raw_predict(X_new, n_estimators=7), prefix_ref)

    def test_gradient_boosting_absolute_loss_leaf_medians(self):
        X, y, X_new = _make_data(seed=13)
        gb = GradientBoostingRegressor(
            n_estimators=8, max_depth=3, loss="absolute_error", random_state=5
        ).fit(X, y)
        # The vectorised argsort-and-segment pass must equal the historical
        # per-leaf masked np.median loop on a fresh tree.
        tree = DecisionTreeRegressor(max_depth=3, random_state=0).fit(X, y)
        reference = tree.value_.copy()
        rng = np.random.default_rng(17)
        residual = rng.normal(size=len(y))
        leaves = tree.apply(X)
        for leaf in np.unique(leaves):
            reference[leaf] = float(np.median(residual[leaves == leaf]))
        gb._update_leaves_absolute(tree, X, residual)
        assert np.array_equal(tree.value_, reference)
        assert np.isfinite(gb.predict(X_new)).all()

    def test_random_forest_predict_all_std_and_oob(self):
        X, y, X_new = _make_data(seed=21)
        rf = RandomForestRegressor(
            n_estimators=20, max_depth=5, max_features="sqrt",
            oob_score=True, random_state=3
        ).fit(X, y)
        per_tree = np.column_stack([t.predict(X_new) for t in rf.estimators_])
        ref = np.zeros(X_new.shape[0])
        for tree in rf.estimators_:
            ref += tree.predict(X_new)
        assert np.array_equal(rf.predict(X_new), ref / len(rf.estimators_))
        assert np.array_equal(rf.predict_all(X_new), per_tree)
        assert np.array_equal(rf.predict_std(X_new), per_tree.std(axis=1))

        # OOB parity: replay the forest RNG to recover each member's
        # bootstrap rows, then run the historical per-tree masked loop.
        rng = np.random.default_rng(3)
        n = X.shape[0]
        oob_sum = np.zeros(n)
        oob_count = np.zeros(n)
        for tree in rf.estimators_:
            rng.integers(0, 2**31 - 1)  # the tree's seed draw
            idx = rng.integers(0, n, size=n)
            mask = np.ones(n, dtype=bool)
            mask[np.unique(idx)] = False
            if np.any(mask):
                oob_sum[mask] += tree.predict(X[mask])
                oob_count[mask] += 1
        covered = oob_count > 0
        expected = np.where(covered, oob_sum / np.maximum(oob_count, 1), np.nan)
        assert np.array_equal(rf.oob_prediction_[covered], expected[covered])

    def test_adaboost_weighted_median(self):
        X, y, X_new = _make_data(seed=31)
        ab = AdaBoostRegressor(n_estimators=15, random_state=4).fit(X, y)
        preds = np.column_stack([m.predict(X_new) for m in ab.estimators_])
        weights = np.asarray(ab.estimator_weights_)
        order = np.argsort(preds, axis=1)
        sorted_preds = np.take_along_axis(preds, order, axis=1)
        cum = np.cumsum(weights[order], axis=1)
        median_idx = np.argmax(cum >= 0.5 * cum[:, -1][:, None], axis=1)
        ref = sorted_preds[np.arange(X_new.shape[0]), median_idx]
        assert np.array_equal(ab.predict(X_new), ref)

    def test_adaboost_non_tree_base_falls_back(self):
        X, y, X_new = _make_data(seed=33)
        ab = AdaBoostRegressor(
            estimator=LinearRegression(), n_estimators=5, random_state=1
        ).fit(X, y)
        assert ab._packed_ensemble() is None
        ref = np.column_stack([m.predict(X_new) for m in ab.estimators_])
        weights = np.asarray(ab.estimator_weights_)
        order = np.argsort(ref, axis=1)
        sorted_preds = np.take_along_axis(ref, order, axis=1)
        cum = np.cumsum(weights[order], axis=1)
        median_idx = np.argmax(cum >= 0.5 * cum[:, -1][:, None], axis=1)
        assert np.array_equal(
            ab.predict(X_new), sorted_preds[np.arange(X_new.shape[0]), median_idx]
        )

    def test_committee_predictions_match_member_loop(self):
        X, y, X_new = _make_data(seed=41)
        members = [
            GradientBoostingRegressor(
                n_estimators=10 + 2 * s, max_depth=3, subsample=0.8, random_state=s
            ).fit(X, y)
            for s in range(3)
        ]
        stacked = committee_predictions(members, X_new)
        assert np.array_equal(
            stacked, np.column_stack([m.predict(X_new) for m in members])
        )
        # Mixed committees (no packed surface) fall back transparently.
        mixed = members[:1] + [LinearRegression().fit(X, y)]
        assert np.array_equal(
            committee_predictions(mixed, X_new),
            np.column_stack([m.predict(X_new) for m in mixed]),
        )

    def test_refit_rebuilds_arena(self):
        X, y, X_new = _make_data(seed=43)
        gb = GradientBoostingRegressor(n_estimators=5, max_depth=2, random_state=0)
        gb.fit(X, y)
        first = gb.predict(X_new)
        gb.fit(X, -y)
        ref = np.full(X_new.shape[0], gb.init_)
        for tree in gb.estimators_:
            ref += gb.learning_rate * tree.predict(X_new)
        assert np.array_equal(gb.predict(X_new), ref)
        assert not np.array_equal(gb.predict(X_new), first)


class TestTreeSatellites:
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_get_depth_matches_per_node_walk(self, seed):
        trees, _, _ = _fit_random_trees(seed=seed, n_trees=4)
        for tree in trees:
            depth = np.zeros(tree.n_nodes_, dtype=np.int64)
            max_depth = 0
            for node in range(tree.n_nodes_):
                left, right = tree.children_left_[node], tree.children_right_[node]
                if left != _TREE_LEAF:
                    depth[left] = depth[node] + 1
                    depth[right] = depth[node] + 1
                    max_depth = max(max_depth, int(depth[node]) + 1)
            assert tree.get_depth() == max_depth

    def test_get_depth_root_only_tree(self):
        tree = DecisionTreeRegressor(max_depth=1, min_samples_split=100).fit(
            np.arange(10.0).reshape(-1, 1), np.zeros(10)
        )
        assert tree.get_depth() == 0


class TestPackedPickleForm:
    def test_state_form_is_packed(self):
        X, y, _ = _make_data(seed=51)
        gb = GradientBoostingRegressor(n_estimators=12, max_depth=3, random_state=0).fit(X, y)
        state = gb.__getstate__()
        assert "estimators_" not in state
        packed_state = state["_packed_trees_state"]
        assert packed_state["version"] == PACKED_STATE_VERSION
        assert isinstance(packed_state["packed"], PackedEnsemble)
        assert len(packed_state["tree_params"]) == len(gb.estimators_)
        # Hyper-parameters (init_, learning_rate, scores, ...) still pickle.
        assert state["init_"] == gb.init_

    @pytest.mark.parametrize("factory", [
        lambda: GradientBoostingRegressor(n_estimators=12, max_depth=3,
                                          subsample=0.9, random_state=6),
        lambda: RandomForestRegressor(n_estimators=10, max_depth=4, random_state=6),
        lambda: AdaBoostRegressor(n_estimators=8, random_state=6),
    ])
    def test_round_trip_is_bit_identical(self, factory):
        X, y, X_new = _make_data(seed=53)
        model = factory().fit(X, y)
        clone = pickle.loads(pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL))
        assert np.array_equal(clone.predict(X_new), model.predict(X_new))
        for ours, theirs in zip(model.estimators_, clone.estimators_):
            assert np.array_equal(ours.feature_, theirs.feature_)
            assert np.array_equal(ours.threshold_, theirs.threshold_, equal_nan=True)
            assert np.array_equal(ours.children_left_, theirs.children_left_)
            assert np.array_equal(ours.children_right_, theirs.children_right_)
            assert np.array_equal(ours.value_, theirs.value_)
            assert ours.feature_.dtype == theirs.feature_.dtype
            assert ours.get_params() == theirs.get_params()
        # Reconstructed members keep working as standalone estimators.
        member = clone.estimators_[0]
        assert np.array_equal(member.predict(X_new),
                              model.estimators_[0].predict(X_new))
        assert member.get_depth() == model.estimators_[0].get_depth()

    def test_packed_payload_is_smaller_than_object_graph(self):
        X, y, _ = _make_data(seed=55)
        gb = GradientBoostingRegressor(n_estimators=30, max_depth=5, random_state=0).fit(X, y)
        packed_blob = pickle.dumps(gb, protocol=pickle.HIGHEST_PROTOCOL)
        object_state = dict(gb.__dict__)
        object_state.pop("_packed", None)
        object_blob = pickle.dumps(object_state, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(packed_blob) < 0.75 * len(object_blob)

    def test_legacy_object_graph_state_still_loads(self):
        X, y, X_new = _make_data(seed=57)
        gb = GradientBoostingRegressor(n_estimators=6, max_depth=3, random_state=0).fit(X, y)
        legacy_state = dict(gb.__dict__)
        legacy_state.pop("_packed", None)
        revived = GradientBoostingRegressor.__new__(GradientBoostingRegressor)
        revived.__setstate__(legacy_state)
        assert np.array_equal(revived.predict(X_new), gb.predict(X_new))

    def test_pack_unpack_helpers_round_trip(self):
        trees, _, X_new = _fit_random_trees(seed=59)
        state = pickle.loads(pickle.dumps(pack_trees_state(trees)))
        packed, rebuilt = unpack_trees_state(state)
        assert np.array_equal(packed.leaf_values(X_new),
                              np.column_stack([t.predict(X_new) for t in trees]))
        for ours, theirs in zip(trees, rebuilt):
            assert np.array_equal(ours.predict(X_new), theirs.predict(X_new))
        with pytest.raises(ValueError, match="version"):
            unpack_trees_state({"version": 999, "packed": packed, "tree_params": []})


class TestServingEdgeCases:
    """Edge cases the online serving path (PR 5) hits: 0-row inputs,
    single-sample batches, and leaf-only (depth-0) trees — all pinned
    bit-identical to the per-tree object path."""

    def test_zero_row_X_through_the_engine(self):
        trees, _, _ = _fit_random_trees(seed=71)
        packed = PackedEnsemble.from_trees(trees)
        X0 = np.empty((0, trees[0].n_features_in_))
        assert packed.apply(X0).shape == (0, len(trees))
        assert packed.leaf_values(X0).shape == (0, len(trees))
        assert packed.leaf_values(X0, tree_major=True).shape == (len(trees), 0)
        assert packed.accumulate(X0, init=1.5, scale=0.1).shape == (0,)

    def test_zero_row_X_rejected_identically_at_the_estimator(self):
        X, y, _ = _make_data(seed=72)
        gb = GradientBoostingRegressor(n_estimators=4, max_depth=3, random_state=0).fit(X, y)
        X0 = np.empty((0, X.shape[1]))
        # The packed-backed predict and the historical per-tree object path
        # share check_array's gate: both refuse an empty matrix, loudly.
        with pytest.raises(ValueError, match="Empty input"):
            gb.predict(X0)
        with pytest.raises(ValueError, match="Empty input"):
            gb.estimators_[0].predict(X0)

    @pytest.mark.parametrize("seed", [73, 74])
    def test_single_sample_batches_match_full_matrix(self, seed):
        """The micro-batching decomposition property at the engine level:
        predicting row i alone is byte-identical to row i of any batch."""
        trees, _, X_new = _fit_random_trees(seed=seed)
        packed = PackedEnsemble.from_trees(trees)
        full_leaves = packed.leaf_values(X_new)
        full_acc = packed.accumulate(X_new, init=2.0, scale=0.05)
        for i in range(len(X_new)):
            row = X_new[i:i + 1]
            assert np.array_equal(packed.leaf_values(row)[0], full_leaves[i])
            assert packed.accumulate(row, init=2.0, scale=0.05)[0] == full_acc[i]

    def test_single_sample_gb_predict_matches_object_path(self):
        X, y, X_new = _make_data(seed=75)
        gb = GradientBoostingRegressor(n_estimators=8, max_depth=3, random_state=0).fit(X, y)
        batch = gb.predict(X_new)
        for i in range(0, len(X_new), 7):
            row = X_new[i:i + 1]
            reference = np.full(1, gb.init_)
            for tree in gb.estimators_:
                reference += gb.learning_rate * tree.predict(row)
            assert gb.predict(row)[0] == reference[0]
            assert gb.predict(row)[0] == batch[i]

    def test_leaf_only_trees_traverse_and_aggregate(self):
        X, y, X_new = _make_data(seed=76)
        # min_samples_split beyond n forbids any split: every member is a
        # single root leaf, the depth-0 extreme of the traversal.
        trees = [
            DecisionTreeRegressor(min_samples_split=10**9, random_state=i).fit(X, y + i)
            for i in range(3)
        ]
        assert all(t.n_nodes_ == 1 for t in trees)
        packed = PackedEnsemble.from_trees(trees)
        assert packed._traversal().max_depth == 0
        assert np.array_equal(
            packed.apply(X_new),
            np.tile(packed.offsets[:-1], (len(X_new), 1)),
        )
        assert np.array_equal(
            packed.leaf_values(X_new),
            np.column_stack([t.predict(X_new) for t in trees]),
        )
        reference = np.full(len(X_new), 0.5)
        for tree in trees:
            reference += 0.1 * tree.predict(X_new)
        assert np.array_equal(packed.accumulate(X_new, init=0.5, scale=0.1), reference)

    def test_mixed_depths_share_one_arena(self):
        """Root-only members riding alongside deep members: the self-looping
        leaves must park finished pairs while deep trees keep routing."""
        deep_trees, X, X_new = _fit_random_trees(seed=77)
        stumps = [DecisionTreeRegressor(min_samples_split=10**9).fit(X, X[:, 0])]
        trees = [deep_trees[0], stumps[0], deep_trees[1]]
        packed = PackedEnsemble.from_trees(trees)
        assert np.array_equal(
            packed.leaf_values(X_new),
            np.column_stack([t.predict(X_new) for t in trees]),
        )

    def test_leaf_only_gb_ensemble_matches_object_path(self):
        X, y, X_new = _make_data(seed=78)
        gb = GradientBoostingRegressor(
            n_estimators=5, min_samples_split=10**9, random_state=0
        ).fit(X, y)
        assert all(t.n_nodes_ == 1 for t in gb.estimators_)
        reference = np.full(len(X_new), gb.init_)
        for tree in gb.estimators_:
            reference += gb.learning_rate * tree.predict(X_new)
        assert np.array_equal(gb.predict(X_new), reference)


class TestBlockBoundaries:
    """Parity across traversal blocks: two full blocks plus a ragged one.

    Every other fixture predicts fewer rows than one block, so these pin
    that the in-place per-block accumulation starts each block afresh and
    writes each block's lanes to the right output rows.
    """

    N_ROWS = 2 * _BLOCK_SAMPLES + 88

    @pytest.fixture(scope="class")
    def data(self):
        X, y, _ = _make_data(seed=91)
        X_big = np.random.default_rng(92).normal(size=(self.N_ROWS, X.shape[1]))
        return X, y, X_big

    @staticmethod
    def _sequential(trees, X, init, scale):
        """The historical per-tree loop, one stage snapshot per tree."""
        acc = np.full(X.shape[0], init)
        stages = []
        for tree in trees:
            acc += scale * tree.predict(X)
            stages.append(acc.copy())
        return stages

    def test_accumulate(self, data):
        X, y, X_big = data
        trees = [
            DecisionTreeRegressor(max_depth=4, random_state=s).fit(X, y + s)
            for s in range(9)
        ]
        packed = PackedEnsemble.from_trees(trees)
        want = self._sequential(trees, X_big, 0.25, 0.1)
        assert np.array_equal(packed.accumulate(X_big, init=0.25, scale=0.1), want[-1])
        assert np.array_equal(
            packed.accumulate(X_big, init=0.25, scale=0.1, n_trees=4), want[3]
        )

    def test_gradient_boosting_predict_and_staged(self, data):
        X, y, X_big = data
        gb = GradientBoostingRegressor(
            n_estimators=30, max_depth=4, subsample=0.8, random_state=8
        ).fit(X, y)
        want = self._sequential(gb.estimators_, X_big, gb.init_, gb.learning_rate)
        assert np.array_equal(gb.predict(X_big), want[-1])
        staged = list(gb.staged_predict(X_big))
        assert len(staged) == len(want)
        for got, ref in zip(staged, want):
            assert np.array_equal(got, ref)

    def test_random_forest_predict_scale_one(self, data):
        X, y, X_big = data
        rf = RandomForestRegressor(n_estimators=12, max_depth=5, random_state=9).fit(X, y)
        total = self._sequential(rf.estimators_, X_big, 0.0, 1.0)[-1]
        assert np.array_equal(rf.predict(X_big), total / len(rf.estimators_))

    def test_committee_with_unequal_tree_counts(self, data):
        X, y, X_big = data
        members = [
            GradientBoostingRegressor(
                n_estimators=n, max_depth=3, subsample=0.8, random_state=n
            ).fit(X, y)
            for n in (3, 11, 7)
        ]
        want = np.column_stack([
            self._sequential(m.estimators_, X_big, m.init_, m.learning_rate)[-1]
            for m in members
        ])
        assert np.array_equal(committee_predictions(members, X_big), want)


class TestRunningSums:
    """The one accumulation kernel behind every sequential ensemble sum."""

    def test_overwrites_its_slab_with_the_sequential_sums(self):
        rng = np.random.default_rng(93)
        leaves = rng.normal(size=(6, 5))
        slab = leaves.copy()
        out = running_sums(slab, 1.5, 0.3)
        assert out is slab
        acc = np.full(5, 1.5)
        for row, leaf in zip(slab, leaves):
            acc += 0.3 * leaf
            assert np.array_equal(row, acc)

    def test_segments_need_a_tree(self):
        trees, _, X_new = _fit_random_trees(seed=94, n_trees=3)
        packed = PackedEnsemble.from_trees(trees)
        with pytest.raises(ValueError, match="at least one tree"):
            packed.segment_sums(X_new, [(2, 0.0, 1.0), (0, 0.0, 1.0)])
