"""Frozen per-node reference for the ``tree_method="hist"`` builder.

:class:`ReferenceHistTreeBuilder` is the histogram builder as it stood
before :class:`repro.ml.tree._HistTreeBuilder` moved its node bookkeeping
to level-wise array operations: one Python accept loop, one ``_Split`` and
two fancy-index partitions per split, per-node list appends, and a stack
walk that renumbers the tree depth-first.  It is kept unchanged so tests
can require the level-wise builder to grow the same trees bit for bit.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.ml.tree import _TREE_LEAF, _TREE_UNDEFINED, _Split, _TreeBuilder
from repro.parallel.cache import FeatureBins

__all__ = ["ReferenceHistTreeBuilder"]


class ReferenceHistTreeBuilder(_TreeBuilder):
    """The per-node histogram builder, frozen as the reference.

    Works on pre-binned ``uint8`` feature codes (:class:`FeatureBins`) and
    grows the tree **level by level**: every node of a level accumulates a
    ``(count, Σw, Σwy)`` per-bin histogram in one shared ``bincount`` over
    slot-offset flattened codes, and one vectorised scan walks the ≤254 bin
    boundaries of every (node, feature) pair at once — instead of the exact
    builder's per-node pass over ``n_node`` sample positions.  After a split
    only the smaller child's histogram is accumulated directly; the sibling's
    is the parent's minus it (histogram subtraction — counts stay exact
    integers in float64, the weighted sums pick up at most subtraction-level
    rounding, which only matters on gain ties far below the accept margin).

    Thresholds are placed with the exact builder's arithmetic — the midpoint
    ``0.5 * (a + c)`` of the node's last occupied bin at or below the
    boundary (dataset upper value ``a``) and first occupied bin above it
    (dataset lower value ``c``).  With one bin per distinct value these are
    the node's own adjacent values, so fitted trees match ``"exact"`` bit for
    bit; node and leaf statistics are always computed from the node's sample
    rows with the exact builder's float-op order, never from the histogram,
    and nodes are renumbered to the exact builder's depth-first order after
    growth so the fitted arrays are directly comparable.

    The one documented divergence: with ``max_features`` subsampling, the
    per-node ``rng.choice`` draws happen in level order rather than the exact
    builder's depth-first order, so the two methods draw different (equally
    seeded and reproducible) feature subsets.
    """

    def __init__(self, *, bins: FeatureBins, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.bins = bins
        self.n_hist_bins = int(bins.n_bins.max()) if bins.n_bins.size else 0
        # Static per-(feature, boundary) validity — a boundary must lie
        # inside the feature's own bin range.  Same for every node.
        if self.n_hist_bins >= 2:
            self._range_ok = np.arange(1, self.n_hist_bins) <= (bins.n_bins[:, None] - 1)
        else:
            self._range_ok = np.zeros((len(bins.n_bins), 0), dtype=bool)

    def _histograms(
        self,
        base: np.ndarray,
        idx_list: list[np.ndarray],
        w: np.ndarray,
        wy: np.ndarray,
        unit_w: bool,
    ) -> np.ndarray:
        """``(k, 3, F, B)`` per-bin ``(count, Σw, Σwy)`` for ``k`` nodes at once.

        ``base`` is the dataset's pre-offset flat code matrix
        (``codes + f*B``); each node's rows get an additional ``slot*F*B``
        offset so one ``bincount`` accumulates every node of the level.
        Accumulation visits samples in ascending-row order per node — the
        same order a per-node bincount would use, so batching changes no
        floats.  With unit weights ``Σw == count`` exactly, and the second
        weighted bincount is skipped.
        """
        k = len(idx_list)
        n_features = base.shape[1]
        length = k * n_features * self.n_hist_bins
        shape = (k, n_features, self.n_hist_bins)
        lengths = np.fromiter((len(ix) for ix in idx_list), count=k, dtype=np.int64)
        rows = np.concatenate(idx_list)
        slot = np.repeat(np.arange(k, dtype=np.int64) * (n_features * self.n_hist_bins), lengths)
        flat = (base[rows] + slot[:, None]).ravel()
        hists = np.empty((k, 3, n_features, self.n_hist_bins))
        cnt = np.bincount(flat, minlength=length).reshape(shape)
        hists[:, 0] = cnt
        if unit_w:
            hists[:, 1] = cnt
        else:
            hists[:, 1] = np.bincount(
                flat, weights=np.repeat(w[rows], n_features), minlength=length
            ).reshape(shape)
        hists[:, 2] = np.bincount(
            flat, weights=np.repeat(wy[rows], n_features), minlength=length
        ).reshape(shape)
        return hists

    def _scan_level(
        self,
        X: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        level: list[tuple[np.ndarray, int]],
        hists: np.ndarray,
        unit_w: bool,
    ) -> list[Optional[_Split]]:
        """Best split per node of a level — one vectorised scan over all of them."""
        m = len(level)
        n_features = X.shape[1]
        n_bins = self.n_hist_bins
        if n_bins < 2:
            return [None] * m

        n_node = np.fromiter((len(idx) for idx, _ in level), count=m, dtype=np.int64)
        # Node totals come from the histograms — every feature's bins
        # partition the node, so feature 0's column sums are the node's
        # totals (with unit weights the count histogram is exact integers,
        # so ``w_tot`` matches the exact builder's ``w.sum()`` bit for bit).
        w_tot = hists[:, 1, 0, :].sum(axis=1)
        wy_tot = hists[:, 2, 0, :].sum(axis=1)

        cnt = hists[:, 0]
        # Cumulative per-bin statistics of the left partition for a split
        # placed after bin b (boundary b, bins 0..b go left), for every
        # (node, feature) pair of the level at once — one cumsum covers all
        # three statistics.
        cum = np.cumsum(hists, axis=3)[:, :, :, :-1]
        ccnt = cum[:, 0]
        cw = cum[:, 1]
        cwy = cum[:, 2]
        rw = w_tot[:, None, None] - cw
        rwy = wy_tot[:, None, None] - cwy

        # A boundary is valid when it lies inside the feature's bin range and
        # both children keep at least min_samples_leaf samples.
        valid = self._range_ok & (ccnt >= self.min_samples_leaf)
        valid &= (n_node[:, None, None] - ccnt) >= self.min_samples_leaf

        # In-place arithmetic on the cumulative views — they are not read
        # again after the gain is formed.
        with np.errstate(divide="ignore", invalid="ignore"):
            np.multiply(cwy, cwy, out=cwy)
            cwy /= cw
            np.multiply(rwy, rwy, out=rwy)
            rwy /= rw
            gain = cwy
            gain += rwy
            gain -= (wy_tot**2 / w_tot)[:, None, None]
        if unit_w:
            # Unit weights cannot produce a zero denominator at a valid
            # boundary (both children hold >= 1 sample), so no NaN to mask.
            gain = np.where(valid, gain, -np.inf)
        else:
            # The same zero-weight guard as the exact scan: an all-zero-weight
            # prefix makes cw zero and the gain NaN — masked, never argmax'd.
            gain = np.where(valid & np.isfinite(gain), gain, -np.inf)
        best_boundaries = np.argmax(gain, axis=2)
        # -inf marks features with no valid boundary at all.
        flat_index = np.arange(m * n_features) * (n_bins - 1) + best_boundaries.ravel()
        best_gain_f = gain.ravel()[flat_index].reshape(m, n_features)

        # Candidate thresholds for every (node, feature) pair at once: the
        # midpoint of the node's occupied bins flanking the chosen boundary
        # (empty bins inside a gap share the same gain; argmax lands on the
        # first, the flanks give the threshold — the node's own adjacent
        # values when bins are one-per-distinct-value).  The flank indices
        # are running extrema of the occupied-bin index, gathered at the
        # boundary.  Entries without both flanks are garbage but carry a
        # -inf gain, so they are never read.
        bin_index = np.arange(n_bins)
        occ_index = np.where(cnt > 0, bin_index, -1)
        last_below = np.maximum.accumulate(occ_index, axis=2)
        occ_index = np.where(cnt > 0, bin_index, n_bins)
        first_at_or_above = np.minimum.accumulate(occ_index[:, :, ::-1], axis=2)[:, :, ::-1]
        flat_bins = np.arange(m * n_features) * n_bins
        a_idx = last_below.ravel()[flat_bins + best_boundaries.ravel()]
        c_idx = first_at_or_above.ravel()[flat_bins + best_boundaries.ravel() + 1]
        feats = np.tile(np.arange(n_features), m)
        a = self.bins.upper[feats, np.maximum(a_idx, 0)].reshape(m, n_features)
        c = self.bins.lower[feats, np.minimum(c_idx, n_bins - 1)].reshape(m, n_features)
        thresholds = 0.5 * (a + c)
        # The midpoint always lands in [a, c]; the partition therefore
        # matches the histogram boundary exactly — whose child counts are
        # already >= min_samples_leaf by construction — unless rounding
        # pushed it all the way up to c, where the c-bin's samples would
        # leak left.  Only those rare entries need the degenerate-threshold
        # count check the exact builder runs on every candidate.
        risky = thresholds >= c

        # The accept loop is plain scalars — all numpy work happened above.
        # It keeps the exact builder's sequential semantics: features in
        # order, a challenger must beat the incumbent by 1e-12, degenerate
        # thresholds are skipped without unseating the incumbent.
        gain_rows = best_gain_f.tolist()
        threshold_rows = thresholds.tolist()
        risky_rows = risky.tolist()
        min_leaf = self.min_samples_leaf
        subset = self.max_features is not None and self.max_features < n_features
        splits: list[Optional[_Split]] = []
        for i, (idx, _) in enumerate(level):
            n_samples = len(idx)
            if n_samples < self.min_samples_split or n_samples < 2 * min_leaf:
                splits.append(None)
                continue
            if subset:
                features = self.rng.choice(n_features, size=self.max_features, replace=False).tolist()
            else:
                features = range(n_features)
            row_gain = gain_rows[i]
            row_threshold = threshold_rows[i]
            row_risky = risky_rows[i]
            best_f = -1
            best_gain = 0.0
            for f in features:
                g = row_gain[f]
                if g > best_gain + 1e-12:
                    if row_risky[f]:
                        # Guard against degenerate thresholds produced by
                        # value-adjacent bins whose midpoint rounds onto c.
                        n_left = int((X[idx, f] <= row_threshold[f]).sum())
                        if n_left < min_leaf or n_samples - n_left < min_leaf:
                            continue
                    best_gain = g
                    best_f = f
            if best_f < 0:
                splits.append(None)
                continue
            threshold = row_threshold[best_f]
            best = _Split(
                feature=best_f,
                threshold=threshold,
                gain=best_gain,
                left_mask=X[idx, best_f] <= threshold,
            )
            splits.append(self._finalize_split(best))
        return splits

    def build(  # type: ignore[override]
        self, X: np.ndarray, y: np.ndarray, w: np.ndarray, codes: Optional[np.ndarray] = None
    ) -> None:
        n_samples, n_features = X.shape
        if codes is None:
            codes = self.bins.codes
        # With unit weights (every ensemble fit path) w*y is bitwise y,
        # Σw == count exactly, and node values reduce to plain means with
        # the exact builder's floats (x*1.0 is bitwise x; ones sum to the
        # exact integer count) — so the weighted work can be skipped.
        unit_w = bool(np.all(w == 1.0))
        wy = y if unit_w else w * y
        # Pre-offset flat codes: column f's codes live in [f*B, f*B + n_bins).
        base = codes.astype(np.int64)
        base += np.arange(n_features, dtype=np.int64) * self.n_hist_bins

        root_value = float((y * w).sum() / w.sum())
        root = self._new_node(root_value, len(y))
        root_idx = np.arange(n_samples)
        # Every sample's current deepest-node value; after growth each entry
        # is its leaf's value — bitwise what ``predict`` would return on the
        # training matrix, captured for free from the partition (ensemble
        # fits use it to skip a full traversal per stage).
        self.train_prediction = np.full(n_samples, root_value)

        def splittable(idx: np.ndarray, depth: int) -> bool:
            if depth >= self.max_depth or len(idx) < self.min_samples_split:
                return False
            yi = y[idx]
            return not bool(np.all(yi == yi[0]))

        if not splittable(root_idx, 0):
            return
        level: list[tuple[np.ndarray, int]] = [(root_idx, root)]
        hists = self._histograms(base, [root_idx], w, wy, unit_w)
        depth = 0
        feature_out = self.feature
        threshold_out = self.threshold
        children_left_out = self.children_left
        children_right_out = self.children_right
        min_split = self.min_samples_split
        while level:
            splits = self._scan_level(X, y, w, level, hists, unit_w)
            # Create the whole level's children in bulk: ids are assigned
            # arithmetically and the node arrays are extended once, instead
            # of six list appends per node.
            base_id = len(feature_out)
            new_values: list[float] = []
            new_counts: list[int] = []
            kids: list[tuple[int, np.ndarray, np.ndarray, int, int]] = []
            for i, ((idx, node), split) in enumerate(zip(level, splits)):
                if split is None:
                    continue
                left_idx = idx[split.left_mask]
                right_idx = idx[~split.left_mask]
                n_left, n_right = len(left_idx), len(right_idx)
                if unit_w:
                    new_values.append(float(y[left_idx].sum()) / n_left)
                    new_values.append(float(y[right_idx].sum()) / n_right)
                else:
                    wl, wr = w[left_idx], w[right_idx]
                    new_values.append(float((y[left_idx] * wl).sum() / wl.sum()))
                    new_values.append(float((y[right_idx] * wr).sum() / wr.sum()))
                new_counts.append(n_left)
                new_counts.append(n_right)
                self.train_prediction[left_idx] = new_values[-2]
                self.train_prediction[right_idx] = new_values[-1]
                left = base_id + len(new_counts) - 2
                feature_out[node] = split.feature
                threshold_out[node] = split.threshold
                children_left_out[node] = left
                children_right_out[node] = left + 1
                kids.append((i, left_idx, right_idx, left, left + 1))
            n_new = len(new_counts)
            feature_out.extend([_TREE_UNDEFINED] * n_new)
            threshold_out.extend([float("nan")] * n_new)
            children_left_out.extend([_TREE_LEAF] * n_new)
            children_right_out.extend([_TREE_LEAF] * n_new)
            self.value.extend(new_values)
            self.n_node_samples.extend(new_counts)

            if not kids or depth + 1 >= self.max_depth:
                break
            # Batched splittability for the whole level's children: cheap
            # depth/size gates inline, then one reduceat pair (segment
            # min == max, exact for any float order) replaces a per-child
            # purity pass.
            candidates: list[tuple[int, bool, np.ndarray]] = []
            for j, (i, left_idx, right_idx, left, right) in enumerate(kids):
                if len(left_idx) >= min_split:
                    candidates.append((j, True, left_idx))
                if len(right_idx) >= min_split:
                    candidates.append((j, False, right_idx))
            if not candidates:
                break
            seg_rows = np.concatenate([c[2] for c in candidates])
            seg_lengths = np.fromiter(
                (len(c[2]) for c in candidates), count=len(candidates), dtype=np.int64
            )
            starts = np.concatenate(([0], np.cumsum(seg_lengths[:-1])))
            y_rows = y[seg_rows]
            impure = np.minimum.reduceat(y_rows, starts) != np.maximum.reduceat(y_rows, starts)
            need = [[False, False] for _ in kids]
            for (j, is_left, _), imp in zip(candidates, impure):
                need[j][0 if is_left else 1] = bool(imp)

            # One batched bincount accumulates the smaller sibling of every
            # pair that still grows; the larger is parent − smaller, computed
            # in one vectorised subtraction.  Two fancy assignments then
            # assemble the next level's histogram block.
            next_level: list[tuple[np.ndarray, int]] = []
            small_list: list[np.ndarray] = []
            parent_of_pair: list[int] = []
            sources: list[tuple[int, bool]] = []  # (pair, is-the-small-sibling)
            for j, (i, left_idx, right_idx, left, right) in enumerate(kids):
                need_left, need_right = need[j]
                if not (need_left or need_right):
                    continue
                pair = len(small_list)
                left_is_small = len(left_idx) <= len(right_idx)
                small_list.append(left_idx if left_is_small else right_idx)
                parent_of_pair.append(i)
                if need_left:
                    next_level.append((left_idx, left))
                    sources.append((pair, left_is_small))
                if need_right:
                    next_level.append((right_idx, right))
                    sources.append((pair, not left_is_small))
            if not small_list:
                break
            small_hists = self._histograms(base, small_list, w, wy, unit_w)
            big_hists = hists[np.asarray(parent_of_pair, dtype=np.int64)] - small_hists
            level = next_level
            k_next = len(sources)
            pair_of = np.fromiter((j for j, _ in sources), count=k_next, dtype=np.int64)
            is_small = np.fromiter((s for _, s in sources), count=k_next, dtype=bool)
            hists = np.empty((k_next, 3, n_features, self.n_hist_bins))
            hists[is_small] = small_hists[pair_of[is_small]]
            hists[~is_small] = big_hists[pair_of[~is_small]]
            depth += 1
        self._renumber_depth_first()

    def _renumber_depth_first(self) -> None:
        """Permute node storage from level order to the exact builder's
        depth-first creation order, so fitted arrays are directly comparable
        across ``tree_method`` values."""
        n_nodes = len(self.feature)
        if n_nodes <= 1:
            return
        # The traversal itself runs on plain lists (scalar indexing is far
        # cheaper than numpy element access); the permutation is vectorised.
        left_list = self.children_left
        right_list = self.children_right
        order = [0] * n_nodes  # old index -> new index
        counter = 1
        stack = [0]
        push = stack.append
        while stack:
            node = stack.pop()
            l = left_list[node]
            if l != _TREE_LEAF:
                r = right_list[node]
                order[l] = counter
                order[r] = counter + 1
                counter += 2
                push(l)
                push(r)
        order_arr = np.asarray(order, dtype=np.int64)
        inverse = np.empty(n_nodes, dtype=np.int64)
        inverse[order_arr] = np.arange(n_nodes)
        left = np.asarray(left_list, dtype=np.int64)
        right = np.asarray(right_list, dtype=np.int64)
        remap = lambda child: np.where(  # noqa: E731 — tiny local helper
            child == _TREE_LEAF, _TREE_LEAF, order_arr[np.maximum(child, 0)]
        )
        self.feature = list(np.asarray(self.feature, dtype=np.int64)[inverse])
        self.threshold = list(np.asarray(self.threshold, dtype=np.float64)[inverse])
        self.children_left = list(remap(left)[inverse])
        self.children_right = list(remap(right)[inverse])
        self.value = list(np.asarray(self.value, dtype=np.float64)[inverse])
        self.n_node_samples = list(np.asarray(self.n_node_samples, dtype=np.int64)[inverse])
