"""CART regression trees with two split-search builders.

The split criterion is weighted sum-of-squared-errors reduction, served by
one of two builders selected with ``tree_method``:

* ``"exact"`` (:class:`_TreeBuilder`, the default) finds the best split with
  prefix sums over *presorted* feature columns: one stable argsort per
  feature at the root (served by the content-addressed
  :func:`repro.parallel.cache.feature_presort` cache, so repeated fits on the
  same matrix — e.g. every boosting stage — reuse a single sort), with the
  sorted index lists partitioned down the tree instead of re-sorted at every
  node.  All features are scanned in one vectorised pass per node.  This is
  exactly equivalent to per-node stable argsorts, so fitted trees are
  bit-identical to the historical implementation, only faster.

* ``"hist"`` (:class:`_HistTreeBuilder`) is the LightGBM-style histogram
  builder: every feature is quantised once per dataset into at most
  ``max_bins`` (≤255) bins (served by the content-addressed
  :func:`repro.parallel.cache.feature_bins` cache), each node accumulates a
  per-bin ``(count, Σw, Σwy)`` histogram — ``(count, Σwy)`` with unit
  weights, where ``Σw`` is the count — from its ``uint8`` codes, and the
  split scan walks bin boundaries instead of sample positions.  Each split
  computes only the smaller child's histogram directly — the sibling is
  ``parent − child`` (histogram subtraction) — so a level costs at most
  half the node's samples.  The tree grows level by level and each level is
  array operations, not Python code per node: one row array partitioned by
  a stable sort on child id, one ``bincount`` for every node's histogram,
  one scan and a vectorised accept step over every node, and depth-first
  node ids computed from per-depth subtree counts instead of a stack walk.
  Node values stay one pairwise numpy ``.sum()`` per child, so they carry
  the exact builder's floats.  When every feature has at most ``max_bins``
  distinct values the candidate thresholds coincide with the exact
  builder's midpoints and fitted trees are bit-identical to ``"exact"``;
  otherwise accuracy is tolerance-bounded (see the ROADMAP
  ``tree_method="hist"`` contract).  One carve-out to bit-parity: two
  splits whose weighted-SSE gains are *exactly* equal (identical induced
  partitions) may tie-break differently — the engines accumulate the gain
  terms in different summation orders, and on an exact tie that float
  noise picks the winner; both trees are equally optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    RegressorMixin,
    check_array,
    check_random_state,
    check_X_y,
)
from repro.parallel.cache import FeatureBins, compute_feature_bins, feature_bins, feature_presort

__all__ = ["DecisionTreeRegressor"]

_TREE_UNDEFINED = -2
_TREE_LEAF = -1


@dataclass
class _Split:
    feature: int
    threshold: float
    gain: float
    left_mask: np.ndarray


class _TreeBuilder:
    """Grows a tree depth-first, storing nodes in parallel arrays."""

    def __init__(
        self,
        max_depth: Optional[int],
        min_samples_split: int,
        min_samples_leaf: int,
        min_impurity_decrease: float,
        max_features: Optional[int],
        rng: np.random.Generator,
    ) -> None:
        self.max_depth = max_depth if max_depth is not None else np.inf
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.max_features = max_features
        self.rng = rng
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.children_left: list[int] = []
        self.children_right: list[int] = []
        self.value: list[float] = []
        self.n_node_samples: list[int] = []

    def _new_node(self, value: float, n_samples: int) -> int:
        idx = len(self.feature)
        self.feature.append(_TREE_UNDEFINED)
        self.threshold.append(np.nan)
        self.children_left.append(_TREE_LEAF)
        self.children_right.append(_TREE_LEAF)
        self.value.append(value)
        self.n_node_samples.append(n_samples)
        return idx

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, w: np.ndarray, idx: np.ndarray, sorted_rows: np.ndarray
    ) -> Optional[_Split]:
        """Best split of the node holding rows ``idx`` of the full matrix.

        ``sorted_rows`` has shape ``(n_features, n_node)``: row ``f`` lists
        the node's sample rows in ascending order of feature ``f`` (ties by
        row index), maintained by partitioning the root presort down the
        tree.  The scan is equivalent to a per-node stable argsort per
        feature — same candidate order, same tie-breaking, same floats.
        """
        n_samples = len(idx)
        n_features = X.shape[1]
        if n_samples < self.min_samples_split or n_samples < 2 * self.min_samples_leaf:
            return None

        wi = w[idx]
        yi = y[idx]
        w_total = wi.sum()
        wy_total = float(wi @ yi)

        if self.max_features is not None and self.max_features < n_features:
            features = self.rng.choice(n_features, size=self.max_features, replace=False)
            rows = sorted_rows[features]
        else:
            features = np.arange(n_features)
            rows = sorted_rows

        # One vectorised pass over every candidate feature: (k, n_node)
        # matrices of the node's values in sorted order per feature.
        xs = X[rows, features[:, None]]
        ys = y[rows]
        ws = w[rows]

        # Cumulative weighted statistics of the left partition for a split
        # placed after position i (0-based, i+1 samples go left).
        cw = np.cumsum(ws, axis=1)[:, :-1]
        cwy = np.cumsum(ws * ys, axis=1)[:, :-1]
        rw = w_total - cw
        rwy = wy_total - cwy

        # Splits are only valid where the feature value actually changes
        # and both children keep at least min_samples_leaf samples.
        positions = np.arange(1, n_samples)
        valid = xs[:, 1:] > xs[:, :-1]
        valid &= positions >= self.min_samples_leaf
        valid &= (n_samples - positions) >= self.min_samples_leaf
        feature_has_valid = np.any(valid, axis=1)

        with np.errstate(divide="ignore", invalid="ignore"):
            gain = cwy**2 / cw + rwy**2 / rw - wy_total**2 / w_total
        # Zero-weight runs make ``cw`` or ``rw`` zero and the gain NaN; a NaN
        # wins np.argmax, silently discarding the feature's real best split,
        # so non-finite gains are masked along with invalid positions.
        gain = np.where(valid & np.isfinite(gain), gain, -np.inf)
        best_positions = np.argmax(gain, axis=1)

        best: Optional[_Split] = None
        best_gain = 0.0
        for row, f in enumerate(features):
            if not feature_has_valid[row]:
                continue
            best_pos = int(best_positions[row])
            g = float(gain[row, best_pos])
            if g > best_gain + 1e-12:
                threshold = 0.5 * (xs[row, best_pos] + xs[row, best_pos + 1])
                left_mask = X[idx, f] <= threshold
                # Guard against degenerate thresholds produced by ties.
                n_left = int(left_mask.sum())
                if n_left < self.min_samples_leaf or n_samples - n_left < self.min_samples_leaf:
                    continue
                best_gain = g
                best = _Split(feature=int(f), threshold=float(threshold), gain=g, left_mask=left_mask)

        return self._finalize_split(best)

    def _finalize_split(self, best: Optional[_Split]) -> Optional[_Split]:
        """Single accept/reject guard shared by both builders.

        A split must strictly reduce the weighted SSE *and* clear
        ``min_impurity_decrease`` — there is no node-impurity escape hatch
        (the historical ``node_sse <= 0`` branch accepted positive-gain
        splits without consulting ``min_impurity_decrease``).
        """
        if best is None or best.gain <= 0.0 or best.gain < self.min_impurity_decrease:
            return None
        return best

    def build(
        self, X: np.ndarray, y: np.ndarray, w: np.ndarray, presort: Optional[np.ndarray] = None
    ) -> None:
        n_samples, n_features = X.shape
        if presort is None:
            presort = np.argsort(X, axis=0, kind="stable")
        # Feature-major sorted row lists, partitioned down the tree.
        sorted_rows = np.ascontiguousarray(presort.T)

        # (y * w).sum() / w.sum() is np.average's exact computation (same
        # float-op order, so bit-identical) without its dispatch overhead.
        root_value = float((y * w).sum() / w.sum())
        root = self._new_node(root_value, len(y))
        stack: list[tuple[np.ndarray, np.ndarray, int, int]] = [
            (np.arange(n_samples), sorted_rows, root, 0)
        ]
        # Epoch-stamped membership marker: lets each split route the sorted
        # row lists to the children in O(n_node) without clearing an array.
        marker = np.zeros(n_samples, dtype=np.int64)
        epoch = 0

        while stack:
            idx, rows, node, depth = stack.pop()
            yi = y[idx]
            if depth >= self.max_depth or len(idx) < self.min_samples_split or np.all(yi == yi[0]):
                continue
            split = self._best_split(X, y, w, idx, rows)
            if split is None:
                continue
            left_idx = idx[split.left_mask]
            right_idx = idx[~split.left_mask]
            # Stable partition of each feature's sorted list preserves the
            # "ascending value, ties by row index" invariant in both children.
            epoch += 1
            marker[left_idx] = epoch
            goes_left = marker[rows] == epoch
            rows_left = rows[goes_left].reshape(n_features, len(left_idx))
            rows_right = rows[~goes_left].reshape(n_features, len(right_idx))
            wl, wr = w[left_idx], w[right_idx]
            left = self._new_node(float((y[left_idx] * wl).sum() / wl.sum()), len(left_idx))
            right = self._new_node(float((y[right_idx] * wr).sum() / wr.sum()), len(right_idx))
            self.feature[node] = split.feature
            self.threshold[node] = split.threshold
            self.children_left[node] = left
            self.children_right[node] = right
            stack.append((left_idx, rows_left, left, depth + 1))
            stack.append((right_idx, rows_right, right, depth + 1))


class _HistTreeBuilder(_TreeBuilder):
    """Histogram-binned split search (the ``tree_method="hist"`` builder).

    Works on pre-binned ``uint8`` feature codes (:class:`FeatureBins`) and
    grows the tree **level by level**, each level handled by array
    operations rather than Python code per node:

    * **One row partition per level.**  The level's sample rows live in one
      array, grouped by node in level order and ascending inside each node.
      A split routes each row of a split node to child ``2·s`` (left) or
      ``2·s + 1`` (right), ``s`` the node's rank among the level's split
      nodes, and a stable sort on that child id lays out the next level —
      rows stay ascending inside every child, so every ``bincount`` and
      every sum sees the float order a per-node partition would.
    * **Histograms.**  One shared ``bincount`` over slot-offset flattened
      codes accumulates every node's per-bin ``(count, Σw, Σwy)``; with unit
      weights ``Σw`` *is* the count, so the histogram carries only
      ``(count, Σwy)``.  Only each split's smaller child is accumulated
      directly; the sibling's histogram is the parent's minus it (histogram
      subtraction — counts stay exact integers in float64, the weighted
      sums pick up at most subtraction-level rounding, which only matters
      on gain ties far below the accept margin).
    * **Vectorised scan and accept.**  One scan walks the ≤254 bin
      boundaries of every (node, feature) pair at once, then one pass per
      feature column over all nodes keeps the exact builder's sequential
      rule: features in order, a challenger must beat the incumbent by
      ``1e-12``, and :meth:`_TreeBuilder._finalize_split`'s gate (gain > 0
      and ≥ ``min_impurity_decrease``) is an array mask.

    Thresholds are placed with the exact builder's arithmetic — the midpoint
    ``0.5 * (a + c)`` of the node's last occupied bin at or below the
    boundary (dataset upper value ``a``) and first occupied bin above it
    (dataset lower value ``c``).  The flanks are searched from the count
    histogram rather than taken from the argmax boundary: subtraction leaves
    tiny non-zero ``Σwy`` in empty bins, so argmax can land on an empty
    bin's boundary.  With one bin per distinct value the flanks are the
    node's own adjacent values, so fitted trees match ``"exact"`` bit for
    bit.  Node and leaf values are always computed from the node's sample
    rows with the exact builder's float-op order, never from the histogram:
    one numpy ``.sum()`` per child over its contiguous slice of the level's
    gathered ``y`` (``(y*w).sum() / w.sum()`` when weighted).  The sums stay
    one numpy call per child because ``np.add.reduceat`` would sum each
    segment sequentially, which differs from ``.sum()``'s pairwise
    summation in the last bits.  With the ``max_features`` draws and the
    degenerate-threshold recounts of rare risky candidates, they are the
    only per-node Python steps the hist path keeps.

    Node storage is one array per depth in level order; after growth the
    tree is renumbered to the exact builder's depth-first ids without a
    stack walk (:meth:`_renumber_depth_first`), so the fitted arrays are
    directly comparable across ``tree_method`` values.

    The one documented divergence: with ``max_features`` subsampling, the
    per-node ``rng.choice`` draws happen in level order rather than the exact
    builder's depth-first order, so the two methods draw different (equally
    seeded and reproducible) feature subsets.
    """

    def __init__(self, *, bins: FeatureBins, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.bins = bins
        self.n_hist_bins = int(bins.n_bins.max()) if bins.n_bins.size else 0

    def _histograms(
        self,
        base: np.ndarray,
        rows: np.ndarray,
        slot: np.ndarray,
        k: int,
        w: np.ndarray,
        wy: np.ndarray,
        unit_w: bool,
    ) -> np.ndarray:
        """``(k, S, F, B)`` per-bin statistics of ``k`` nodes at once.

        ``S`` is 3 — ``(count, Σw, Σwy)`` — or, with unit weights, 2 —
        ``(count, Σwy)``, since ``Σw == count`` exactly; either way
        ``[:, -2]`` is ``Σw`` and ``[:, -1]`` is ``Σwy``.  ``base`` is the
        dataset's pre-offset flat code matrix (``codes + f*B``); row
        ``rows[i]`` belongs to node ``slot[i]``, whose bins get an additional
        ``slot*F*B`` offset so one ``bincount`` accumulates every node.
        Accumulation visits each node's rows in the order given — ascending,
        the order a per-node bincount would use.
        """
        n_features = base.shape[1]
        stride = n_features * self.n_hist_bins
        flat = (base[rows] + (slot * stride)[:, None]).ravel()
        shape = (k, n_features, self.n_hist_bins)
        per_row = (wy,) if unit_w else (w, wy)
        hists = np.empty((k, 1 + len(per_row), n_features, self.n_hist_bins))
        hists[:, 0] = np.bincount(flat, minlength=k * stride).reshape(shape)
        for stat, values in enumerate(per_row, 1):
            weights = np.repeat(values[rows], n_features)
            hists[:, stat] = np.bincount(flat, weights=weights, minlength=k * stride).reshape(shape)
        return hists

    def _scan_level(
        self, X: np.ndarray, rows: np.ndarray, n_node: np.ndarray, hists: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Best split of every node of a level: ``(feature, threshold)``.

        ``feature`` is -1 where the node stays a leaf.  ``rows`` holds the
        level's sample rows, the ``n_node[i]`` rows of node ``i`` after
        those of nodes ``0..i-1``.
        """
        m = len(n_node)
        n_features = X.shape[1]
        n_bins = self.n_hist_bins
        if n_bins < 2:
            return np.full(m, -1, dtype=np.int64), np.full(m, np.nan)

        # Node totals come from the histograms — every feature's bins
        # partition the node, so feature 0's column sums are the node's
        # totals (with unit weights the count histogram is exact integers,
        # so ``w_tot`` matches the exact builder's ``w.sum()`` bit for bit).
        w_tot = hists[:, -2, 0, :].sum(axis=1)
        wy_tot = hists[:, -1, 0, :].sum(axis=1)

        # Cumulative per-bin statistics of the left partition for a split
        # placed after bin b (boundary b, bins 0..b go left), for every
        # (node, feature) pair of the level at once — one cumsum covers all
        # statistics.
        cum_all = np.cumsum(hists, axis=3)
        cum = cum_all[:, :, :, :-1]
        ccnt = cum[:, 0]
        cw = cum[:, -2]
        cwy = cum[:, -1]
        rw = w_tot[:, None, None] - cw
        rwy = wy_tot[:, None, None] - cwy

        # A boundary is valid when both children keep at least
        # min_samples_leaf (>= 1) samples.  That also rules out boundaries
        # past a feature's own bin range, which send the whole node left.
        min_leaf = self.min_samples_leaf
        valid = ccnt >= min_leaf
        valid &= ccnt <= (n_node - min_leaf)[:, None, None]

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
        if hists.shape[1] == 2:
            # Unit weights cannot produce a zero denominator at a valid
            # boundary (both children hold >= 1 sample), so no NaN to mask.
            gain = np.where(valid, gain, -np.inf)
        else:
            # The same zero-weight guard as the exact scan: an all-zero-weight
            # prefix makes cw zero and the gain NaN — masked, never argmax'd.
            gain = np.where(valid & np.isfinite(gain), gain, -np.inf)
        best_boundaries = np.argmax(gain, axis=2)
        pair = np.arange(m * n_features).reshape(m, n_features)
        # -inf marks features with no valid boundary at all.
        best_gain_f = gain.reshape(-1, n_bins - 1)[pair, best_boundaries]

        # Candidate thresholds for every (node, feature) pair at once: the
        # midpoint of the node's occupied bins flanking the chosen boundary
        # (empty bins inside a gap share the same gain; argmax lands on the
        # first, the flanks give the threshold — the node's own adjacent
        # values when bins are one-per-distinct-value).  Along a pair's
        # running count, the last occupied bin at or below boundary b is the
        # first bin whose running count reaches b's, and the first occupied
        # bin above b the first whose running count exceeds it — one
        # searchsorted over all pairs, each pair's counts lifted past the
        # previous pair's.  Entries without both flanks are garbage but
        # carry a -inf gain, so they are never read.
        running = (cum_all[:, 0] + pair[:, :, None] * (n_node.max() + 1.0)).ravel()
        at_boundary = running.reshape(-1, n_bins)[pair, best_boundaries]
        a_idx = running.searchsorted(at_boundary, "left") - pair * n_bins
        c_idx = running.searchsorted(at_boundary, "right") - pair * n_bins
        feature_index = np.arange(n_features)
        a = self.bins.upper[feature_index, a_idx]
        c = self.bins.lower[feature_index, np.minimum(c_idx, n_bins - 1)]
        thresholds = 0.5 * (a + c)
        # The midpoint always lands in [a, c]; the partition therefore
        # matches the histogram boundary exactly — whose child counts are
        # already >= min_samples_leaf by construction — unless rounding
        # pushed it all the way up to c, where the c-bin's samples would
        # leak left.  Only those rare entries need the degenerate-threshold
        # count check the exact builder runs on every candidate.
        risky = thresholds >= c

        # The exact builder's sequential accept, one feature column at a
        # time over every node: features in (drawn) order, a challenger must
        # beat the incumbent by 1e-12, and a degenerate threshold is skipped
        # without unseating the incumbent.  Every level node holds at least
        # min_samples_split rows, and one under 2*min_samples_leaf has no
        # valid boundary, so the size gate only decides which nodes draw a
        # feature subset.
        order = np.repeat(feature_index[None], m, axis=0)
        if self.max_features is not None and self.max_features < n_features:
            order = order[:, : self.max_features]
            for i in np.flatnonzero(n_node >= 2 * min_leaf):
                order[i] = self.rng.choice(n_features, size=self.max_features, replace=False)
        node_index = np.arange(m)
        best = np.zeros(m)
        best_f = np.full(m, -1, dtype=np.int64)
        for f in order.T:
            g = best_gain_f[node_index, f]
            win = g > best + 1e-12
            for i in np.flatnonzero(win & risky[node_index, f]):
                start = n_node[:i].sum()
                idx = rows[start : start + n_node[i]]
                n_left = int((X[idx, f[i]] <= thresholds[i, f[i]]).sum())
                if n_left < min_leaf or n_node[i] - n_left < min_leaf:
                    win[i] = False
            best = np.where(win, g, best)
            best_f = np.where(win, f, best_f)
        # _finalize_split's gate (gain > 0 and >= min_impurity_decrease).
        best_f[(best <= 0.0) | (best < self.min_impurity_decrease)] = -1
        return best_f, thresholds[node_index, np.maximum(best_f, 0)]

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
        # Every sample's current deepest-node value; after growth each entry
        # is its leaf's value — bitwise what ``predict`` would return on the
        # training matrix, captured for free from the partition (ensemble
        # fits use it to skip a full traversal per stage).
        self.train_prediction = np.full(n_samples, root_value)
        # Node storage, one array per depth in level order.  The j-th split
        # node of depth d has its children at positions 2j, 2j+1 of d+1.
        features = [np.full(1, _TREE_UNDEFINED, dtype=np.int64)]
        thresholds = [np.full(1, np.nan)]
        values = [np.array([root_value])]
        counts = [np.array([n_samples], dtype=np.int64)]

        # The level: its nodes' positions at this depth, sizes, rows
        # (grouped by node, ascending inside each) and histograms.  The
        # root grows unless depth, size or a constant target stops it.
        grows = self.max_depth > 0 and n_samples >= self.min_samples_split
        grows = grows and not np.all(y == y[0])
        active = np.zeros(int(grows), dtype=np.int64)
        n_node = counts[0]
        rows = np.arange(n_samples)
        if grows:
            hists = self._histograms(base, rows, np.zeros(n_samples, np.int64), 1, w, wy, unit_w)
        add_reduce = np.add.reduce  # what ndarray.sum() runs, minus its wrapper
        while len(active):
            depth = len(values) - 1
            m = len(active)
            best_f, best_t = self._scan_level(X, rows, n_node, hists)
            split = best_f >= 0
            if not split.any():
                break
            features[depth][active[split]] = best_f[split]
            thresholds[depth][active[split]] = best_t[split]

            # Route the split nodes' rows to their children and lay the
            # children out contiguously in child order.
            node_of_row = np.repeat(np.arange(m), n_node)
            keep = split[node_of_row]
            rows, node_of_row = rows[keep], node_of_row[keep]
            goes_right = ~(X[rows, best_f[node_of_row]] <= best_t[node_of_row])
            child = 2 * (np.cumsum(split) - 1)[node_of_row] + goes_right
            order = np.argsort(child, kind="stable")
            rows, child = rows[order], child[order]
            n_children = 2 * int(split.sum())
            n_child = np.bincount(child, minlength=n_children)
            child_start = np.cumsum(n_child) - n_child
            bounds = list(zip(child_start.tolist(), (child_start + n_child).tolist()))
            ys = y[rows]
            if unit_w:
                value = np.array([add_reduce(ys[s:e]) for s, e in bounds]) / n_child
            else:
                ws = w[rows]
                yws = ys * ws
                value = np.array([add_reduce(yws[s:e]) / add_reduce(ws[s:e]) for s, e in bounds])
            self.train_prediction[rows] = np.repeat(value, n_child)
            features.append(np.full(n_children, _TREE_UNDEFINED, dtype=np.int64))
            thresholds.append(np.full(n_children, np.nan))
            values.append(value)
            counts.append(n_child)
            if depth + 1 >= self.max_depth:
                break

            # A child keeps growing when it is large enough and impure
            # (segment min != max is exact in any float order).
            need = (n_child >= self.min_samples_split) & (
                np.minimum.reduceat(ys, child_start) != np.maximum.reduceat(ys, child_start)
            )
            active = np.flatnonzero(need)
            if not len(active):
                break
            # One batched bincount accumulates the smaller child of every
            # split that still grows (the left one on a size tie); a growing
            # larger child is its parent's histogram minus the smaller one.
            pair_need = need[0::2] | need[1::2]
            small = np.flatnonzero(pair_need) * 2 + (n_child[0::2] > n_child[1::2])[pair_need]
            small_slot = np.full(n_children, -1, dtype=np.int64)
            small_slot[small] = np.arange(len(small))
            in_small = small_slot[child] >= 0
            small_hists = self._histograms(
                base, rows[in_small], small_slot[child[in_small]], len(small), w, wy, unit_w
            )
            is_small = small_slot[active] >= 0
            big = active[~is_small]
            next_hists = np.empty((len(active),) + small_hists.shape[1:])
            next_hists[is_small] = small_hists[small_slot[active[is_small]]]
            next_hists[~is_small] = (
                hists[np.flatnonzero(split)[big // 2]] - small_hists[small_slot[big ^ 1]]
            )
            hists = next_hists
            rows = rows[need[child]]
            n_node = n_child[active]
        self._renumber_depth_first(features, thresholds, values, counts)

    def _renumber_depth_first(
        self,
        features: list[np.ndarray],
        thresholds: list[np.ndarray],
        values: list[np.ndarray],
        counts: list[np.ndarray],
    ) -> None:
        """Store the per-depth level-order nodes under the exact builder's
        depth-first ids, so fitted arrays are directly comparable across
        ``tree_method`` values.

        The exact builder numbers the two children of each internal node
        when it pops that node off its stack, and it pops internal nodes in
        right-first pre-order: the children of the internal node of rank
        ``r`` in that order get ids ``1 + 2r`` and ``2 + 2r``.  A node's
        right child ranks right after it, and its left child after the whole
        right subtree, so ranks follow top-down from each subtree's count of
        internal nodes, itself counted bottom-up one depth at a time.
        """
        internal = [f != _TREE_UNDEFINED for f in features]
        n_internal: list[np.ndarray] = [np.zeros(0, dtype=np.int64)] * len(features)
        below = np.zeros(0, dtype=np.int64)
        for depth in reversed(range(len(features))):
            here = internal[depth].astype(np.int64)
            here[internal[depth]] += below[0::2] + below[1::2]
            n_internal[depth] = below = here
        n_nodes = sum(len(v) for v in values)
        self.feature = np.empty(n_nodes, dtype=np.int64)
        self.threshold = np.empty(n_nodes)
        self.children_left = np.full(n_nodes, _TREE_LEAF, dtype=np.int64)
        self.children_right = np.full(n_nodes, _TREE_LEAF, dtype=np.int64)
        self.value = np.empty(n_nodes)
        self.n_node_samples = np.empty(n_nodes, dtype=np.int64)
        ids = rank = np.zeros(1, dtype=np.int64)
        for depth, split in enumerate(internal):
            self.feature[ids] = features[depth]
            self.threshold[ids] = thresholds[depth]
            self.value[ids] = values[depth]
            self.n_node_samples[ids] = counts[depth]
            r = rank[split]
            self.children_left[ids[split]] = 1 + 2 * r
            self.children_right[ids[split]] = 2 + 2 * r
            if depth + 1 < len(internal):
                ids = (2 * r[:, None] + np.array([1, 2])).ravel()
                right_subtree = n_internal[depth + 1][1::2]
                rank = np.stack([r + 1 + right_subtree, r + 1], axis=1).ravel()


class DecisionTreeRegressor(BaseEstimator, RegressorMixin):
    """CART regression tree (the paper's "DT" model and the base learner of
    RF, GB and AB ensembles).

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until leaves are pure or contain
        fewer than ``min_samples_split`` samples.
    min_samples_split, min_samples_leaf:
        Pre-pruning controls.
    max_features:
        ``None`` (all), an int, a float fraction, or ``"sqrt"``/``"log2"`` —
        the number of features examined per split (used by random forests).
    min_impurity_decrease:
        Minimum weighted SSE reduction required to accept a split.
    random_state:
        Seed controlling the feature subsampling.
    tree_method:
        ``"exact"`` (default, presort-and-partition scan over every sample
        position) or ``"hist"`` (histogram-binned scan over at most
        ``max_bins`` bin boundaries per feature — much faster on deep trees
        over large nodes, bit-identical to ``"exact"`` when every feature has
        at most ``max_bins`` distinct values).
    max_bins:
        Bin budget per feature for ``tree_method="hist"`` (2–255).
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Any = None,
        min_impurity_decrease: float = 0.0,
        random_state: Any = None,
        tree_method: str = "exact",
        max_bins: int = 255,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.min_impurity_decrease = min_impurity_decrease
        self.random_state = random_state
        self.tree_method = tree_method
        self.max_bins = max_bins

    def _resolve_max_features(self, n_features: int) -> Optional[int]:
        mf = self.max_features
        if mf is None:
            return None
        if isinstance(mf, str):
            if mf == "sqrt":
                return max(1, int(np.sqrt(n_features)))
            if mf == "log2":
                return max(1, int(np.log2(n_features)))
            raise ValueError(f"Unknown max_features string {mf!r}.")
        if isinstance(mf, float):
            if not 0.0 < mf <= 1.0:
                raise ValueError("max_features as a float must be in (0, 1].")
            return max(1, int(round(mf * n_features)))
        mf = int(mf)
        if mf < 1:
            raise ValueError("max_features must be at least 1.")
        return min(mf, n_features)

    def fit(
        self,
        X: Any,
        y: Any,
        sample_weight: Any = None,
        *,
        use_presort_cache: bool = True,
        bins: Optional[FeatureBins] = None,
        capture_train_prediction: bool = False,
    ) -> "DecisionTreeRegressor":
        """Fit the tree.

        ``use_presort_cache`` gates the content-addressed dataset-artefact
        caches (the exact builder's presort, the hist builder's bins);
        callers fitting a single-use matrix pass ``False`` to avoid hashing
        and LRU churn.  ``bins`` lets ensemble callers hand the hist builder
        a pre-computed binning whose code rows align with ``X`` (e.g. a
        ``FeatureBins.take`` row subset of a once-binned dataset).
        ``capture_train_prediction`` (hist only) exposes the fitted tree's
        predictions on the training matrix as ``train_prediction_`` — the
        builder knows each sample's leaf from the partition, so this is
        ``predict(X)`` bit for bit without a traversal; ensemble callers
        consume (and delete) it to skip the per-stage predict.
        """
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be at least 2.")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1.")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be at least 1 (or None).")
        if self.tree_method not in ("exact", "hist"):
            raise ValueError(
                f"Unknown tree_method {self.tree_method!r}; expected 'exact' or 'hist'."
            )
        X, y = check_X_y(X, y)
        if sample_weight is None:
            w = np.ones(len(y))
        else:
            w = np.asarray(sample_weight, dtype=np.float64).ravel()
            if w.shape[0] != len(y):
                raise ValueError("sample_weight has wrong length.")
            if np.any(w < 0) or w.sum() <= 0:
                raise ValueError("sample_weight must be non-negative and not all zero.")

        rng = check_random_state(self.random_state)
        params = dict(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            min_impurity_decrease=self.min_impurity_decrease,
            max_features=self._resolve_max_features(X.shape[1]),
            rng=rng,
        )
        if self.tree_method == "hist":
            if bins is None:
                # The content-addressed bins cache makes repeated fits on the
                # same matrix (boosting stages, CV candidates) bin only once.
                bins = (
                    feature_bins(X, self.max_bins)
                    if use_presort_cache
                    else compute_feature_bins(X, self.max_bins)
                )
            elif bins.codes.shape != X.shape:
                raise ValueError(
                    f"bins codes have shape {bins.codes.shape} but X has shape {X.shape}."
                )
            builder: _TreeBuilder = _HistTreeBuilder(bins=bins, **params)
            builder.build(X, y, w, bins.codes)
            if capture_train_prediction:
                self.train_prediction_ = builder.train_prediction
        else:
            builder = _TreeBuilder(**params)
            # The content-addressed presort cache makes repeated fits on the same
            # matrix (boosting stages, CV candidates on one fold) sort only once.
            # Callers fitting a single-use matrix (bootstrap/subsampled rows)
            # pass use_presort_cache=False to avoid hashing and LRU churn.
            presort = feature_presort(X) if use_presort_cache else None
            builder.build(X, y, w, presort=presort)
        self.feature_ = np.asarray(builder.feature, dtype=np.int64)
        self.threshold_ = np.asarray(builder.threshold, dtype=np.float64)
        self.children_left_ = np.asarray(builder.children_left, dtype=np.int64)
        self.children_right_ = np.asarray(builder.children_right, dtype=np.int64)
        self.value_ = np.asarray(builder.value, dtype=np.float64)
        self.n_node_samples_ = np.asarray(builder.n_node_samples, dtype=np.int64)
        self.n_features_in_ = X.shape[1]
        self.n_nodes_ = len(self.value_)
        return self

    def apply(self, X: Any) -> np.ndarray:
        """Return the leaf index reached by every sample (vectorised traversal)."""
        self._check_is_fitted()
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, but the tree was fitted with {self.n_features_in_}."
            )
        nodes = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature_[nodes] != _TREE_UNDEFINED
        while np.any(active):
            idx = np.flatnonzero(active)
            cur = nodes[idx]
            feat = self.feature_[cur]
            go_left = X[idx, feat] <= self.threshold_[cur]
            nodes[idx] = np.where(go_left, self.children_left_[cur], self.children_right_[cur])
            active[idx] = self.feature_[nodes[idx]] != _TREE_UNDEFINED
        return nodes

    def predict(self, X: Any) -> np.ndarray:
        return self.value_[self.apply(X)]

    def get_depth(self) -> int:
        """Depth of the fitted tree (root-only trees have depth 0).

        Level-order array passes over ``children_left_``/``children_right_``:
        each iteration replaces the frontier with all of its children, so the
        cost is one vectorised gather per level instead of a Python loop over
        every node.
        """
        self._check_is_fitted()
        frontier = np.zeros(1, dtype=np.int64)
        depth = 0
        while True:
            internal = frontier[self.feature_[frontier] != _TREE_UNDEFINED]
            if internal.size == 0:
                return depth
            frontier = np.concatenate(
                (self.children_left_[internal], self.children_right_[internal])
            )
            depth += 1

    def get_n_leaves(self) -> int:
        self._check_is_fitted()
        return int(np.sum(self.feature_ == _TREE_UNDEFINED))

    @property
    def feature_importances_(self) -> np.ndarray:
        """Number-of-samples-weighted usage frequency of each feature.

        A simple surrogate for impurity-based importance: each internal node
        contributes its sample count to the feature it splits on, normalised
        to sum to one.
        """
        self._check_is_fitted()
        importances = np.zeros(self.n_features_in_)
        internal = self.feature_ != _TREE_UNDEFINED
        np.add.at(importances, self.feature_[internal], self.n_node_samples_[internal])
        total = importances.sum()
        return importances / total if total > 0 else importances
