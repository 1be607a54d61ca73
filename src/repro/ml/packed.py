"""Packed flat-array ensemble prediction engine.

Fitted tree ensembles (RF, GB, AB, the active-learning committees) used to
predict by looping over per-tree Python objects: ``n_trees`` separate
``apply()`` calls, each paying its own Python/NumPy dispatch overhead per
traversal level.  :class:`PackedEnsemble` concatenates every member tree's
``feature_``/``threshold_``/``children_*_``/``value_`` node arrays into one
C-contiguous arena (per-tree node offsets, child pointers rebased to global
int32 arena indices) and traverses **all trees for all samples in one batched
loop**: each iteration advances every (sample, tree) pair one level, so the
whole ensemble costs ``max_depth`` vectorised passes instead of ``n_trees``
of them.

Traversal internals (built lazily, never pickled):

* **Level-major node tables** — nodes are re-ordered by depth, so the pass
  for level ``d`` gathers from a contiguous slice of the arena that fits in
  cache instead of striding across every tree's full node block.
* **Self-looping leaves** — leaves redirect to themselves with a ``+inf``
  threshold, which removes all per-round masking/compaction: every round is
  three straight gathers, one compare and one fused child lookup.
* **Sample blocking** — samples are processed in blocks sized so a block's
  cursor/scratch arrays stay cache-resident across the depth loop, and the
  block's gathered leaf values are summed in place before the next block.

The parity bar: traversal is routing-identical to per-tree ``apply()`` (the
same ``<=`` comparison on the same float64 thresholds) and aggregation
replays the historical float-op order (sequential shrinkage accumulation for
GB, sequential sum for RF, weighted median for AB), so packed predictions
are **byte-identical** to the per-tree object path.  The sequential sums
are one kernel, :func:`running_sums`: a single ``np.add.accumulate`` down
the tree axis, which adds strictly left to right and so gives every sample
the roundings of the historical ``acc += scale * leaf`` loop without a
Python-level step per tree.

The arena doubles as the pickle form of fitted ensembles
(:func:`pack_trees_state` / :func:`unpack_trees_state`): a handful of flat
ndarrays serialize far smaller and faster than a graph of
``DecisionTreeRegressor`` objects, which shrinks memo-store payloads (disk
and ``memo://``) and pool-worker transfer costs for free.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.ml.tree import _TREE_LEAF, _TREE_UNDEFINED, DecisionTreeRegressor

__all__ = [
    "PackedEnsemble",
    "PackedTreesMixin",
    "committee_predictions",
    "pack_trees_state",
    "running_sums",
    "unpack_trees_state",
    "PACKED_STATE_VERSION",
]

#: Version tag of the packed pickle form emitted by :func:`pack_trees_state`.
PACKED_STATE_VERSION = 1

#: Samples per traversal block.  A block's cursor/scratch arrays are
#: ``n_trees * block`` elements; 256 keeps them cache-resident for the
#: paper's deployed 750-tree model while amortising per-call dispatch.
_BLOCK_SAMPLES = 256


class _Traversal:
    """Level-major, self-looping-leaf tables backing the batched traversal."""

    __slots__ = ("feature", "threshold", "children2", "value", "order", "roots", "max_depth")

    def __init__(self, pe: "PackedEnsemble") -> None:
        n_nodes = pe.n_nodes
        leaf = pe.feature == _TREE_UNDEFINED
        identity = np.arange(n_nodes, dtype=np.intp)
        left = np.where(pe.children_left == _TREE_LEAF, identity, pe.children_left)
        right = np.where(pe.children_right == _TREE_LEAF, identity, pe.children_right)

        # Node depths via one vectorised frontier pass per level.
        depth = np.zeros(n_nodes, dtype=np.intp)
        frontier = pe.offsets[:-1].astype(np.intp)
        max_depth = 0
        while True:
            internal = frontier[~leaf[frontier]]
            if internal.size == 0:
                break
            frontier = np.concatenate(
                (pe.children_left[internal], pe.children_right[internal])
            ).astype(np.intp)
            max_depth += 1
            depth[frontier] = max_depth

        # Stable sort by depth: level-major order, tree/DFS order within a
        # level, so each traversal round reads a contiguous arena slice.
        order = np.argsort(depth, kind="stable").astype(np.intp)
        rank = np.empty(n_nodes, dtype=np.intp)
        rank[order] = identity

        # Leaves become self-loops with an always-true (+inf) comparison on
        # feature 0: finished pairs ride along without masking and their
        # cursor keeps pointing at the leaf whose value they need.
        self.feature = np.where(leaf, 0, pe.feature)[order].astype(np.intp)
        self.threshold = np.where(leaf, np.inf, pe.threshold)[order]
        children2 = np.empty(2 * n_nodes, dtype=np.intp)
        children2[0::2] = rank[left[order]]
        children2[1::2] = rank[right[order]]
        self.children2 = children2
        self.value = pe.value[order]
        self.order = order
        self.roots = rank[pe.offsets[:-1]]
        self.max_depth = max_depth


class PackedEnsemble:
    """Flat-arena representation of a fitted tree ensemble.

    Attributes
    ----------
    feature, threshold, value, n_node_samples:
        Concatenation of the member trees' node arrays (``feature`` as int32;
        leaves keep the ``_TREE_UNDEFINED`` sentinel).
    children_left, children_right:
        int32 child pointers rebased to *global* arena indices; leaves keep
        ``_TREE_LEAF``.
    offsets:
        ``(n_trees + 1,)`` int64 prefix of node counts: tree ``t`` owns arena
        slots ``offsets[t]:offsets[t + 1]`` and its root is ``offsets[t]``.
    """

    __slots__ = (
        "feature",
        "threshold",
        "children_left",
        "children_right",
        "value",
        "n_node_samples",
        "offsets",
        "n_features_in",
        "_trav",
    )

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        children_left: np.ndarray,
        children_right: np.ndarray,
        value: np.ndarray,
        n_node_samples: np.ndarray,
        offsets: np.ndarray,
        n_features_in: int,
    ) -> None:
        self.feature = feature
        self.threshold = threshold
        self.children_left = children_left
        self.children_right = children_right
        self.value = value
        self.n_node_samples = n_node_samples
        self.offsets = offsets
        self.n_features_in = int(n_features_in)
        self._trav: Optional[_Traversal] = None

    # ------------------------------------------------------------------ pickling
    # __slots__ classes have no __dict__; pickle the canonical arena only —
    # the traversal tables are a cache, rebuilt on first use.
    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__[:-1])

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)
        self._trav = None

    # ------------------------------------------------------------------ building
    @classmethod
    def from_trees(cls, trees: Sequence[DecisionTreeRegressor]) -> "PackedEnsemble":
        """Pack fitted :class:`DecisionTreeRegressor` members into one arena."""
        if not trees:
            raise ValueError("Cannot pack an empty ensemble.")
        for tree in trees:
            if not hasattr(tree, "n_nodes_"):
                raise ValueError("Every member tree must be fitted before packing.")
        n_features = trees[0].n_features_in_
        for tree in trees:
            if tree.n_features_in_ != n_features:
                raise ValueError("Member trees disagree on the number of features.")
        sizes = np.asarray([t.n_nodes_ for t in trees], dtype=np.int64)
        offsets = np.zeros(len(trees) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])

        children_left = []
        children_right = []
        for tree, off in zip(trees, offsets[:-1]):
            cl = tree.children_left_
            cr = tree.children_right_
            children_left.append(np.where(cl == _TREE_LEAF, _TREE_LEAF, cl + off))
            children_right.append(np.where(cr == _TREE_LEAF, _TREE_LEAF, cr + off))

        return cls(
            feature=np.ascontiguousarray(
                np.concatenate([t.feature_ for t in trees]), dtype=np.int32
            ),
            threshold=np.ascontiguousarray(
                np.concatenate([t.threshold_ for t in trees]), dtype=np.float64
            ),
            children_left=np.ascontiguousarray(
                np.concatenate(children_left), dtype=np.int32
            ),
            children_right=np.ascontiguousarray(
                np.concatenate(children_right), dtype=np.int32
            ),
            value=np.ascontiguousarray(
                np.concatenate([t.value_ for t in trees]), dtype=np.float64
            ),
            n_node_samples=np.ascontiguousarray(
                np.concatenate([t.n_node_samples_ for t in trees]), dtype=np.int32
            ),
            offsets=offsets,
            n_features_in=n_features,
        )

    @classmethod
    def concat(cls, packs: Sequence["PackedEnsemble"]) -> "PackedEnsemble":
        """Stack several arenas into one (e.g. every committee member's trees)."""
        if not packs:
            raise ValueError("Cannot concatenate zero arenas.")
        n_features = packs[0].n_features_in
        if any(p.n_features_in != n_features for p in packs):
            raise ValueError("Arenas disagree on the number of features.")
        node_shift = np.cumsum([0] + [p.n_nodes for p in packs])
        children_left = []
        children_right = []
        offset_parts = [np.zeros(1, dtype=np.int64)]
        for pack, shift in zip(packs, node_shift[:-1]):
            cl = pack.children_left
            cr = pack.children_right
            children_left.append(np.where(cl == _TREE_LEAF, _TREE_LEAF, cl + shift))
            children_right.append(np.where(cr == _TREE_LEAF, _TREE_LEAF, cr + shift))
            offset_parts.append(pack.offsets[1:] + shift)
        return cls(
            feature=np.concatenate([p.feature for p in packs]),
            threshold=np.concatenate([p.threshold for p in packs]),
            children_left=np.ascontiguousarray(
                np.concatenate(children_left), dtype=np.int32
            ),
            children_right=np.ascontiguousarray(
                np.concatenate(children_right), dtype=np.int32
            ),
            value=np.concatenate([p.value for p in packs]),
            n_node_samples=np.concatenate([p.n_node_samples for p in packs]),
            offsets=np.concatenate(offset_parts),
            n_features_in=n_features,
        )

    # ------------------------------------------------------------------ introspection
    @property
    def n_trees(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_nodes(self) -> int:
        return int(self.offsets[-1])

    def tree_slice(self, t: int) -> tuple[int, int]:
        """Arena span ``[lo, hi)`` of member tree ``t``."""
        return int(self.offsets[t]), int(self.offsets[t + 1])

    # ------------------------------------------------------------------ traversal
    def _traversal(self) -> _Traversal:
        if self._trav is None:
            self._trav = _Traversal(self)
        return self._trav

    def _check_X(self, X: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_in:
            raise ValueError(
                f"X has shape {X.shape}, but the packed ensemble was fitted "
                f"with {self.n_features_in} features."
            )
        # Per-tree apply() rejected non-finite inputs via check_array; keep
        # that loud failure here — a NaN would otherwise route through the
        # inverted (value > threshold) comparison and silently differ.
        if not np.all(np.isfinite(X)):
            raise ValueError("Input contains NaN or infinity.")
        return X

    def _resolve_n_trees(self, n_trees: Optional[int]) -> int:
        k = self.n_trees if n_trees is None else int(n_trees)
        if not 0 < k <= self.n_trees:
            raise ValueError(f"n_trees must be in [1, {self.n_trees}], got {n_trees}.")
        return k

    def _traverse_blocks(self, X: np.ndarray, k: int):
        """Yield ``(lo, hi, flat)`` per sample block.

        ``flat`` holds the level-major arena index of the leaf reached by
        every pair, laid out tree-major: entry ``t * (hi - lo) + i`` is
        (tree ``t``, sample ``lo + i``).  Tree-major order makes per-tree
        accumulation and leaf-value slabs contiguous.
        """
        trav = self._traversal()
        n_samples, n_features = X.shape
        Xflat = X.ravel()
        roots = trav.roots[:k, None]
        feature, threshold, children2 = trav.feature, trav.threshold, trav.children2
        for lo in range(0, n_samples, _BLOCK_SAMPLES):
            hi = min(lo + _BLOCK_SAMPLES, n_samples)
            b = hi - lo
            flat = np.empty((k, b), dtype=np.intp)
            flat[:] = roots
            flat = flat.ravel()
            row_base = np.tile(np.arange(lo, hi, dtype=np.intp) * n_features, k)
            for _ in range(trav.max_depth):
                feat = feature[flat]
                xv = Xflat[row_base + feat]
                go_right = xv > threshold[flat]
                flat = children2[2 * flat + go_right]
            yield lo, hi, flat

    def apply(self, X: np.ndarray, n_trees: Optional[int] = None) -> np.ndarray:
        """Global arena index of the leaf reached by every (sample, tree) pair.

        Routing is identical to per-tree :meth:`DecisionTreeRegressor.apply`:
        the same ``<=`` threshold test on the same float64 values.  Returns
        shape ``(n_samples, k)`` where ``k`` is ``n_trees`` (default: every
        member; trees are arena-ordered, so a prefix count selects the first
        ``k`` members — GB staging uses this).
        """
        X = self._check_X(X)
        k = self._resolve_n_trees(n_trees)
        trav = self._traversal()
        out = np.empty((X.shape[0], k), dtype=np.int64)
        for lo, hi, flat in self._traverse_blocks(X, k):
            out[lo:hi] = trav.order[flat].reshape(k, hi - lo).T
        return out

    def leaf_values(
        self, X: np.ndarray, n_trees: Optional[int] = None, *, tree_major: bool = False
    ) -> np.ndarray:
        """Per-tree leaf values: ``(n_samples, k)``, or ``(k, n_samples)``
        when ``tree_major`` (contiguous per-tree rows for staged scans).

        Entry ``[i, t]`` (or ``[t, i]``) is bit-identical to
        ``trees[t].predict(X)[i]``; consumers choose their own aggregation
        order over the matrix.
        """
        X = self._check_X(X)
        k = self._resolve_n_trees(n_trees)
        trav = self._traversal()
        n_samples = X.shape[0]
        out = np.empty((k, n_samples) if tree_major else (n_samples, k))
        for lo, hi, flat in self._traverse_blocks(X, k):
            slab = trav.value[flat].reshape(k, hi - lo)
            if tree_major:
                out[:, lo:hi] = slab
            else:
                out[lo:hi] = slab.T
        return out

    def segment_sums(
        self, X: np.ndarray, segments: Sequence[tuple[int, float, float]]
    ) -> np.ndarray:
        """Sequentially accumulated leaf sums over consecutive tree segments.

        ``segments`` is a sequence of ``(n_trees, init, scale)``; column ``j``
        of the ``(n_samples, n_segments)`` result is
        ``init_j + scale_j * leaf_0 + scale_j * leaf_1 + ...`` over segment
        ``j``'s trees, accumulated **in tree order** — the exact float-op
        sequence of the historical per-tree loops (GB shrinkage stages, RF
        member sums, one committee member per segment).  Each segment of a
        block's freshly gathered leaf slab goes through :func:`running_sums`
        in place, so no buffer beyond the gather is allocated and the full
        leaf matrix is never materialised.
        """
        X = self._check_X(X)
        counts = [int(c) for c, _, _ in segments]
        if min(counts, default=0) < 1:
            raise ValueError(f"Every segment needs at least one tree, got {counts}.")
        k = sum(counts)
        self._resolve_n_trees(k)
        trav = self._traversal()
        bounds = np.cumsum([0] + counts)
        out = np.empty((X.shape[0], len(counts)))
        for lo, hi, flat in self._traverse_blocks(X, k):
            slab = trav.value[flat].reshape(k, hi - lo)
            for j, (_, init, scale) in enumerate(segments):
                sums = running_sums(slab[bounds[j] : bounds[j + 1]], init, scale)
                out[lo:hi, j] = sums[-1]
        return out

    def accumulate(
        self,
        X: np.ndarray,
        *,
        init: float = 0.0,
        scale: float = 1.0,
        n_trees: Optional[int] = None,
    ) -> np.ndarray:
        """``init + scale * leaf_0 + scale * leaf_1 + ...`` in tree order."""
        k = self._resolve_n_trees(n_trees)
        return self.segment_sums(X, [(k, init, scale)])[:, 0]


def running_sums(slab: np.ndarray, init: float, scale: float) -> np.ndarray:
    """Overwrite ``slab`` (trees × samples) with its running sums; return it.

    Row ``t`` becomes ``init + scale * slab[0] + ... + scale * slab[t]``.
    ``np.add.accumulate`` adds strictly left to right down the tree axis and
    IEEE ``+`` and ``*`` are commutative, so every sample's lane gets exactly
    the roundings of the historical per-tree ``acc += scale * leaf`` loop.
    The work happens in place: callers pass a slab they own (a fresh leaf
    gather), and no second buffer is allocated.
    """
    if scale != 1.0:
        slab *= scale
    slab[0] += init
    return np.add.accumulate(slab, axis=0, out=slab)


# --------------------------------------------------------------------------- pickle form
def pack_trees_state(
    trees: Sequence[DecisionTreeRegressor],
    packed: Optional[PackedEnsemble] = None,
) -> dict[str, Any]:
    """Serializable packed form of a fitted list of member trees.

    The arena replaces the list-of-objects graph in ensemble
    ``__getstate__``; per-tree hyper-parameters ride along so
    :func:`unpack_trees_state` can rebuild equivalent
    :class:`DecisionTreeRegressor` objects.  Pass a ``packed`` arena already
    built for these trees to skip re-concatenating them.
    """
    return {
        "version": PACKED_STATE_VERSION,
        "packed": packed if packed is not None else PackedEnsemble.from_trees(trees),
        "tree_params": [t.get_params(deep=False) for t in trees],
    }


def unpack_trees_state(
    state: dict[str, Any]
) -> tuple[PackedEnsemble, list[DecisionTreeRegressor]]:
    """Rebuild (arena, member trees) from a :func:`pack_trees_state` payload.

    The reconstructed trees carry the historical int64/float64 fitted-array
    dtypes and tree-local child indices, so they are drop-in identical to the
    objects that were packed (``apply``/``predict``/``get_depth``/
    ``feature_importances_`` all agree bit-for-bit).
    """
    version = state.get("version")
    if version != PACKED_STATE_VERSION:
        raise ValueError(f"Unsupported packed ensemble state version {version!r}.")
    packed: PackedEnsemble = state["packed"]
    trees: list[DecisionTreeRegressor] = []
    for t, params in enumerate(state["tree_params"]):
        lo, hi = packed.tree_slice(t)
        tree = DecisionTreeRegressor(**params)
        tree.feature_ = packed.feature[lo:hi].astype(np.int64)
        tree.threshold_ = packed.threshold[lo:hi].copy()
        cl = packed.children_left[lo:hi].astype(np.int64)
        cr = packed.children_right[lo:hi].astype(np.int64)
        tree.children_left_ = np.where(cl == _TREE_LEAF, _TREE_LEAF, cl - lo)
        tree.children_right_ = np.where(cr == _TREE_LEAF, _TREE_LEAF, cr - lo)
        tree.value_ = packed.value[lo:hi].copy()
        tree.n_node_samples_ = packed.n_node_samples[lo:hi].astype(np.int64)
        tree.n_features_in_ = packed.n_features_in
        tree.n_nodes_ = hi - lo
        trees.append(tree)
    return packed, trees


class PackedTreesMixin:
    """Arena cache + packed pickle form for ensembles of plain member trees.

    Expects the host estimator to keep its fitted members in ``estimators_``
    and to reset ``self._packed = None`` whenever that list is (re)built.
    ``_packed_ensemble()`` returns the cached arena — building it on first
    use — or ``None`` when the members are not all plain
    :class:`DecisionTreeRegressor` objects (e.g. AdaBoost with a custom base
    estimator), in which case pickling keeps the object graph too.
    """

    def _packable_trees(self) -> bool:
        trees = getattr(self, "estimators_", None)
        return bool(trees) and all(isinstance(t, DecisionTreeRegressor) for t in trees)

    def _packed_ensemble(self) -> Optional[PackedEnsemble]:
        packed = getattr(self, "_packed", None)
        if packed is None and self._packable_trees():
            packed = PackedEnsemble.from_trees(self.estimators_)
            self._packed = packed
        return packed

    def __getstate__(self) -> dict:
        """Pickle fitted members as the packed arena, not an object graph."""
        state = dict(self.__dict__)
        state.pop("_packed", None)
        if "estimators_" in state and self._packable_trees():
            state["_packed_trees_state"] = pack_trees_state(
                self.estimators_, packed=self._packed_ensemble()
            )
            del state["estimators_"]
        return state

    def __setstate__(self, state: dict) -> None:
        packed_state = state.pop("_packed_trees_state", None)
        self.__dict__.update(state)
        if packed_state is not None:
            packed, trees = unpack_trees_state(packed_state)
            self.estimators_ = trees
            self._packed = packed


# --------------------------------------------------------------------------- committees
def committee_predictions(members: Sequence[Any], X: np.ndarray) -> np.ndarray:
    """Per-member prediction matrix ``(n_samples, n_members)`` for a committee.

    When every member exposes the packed GB surface (``_packed_ensemble()``
    plus ``init_``/``learning_rate``), the members' arenas are stacked and
    traversed in **one** batched pass; each member's trees are then
    accumulated in its own stage order, which keeps every column byte-identical
    to ``member.predict(X)``.  Mixed or non-packed committees fall back to the
    historical per-member predict loop.
    """
    members = list(members)
    if not members:
        raise ValueError("committee_predictions needs at least one member.")
    packable = all(
        callable(getattr(m, "_packed_ensemble", None))
        and hasattr(m, "init_")
        and hasattr(m, "learning_rate")
        for m in members
    )
    if not packable:
        return np.column_stack([m.predict(X) for m in members])

    packs = [m._packed_ensemble() for m in members]
    combined = packs[0] if len(packs) == 1 else PackedEnsemble.concat(packs)
    segments = [
        (pack.n_trees, member.init_, member.learning_rate)
        for member, pack in zip(members, packs)
    ]
    return combined.segment_sums(X, segments)
