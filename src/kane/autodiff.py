"""Dense float64 tensors with tape-based reverse-mode differentiation.

The model's heavy steps are ``fused`` records: one NumPy forward and one
hand-written backward each. Each attention layer, each head merge, each
loss and the LSTM encoder is one, so a train-50 or train-500 training step
makes 7 tape records and a classify-lstm-50 step 9. The generic op set is
what is left around them, and it is closed: the product ``matmul``, the
row gather ``rows`` and its adjoint ``scatter_rows`` (the bag-of-words
encoder and the classifier), ``concat_rows`` (the isolated entities'
rows) and the bias add ``add_rowvec``. Values are numpy arrays of at most
two dimensions (0-d scalars, 1-d vectors, 2-d matrices); there is no
broadcasting, no sparse storage and no higher-order gradients.

Ops executed inside a ``with Tape():`` block record themselves on that
tape; outside a tape they are plain forward computations, which is how
evaluation code runs the model without paying for bookkeeping.

Gradient buffers are owned, not copied. A tensor's first gradient is the
array its consumer's backward hands over (``_accum`` adopts it), and later
ones are added into it in place. So a backward passes the array it
received, or a view of it, to at most one parent: ``concat_rows`` hands
out disjoint row slices, ``fused`` copies a gradient that may share memory
with an earlier one, and every other backward builds a fresh array per
parent. A received array may be passed on because the sweep runs in
reverse tape order: by the time a tensor's backward runs, its own gradient
is final. The grads of two parameters therefore never share memory, while
an intermediate tensor's ``grad`` may go on to hold a parent's sum after
its backward ran; read the grads of parameters, not of intermediates. A
``fused`` record may list a parent more than once; it then adds that
parent's gradients one after another, in its list's order.

The NumPy kernels the records run sum rows by index. ``scatter_sum`` is a
flat ``np.bincount`` over ``index * width + column``: it serves the
backward of the gather ``rows``, the forward of its adjoint
``scatter_rows``, the completion loss's scatters and the layers' scatters,
needs no sort, and reads its input in memory order; rows no index hits
are zero. An ``AggregationPlan``, built once per edge set (a graph view
holds one), holds the segments of the edges and runs the segment softmax
and the edge aggregation over them. The aggregation reads its table rows
by index where they are and sums them slot by slot over segments ordered
longest first, with no (entries, width) array: its forward runs over
segments, and its table gradient over the entries grouped by table row,
whose reverse index the plan builds at the first gradient. Both kernels
add in index order from zero, so every sum equals a Python loop's.
"""
from __future__ import annotations

import threading
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError

_LOCAL = threading.local()


def active_tape() -> "Tape | None":
    return getattr(_LOCAL, "tape", None)


class Tape:
    """Recorded operations in creation order.

    Creation order is already a topological order (an op can only consume
    tensors that exist), so the backward pass is a single reverse sweep.
    A tape is confined to the thread that opened it; nested tapes restore
    the previous one on exit.
    """

    def __init__(self) -> None:
        self.records: list[Tensor] = []
        self._outer: Tape | None = None

    def __enter__(self) -> "Tape":
        self._outer = active_tape()
        _LOCAL.tape = self
        return self

    def __exit__(self, *exc) -> None:
        _LOCAL.tape = self._outer
        self._outer = None


class Tensor:
    """A float64 array plus the plumbing reverse mode needs.

    ``grad`` stays ``None`` until the backward sweep reaches the tensor.
    Leaves created with ``parameter`` receive gradients; plain constants
    never do.
    """

    __slots__ = ("data", "grad", "is_param", "name", "_parents", "_backward")

    def __init__(self, data, *, is_param: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise ShapeError(f"tensors are at most 2-d, got shape {arr.shape}")
        if arr.size == 0:
            raise ShapeError(f"zero-size tensor is not allowed (shape {arr.shape})")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.is_param = is_param
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != ():
            raise ShapeError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data)

    def __repr__(self) -> str:
        tag = self.name or ("param" if self.is_param else "tensor")
        return f"Tensor({tag}, shape={self.data.shape})"


def parameter(data, name: str | None = None) -> Tensor:
    """A trainable leaf: receives a gradient from every backward pass whose
    root depends on it."""
    return Tensor(data, is_param=True, name=name)


def constant(data, name: str | None = None) -> Tensor:
    """A non-trainable leaf: never receives a gradient."""
    return Tensor(data, is_param=False, name=name)


def _make(data: np.ndarray, parents: tuple, backward: Callable) -> Tensor:
    out = Tensor(data)
    tape = active_tape()
    if tape is not None:
        out._parents = parents
        out._backward = backward
        tape.records.append(out)
    return out


def _takes_grad(t: Tensor) -> bool:
    # constants do not accumulate; this also prunes dead subgraphs
    return t._backward is not None or t.is_param


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to ``t.grad``; a first gradient is adopted, not copied."""
    if not _takes_grad(t):
        return
    if t.grad is None:
        t.grad = np.asarray(g)
    else:
        t.grad += g


def scatter_sum(idx: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """Row ``i`` of the result is the sum of the entries or rows of ``g``
    whose index is ``i``, for ``i < n``; rows no index hits are zero.

    One flat ``bincount`` over ``idx * width + column``: it reads ``g`` in
    memory order and needs no sort, where an axis-0 ``reduceat`` walks each
    column down the rows.
    """
    if g.ndim == 1:
        return np.bincount(idx, weights=g, minlength=n)
    w = g.shape[1]
    flat = (idx[:, None] * w + np.arange(w)).ravel()
    return np.bincount(flat, weights=g.ravel(), minlength=n * w).reshape(n, w)


def fused(data, parents: Sequence[Tensor], backward: Callable) -> Tensor:
    """A tape record of value ``data`` whose ``backward(g)`` returns, per
    parent, a gradient shaped like it or ``None``. Parents that take no
    gradient get none; a gradient that may alias an earlier one is copied;
    a parent listed more than once gets its gradients in list order."""

    def back(g):
        given: list[np.ndarray] = []
        for p, grad in zip(parents, backward(g), strict=True):
            if grad is not None and _takes_grad(p):
                given.append(grad.copy() if any(np.may_share_memory(grad, h) for h in given) else grad)
                _accum(p, given[-1])

    return _make(data, tuple(parents), back)


def backward(tape: Tape, root: Tensor) -> None:
    """Reverse sweep from a scalar root into the ``grad`` of every tensor
    on its path; a parameter the root does not depend on keeps ``None``."""
    if root.shape != ():
        raise ShapeError(f"backward needs a scalar root, got shape {root.shape}")
    root.grad = np.ones((), dtype=np.float64)
    for out in reversed(tape.records):
        if out.grad is not None and out._backward is not None:
            out._backward(out.grad)


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# linear algebra and structure

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def back(g):
        # skip the product for an operand that takes no gradient
        if _takes_grad(a):
            _accum(a, g @ b.data.T)
        if _takes_grad(b):
            _accum(b, a.data.T @ g)

    return _make(a.data @ b.data, (a, b), back)


def _indices(indices, n: int, op: str) -> np.ndarray:
    """A validated non-empty 1-d index array into ``n`` rows."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ShapeError(f"{op}: needs a non-empty 1-d index list")
    if idx.min() < 0 or idx.max() >= n:
        raise IndexError(f"{op}: index out of range for {n} rows")
    return idx


def rows(m: Tensor, indices) -> Tensor:
    """Entries of a vector or rows of a matrix by index; indices may repeat."""
    if m.data.ndim == 0:
        raise ShapeError("rows: needs a vector or a matrix, got a scalar")
    idx = _indices(indices, m.shape[0], "rows")

    def back(g):
        if _takes_grad(m):
            _accum(m, scatter_sum(idx, g, m.shape[0]))

    return _make(m.data[idx], (m,), back)


def scatter_rows(m: Tensor, indices, n: int) -> Tensor:
    """The adjoint of ``rows``: entry or row ``k`` of ``m`` is added into
    row ``indices[k]`` of an ``n``-row result; rows no index hits are zero.
    Its backward is the gather."""
    if m.data.ndim == 0:
        raise ShapeError("scatter_rows: needs a vector or a matrix, got a scalar")
    idx = _indices(indices, n, "scatter_rows")
    if idx.size != m.shape[0]:
        raise ShapeError(f"scatter_rows: {idx.size} indices for {m.shape[0]} rows")

    def back(g):
        _accum(m, g[idx])

    return _make(scatter_sum(idx, m.data, n), (m,), back)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack matrices with equal column counts on top of each other."""
    if not parts:
        raise ShapeError("concat_rows: needs at least one tensor")
    for p in parts:
        if p.data.ndim != 2 or p.shape[1] != parts[0].shape[1]:
            raise ShapeError(f"concat_rows: needs matrices of equal width, got {p.shape} vs {parts[0].shape}")
    parts = tuple(parts)
    bounds = np.cumsum([0] + [p.shape[0] for p in parts])

    def back(g):
        for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            _accum(p, g[lo:hi])

    return _make(np.concatenate([p.data for p in parts], axis=0), parts, back)


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Add a vector to every row of a matrix (bias add)."""
    if m.data.ndim != 2 or v.data.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ShapeError(f"add_rowvec: incompatible shapes {m.shape} and {v.shape}")

    def back(g):
        _accum(m, g)
        _accum(v, g.sum(axis=0))

    return _make(m.data + v.data, (m, v), back)


# ---------------------------------------------------------------------------
# segments: consecutive runs of entries, delimited by CSR offsets
#
# ``offsets`` has one more entry than there are segments: segment k covers
# entries offsets[k]:offsets[k + 1]. Offsets start at 0, end at the entry
# count and strictly increase, so no segment is empty.

def _segments(offsets, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Segment starts and lengths from validated offsets."""
    off = np.asarray(offsets, dtype=np.intp)
    if off.ndim != 1 or off.size < 2 or off[0] != 0 or off[-1] != length:
        raise ShapeError(f"AggregationPlan: offsets must be 1-d and run from 0 to {length}")
    counts = np.diff(off)
    if (counts < 1).any():
        raise ShapeError("AggregationPlan: offsets must strictly increase (no empty segment)")
    return off[:-1], counts


def _slot_major(first: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """For runs ordered longest first, run ``r`` holding positions
    ``first[r] + l`` for ``l < lengths[r]``: every position, slot ``l`` by
    slot and within a slot run by run, and each slot's (start, stop) in that
    list. The runs still open at a slot are a prefix of the order."""
    open_ = np.searchsorted(-lengths, -np.arange(lengths[0]))  # runs longer than l
    bounds = np.concatenate([[0], np.cumsum(open_)])
    run = np.arange(bounds[-1]) - np.repeat(bounds[:-1], open_)
    positions = first[run] + np.repeat(np.arange(open_.size), open_)
    return positions, list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


class AggregationPlan:
    """The segments of fixed entries and the NumPy kernels that run over
    them: entry ``e`` reads table row ``index[e]``, and the CSR ``offsets``
    delimit the segments (``starts``, ``counts``). A graph view builds one
    for its edges, which never change, and every attention layer over them
    reads it: ``softmax`` and its gradient per segment, and the weighted sum
    of table rows per segment and its two gradients.

    The weighted sum runs slot by slot. Segments are ordered longest first
    (``order``, a stable sort), so the ones still open at slot ``l`` are a
    prefix of that order and slot ``l`` adds entry ``l`` of each.
    ``entries`` lists the entries slot-major, ``sources`` the table rows
    they read, and ``slots`` each slot's (start, stop) in those lists. The
    same structure over the entries grouped by table row, for the table
    gradient, is built at the first gradient (``reverse``, cached), so a
    forward outside a tape never pays for it.
    """

    def __init__(self, index, offsets):
        idx = np.asarray(index, dtype=np.intp)
        if idx.ndim != 1 or idx.size == 0:
            raise ShapeError("AggregationPlan: needs a non-empty 1-d index list")
        if idx.min() < 0:
            raise IndexError("AggregationPlan: negative table row index")
        self.starts, self.counts = _segments(offsets, idx.size)
        self.index = idx
        self.rows = int(idx.max()) + 1  # a table needs at least this many rows
        self.order = np.argsort(-self.counts, kind="stable")
        self.entries, self.slots = _slot_major(self.starts[self.order], self.counts[self.order])
        self.sources = idx[self.entries]

    @cached_property
    def reverse(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, int]]]:
        """The table rows that entries read, most-read first; then, slot by
        slot over those rows, the entries (grouped by row in entry order, a
        stable sort) and the segments they belong to; and each slot's
        (start, stop)."""
        by_row = np.argsort(self.index, kind="stable")
        hits = np.bincount(self.index)
        hit_rows = np.argsort(-hits, kind="stable")[:np.count_nonzero(hits)]
        first = (np.cumsum(hits) - hits)[hit_rows]
        positions, slots = _slot_major(first, hits[hit_rows])
        entries = by_row[positions]
        return hit_rows, entries, np.repeat(np.arange(self.counts.size), self.counts)[entries], slots

    def _per_segment(self, sums: np.ndarray) -> np.ndarray:
        """Each segment's row of ``sums`` repeated once per entry."""
        return np.repeat(sums, self.counts, axis=0)

    def softmax(self, logits: np.ndarray) -> np.ndarray:
        """Softmax within each segment (max-stabilized per segment) of an
        (entries,) logit vector, or of each column of an (entries, k) one."""
        if logits.ndim not in (1, 2) or logits.shape[0] != self.index.size:
            raise ShapeError(f"softmax: logits of shape {logits.shape} for {self.index.size} entries")
        e = np.exp(logits - self._per_segment(np.maximum.reduceat(logits, self.starts)))
        return e / self._per_segment(np.add.reduceat(e, self.starts))

    def softmax_grad(self, g: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """The logit gradient of ``softmax`` output ``weights`` given ``g``."""
        return weights * (g - self._per_segment(np.add.reduceat(g * weights, self.starts)))

    def _blocks(self, weights: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(entries, k, 1) weights and (rows, k, q / k) table blocks: a weight
        vector scales whole rows, weight column j column block j."""
        k = weights.shape[1] if weights.ndim == 2 else 1
        if weights.ndim not in (1, 2) or table.ndim != 2 or table.shape[1] % k:
            raise ShapeError(f"weighted sum: incompatible shapes {weights.shape} and {table.shape}")
        if weights.shape[0] != self.index.size:
            raise ShapeError(f"weighted sum: {weights.shape[0]} weight rows for {self.index.size} entries")
        if table.shape[0] < self.rows:
            raise IndexError(f"weighted sum: index out of range for {table.shape[0]} rows")
        return weights.reshape(-1, k, 1), table.reshape(table.shape[0], k, -1)

    def weighted_sum(self, weights: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Per segment, the sum over its entries e of table row ``index[e]``
        scaled by weight e: (entries,) or (entries, k) weights and a (rows,
        q) table -> (segments, q). Indices may repeat, and table rows no
        index hits add nothing.

        No (entries, q) array is built. Slot ``l`` adds entry ``l`` of each
        segment still open into a zeroed (segments, q) accumulator, one
        gather, one product and one sum per slot, so every sum is 0 + x_0 +
        x_1 + ... in entry order.
        """
        w, blocks = self._blocks(weights, table)
        segments = self.counts.size
        acc = np.zeros((segments,) + blocks.shape[1:])
        _slot_sums(self.slots, blocks, self.sources, w[self.entries], np.empty_like(acc), acc)
        out = np.empty((segments, table.shape[1]))
        out[self.order] = acc.reshape(segments, -1)
        return out

    def weighted_sum_grads(
        self, g: np.ndarray, weights: np.ndarray, table: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The gradients of ``weighted_sum`` for the weights and the table,
        given the (segments, q) gradient ``g``; neither builds an (entries,
        q) array. The weight gradient walks the forward's slots, one row
        product per entry, summed as ``np.sum`` sums a row. The table
        gradient runs the forward's kernel over ``reverse``, so each table
        row adds its entries in entry order from zero, as ``scatter_sum``
        would."""
        w, blocks = self._blocks(weights, table)
        segments, n, k = self.counts.size, w.shape[0], w.shape[1]
        g = g.reshape(segments, k, -1)
        g_order = g[self.order]
        part = np.empty((segments,) + blocks.shape[1:])
        by_slot = np.empty((n, k))
        for lo, hi in self.slots:
            prod = blocks.take(self.sources[lo:hi], axis=0, out=part[:hi - lo], mode="clip")
            prod *= g_order[:hi - lo]
            np.add.reduce(prod, axis=2, out=by_slot[lo:hi])
        w_grad = np.empty((n, k))
        w_grad[self.entries] = by_slot
        hit_rows, row_entries, segment, row_slots = self.reverse
        row_acc = np.zeros((hit_rows.size,) + blocks.shape[1:])
        _slot_sums(row_slots, g, segment, w[row_entries], np.empty_like(row_acc), row_acc)
        table_grad = np.zeros(table.shape)
        table_grad[hit_rows] = row_acc.reshape(hit_rows.size, -1)
        return w_grad.reshape(weights.shape), table_grad


def _slot_sums(slots, table, index, weights, part, acc) -> None:
    """Add, for each slot-major entry ``p``, the row ``table[index[p]] *
    weights[p]`` into row ``p - start`` of ``acc``, where ``start`` opens
    its slot: every sum is acc + x_0 + x_1 + ... in slot order. ``part``
    holds at least as many rows as ``acc``."""
    for lo, hi in slots:
        # indices are checked, so take's "clip" never clips, and unlike
        # "raise" it writes to out directly
        scaled = table.take(index[lo:hi], axis=0, out=part[:hi - lo], mode="clip")
        scaled *= weights[lo:hi]
        acc[:hi - lo] += scaled
