"""Dense float64 tensors with tape-based reverse-mode differentiation.

The op set is deliberately closed: it covers exactly what the embedding
model, the attribute encoders and the losses need. Values are numpy arrays
of at most two dimensions (0-d scalars, 1-d vectors, 2-d matrices); there
is no broadcasting, no sparse storage and no higher-order gradients.

Ops executed inside a ``with Tape():`` block record themselves on that
tape; outside a tape they are plain forward computations, which is how
evaluation code runs the model without paying for bookkeeping.

Gradient buffers are owned, not copied. A tensor's first gradient is the
array its consumer's backward hands over (``_accum`` adopts it), and later
ones are added into it in place. So a backward passes the array it
received, or a view of it, to at most one parent: ``add`` gives ``b`` a
copy, ``concat_rows`` hands out disjoint row slices, ``transpose`` and
``reshape`` one view each, and every other backward builds a fresh array
per parent. A received array may be passed on because the sweep runs in
reverse tape order: by the time a tensor's backward runs, its own gradient
is final. The grads of two parameters therefore never share memory, while
an intermediate tensor's ``grad`` may go on to hold a parent's sum after
its backward ran; read the grads of parameters, not of intermediates.

Every scatter of rows by index goes through one kernel, ``_scatter_sum``:
a flat ``np.bincount`` over ``index * width + column``. It serves the
backward of the gather ``rows``, the forward of its adjoint
``scatter_rows`` and the table gradient of ``segment_weighted_sum``, needs
no sort, and reads its input in memory order; rows no index hits are
zero. The forward of ``segment_weighted_sum``, the edge aggregation,
reads its table rows by index where they are and sums them slot by slot
over segments ordered longest first, with no (entries, width) array.
Both add in index order from zero, so every sum equals a Python loop's.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ShapeError

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


def _scatter_sum(idx: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
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


def _accum_rows(t: Tensor, idx: np.ndarray, g: np.ndarray) -> None:
    if _takes_grad(t):
        _accum(t, _scatter_sum(idx, g, t.shape[0]))


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
# arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")

    def back(g):
        _accum(a, g)
        if _takes_grad(b):
            _accum(b, g.copy())  # a may have adopted g

    return _make(a.data + b.data, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} differ")

    def back(g):
        _accum(a, g)
        _accum(b, -g)

    return _make(a.data - b.data, (a, b), back)


def scale(a: Tensor, factor: float) -> Tensor:
    c = float(factor)

    def back(g):
        _accum(a, g * c)

    return _make(a.data * c, (a,), back)


def elementwise_mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"elementwise_mul: shapes {a.shape} and {b.shape} differ")

    def back(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _make(a.data * b.data, (a, b), back)


# ---------------------------------------------------------------------------
# linear algebra

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


def transpose(m: Tensor) -> Tensor:
    if m.data.ndim != 2:
        raise ShapeError(f"transpose: needs a matrix, got shape {m.shape}")

    def back(g):
        _accum(m, g.T)

    return _make(np.ascontiguousarray(m.data.T), (m,), back)


# ---------------------------------------------------------------------------
# structure: lookups, stacking, reductions

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
        _accum_rows(m, idx, g)

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

    return _make(_scatter_sum(idx, m.data, n), (m,), back)


def reshape(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The same entries, in row-major order, in a new shape of at most two
    dimensions; one entry of ``shape`` may be -1."""
    try:
        val = t.data.reshape(shape)
    except ValueError as err:
        raise ShapeError(f"reshape: cannot reshape {t.shape} to {shape}") from err

    def back(g):
        _accum(t, g.reshape(t.shape))

    return _make(val, (t,), back)


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


def sum_all(t: Tensor) -> Tensor:
    def back(g):
        _accum(t, np.full(t.shape, g))

    return _make(np.asarray(t.data.sum()), (t,), back)


# ---------------------------------------------------------------------------
# norms

def rowwise_norm(m: Tensor, kind: str) -> Tensor:
    """Per-row L1 or L2 norm: (p, q) -> (p,). Used for batched scoring."""
    if m.data.ndim != 2:
        raise ShapeError(f"rowwise_norm: needs a matrix, got shape {m.shape}")
    if kind == "l1":
        val = np.abs(m.data).sum(axis=1)

        def back(g):
            _accum(m, g[:, None] * np.sign(m.data))

    elif kind == "l2":
        val = np.sqrt((m.data * m.data).sum(axis=1))

        def back(g):
            safe = np.where(val == 0.0, 1.0, val)
            _accum(m, (g / safe)[:, None] * m.data * (val != 0.0)[:, None])

    else:
        raise DomainError(f"rowwise_norm: unknown kind {kind!r}")
    return _make(val, (m,), back)


# ---------------------------------------------------------------------------
# nonlinearities

def leaky_relu(t: Tensor, slope: float = 0.2) -> Tensor:
    s = float(slope)
    pos = t.data > 0.0

    def back(g):
        _accum(t, g * np.where(pos, 1.0, s))

    return _make(np.where(pos, t.data, s * t.data), (t,), back)


def sigmoid(t: Tensor) -> Tensor:
    x = t.data
    z = np.exp(-np.abs(x))  # overflow-free in both tails
    val = np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))

    def back(g):
        _accum(t, g * val * (1.0 - val))

    return _make(val, (t,), back)


def tanh(t: Tensor) -> Tensor:
    val = np.tanh(t.data)

    def back(g):
        _accum(t, g * (1.0 - val * val))

    return _make(val, (t,), back)


def log(t: Tensor) -> Tensor:
    if np.any(t.data <= 0.0):
        raise DomainError(f"log of non-positive input (min {t.data.min()})")

    def back(g):
        _accum(t, g / t.data)

    return _make(np.log(t.data), (t,), back)


def clip(t: Tensor, lo: float, hi: float) -> Tensor:
    inside = (t.data >= lo) & (t.data <= hi)

    def back(g):
        _accum(t, g * inside)

    return _make(np.clip(t.data, lo, hi), (t,), back)


# ---------------------------------------------------------------------------
# segments: consecutive runs of entries, delimited by CSR offsets
#
# ``offsets`` has one more entry than there are segments: segment k covers
# entries offsets[k]:offsets[k + 1]. Offsets start at 0, end at the entry
# count and strictly increase, so no segment is empty.

def _segments(offsets, length: int, op: str) -> tuple[np.ndarray, np.ndarray]:
    """Segment starts and lengths from validated offsets."""
    off = np.asarray(offsets, dtype=np.intp)
    if off.ndim != 1 or off.size < 2 or off[0] != 0 or off[-1] != length:
        raise ShapeError(f"{op}: offsets must be 1-d and run from 0 to {length}")
    counts = np.diff(off)
    if (counts < 1).any():
        raise ShapeError(f"{op}: offsets must strictly increase (no empty segment)")
    return off[:-1], counts


def segment_softmax(logits: Tensor, offsets) -> Tensor:
    """Softmax within each segment (max-stabilized per segment), of a logit
    vector or of each column of an (n, k) logit matrix."""
    if logits.data.ndim == 0:
        raise ShapeError("segment_softmax: needs a vector or a matrix, got a scalar")
    starts, counts = _segments(offsets, logits.shape[0], "segment_softmax")
    x = logits.data
    e = np.exp(x - np.repeat(np.maximum.reduceat(x, starts), counts, axis=0))
    val = e / np.repeat(np.add.reduceat(e, starts), counts, axis=0)

    def back(g):
        _accum(logits, val * (g - np.repeat(np.add.reduceat(g * val, starts), counts, axis=0)))

    return _make(val, (logits,), back)


def segment_weighted_sum(weights: Tensor, table: Tensor, index, offsets) -> Tensor:
    """Per segment, the sum over its entries e of table row ``index[e]``
    scaled by weight e: (n,) or (n, k) weights, a (rows, q) table and n
    indices -> (segments, q). A weight vector scales whole rows; weight
    column j of a matrix scales column block j, of width q / k. Indices
    may repeat, and table rows no index hits add nothing.

    The forward gathers no (n, q) array. Segments are ordered longest
    first, so the segments still open at slot l are a prefix, and slot l
    adds entry l of each of them into a zeroed (segments, q) accumulator:
    every sum is 0 + x_0 + x_1 + ... in entry order.
    """
    k = weights.shape[1] if weights.data.ndim == 2 else 1
    if weights.data.ndim == 0 or table.data.ndim != 2 or table.shape[1] % k:
        raise ShapeError(f"segment_weighted_sum: incompatible shapes {weights.shape} and {table.shape}")
    n = weights.shape[0]
    idx = _indices(index, table.shape[0], "segment_weighted_sum")
    if idx.size != n:
        raise ShapeError(f"segment_weighted_sum: {idx.size} indices for {n} weight rows")
    starts, counts = _segments(offsets, n, "segment_weighted_sum")
    w = weights.data.reshape(n, k, 1)
    blocks = table.data.reshape(table.shape[0], k, -1)

    def back(g):
        spread = np.repeat(g, counts, axis=0).reshape(n, k, -1)
        _accum(weights, (spread * blocks[idx]).sum(axis=2).reshape(weights.shape))
        _accum_rows(table, idx, (w * spread).reshape(n, -1))

    order = np.argsort(-counts, kind="stable")
    first, longest_first = starts[order], counts[order]
    acc = np.zeros((counts.size,) + blocks.shape[1:])
    part = np.empty_like(acc)
    # open_: how many segments are longer than slot; indices are checked,
    # so take's "clip" never clips, and unlike "raise" it writes to out directly
    for slot, open_ in enumerate(np.searchsorted(-longest_first, -np.arange(longest_first[0]))):
        entry = first[:open_] + slot
        scaled = np.take(blocks, idx[entry], axis=0, out=part[:open_], mode="clip")
        scaled *= w[entry]
        acc[:open_] += scaled
    out = np.empty((counts.size, table.shape[1]))
    out[order] = acc.reshape(counts.size, -1)
    return _make(out, (weights, table), back)
