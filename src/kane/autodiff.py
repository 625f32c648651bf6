"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every tape record is a ``fused`` record: one NumPy forward and one
hand-written backward. Each attention layer, each head merge (which also
places the isolated entities' previous rows), each loss and each encoder
call is one, so a training step makes 2 * layers + 1 records, plus 1 when
an encoder runs: 6 at the defaults, on every benchmark workload. There is
no generic op set; a record gathers, stacks and multiplies with NumPy
calls. Values are numpy arrays of at most two dimensions (0-d scalars, 1-d
vectors, 2-d matrices); there is no broadcasting, no sparse storage and no
higher-order gradients.

Records made inside a ``with Tape():`` block go on that tape; outside a
tape ``fused`` returns a plain value, which is how evaluation code runs
the model without paying for bookkeeping.

Gradient buffers are owned, not copied. A tensor's first gradient is the
array its consumer's backward hands over, which it adopts, and later ones
are added into it in place. So ``fused`` copies a gradient that may share
memory with one it already handed to another parent of the same record;
fresh arrays and disjoint row slices of one buffer pass as they are. A
received array may be passed on because the sweep runs in reverse tape
order: by the time a tensor's backward runs, its own gradient is final.
The grads of two parameters therefore never share memory, while an
intermediate tensor's ``grad`` may go on to hold a parent's sum after its
backward ran; read the grads of parameters, not of intermediates. A record
may list a parent more than once; it then adds that parent's gradients one
after another, in its list's order.

The NumPy kernels the records run sum rows by index. ``scatter_sum`` is a
flat ``np.bincount`` over ``index * width + column``: it needs no sort,
reads its input in memory order, and rows no index hits are zero. It
builds that flat index at every call, so it serves the scatters whose
rows change from call to call, the classification loss's batch rows,
and the small ones: the bag-of-words encoder's two and translational
attention's three per-edge gradient scatters. A scatter that runs more
than once over one index builds its flat index once, with
``scatter_index``, and runs ``scatter_rows`` over it: the attention
layer's pair scatter and the gradient of its products table, whose
index a graph view fixes, and the completion loss's three scatters of
its live rows, whose indexes a step builds once for all of its column
blocks. An ``AggregationPlan``, built once
per edge set (a graph view holds one), holds the segments of the edges
and runs the segment softmax and the edge aggregation over them, with no
(entries, width) array. The aggregation runs in two parts, and the plan
splits its entries between them by its size. The hub part runs the
dense kernel over the entries that read a hub column: one ``bincount``
scatters their weights into one (segments, hub columns) matrix per head,
and the sum and both gradients are one matrix product per head. A small
plan, whose whole (segments, table rows) matrix holds at most
``DENSE_CELLS_PER_ENTRY`` cells per entry, makes every row a hub column;
a larger one only the rows whose own column passes that test, the rows
that many segments read, such as the attribute values. The slot part
runs the slot kernel over the other entries: it reads their table rows
by index where they are and sums them slot by slot over segments ordered
longest first, and its table gradient runs over those entries grouped by
table row, whose reverse index the plan builds at the first gradient. A
part with no entries is skipped. ``scatter_sum`` and the slot kernel add
in index order from zero, so every sum they make equals a Python loop's.
The dense kernel's products add in BLAS order, so its sums, and a
segment's sum that starts from its hub product before the slots add to
it, equal the loop's to rounding only.
"""
from __future__ import annotations

import threading
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError

_LOCAL = threading.local()

# An AggregationPlan whose (segments, rows) matrix has at most this many
# cells per entry runs the dense kernel; see its docstring for the crossover.
DENSE_CELLS_PER_ENTRY = 20


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

    __slots__ = ("data", "grad", "is_param", "name", "_backward")

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


def _takes_grad(t: Tensor) -> bool:
    # constants do not accumulate; this also prunes dead subgraphs
    return t._backward is not None or t.is_param


def scatter_sum(idx: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """Row ``i`` of the result is the sum of the entries or rows of ``g``
    whose index is ``i``, for ``i < n``; rows no index hits are zero.

    One flat ``bincount`` over ``idx * width + column``: it reads ``g`` in
    memory order and needs no sort, where an axis-0 ``reduceat`` walks each
    column down the rows.
    """
    if not idx.size:  # bincount would return int64 zeros
        return np.zeros((n, *g.shape[1:]))
    if g.ndim == 1:
        return np.bincount(idx, weights=g, minlength=n)
    return scatter_rows(scatter_index(idx, g.shape[1]), g, n)


def scatter_index(idx: np.ndarray, width: int) -> np.ndarray:
    """The flat ``bincount`` index of ``scatter_sum`` for rows ``width``
    wide: column ``c`` of row ``i`` goes to bin ``idx[i] * width + c``. A
    caller whose index is fixed builds it once and runs ``scatter_rows``."""
    return (idx[:, None] * width + np.arange(width)).ravel()


def scatter_rows(flat: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """``scatter_sum`` of the (rows, width) ``g`` over the non-empty flat
    index ``scatter_index`` built for it: (n, width)."""
    w = g.shape[1]
    return np.bincount(flat, weights=g.ravel(), minlength=n * w).reshape(n, w)


def fused(data, parents: Sequence[Tensor], backward: Callable) -> Tensor:
    """A tape record of value ``data`` whose ``backward(g)`` returns, per
    parent, a gradient shaped like it or ``None``. Parents that take no
    gradient get none; a first gradient is adopted, not copied, and later
    ones are added into it; a gradient that may alias an earlier one is
    copied. Each parent is listed once. Outside a tape the result is a
    plain value."""
    out = Tensor(data)
    tape = active_tape()
    if tape is None:
        return out

    def back(g):
        given: list[np.ndarray] = []
        for p, grad in zip(parents, backward(g), strict=True):
            if grad is None or not _takes_grad(p):
                continue
            if any(np.may_share_memory(grad, h) for h in given):
                grad = grad.copy()
            given.append(grad)
            if p.grad is None:
                p.grad = np.asarray(grad)
            else:
                p.grad += grad

    out._backward = back
    tape.records.append(out)
    return out


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

    The weighted sum and its gradients run in two parts, each skipped when
    it holds no entry. The hub part runs the dense kernel over the entries
    that read a hub column, one of the table rows that many segments read
    (``hub_count`` of them), and the slot part runs the slot kernel over
    the other entries, the slot entries. A plan whose (segments, rows)
    matrix holds at most ``DENSE_CELLS_PER_ENTRY`` cells per entry is
    ``dense``: every row is a hub column and the slot part is empty. On any
    other plan a row is a hub column when its own column of that matrix
    holds at most that many cells per entry that reads it: segments <=
    ``DENSE_CELLS_PER_ENTRY`` * hits. Either way the rule bounds the hub
    part's matrices to that many floats per hub entry and head. ``hubs``
    and ``hub_entries`` index the hub rows and the hub entries; on a dense
    plan they are slices over all of them, so its kernel reads the weights
    and the table where they are, with no gather.

    The dense kernel scatters the hub entries' (entries, k) weights into a
    (k, segments, hubs) matrix M with one ``bincount`` over each entry's
    cell (``cells``), adding repeated cells in entry order. Per head h, the
    sum is ``M_h @ table_h`` over the hub rows, their table gradient
    ``M_h.T @ g_h``, and hub entry e's weight gradient the cell of ``g_h @
    table_h.T`` in its segment's row and the column of ``index[e]``. Its
    products add in BLAS order, so its results equal a Python loop's to
    rounding only; the slot kernel's equal it exactly. A segment's sum is
    its hub product, or zero, plus its slot entries in entry order.

    The crossover of the whole-matrix rule, on the training view of seed-0
    ``generate_synthetic_kg`` graphs (two heads of 64 columns, one BLAS
    thread, minimum of 400 calls, microseconds), measured when a plan ran
    one kernel or the other over all its entries:

    ======== ===== ========== =============== =================
    entities edges cells/edge sum slot->dense grads slot->dense
    ======== ===== ========== =============== =================
    50       342   9.5        87 -> 28        173 -> 57
    100      709   16.2       147 -> 74       303 -> 363
    110      781   17.6       161 -> 86       322 -> 164
    120      842   19.2       166 -> 94       344 -> 198
    130      906   20.8       169 -> 109      366 -> 560
    140      989   21.9       188 -> 123      389 -> 264
    150      1051  23.5       194 -> 135      420 -> 739
    200      1398  30.8       253 -> 227      539 -> 1149
    300      2123  44.5       564 -> 536      833 -> 2744
    500      3509  73.4       581 -> 1455     1391 -> 7302
    ======== ===== ========== =============== =================

    A training step makes one sum and one gradient call per layer. The
    pair costs less dense up to 120 entities (19.2 cells per edge; 100 is
    a tie) and more at 130 and from 150 on, hence the bound of 20. From
    100 entities on a matrix holds 180 KB or more, and the dense
    gradients jump between neighbouring sizes (110 and 140 read faster
    than 100 and 130) by more than their products explain, likely with
    the allocator's handling of blocks that large.

    Past the crossover the hub columns are the attribute values, each read
    by about a fifth of the entities. On the same views with (edges, 2)
    weights at width 128 (one BLAS thread, medians of 300 interleaved
    calls at 500 entities and 100 at 2000, microseconds), every entry in
    slots against the hub columns plus slots over the rest; the forward
    slots fall from 13 to 10 and the reverse ones from 100 to 16 at 500
    entities and from 400 to 15 at 2000:

    ======== ====== ======== =========== ============= ==============
    entities edges  hub rows hub entries sum all->hub  grads all->hub
    ======== ====== ======== =========== ============= ==============
    500      3509   15       1500        718 -> 524    1568 -> 1151
    2000     14073  15       6000        4068 -> 3065  8207 -> 6158
    ======== ====== ======== =========== ============= ==============

    The slot kernel runs slot by slot over the slot entries. Segments are
    ordered by how many of them they hold, longest first (``order``, a
    stable sort), so the ones still open at slot ``l`` are a prefix of that
    order and slot ``l`` adds entry ``l`` of each. ``entries`` lists the
    slot entries slot-major, ``sources`` the table rows they read, and
    ``slots`` each slot's (start, stop) in those lists. The hub matrix's
    segment rows follow ``order`` too, so the slot part adds into the hub
    products where they lie. The same structure over the slot entries
    grouped by table row, for the table gradient, is built at the first
    gradient (``reverse``, cached), so a forward outside a tape never pays
    for it.
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
        segments = self.counts.size
        self.dense = segments * self.rows <= DENSE_CELLS_PER_ENTRY * idx.size
        if self.dense:
            hub_row = np.ones(self.rows, dtype=bool)
        else:
            hub_row = segments <= DENSE_CELLS_PER_ENTRY * np.bincount(idx)
        is_hub = hub_row[idx]
        self.hub_count = int(np.count_nonzero(hub_row))
        self.hubs = slice(self.rows) if self.dense else np.flatnonzero(hub_row)
        self.hub_entries = slice(None) if self.dense else np.flatnonzero(is_hub)
        rest = np.flatnonzero(~is_hub)
        segment = np.repeat(np.arange(segments), self.counts)
        lengths = np.bincount(segment[rest], minlength=segments)
        self.order = np.argsort(-lengths, kind="stable")
        positions, self.slots = _slot_major((np.cumsum(lengths) - lengths)[self.order], lengths[self.order])
        self.entries = rest[positions]
        self.sources = idx[self.entries]
        row_of = np.empty(segments, dtype=np.intp)  # a segment's row of the hub matrix
        row_of[self.order] = np.arange(segments)
        # hub entry e's cell of a (segments, hub_count) matrix: its
        # segment's row, and its table row's rank among the hub rows
        column = np.cumsum(hub_row) - 1
        self.cells = row_of[segment[is_hub]] * self.hub_count + column[idx[is_hub]]
        self._head_cells: dict[int, np.ndarray] = {}  # by head count, see _matrix

    @cached_property
    def reverse(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, int]]]:
        """The table rows that slot entries read, most-read first; then,
        slot by slot over those rows, the slot entries (grouped by row in
        entry order, a stable sort) and the segments they belong to; and
        each slot's (start, stop)."""
        rest = np.sort(self.entries)
        by_row = rest[np.argsort(self.index[rest], kind="stable")]
        hits = np.bincount(self.index[rest])
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

    def _matrix(self, w: np.ndarray) -> np.ndarray:
        """(k, segments, hubs) from (entries, k, 1) weights: per head, each
        segment's hub entry weights summed by the table row they read, in
        entry order. One ``bincount`` fills all heads: one per head,
        stacked, cost 10-15 times as much on the 130- and 150-entity
        graphs. Its cells for k heads are built at the first call and
        kept."""
        k, segments = w.shape[1], self.counts.size
        size = segments * self.hub_count
        cells = self._head_cells.get(k)
        if cells is None:  # head h's copy of the cells, shifted by h matrices
            cells = self._head_cells[k] = (self.cells + size * np.arange(k)[:, None]).ravel()
        sums = np.bincount(cells, weights=w[self.hub_entries, :, 0].T.ravel(), minlength=k * size)
        return sums.reshape(k, segments, self.hub_count)

    def weighted_sum(self, weights: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Per segment, the sum over its entries e of table row ``index[e]``
        scaled by weight e: (entries,) or (entries, k) weights and a (rows,
        q) table -> (segments, q). Indices may repeat, and table rows no
        index hits add nothing. The hub part is one product per head of the
        weight matrix with the hub rows' block; the slot part then adds
        slot ``l``'s entry of each segment still open, one gather, one
        product and one sum per slot. No (entries, q) array is built."""
        w, blocks = self._blocks(weights, table)
        segments = self.counts.size
        shape = (segments,) + blocks.shape[1:]  # rows in ``order``
        if self.hub_count:
            acc = np.empty(shape)
            np.matmul(self._matrix(w), blocks[self.hubs].transpose(1, 0, 2), out=acc.transpose(1, 0, 2))
        else:
            acc = np.zeros(shape)
        if not self.slots:  # then ``order`` keeps the segments in place
            return acc.reshape(segments, -1)
        _slot_sums(self.slots, blocks, self.sources, w[self.entries], np.empty_like(acc), acc)
        out = np.empty((segments, table.shape[1]))
        out[self.order] = acc.reshape(segments, -1)
        return out

    def weighted_sum_grads(
        self, g: np.ndarray, weights: np.ndarray, table: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The gradients of ``weighted_sum`` for the weights and the table,
        given the (segments, q) gradient ``g``; neither part builds an
        (entries, q) array. The hub part takes per head h the hub rows'
        table gradient ``M_h.T @ g_h`` and each hub entry's weight gradient,
        <g_h[segment], table_h[index[e]]>, as its cell of ``g_h @
        table_h.T``. The slot part walks the forward's slots for the weight
        gradient, one row product per entry, summed as ``np.sum`` sums a
        row, and runs the forward's kernel over ``reverse`` for the table
        gradient, so each of its rows adds its entries in entry order from
        zero, as ``scatter_sum`` would."""
        w, blocks = self._blocks(weights, table)
        segments, n, k = self.counts.size, w.shape[0], w.shape[1]
        g = g.reshape(segments, k, -1)
        g_order = g[self.order] if self.slots else g  # with no slot, ``order`` is the identity
        w_grad = np.empty((n, k))
        row_grads = []  # per part, its table rows and their gradient
        if self.hub_count:
            heads = blocks[self.hubs].transpose(1, 0, 2)  # (k, hubs, q / k)
            g_heads = g_order.transpose(1, 0, 2)  # (k, segments, q / k)
            products = np.matmul(g_heads, heads.transpose(0, 2, 1))  # (k, segments, hubs)
            w_grad[self.hub_entries] = products.reshape(k, -1).T[self.cells]
            hub_grads = np.matmul(self._matrix(w).transpose(0, 2, 1), g_heads)  # (k, hubs, q / k)
            row_grads.append((self.hubs, hub_grads.transpose(1, 0, 2).reshape(self.hub_count, -1)))
        if self.slots:
            part = np.empty((segments,) + blocks.shape[1:])
            by_slot = np.empty((self.entries.size, k))
            for lo, hi in self.slots:
                prod = blocks.take(self.sources[lo:hi], axis=0, out=part[:hi - lo], mode="clip")
                prod *= g_order[:hi - lo]
                np.add.reduce(prod, axis=2, out=by_slot[lo:hi])
            w_grad[self.entries] = by_slot
            hit_rows, row_entries, segment, row_slots = self.reverse
            row_acc = np.zeros((hit_rows.size,) + blocks.shape[1:])
            _slot_sums(row_slots, g, segment, w[row_entries], np.empty_like(row_acc), row_acc)
            row_grads.append((hit_rows, row_acc.reshape(hit_rows.size, -1)))
        # zeroed last: before the slot loops it slowed them by 5-10%
        table_grad = np.zeros(table.shape)
        for rows, grads in row_grads:
            table_grad[rows] = grads
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
