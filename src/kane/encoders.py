"""Attribute value encoders: batches of token sequences -> embedding-space rows.

Both encoders take every sequence of a batch in one call and return one
row per sequence, in input order; the model encodes all attribute values
of a forward pass in one such call. Both read rows of a trainable word
embedding table, so gradients flow back into the table. A batch reaches
an encoder as its layout (``BowLayout`` or ``LstmLayout``): the checked
tokens and the index arrays the encoder reads, which depend on the tokens
alone. The model builds the layout once per view and keeps it in the
view's ``derived``, so every step and validation over the view reuses it.
Encodings are rebuilt from the current table at every use; only the
layout outlives a call.

* ``bow_encode``  -- sum of the token embeddings; permutation-invariant.
  One tape record: one gather over the concatenated tokens and one scatter
  sum by sequence.
* ``lstm_encode`` -- final hidden state of a standard LSTM cell run over
  the tokens in order; zero initial states; order-sensitive. The
  sequences run packed, step-major, with all four gates' weights side by
  side in (in, out) layout: the input path is one product per call over
  the words read, and only the hidden path runs step by step. The whole
  encoding is one tape record with a hand-written backward through time
  that forms each weight's gradient from all steps' rows at once, so its
  sums add in BLAS order, not in the order of an op-by-op tape of the
  same cell.

The encoders take their weights as tensors; which parameters a model has,
their checkpoint names and how they are drawn is ``kane.model``'s.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError


class _Layout:
    """The index arrays an encoder reads for one non-empty batch of
    non-empty sequences over a vocabulary of ``vocab_size`` words, from the
    sequences' ``lengths`` and their concatenated tokens, ``flat``. They
    depend on the tokens alone, never on the weights, so a batch that is
    encoded again, such as a view's attribute values at every step, builds
    its layout once."""

    def __init__(self, sequences: Sequence[Sequence[int]], vocab_size: int):
        if len(sequences) == 0:
            raise ValueError("cannot encode an empty batch of sequences")
        self.lengths = np.array([len(tokens) for tokens in sequences], dtype=np.intp)
        if (self.lengths == 0).any():
            raise ValueError("cannot encode an empty token sequence")
        self.flat = np.array([t for tokens in sequences for t in tokens], dtype=np.intp)
        outside = (self.flat < 0) | (self.flat >= vocab_size)
        if outside.any():
            raise IndexError(f"word id {self.flat[outside][0]} outside vocabulary of size {vocab_size}")
        self.vocab_size = vocab_size
        self.count = self.lengths.size

    def check(self, word_table: Tensor) -> None:
        if word_table.shape[0] != self.vocab_size:
            raise ShapeError(
                f"a layout over {self.vocab_size} words read with a word table of {word_table.shape[0]} rows"
            )


class BowLayout(_Layout):
    """A bag-of-words batch: ``owner``, each token's sequence, and
    ``tokens``, the word ids sorted within each sequence."""

    def __init__(self, sequences: Sequence[Sequence[int]], vocab_size: int):
        super().__init__(sequences, vocab_size)
        self.owner = np.repeat(np.arange(self.count), self.lengths)
        self.tokens = self.flat[np.lexsort((self.flat, self.owner))]


class LstmLayout(_Layout):
    """A batch packed for ``lstm_encode``: longest first, step-major.

    Step ``t`` owns rows ``bounds[t]:bounds[t + 1]``; ``last`` is each input
    sequence's row at its last step and ``prev`` the row a step before each
    row of steps 1 and on. ``words`` are the distinct words the batch
    reads, ``slot`` each row's index into them, and ``by_word`` the rows
    grouped by word (a stable sort), with ``firsts`` where each word's
    group starts.
    """

    def __init__(self, sequences: Sequence[Sequence[int]], vocab_size: int):
        super().__init__(sequences, vocab_size)
        lengths, flat, n = self.lengths, self.flat, self.count
        order = np.argsort(-lengths, kind="stable")
        ordered = lengths[order]
        runs = ordered > np.arange(ordered[0])[:, None]  # (steps, sequences), longest first
        running = runs.sum(axis=1)
        self.bounds = [0, *np.cumsum(running).tolist()]
        self.steps, self.total = running.size, self.bounds[-1]
        starts = (np.cumsum(lengths) - lengths)[order]
        tokens = flat[(starts + np.arange(running.size)[:, None])[runs]]
        self.last = np.empty(n, dtype=np.intp)
        self.last[order] = np.array(self.bounds)[ordered - 1] + np.arange(n)
        self.prev = np.arange(n, self.total) - np.repeat(running[:-1], running[1:])
        self.by_word = np.argsort(tokens, kind="stable")
        head = np.ones(self.total, dtype=bool)
        head[1:] = tokens[self.by_word[1:]] != tokens[self.by_word[:-1]]
        self.firsts = np.flatnonzero(head)
        self.words = tokens[self.by_word[self.firsts]]
        self.slot = np.empty(self.total, dtype=np.intp)
        self.slot[self.by_word] = np.cumsum(head) - 1


def bow_encode(layout: BowLayout, word_table: Tensor) -> Tensor:
    """Sum of token embeddings per sequence of the layout's batch:
    (sequences, dim). Repeated tokens count once per occurrence; reordered
    tokens encode identically.

    Each sum runs over its tokens in sorted order: float addition is not
    associative, so summing in arrival order would make two orderings of
    the same multiset differ in the last bits. The encoding is one tape
    record: the token rows summed by sequence, and in its backward each
    sequence's gradient row summed by token, both with ``scatter_sum``.
    """
    layout.check(word_table)
    owner, tokens = layout.owner, layout.tokens
    return ad.fused(ad.scatter_sum(owner, word_table.data[tokens], layout.count), (word_table,),
                    lambda g: (ad.scatter_sum(tokens, g[owner], layout.vocab_size),))


def lstm_encode(layout: LstmLayout, word_table: Tensor, w_in: Tensor, w_hid: Tensor, b: Tensor) -> Tensor:
    """Final hidden state of each sequence of the layout's batch after
    feeding its token embeddings in order: (sequences, dim).

    The cell's four gates sit side by side in the order input, forget,
    output, cell: the input path ``w_in`` and the hidden path ``w_hid`` are
    (dim, 4 * dim), the bias ``b`` is (4 * dim,), and column block ``g`` of
    a path feeds gate ``g``.

    The batch runs as packed sequences, longest first (a stable sort, so
    equal lengths keep their input order), in one step-major layout: step
    ``t`` owns a contiguous band of rows, one per sequence still running,
    always the leading ones. The ``LstmLayout`` holds that packing, built
    once per batch of sequences (``kane.model`` keeps one per view). The
    input path runs once per call, as one product over the words the batch
    reads, and one gather spreads it to a (tokens, 4 * dim) buffer; only the
    hidden path runs per step, one product for all four gates, added to the
    step's band, which the gates then overwrite in place. Step 0 starts
    from the zero states, so it has no hidden path and no forget gate. The
    cell, ``tanh`` of the cell and the hidden state are (tokens, dim)
    arrays in the same layout.

    A sigmoid is ``0.5 + 0.5 * tanh(x / 2)``, which cannot overflow. The
    halving is folded into the sigmoid columns of the input path, the bias
    and the hidden path (exact: a power of two), so one ``tanh`` serves all
    four gates. Its absolute error stays below 1.1e-16, the spacing of the
    doubles just below 1, but in the far negative tail that is a large
    part of the value: the relative error reaches about 2e-8 at x = -20,
    and below x = -38, where the exact value is under 3.2e-17, it returns 0.

    The whole encoding is one tape record. Its backward walks the steps in
    reverse (backpropagation through time); each step forms only the gate
    gradients and the recurrent product, into one packed (tokens, 4 * dim)
    gradient of the pre-activations. After the loop each weight takes its
    gradient from the stacked rows at once: the rows summed by word (one
    ``reduceat`` over the rows sorted by word), then one product each for
    ``w_in`` and the words' embedding rows, one sum for ``b``, and one
    product of the previous hidden states with the rows of steps 1 and on
    for ``w_hid``, which gets ``None`` when every sequence has one token.
    These sums add in BLAS and ``reduceat`` order, not step by step. The
    word table's gradient is one (vocab, dim) array filled at the words the
    batch reads, so a backward costs what the tokens cost, not the
    vocabulary.
    """
    layout.check(word_table)
    n, dim = layout.count, word_table.shape[1]
    bounds, total, last, prev = layout.bounds, layout.total, layout.last, layout.prev
    by_word, firsts, words = layout.by_word, layout.firsts, layout.words

    table, w_i, w_hd = word_table.data, w_in.data, w_hid.data
    x = table[words]
    half = np.full(4 * dim, 0.5)  # sigmoid columns take tanh(x / 2)
    half[3 * dim:] = 1.0
    shift = 1.0 - half
    gates = ((x @ w_i + b.data) * half)[layout.slot]
    w_h = w_hd * half
    h, c, tanh_c = np.empty((total, dim)), np.empty((total, dim)), np.empty((total, dim))
    for t in range(layout.steps):
        lo, hi = bounds[t], bounds[t + 1]
        z = gates[lo:hi]
        if t:
            p = bounds[t - 1]
            z += h[p:p + hi - lo] @ w_h
        np.tanh(z, out=z)
        z *= half
        z += shift  # input, forget, output, cell
        np.multiply(z[:, :dim], z[:, 3 * dim:], out=c[lo:hi])
        if t:
            c[lo:hi] += z[:, dim:2 * dim] * c[p:p + hi - lo]
        np.tanh(c[lo:hi], out=tanh_c[lo:hi])
        np.multiply(z[:, 2 * dim:3 * dim], tanh_c[lo:hi], out=h[lo:hi])

    def backward(g):
        gate = gates.reshape(total, 4, dim)
        # per row and gate, d(gate)/d(pre) times the value the gate
        # multiplies (the candidate, the previous cell, tanh(c), the input
        # gate): a step scales it by the gradient of c, or of h for the
        # output gate, into the pre-activation gradient
        k = np.subtract(1.0, gate)
        k *= gate
        k[:, 0] *= gate[:, 3]
        k[:n, 1] = 0.0
        k[n:, 1] *= c[prev]
        k[:, 2] *= tanh_c
        np.multiply(gate[:, 3], gate[:, 3], out=k[:, 3])
        np.subtract(1.0, k[:, 3], out=k[:, 3])
        k[:, 3] *= gate[:, 0]
        dc = tanh_c * tanh_c  # d(c) from d(h): o (1 - tanh(c)^2)
        np.subtract(1.0, dc, out=dc)
        dc *= gate[:, 2]
        g_h = np.empty((total, dim))
        g_h[last] = g  # every other row is filled by the step after it
        g_c = None  # from the step after, for its rows
        by_gate = np.empty((n, 4, dim))  # per gate, the gradient of h or c it scales
        w_h_t = np.ascontiguousarray(w_hd.T)  # a transposed operand costs more per step
        for t in range(layout.steps - 1, -1, -1):
            lo, hi = bounds[t], bounds[t + 1]
            gh = g_h[lo:hi]
            gc = gh * dc[lo:hi]
            if g_c is not None:
                gc[:g_c.shape[0]] += g_c
            m = by_gate[:hi - lo]
            m[:] = gc[:, None]
            m[:, 2] = gh
            g_pre = k[lo:hi]  # k becomes the pre-activation gradient in place
            g_pre *= m
            if t:
                p = bounds[t - 1]
                np.matmul(g_pre.reshape(hi - lo, 4 * dim), w_h_t, out=g_h[p:p + hi - lo])
                g_c = gc * gate[lo:hi, 1]
        g_pre = k.reshape(total, 4 * dim)
        per_word = np.add.reduceat(g_pre[by_word], firsts)
        word_grad = np.zeros(table.shape)
        word_grad[words] = per_word @ w_i.T
        g_hid = h[prev].T @ g_pre[n:] if total > n else None
        return [word_grad, x.T @ per_word, g_hid, per_word.sum(axis=0)]

    return ad.fused(h[last], (word_table, w_in, w_hid, b), backward)
