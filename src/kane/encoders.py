"""Attribute value encoders: batches of token sequences -> embedding-space rows.

Both encoders take every sequence of a batch in one call and return one
row per sequence, in input order; the model encodes all attribute values
of a forward pass in one such call. Both read rows of a trainable word
embedding table, so gradients flow back into the table. Encodings are
rebuilt from the current table at every use; nothing is cached across
optimization steps.

* ``bow_encode``  -- sum of the token embeddings; permutation-invariant.
  One tape record: one gather over the concatenated tokens and one scatter
  sum by sequence.
* ``lstm_encode`` -- final hidden state of a standard LSTM cell run over
  the tokens in order; zero initial states; order-sensitive. The
  sequences run as packed sequences: one step advances every sequence
  still running with one matrix product per path for all four gates,
  whose weights are stored side by side in (in, out) layout. The whole
  encoding is one tape record with a hand-written backward through time,
  whose sums keep the order of the op-by-op tape of the same cell, so its
  gradients are bit for bit those of that composition.

The encoders take their weights as tensors; which parameters a model has,
their checkpoint names and how they are drawn is ``kane.model``'s.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def _check_sequences(
    sequences: Sequence[Sequence[int]], vocab_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lengths and concatenated tokens of a non-empty batch of non-empty sequences."""
    if len(sequences) == 0:
        raise ValueError("cannot encode an empty batch of sequences")
    lengths = np.array([len(tokens) for tokens in sequences], dtype=np.intp)
    if (lengths == 0).any():
        raise ValueError("cannot encode an empty token sequence")
    flat = np.array([t for tokens in sequences for t in tokens], dtype=np.intp)
    outside = (flat < 0) | (flat >= vocab_size)
    if outside.any():
        raise IndexError(f"word id {flat[outside][0]} outside vocabulary of size {vocab_size}")
    return lengths, flat


def bow_encode(sequences: Sequence[Sequence[int]], word_table: Tensor) -> Tensor:
    """Sum of token embeddings per sequence: (sequences, dim). Repeated
    tokens count once per occurrence; reordered tokens encode identically.

    Each sum runs over its tokens in sorted order: float addition is not
    associative, so summing in arrival order would make two orderings of
    the same multiset differ in the last bits. The encoding is one tape
    record: the token rows summed by sequence, and in its backward each
    sequence's gradient row summed by token, both with ``scatter_sum``.
    """
    lengths, flat = _check_sequences(sequences, word_table.shape[0])
    owner = np.repeat(np.arange(lengths.size), lengths)
    tokens = flat[np.lexsort((flat, owner))]  # sorted within each sequence
    vocab = word_table.shape[0]
    return ad.fused(ad.scatter_sum(owner, word_table.data[tokens], lengths.size), (word_table,),
                    lambda g: (ad.scatter_sum(tokens, g[owner], vocab),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, overflow-free in
    both tails."""
    z = np.exp(np.negative(np.abs(x)))
    val = np.where(x >= 0.0, 1.0, z)
    val /= 1.0 + z
    return val


def lstm_encode(
    sequences: Sequence[Sequence[int]], word_table: Tensor, w_in: Tensor, w_hid: Tensor, b: Tensor
) -> Tensor:
    """Final hidden state of each sequence after feeding its token embeddings
    in order: (sequences, dim).

    The cell's four gates sit side by side in the order input, forget,
    output, cell: the input path ``w_in`` and the hidden path ``w_hid`` are
    (dim, 4 * dim), the bias ``b`` is (4 * dim,), and column block ``g`` of
    a path feeds gate ``g``.

    The batch runs as packed sequences, longest first (a stable sort, so
    equal lengths keep their input order): step ``t`` advances the ``live``
    sequences still running, always the leading rows, with one matrix
    product per path for all four gates, read as column slices. Step 0
    starts from the zero states, so it runs only the input path and no
    forget gate. The whole encoding is one tape record; its backward walks
    the steps in reverse (backpropagation through time) and adds each
    parameter's gradient step by step from the last step, which is the
    order of the op-by-op tape. The word table's gradient runs over only
    the words the batch reads, one scatter per step, and fills one (vocab,
    dim) array at the end, so a backward costs what the tokens cost, not
    steps times the vocabulary.
    """
    lengths, flat = _check_sequences(sequences, word_table.shape[0])
    dim = word_table.shape[1]
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    running = (lengths[order] > np.arange(int(lengths.max()))[:, None]).sum(axis=1).tolist()
    table, w_i, w_h, bias = word_table.data, w_in.data, w_hid.data, b.data
    final = np.empty((lengths.size, dim))  # longest first
    steps = []  # per step: tokens, inputs, previous states, gates, tanh(cell)
    h = c = None  # the zero initial states
    for t, live in enumerate(running):
        tokens = flat[starts[:live] + t]
        x = table[tokens]
        pre = x @ w_i
        if h is not None:
            h, c = h[:live], c[:live]
            pre += h @ w_h
        pre += bias
        sig = _sigmoid(pre[:, :3 * dim])  # input, forget, output
        cand = np.tanh(pre[:, 3 * dim:])
        cell = sig[:, :dim] * cand
        c_new = cell if c is None else sig[:, dim:2 * dim] * c + cell
        tanh_c = np.tanh(c_new)
        h_new = sig[:, 2 * dim:] * tanh_c
        steps.append((tokens, x, h, c, sig, cand, tanh_c))
        h, c = h_new, c_new
        done = running[t + 1] if t + 1 < len(running) else 0
        final[done:live] = h[done:]

    def backward(g):
        g_final = g[order]
        # the word gradient is summed over only the words the batch reads
        read = np.bincount(flat, minlength=table.shape[0]) > 0
        words, slot = np.flatnonzero(read), np.cumsum(read) - 1
        grads = [None, None, None, None]  # those words' rows, w_in, w_hid, b
        g_h = g_c = None  # from step t + 1, for its live rows
        for t in range(len(steps) - 1, -1, -1):
            tokens, x, h_prev, c_prev, sig, cand, tanh_c = steps[t]
            live = x.shape[0]
            i, f, o = sig[:, :dim], sig[:, dim:2 * dim], sig[:, 2 * dim:]
            done = 0 if g_h is None else g_h.shape[0]
            gh = np.empty((live, dim))
            gh[:done] = g_h
            gh[done:] = g_final[done:live]
            gc = (gh * o) * (1.0 - tanh_c * tanh_c)
            if g_c is not None:
                gc[:done] += g_c
            g_pre = np.empty((live, 4 * dim))
            np.multiply(gc, cand, out=g_pre[:, :dim])
            if c_prev is None:
                g_pre[:, dim:2 * dim] = 0.0
            else:
                np.multiply(gc, c_prev, out=g_pre[:, dim:2 * dim])
            np.multiply(gh, tanh_c, out=g_pre[:, 2 * dim:3 * dim])
            g_sig = g_pre[:, :3 * dim]
            g_sig *= sig
            g_sig *= 1.0 - sig
            np.multiply(gc * i, 1.0 - cand * cand, out=g_pre[:, 3 * dim:])
            parts = [ad.scatter_sum(slot[tokens], g_pre @ w_i.T, words.size), x.T @ g_pre, None, g_pre.sum(axis=0)]
            if h_prev is not None:
                parts[2] = h_prev.T @ g_pre
                g_h, g_c = g_pre @ w_h.T, gc * f
            for k, part in enumerate(parts):
                if part is not None:
                    if grads[k] is None:
                        grads[k] = part
                    else:
                        grads[k] += part
        word_grad = np.zeros(table.shape)
        word_grad[words] = grads[0]
        return [word_grad] + grads[1:]

    return ad.fused(final[np.argsort(order)], (word_table, w_in, w_hid, b), backward)
