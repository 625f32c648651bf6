"""Attribute value encoders: batches of token sequences -> embedding-space rows.

Both encoders take every sequence of a batch in one call and return one
row per sequence, in input order; the model encodes all attribute values
of a forward pass in one such call. Both read rows of a trainable word
embedding table, so gradients flow back into the table. Encodings are
rebuilt from the current table at every use; nothing is cached across
optimization steps.

* ``bow_encode``  -- sum of the token embeddings; permutation-invariant.
  One gather over the concatenated tokens and one scatter sum by sequence.
* ``lstm_encode`` -- final hidden state of a standard LSTM cell run over
  the tokens in order; zero initial states; order-sensitive. The
  sequences run as packed sequences: one step advances every sequence
  still running with one matrix product per path for all four gates,
  whose weights are stored side by side in (in, out) layout.

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
    the same multiset differ in the last bits.
    """
    lengths, flat = _check_sequences(sequences, word_table.shape[0])
    owner = np.repeat(np.arange(lengths.size), lengths)
    tokens = flat[np.lexsort((flat, owner))]  # sorted within each sequence
    return ad.scatter_rows(ad.rows(word_table, tokens), owner, lengths.size)


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
    equal lengths keep their input order). Time step ``t`` gathers token
    ``t`` of every sequence still running and advances their states with
    one matrix product per path for all four gates; the states of
    sequences that have ended are set aside, which keeps the running ones
    in the leading rows. Step 0 starts from the zero states, so it runs
    only the input path and no forget gate. The final states are put back
    in input order at the end.
    """
    lengths, flat = _check_sequences(sequences, word_table.shape[0])
    dim = word_table.shape[1]
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    running = (lengths[order] > np.arange(int(lengths.max()))[:, None]).sum(axis=1)
    h = c = None  # the zero initial states
    ended: list[Tensor] = []
    for t, live in enumerate(running.tolist()):
        if h is not None and live < h.shape[0]:
            ended.append(ad.rows(h, np.arange(live, h.shape[0])))
            h, c = ad.rows(h, np.arange(live)), ad.rows(c, np.arange(live))
        x = ad.rows(word_table, flat[starts[:live] + t])
        pre = ad.matmul(x, w_in)
        if h is not None:
            pre = ad.add(pre, ad.matmul(h, w_hid))
        pre = ad.reshape(ad.add_rowvec(pre, b), (4 * live, dim))
        # row 4 k + g of pre holds gate g of sequence k
        i, f, o, g = (np.arange(k, 4 * live, 4) for k in range(4))
        cell = ad.elementwise_mul(ad.sigmoid(ad.rows(pre, i)), ad.tanh(ad.rows(pre, g)))
        if c is None:
            c = cell  # zero initial states: no cell state to forget
        else:
            c = ad.add(ad.elementwise_mul(ad.sigmoid(ad.rows(pre, f)), c), cell)
        h = ad.elementwise_mul(ad.sigmoid(ad.rows(pre, o)), ad.tanh(c))
    ended.append(h)
    # blocks ended shortest first; reversed, they run longest first again
    packed = ad.concat_rows(ended[::-1])
    return ad.rows(packed, np.argsort(order))
