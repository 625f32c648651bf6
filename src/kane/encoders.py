"""Attribute value encoders: batches of token sequences -> embedding-space rows.

Both encoders take every sequence of a batch in one call and return one
row per sequence, in input order; the model encodes all attribute values
of a forward pass in one such call. Both read rows of a trainable word
embedding table, so gradients flow back into the table. Encodings are
rebuilt from the current table at every use; nothing is cached across
optimization steps.

* ``bow_encode``  -- sum of the token embeddings; permutation-invariant.
  One gather over the concatenated tokens and one segment sum.
* ``lstm_encode`` -- final hidden state of a standard LSTM cell run over
  the tokens in order; zero initial states; order-sensitive. The
  sequences run as packed sequences: one step advances every sequence
  still running with one matrix product per gate and path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain
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
    flat = np.fromiter(chain.from_iterable(sequences), dtype=np.intp, count=int(lengths.sum()))
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
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    ones = ad.constant(np.ones(tokens.size))
    return ad.segment_weighted_sum(ones, ad.rows(word_table, tokens), offsets)


@dataclass
class LstmParams:
    """Gate weights for one LSTM cell of width ``dim``.

    Each gate has an input path (dim x dim), a hidden path (dim x dim) and
    a bias (dim). The forget bias starts at 1 so early training does not
    erase the cell state.
    """

    w_in_input: Tensor
    w_hid_input: Tensor
    b_input: Tensor
    w_in_forget: Tensor
    w_hid_forget: Tensor
    b_forget: Tensor
    w_in_output: Tensor
    w_hid_output: Tensor
    b_output: Tensor
    w_in_cell: Tensor
    w_hid_cell: Tensor
    b_cell: Tensor

    def named(self) -> list[tuple[str, Tensor]]:
        """(checkpoint name, tensor) per field, in field order."""
        return [(f"lstm.{f.name}", getattr(self, f.name)) for f in fields(self)]


def init_lstm_params(dim: int, rng: np.random.Generator) -> LstmParams:
    bound = np.sqrt(6.0 / (2 * dim))  # fan-based: gate outputs stay O(input)

    def mat(name: str) -> Tensor:
        return ad.parameter(rng.uniform(-bound, bound, size=(dim, dim)), name)

    w_ii, w_hi = mat("lstm.w_in_input"), mat("lstm.w_hid_input")
    w_if, w_hf = mat("lstm.w_in_forget"), mat("lstm.w_hid_forget")
    w_io, w_ho = mat("lstm.w_in_output"), mat("lstm.w_hid_output")
    w_ic, w_hc = mat("lstm.w_in_cell"), mat("lstm.w_hid_cell")
    zeros = lambda name: ad.parameter(np.zeros(dim), name)
    return LstmParams(
        w_in_input=w_ii, w_hid_input=w_hi, b_input=zeros("lstm.b_input"),
        w_in_forget=w_if, w_hid_forget=w_hf, b_forget=ad.parameter(np.ones(dim), "lstm.b_forget"),
        w_in_output=w_io, w_hid_output=w_ho, b_output=zeros("lstm.b_output"),
        w_in_cell=w_ic, w_hid_cell=w_hc, b_cell=zeros("lstm.b_cell"),
    )


def lstm_encode(sequences: Sequence[Sequence[int]], word_table: Tensor, params: LstmParams) -> Tensor:
    """Final hidden state of each sequence after feeding its token embeddings
    in order: (sequences, dim).

    The batch runs as packed sequences, longest first (a stable sort, so
    equal lengths keep their input order). Time step ``t`` gathers token
    ``t`` of every sequence still running and advances their states with
    one matrix product per gate and path; the states of sequences that
    have ended are set aside, which keeps the running ones in the leading
    rows. The final states are put back in input order at the end.
    """
    lengths, flat = _check_sequences(sequences, word_table.shape[0])
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    running = (lengths[order] > np.arange(int(lengths.max()))[:, None]).sum(axis=1)
    gates = [
        (ad.transpose(w_in), ad.transpose(w_hid), b)
        for w_in, w_hid, b in (
            (params.w_in_input, params.w_hid_input, params.b_input),
            (params.w_in_forget, params.w_hid_forget, params.b_forget),
            (params.w_in_output, params.w_hid_output, params.b_output),
            (params.w_in_cell, params.w_hid_cell, params.b_cell),
        )
    ]
    h = ad.constant(np.zeros((lengths.size, word_table.shape[1])))
    c = h
    ended: list[Tensor] = []
    for t, live in enumerate(running.tolist()):
        if live < h.shape[0]:
            ended.append(ad.slice_rows(h, live, h.shape[0]))
            h, c = ad.slice_rows(h, 0, live), ad.slice_rows(c, 0, live)
        x = ad.rows(word_table, flat[starts[:live] + t])
        pre = [
            ad.add_rowvec(ad.add(ad.matmul(x, w_in), ad.matmul(h, w_hid)), b)
            for w_in, w_hid, b in gates
        ]
        gate_i, gate_f, gate_o = (ad.sigmoid(p) for p in pre[:3])
        cand = ad.tanh(pre[3])
        c = ad.add(ad.elementwise_mul(gate_f, c), ad.elementwise_mul(gate_i, cand))
        h = ad.elementwise_mul(gate_o, ad.tanh(c))
    ended.append(h)
    # blocks ended shortest first; reversed, they run longest first again
    packed = ad.concat_rows(ended[::-1])
    return ad.rows(packed, np.argsort(order))
