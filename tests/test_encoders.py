"""Value-encoder behavior: BOW invariances and the LSTM against a
plain-numpy reference cell, plus finite-difference gradient checks.
Single sequences are encoded as one-element batches; a batch must equal
its sequences encoded one at a time."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kane.autodiff as ad
from kane.encoders import BowLayout, LstmLayout, bow_encode, lstm_encode
from kane.errors import ShapeError
from kane.model import ModelConfig, init_params
from kane.training import sgd_step

from helpers import (
    autodiff_gradients, check_gradients, composed_bow_encode, encode_bow, encode_lstm, probe,
    reference_lstm_final_state, relative_error, total,
)


def make_table(rng: np.random.Generator, vocab: int = 12, dim: int = 5) -> ad.Tensor:
    return ad.parameter(rng.standard_normal((vocab, dim)), "word")


LSTM_NAMES = ("lstm.w_in", "lstm.w_hid", "lstm.b")


def lstm_weights(rng: np.random.Generator, dim: int) -> list[ad.Tensor]:
    """The input path, hidden path and bias that ``init_params`` draws for
    an LSTM of width ``dim``."""
    config = ModelConfig(dim=dim, head_dim=dim, heads=1, layers=0, encoder="lstm")
    params = init_params(1, 1, 1, 0, config, rng)
    return [params[name] for name in LSTM_NAMES]


# ---------------------------------------------------------------------------
# bag of words


class TestBow:
    def test_matches_plain_accumulation(self):
        rng = np.random.default_rng(0)
        table = make_table(rng)
        tokens = [3, 1, 4, 1, 5]
        out = encode_bow([tokens], table).data[0]
        want = np.zeros(table.shape[1])
        for w in tokens:
            want = want + table.data[w]
        assert relative_error(out, want) < 1e-12

    def test_permutation_invariance_is_bit_exact(self):
        rng = np.random.default_rng(1)
        table = make_table(rng)
        for _ in range(200):
            k = int(rng.integers(1, 8))
            tokens = [int(rng.integers(table.shape[0])) for _ in range(k)]
            base = encode_bow([tokens], table).data[0]
            shuffled = list(tokens)
            rng.shuffle(shuffled)
            assert np.array_equal(encode_bow([shuffled], table).data[0], base)

    @given(st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=10),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance_property(self, tokens, pyrandom):
        table = make_table(np.random.default_rng(7))
        shuffled = list(tokens)
        pyrandom.shuffle(shuffled)
        assert np.array_equal(encode_bow([shuffled], table).data[0],
                              encode_bow([tokens], table).data[0])

    def test_repeated_token_counts_per_occurrence(self):
        table = make_table(np.random.default_rng(2))
        single = encode_bow([[4]], table).data[0]
        double = encode_bow([[4, 4]], table).data[0]
        assert np.array_equal(double, 2.0 * single)

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(3)
        table = make_table(rng)
        a = [int(rng.integers(12)) for _ in range(4)]
        b = [int(rng.integers(12)) for _ in range(3)]
        joint = encode_bow([a + b], table).data[0]
        split = encode_bow([a], table).data[0] + encode_bow([b], table).data[0]
        assert relative_error(joint, split) < 1e-12

    def test_gradient_is_occurrence_count(self):
        table = make_table(np.random.default_rng(4), vocab=6, dim=3)
        tokens = [2, 5, 2, 2]
        with ad.Tape() as tape:
            loss = total(encode_bow([tokens], table))
            ad.backward(tape, loss)
        g = table.grad
        want = np.zeros_like(table.data)
        want[2] = 3.0
        want[5] = 1.0
        assert np.array_equal(g, want)

    @pytest.mark.parametrize("sequences", [[[7, 3, 7, 1], [5], [9, 3, 0, 3, 3], [1, 7]], [[4, 4, 4]], [[2], [2], [0]]],
                             ids=["mixed", "one-word", "same-word"])
    def test_one_record_matches_the_composition_bit_for_bit(self, sequences):
        """The one-record encoding, and the word table's gradient, equal the
        gather-then-scatter composition (``helpers.composed_bow_encode``)
        bit for bit, on unsorted tokens repeated within and across
        sequences."""
        table = make_table(np.random.default_rng(14), vocab=10, dim=4)
        weights = np.random.default_rng(15).normal(size=(len(sequences), 4))
        assert np.array_equal(encode_bow(sequences, table).data, composed_bow_encode(sequences, table).data)
        _, (fused,) = autodiff_gradients(lambda: probe(encode_bow(sequences, table), weights), [table])
        _, (composed,) = autodiff_gradients(lambda: probe(composed_bow_encode(sequences, table), weights), [table])
        assert np.array_equal(fused, composed)
        with ad.Tape() as tape:
            encode_bow(sequences, table)
        assert len(tape.records) == 1

    def test_rejects_empty_sequence(self):
        table = make_table(np.random.default_rng(5))
        with pytest.raises(ValueError):
            encode_bow([[]], table)
        with pytest.raises(ValueError):
            encode_bow([[1], []], table)
        with pytest.raises(ValueError):
            encode_bow([], table)

    def test_rejects_out_of_vocabulary_id(self):
        table = make_table(np.random.default_rng(6), vocab=4)
        with pytest.raises(IndexError):
            encode_bow([[0, 4]], table)
        with pytest.raises(IndexError):
            encode_bow([[-1]], table)

    def test_rejects_a_layout_built_for_another_vocabulary(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ShapeError):
            bow_encode(BowLayout([[0, 3]], 4), make_table(rng, vocab=5))
        with pytest.raises(ShapeError):
            lstm_encode(LstmLayout([[0, 3]], 4), make_table(rng, vocab=5), *lstm_weights(rng, 5))


# ---------------------------------------------------------------------------
# LSTM


class TestLstm:
    def _setup(self, seed: int, dim: int = 4, vocab: int = 9):
        rng = np.random.default_rng(seed)
        table = make_table(rng, vocab=vocab, dim=dim)
        return table, lstm_weights(rng, dim)

    def test_matches_numpy_reference(self):
        for seed in range(5):
            table, params = self._setup(seed)
            rng = np.random.default_rng(100 + seed)
            tokens = [int(rng.integers(table.shape[0]))
                      for _ in range(int(rng.integers(1, 7)))]
            got = encode_lstm([tokens], table, *params).data[0]
            raw = {name.removeprefix("lstm."): t.data for name, t in zip(LSTM_NAMES, params)}
            want = reference_lstm_final_state(tokens, table.data, raw)
            assert relative_error(got, want) < 1e-12

    def test_order_sensitivity(self):
        table, params = self._setup(42)
        rng = np.random.default_rng(43)
        differing = 0
        trials = 100
        for _ in range(trials):
            tokens = [int(rng.integers(table.shape[0])) for _ in range(4)]
            i, j = 0, 1 + int(rng.integers(3))
            while tokens[i] == tokens[j]:
                tokens[j] = int(rng.integers(table.shape[0]))
            swapped = list(tokens)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            a = encode_lstm([tokens], table, *params).data[0]
            b = encode_lstm([swapped], table, *params).data[0]
            if not np.array_equal(a, b):
                differing += 1
        assert differing >= 0.99 * trials

    def test_init_shapes_and_forget_bias(self):
        config = ModelConfig(dim=5, head_dim=5, heads=1, layers=0, encoder="lstm")
        params = init_params(1, 1, 1, 0, config, np.random.default_rng(8))
        assert [name for name in params if name.startswith("lstm.")] == list(LSTM_NAMES)
        assert params["lstm.w_in"].shape == params["lstm.w_hid"].shape == (5, 20)
        # gates input, forget, output, cell: only the forget bias starts at 1
        gate_bias = params["lstm.b"].data.reshape(4, 5)
        assert np.array_equal(gate_bias, np.repeat([[0.0], [1.0], [0.0], [0.0]], 5, axis=1))
        # after the one-row entity, relation and word tables, each gate's
        # (5, 5) matrices, drawn input path first, in gate order
        rng = np.random.default_rng(8)
        rng.uniform(size=3 * 5)
        draws = rng.uniform(-np.sqrt(0.6), np.sqrt(0.6), size=(8, 5, 5))
        for gate in range(4):
            block = slice(gate * 5, (gate + 1) * 5)
            assert np.array_equal(params["lstm.w_in"].data[:, block], draws[2 * gate].T)
            assert np.array_equal(params["lstm.w_hid"].data[:, block], draws[2 * gate + 1].T)

    def test_rejects_empty_and_out_of_range(self):
        table, params = self._setup(9)
        with pytest.raises(ValueError):
            encode_lstm([[]], table, *params)
        with pytest.raises(ValueError):
            encode_lstm([], table, *params)
        with pytest.raises(IndexError):
            encode_lstm([[table.shape[0]]], table, *params)

    def test_gradients_match_finite_differences(self):
        table, params = self._setup(10, dim=3, vocab=5)
        tokens = [1, 4, 1, 2]
        tensors = [table, *params]

        def forward():
            return total(encode_lstm([tokens], table, *params))

        worst = check_gradients(forward, tensors, step=1e-6)
        assert worst < 1e-5

    def test_gradient_reaches_every_gate(self):
        table, params = self._setup(11, dim=3, vocab=5)
        with ad.Tape() as tape:
            loss = total(encode_lstm([[0, 3, 2]], table, *params))
            ad.backward(tape, loss)
        for name, t in zip(LSTM_NAMES, params):
            assert np.abs(t.grad).max() > 0, f"no gradient reached {name}"

    def test_batched_gradients_match_finite_differences(self):
        # lengths 3, 1, 4, 2: sequences end at three different steps
        table, params = self._setup(14, dim=3, vocab=6)
        sequences = [[1, 4, 1], [5], [2, 0, 3, 3], [4, 2]]
        tensors = [table, *params]
        weights = np.random.default_rng(15).standard_normal((4, 3))

        def forward():
            return probe(encode_lstm(sequences, table, *params), weights)

        assert check_gradients(forward, tensors, step=1e-6) < 1e-5

    def test_word_gradient_costs_the_words_read_not_the_vocabulary(self):
        """At a vocabulary of 5,000, one backward over 30 short sequences
        allocates less than two (vocab, dim) arrays at its peak: the word
        gradient is summed over the words the batch reads and fills one
        table-sized array once, not one per step. Rows no token reads get
        zero."""
        rng = np.random.default_rng(16)
        vocab, dim = 5000, 64
        table = make_table(rng, vocab=vocab, dim=dim)
        params = lstm_weights(rng, dim)
        sequences = [list(rng.integers(0, vocab, size=int(rng.integers(3, 6)))) for _ in range(30)]
        with ad.Tape() as tape:
            root = probe(encode_lstm(sequences, table, *params), rng.standard_normal((30, dim)))
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                ad.backward(tape, root)
                peak = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
        read = np.unique(np.concatenate(sequences))
        assert (np.abs(table.grad[read]).max(axis=1) > 0).all()
        assert not np.delete(table.grad, read, axis=0).any()
        assert peak < 2 * vocab * dim * 8, f"peak {peak} bytes"


def test_bow_gradient_matches_finite_differences():
    table = make_table(np.random.default_rng(12), vocab=5, dim=3)

    def forward():
        return total(encode_bow([[0, 2, 2, 4]], table))

    assert check_gradients(forward, [table], step=1e-6) < 1e-7


# ---------------------------------------------------------------------------
# batches


BATCHES = {
    # lengths 1-6 in no order, repeated tokens within and across sequences
    "mixed": [[3, 1], [4, 1, 5, 9, 2, 6], [5], [3, 5, 8, 9], [7, 7, 7], [1, 4]],
    "equal": [[2, 7, 1], [8, 2, 8], [1, 8, 2], [8, 4, 5]],
    "single": [[6, 2, 6, 4]],
}


@pytest.mark.parametrize("encoder", ["bow", "lstm"])
@pytest.mark.parametrize("case", sorted(BATCHES))
def test_batch_equals_sequences_encoded_alone(encoder, case):
    rng = np.random.default_rng(13)
    table = make_table(rng, vocab=10, dim=4)
    params = lstm_weights(rng, 4)
    sequences = BATCHES[case]

    def encode(batch):
        if encoder == "bow":
            return encode_bow(batch, table).data
        return encode_lstm(batch, table, *params).data

    got = encode(sequences)
    assert got.shape == (len(sequences), 4)
    for row, tokens in zip(got, sequences):
        assert relative_error(row, encode([tokens])[0]) < 1e-12


# batches whose packing the cases above do not reach: every sequence one
# token long (no step past the first), and a word read twice in one step
GRADIENT_BATCHES = {
    **BATCHES,
    "one-token": [[3], [8], [3], [0]],
    "word-twice-in-a-step": [[4, 2, 9], [4, 2], [7, 2, 4]],
}


@pytest.mark.parametrize("case", sorted(GRADIENT_BATCHES))
def test_batch_gradients_are_the_sum_of_sequences_encoded_alone(case):
    """Under a random probe, each of the four gradients of a batch equals
    the sum of the gradients of its sequences encoded one at a time: the
    packed layout and the backward through time add up per sequence,
    whatever order the stacked products sum in."""
    rng = np.random.default_rng(17)
    table = make_table(rng, vocab=10, dim=4)
    params = lstm_weights(rng, 4)
    tensors = [table, *params]
    sequences = GRADIENT_BATCHES[case]
    weights = rng.standard_normal((len(sequences), 4))
    _, batch = autodiff_gradients(lambda: probe(encode_lstm(sequences, table, *params), weights), tensors)
    alone = [np.zeros_like(t.data) for t in tensors]
    for tokens, row in zip(sequences, weights):
        _, grads = autodiff_gradients(lambda: probe(encode_lstm([tokens], table, *params), row[None]), tensors)
        for total_grad, grad in zip(alone, grads):
            total_grad += grad
    for name, got, want in zip(("word", *LSTM_NAMES), batch, alone):
        assert relative_error(got, want) < 1e-12, name


def test_one_token_batch_gives_no_hidden_path_gradient():
    """With every sequence one token long no step reads the hidden path:
    its gradient stays ``None`` and an SGD step leaves it untouched."""
    rng = np.random.default_rng(18)
    config = ModelConfig(dim=4, head_dim=4, heads=1, layers=0, encoder="lstm")
    params = init_params(1, 1, 10, 0, config, rng)
    before = params["lstm.w_hid"].data.copy()
    args = [params[name] for name in ("word", *LSTM_NAMES)]
    with ad.Tape() as tape:
        ad.backward(tape, total(encode_lstm([[3], [8], [3]], *args)))
    assert params["lstm.w_hid"].grad is None
    assert all(params[name].grad is not None for name in ("word", "lstm.w_in", "lstm.b"))
    sgd_step(params, 0.1)
    assert np.array_equal(params["lstm.w_hid"].data, before)
