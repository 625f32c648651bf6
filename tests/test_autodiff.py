"""Gradient and contract tests for the tape engine.

Every op is checked against central finite differences (step 1e-6,
relative error < 1e-5); compositions of random depth are checked the same
way. Inputs for kinked ops (abs, leaky, clip) are pushed away from their
kinks so the numeric derivative is valid.
"""

from __future__ import annotations

import ast
import functools
import inspect
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kane.autodiff as ad
from kane.errors import DomainError, ShapeError
from kane.model import ModelParams
from kane.training import sgd_step

from helpers import away_from_zero, check_gradients, relative_error, numeric_gradient, autodiff_gradients

STEP = 1e-6
TOL = 1e-5


def probe(t, weights):
    """Scalar sum of ``t`` weighted by the constant ``weights``."""
    return ad.sum_all(ad.elementwise_mul(t, weights))


def vec(rng, n=5):
    return ad.parameter(rng.normal(size=n))


def mat(rng, p=4, q=5):
    return ad.parameter(rng.normal(size=(p, q)))


# ---------------------------------------------------------------------------
# per-op finite-difference checks


@pytest.mark.parametrize("seed", [0, 1])
class TestOpGradients:
    def test_add_sub_scale(self, seed):
        rng = np.random.default_rng(seed)
        a, b = vec(rng), vec(rng)
        assert check_gradients(lambda: ad.sum_all(ad.add(a, b)), [a, b], STEP) < TOL
        assert check_gradients(lambda: ad.sum_all(ad.sub(a, b)), [a, b], STEP) < TOL
        assert check_gradients(lambda: ad.sum_all(ad.scale(a, -2.5)), [a], STEP) < TOL

    def test_elementwise_mul_dot(self, seed):
        rng = np.random.default_rng(seed)
        a, b = vec(rng), vec(rng)
        assert check_gradients(lambda: ad.sum_all(ad.elementwise_mul(a, b)), [a, b], STEP) < TOL
        # a dot product with a constant, the probe the other checks use
        w = ad.constant(rng.normal(size=5))
        assert check_gradients(lambda: probe(a, w), [a], STEP) < TOL

    def test_matmul_transpose(self, seed):
        rng = np.random.default_rng(seed)
        m = mat(rng, 4, 5)
        v = mat(rng, 5, 1)
        u = mat(rng, 1, 4)
        w = mat(rng, 5, 3)
        # matrix-vector products as matmuls with one column or one row
        assert check_gradients(lambda: ad.sum_all(ad.matmul(m, v)), [m, v], STEP) < TOL
        assert check_gradients(lambda: ad.sum_all(ad.matmul(u, m)), [u, m], STEP) < TOL
        assert check_gradients(lambda: ad.sum_all(ad.matmul(m, w)), [m, w], STEP) < TOL
        assert check_gradients(lambda: ad.sum_all(ad.transpose(m)), [m], STEP) < TOL

    def test_row_rows_take(self, seed):
        rng = np.random.default_rng(seed)
        m = mat(rng, 5, 3)
        v = vec(rng, 6)
        # repeated indices exercise gradient accumulation into shared rows
        assert check_gradients(lambda: ad.sum_all(ad.rows(m, [2])), [m], STEP) < TOL
        assert check_gradients(lambda: ad.sum_all(ad.rows(m, [0, 2, 2, 4])), [m], STEP) < TOL
        assert check_gradients(lambda: ad.sum_all(ad.rows(v, [1, 1, 5, 0])), [v], STEP) < TOL

    def test_scatter_rows_reshape(self, seed):
        rng = np.random.default_rng(seed)
        m, v = mat(rng, 6, 3), vec(rng, 6)
        # unsorted and repeated indices; row 1 of the (4, ...) result is never hit
        idx = [3, 0, 3, 2, 0, 3]
        w43, w4 = ad.constant(rng.normal(size=(4, 3))), ad.constant(rng.normal(size=4))
        assert check_gradients(lambda: probe(ad.scatter_rows(m, idx, 4), w43), [m], STEP) < TOL
        assert check_gradients(lambda: probe(ad.scatter_rows(v, idx, 4), w4), [v], STEP) < TOL
        w29, w18 = ad.constant(rng.normal(size=(2, 9))), ad.constant(rng.normal(size=18))
        assert check_gradients(lambda: probe(ad.reshape(m, (2, -1)), w29), [m], STEP) < TOL
        assert check_gradients(lambda: probe(ad.reshape(m, (18,)), w18), [m], STEP) < TOL
        w32 = ad.constant(rng.normal(size=(3, 2)))
        assert check_gradients(lambda: probe(ad.reshape(v, (3, 2)), w32), [v], STEP) < TOL

    def test_concat_stack_slices(self, seed):
        rng = np.random.default_rng(seed)
        m = mat(rng, 6, 3)
        top = mat(rng, 2, 3)
        w93 = ad.constant(rng.normal(size=(10, 3)))
        assert check_gradients(
            lambda: ad.sum_all(ad.elementwise_mul(ad.concat_rows([m, top, top]), w93)), [m, top], STEP
        ) < TOL

    def test_add_rowvec_and_reductions(self, seed):
        rng = np.random.default_rng(seed)
        m = mat(rng, 4, 3)
        v = vec(rng, 3)
        assert check_gradients(lambda: ad.sum_all(ad.add_rowvec(m, v)), [m, v], STEP) < TOL
        # segments of 1, 3 and 2 entries: the first holds a single entry; the
        # index repeats table rows 0 and 2 and never reads row 1
        idx, offsets = [2, 0, 2, 3, 0, 2], [0, 1, 4, 6]
        weights, table = vec(rng, 6), mat(rng, 4, 3)
        w33 = ad.constant(rng.normal(size=(3, 3)))
        assert check_gradients(
            lambda: probe(ad.segment_weighted_sum(weights, table, idx, offsets), w33), [weights, table], STEP,
        ) < TOL
        # (6, 2) weights over 4 table columns: weight column j scales column block j
        heads, wide = mat(rng, 6, 2), mat(rng, 4, 4)
        w34 = ad.constant(rng.normal(size=(3, 4)))
        assert check_gradients(
            lambda: probe(ad.segment_weighted_sum(heads, wide, idx, offsets), w34), [heads, wide], STEP,
        ) < TOL

    def test_norms(self, seed):
        rng = np.random.default_rng(seed)
        m = ad.parameter(away_from_zero(rng.normal(size=(4, 3))))
        w4 = ad.constant(rng.normal(size=4))
        for kind in ("l1", "l2"):
            assert check_gradients(lambda: probe(ad.rowwise_norm(m, kind), w4), [m], STEP) < TOL

    def test_nonlinearities(self, seed):
        rng = np.random.default_rng(seed)
        v = ad.parameter(away_from_zero(rng.normal(size=6)))
        w = ad.parameter(rng.normal(size=6))
        weights = ad.constant(rng.normal(size=6))
        assert check_gradients(lambda: probe(ad.leaky_relu(v, 0.2), weights), [v], STEP) < TOL
        assert check_gradients(lambda: probe(ad.leaky_relu(v, 0.0), weights), [v], STEP) < TOL
        assert check_gradients(lambda: probe(ad.sigmoid(w), weights), [w], STEP) < TOL
        assert check_gradients(lambda: probe(ad.tanh(w), weights), [w], STEP) < TOL

    def test_log_clip_softmax(self, seed):
        rng = np.random.default_rng(seed)
        pos = ad.parameter(rng.uniform(0.5, 3.0, size=6))
        v = ad.parameter(away_from_zero(rng.normal(size=6) * 2.0, gap=0.2))
        logits = ad.parameter(rng.normal(size=5))
        weights = ad.constant(rng.normal(size=6))
        wl = ad.constant(rng.normal(size=5))
        assert check_gradients(lambda: probe(ad.log(pos), weights), [pos], STEP) < TOL
        # clip bounds chosen between sample magnitudes, away from any entry
        assert check_gradients(lambda: probe(ad.clip(v, -1.11, 1.13), weights), [v], STEP) < TOL
        # one segment over all logits, and segments of 1, 3 and 2 entries
        assert check_gradients(lambda: probe(ad.segment_softmax(logits, [0, 5]), wl), [logits], STEP) < TOL
        grouped = ad.parameter(rng.normal(size=6))
        assert check_gradients(
            lambda: probe(ad.segment_softmax(grouped, [0, 1, 4, 6]), weights), [grouped], STEP
        ) < TOL
        # an (n, k) logit matrix: a softmax per column within each segment
        columns = mat(rng, 6, 3)
        w63 = ad.constant(rng.normal(size=(6, 3)))
        assert check_gradients(
            lambda: probe(ad.segment_softmax(columns, [0, 1, 4, 6]), w63), [columns], STEP
        ) < TOL


# ---------------------------------------------------------------------------
# randomized compositions


def _random_chain(rng: np.random.Generator):
    """A random scalar-valued composition of depth <= 6 over one (n, 1) column."""
    n = int(rng.integers(3, 7))
    v = ad.parameter(rng.normal(size=(n, 1)))
    plan: list[tuple[str, int | None]] = []
    mats: list[ad.Tensor] = []
    consts: list[ad.Tensor] = []
    size = n
    for _ in range(int(rng.integers(1, 7))):
        op = str(rng.choice(["tanh", "sigmoid", "softmax", "scale", "mul_self", "matvec", "add_const"]))
        if op == "matvec":
            new_size = int(rng.integers(3, 7))
            mats.append(ad.parameter(rng.normal(size=(new_size, size)) * 0.7))
            plan.append((op, len(mats) - 1))
            size = new_size
        elif op == "add_const":
            consts.append(ad.constant(rng.normal(size=(size, 1))))
            plan.append((op, len(consts) - 1))
        else:
            plan.append((op, None))
    final = ad.constant(rng.normal(size=(size, 1)))

    def forward():
        cur = v
        for op, aux in plan:
            if op == "tanh":
                cur = ad.tanh(cur)
            elif op == "sigmoid":
                cur = ad.sigmoid(cur)
            elif op == "softmax":
                cur = ad.segment_softmax(cur, [0, cur.shape[0]])
            elif op == "scale":
                cur = ad.scale(cur, 1.7)
            elif op == "mul_self":
                cur = ad.elementwise_mul(cur, cur)
            elif op == "matvec":
                cur = ad.matmul(mats[aux], cur)
            else:
                cur = ad.add(cur, consts[aux])
        return probe(cur, final)

    return forward, [v] + mats


def test_random_compositions():
    rng = np.random.default_rng(7)
    for _ in range(60):
        forward, params = _random_chain(rng)
        assert check_gradients(forward, params, STEP) < TOL


def test_reused_tensor_accumulates():
    v = ad.parameter(np.array([1.0, -2.0, 3.0]))
    with ad.Tape() as tape:
        loss = probe(v, v)
        ad.backward(tape, loss)
    assert np.allclose(v.grad, 2.0 * v.data, atol=0, rtol=0)


def test_gather_backward_adds_repeated_indices_to_existing_grad():
    rng = np.random.default_rng(4)
    m = ad.parameter(rng.normal(size=(5, 3)))
    v = ad.parameter(rng.normal(size=5))
    idx = [3, 0, 3, 4, 3, 0, 1]
    w_m = rng.normal(size=(len(idx), 3))
    w_v = rng.normal(size=len(idx))
    prior_m, prior_v = rng.normal(size=(5, 3)), rng.normal(size=5)
    m.grad, v.grad = prior_m.copy(), prior_v.copy()
    with ad.Tape() as tape:
        picked = ad.elementwise_mul(ad.rows(m, idx), ad.constant(w_m))
        taken = ad.elementwise_mul(ad.rows(v, idx), ad.constant(w_v))
        ad.backward(tape, ad.add(ad.sum_all(picked), ad.sum_all(taken)))
    want_m, want_v = prior_m.copy(), prior_v.copy()
    for k, i in enumerate(idx):
        want_m[i] += w_m[k]
        want_v[i] += w_v[k]
    assert relative_error(m.grad, want_m) < 1e-14
    assert relative_error(v.grad, want_v) < 1e-14


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_scatter_sums_match_a_python_loop(data):
    """Every sum of rows by index adds in index order, from zero, exactly as
    a Python loop does: the backward of ``rows`` on a matrix and a vector,
    the forward of ``scatter_rows``, and both the forward and the table
    gradient of ``segment_weighted_sum``. Unsorted and repeated indices,
    rows no index hits, widths 1, 3 and 128, vector and (n, k) weights, and
    segments of unequal lengths whose longest is not the first."""
    width = data.draw(st.sampled_from([1, 3, 128]), label="width")
    n = data.draw(st.integers(1, 12), label="n")
    idx = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20), label="idx")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

    m, v = ad.parameter(rng.normal(size=(n, width))), ad.parameter(rng.normal(size=n))
    w_m, w_v = rng.normal(size=(len(idx), width)), rng.normal(size=len(idx))
    with ad.Tape() as tape:
        ad.backward(tape, ad.add(probe(ad.rows(m, idx), ad.constant(w_m)),
                                 probe(ad.rows(v, idx), ad.constant(w_v))))
    want_m, want_v = np.zeros((n, width)), np.zeros(n)
    for k, i in enumerate(idx):
        want_m[i] += w_m[k]
        want_v[i] += w_v[k]
    assert np.array_equal(m.grad, want_m)
    assert np.array_equal(v.grad, want_v)
    # the forward of the adjoint sums the same rows into the same slots
    assert np.array_equal(ad.scatter_rows(ad.constant(w_m), idx, n).data, want_m)
    assert np.array_equal(ad.scatter_rows(ad.constant(w_v), idx, n).data, want_v)

    counts = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=6), label="counts")
    counts.insert(data.draw(st.integers(1, len(counts)), label="longest at"), max(counts) + 1)
    k = data.draw(st.sampled_from([None, 1, 2, 4]), label="k")  # None: vector weights
    offsets = np.concatenate([[0], np.cumsum(counts)])
    entries, blocks = int(offsets[-1]), k or 1
    # the last table row is never read, and the last entry repeats the first
    rows_total = data.draw(st.integers(2, 12), label="table rows")
    index = data.draw(st.lists(st.integers(0, rows_total - 2), min_size=entries, max_size=entries), label="index")
    index[-1] = index[0]
    weights = rng.normal(size=entries if k is None else (entries, k))
    table = ad.parameter(rng.normal(size=(rows_total, blocks * width)))
    w_out = rng.normal(size=(len(counts), blocks * width))
    with ad.Tape() as tape:
        summed = ad.segment_weighted_sum(ad.constant(weights), table, index, offsets)
        ad.backward(tape, probe(summed, ad.constant(w_out)))
    want, want_table = np.zeros_like(w_out), np.zeros_like(table.data)
    for seg, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        for e in range(lo, hi):
            for j in range(blocks):
                block = slice(j * width, (j + 1) * width)
                w = weights[e] if k is None else weights[e, j]
                want[seg, block] += w * table.data[index[e], block]
    for e in range(entries):
        seg = np.searchsorted(offsets, e, side="right") - 1
        for j in range(blocks):
            block = slice(j * width, (j + 1) * width)
            want_table[index[e], block] += (weights[e] if k is None else weights[e, j]) * w_out[seg, block]
    assert np.array_equal(summed.data, want)
    assert np.array_equal(table.grad, want_table)


def test_gradient_buffers_belong_to_one_tensor():
    """Backward adopts fresh gradient arrays instead of copying them, so an
    op that hands one buffer to two parents must copy it for one of them.
    Each parameter below gets its first gradient from one op. After
    backward no two parameters' grads share memory, each grad is its hand
    value, and a second backward into one parameter leaves the others'
    grads as they were."""
    rng = np.random.default_rng(14)
    params = {name: ad.parameter(rng.normal(size=(2, 3))) for name in "pquxy"}
    params["r"], params["s"] = ad.parameter(rng.normal(size=(3, 2))), ad.parameter(rng.normal(size=(2, 2)))
    p, q, u, x, y, r, s = params.values()
    c = rng.normal(size=(5, 2, 3))
    c_cat = rng.normal(size=(4, 3))
    with ad.Tape() as tape:
        terms = [probe(ad.add(p, q), ad.constant(c[0])), probe(ad.add(u, u), ad.constant(c[1])),
                 probe(ad.concat_rows([x, x]), ad.constant(c_cat)), probe(ad.transpose(r), ad.constant(c[2])),
                 probe(ad.reshape(y, (3, 2)), ad.constant(c[4].reshape(3, 2)))]
        ad.backward(tape, functools.reduce(ad.add, terms))
    with ad.Tape() as tape:
        ad.backward(tape, ad.sum_all(s))  # a sum_all root: its gradient spreads over s
    want = {"p": c[0], "q": c[0], "u": 2.0 * c[1], "x": c_cat[:2] + c_cat[2:], "y": c[4], "r": c[2].T,
            "s": np.ones((2, 2))}
    for name, t in params.items():
        assert relative_error(t.grad, want[name]) < 1e-14, name
    for a, b in itertools.combinations(params, 2):
        assert not np.shares_memory(params[a].grad, params[b].grad), (a, b)

    before = {name: t.grad.copy() for name, t in params.items()}
    with ad.Tape() as tape:
        ad.backward(tape, probe(q, ad.constant(c[3])))
    with ad.Tape() as tape:
        ad.backward(tape, ad.sum_all(s))
    assert np.array_equal(q.grad, before["q"] + c[3])
    assert np.array_equal(s.grad, 2.0 * before["s"])
    for name in "puxyr":
        assert np.array_equal(params[name].grad, before[name]), name


def test_gradient_linearity():
    rng = np.random.default_rng(3)
    v = ad.parameter(rng.normal(size=(1, 5)))
    u = ad.constant(rng.normal(size=(1, 5)))

    def f():
        return probe(ad.tanh(v), u)

    def g():
        return ad.sum_all(ad.rowwise_norm(v, "l2"))

    def combo():
        return ad.add(ad.scale(f(), 2.0), ad.scale(g(), -3.0))

    _, (gf,) = autodiff_gradients(f, [v])
    _, (gg,) = autodiff_gradients(g, [v])
    _, (gc,) = autodiff_gradients(combo, [v])
    assert np.abs(gc - (2.0 * gf - 3.0 * gg)).max() < 1e-10


# ---------------------------------------------------------------------------
# softmax properties


def test_softmax_normalization_and_shift_invariance():
    rng = np.random.default_rng(11)
    for _ in range(200):
        logits = rng.normal(size=int(rng.integers(1, 9))) * 10
        whole = [0, len(logits)]
        base = ad.segment_softmax(ad.constant(logits), whole).data
        shifted = ad.segment_softmax(ad.constant(logits + 123.456), whole).data
        assert abs(base.sum() - 1.0) < 1e-12
        assert (base >= 0.0).all()
        assert np.abs(base - shifted).max() < 1e-12


def test_softmax_matches_naive_exp():
    logits = np.array([0.3, -1.2, 2.0, 0.0])
    naive = np.exp(logits) / np.exp(logits).sum()
    out = ad.segment_softmax(ad.constant(logits), [0, 4]).data
    assert np.abs(out - naive).max() < 1e-12
    grouped = ad.segment_softmax(ad.constant(np.concatenate([logits, logits])), [0, 4, 8]).data
    assert np.abs(grouped - np.concatenate([naive, naive])).max() < 1e-12


def test_softmax_extreme_logits_stay_finite():
    out = ad.segment_softmax(ad.constant(np.array([1000.0, 0.0, -1000.0])), [0, 3]).data
    assert np.isfinite(out).all() and abs(out.sum() - 1.0) < 1e-12
    extreme = np.array([1000.0, 0.0, -1000.0, -1000.0, 1000.0])
    seg = ad.segment_softmax(ad.constant(extreme), [0, 3, 4, 5]).data
    assert np.isfinite(seg).all()
    assert np.abs(np.add.reduceat(seg, [0, 3, 4]) - 1.0).max() < 1e-12


def test_matrix_segment_ops_act_per_column_and_block():
    """With (n, k) weights, each softmax column is the vector softmax of that
    logit column, and weighted-sum block j is the vector weighted sum of table
    block j by weight column j."""
    rng = np.random.default_rng(12)
    for _ in range(50):
        k, width = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        counts = rng.integers(1, 5, size=int(rng.integers(1, 5)))
        offsets = np.concatenate([[0], np.cumsum(counts)])
        n = int(offsets[-1])
        logits = rng.normal(size=(n, k)) * 5
        table = rng.normal(size=(int(rng.integers(1, 6)), k * width))
        index = rng.integers(0, table.shape[0], size=n)  # repeats whenever n exceeds the rows
        weights = ad.segment_softmax(ad.constant(logits), offsets)
        summed = ad.segment_weighted_sum(weights, ad.constant(table), index, offsets).data
        for j in range(k):
            column = ad.segment_softmax(ad.constant(logits[:, j]), offsets)
            assert np.abs(weights.data[:, j] - column.data).max() < 1e-15
            block = slice(j * width, (j + 1) * width)
            want = ad.segment_weighted_sum(column, ad.constant(table[:, block]), index, offsets).data
            assert np.abs(summed[:, block] - want).max() < 1e-14


# ---------------------------------------------------------------------------
# tape/shape/domain contracts


def test_ops_outside_tape_do_not_record():
    v = ad.parameter(np.ones(3))
    out = ad.scale(v, 2.0)
    assert out._backward is None and out._parents == ()


def test_nested_tapes_restore_outer():
    with ad.Tape() as outer:
        ad.scale(ad.parameter(np.ones(2)), 1.0)
        with ad.Tape() as inner:
            ad.scale(ad.parameter(np.ones(2)), 1.0)
        assert ad.active_tape() is outer
        assert len(inner.records) == 1
    assert ad.active_tape() is None
    assert len(outer.records) == 1


def test_constants_receive_no_gradient():
    c = ad.constant(np.arange(3.0))
    v = ad.parameter(np.ones(3))
    with ad.Tape() as tape:
        loss = probe(c, v)
        ad.backward(tape, loss)
    assert c.grad is None and v.grad is not None
    # matmul with one constant operand, on either side
    k = ad.constant(np.arange(6.0).reshape(2, 3))
    for left in (True, False):
        m = ad.parameter(np.ones((3, 2)))
        with ad.Tape() as tape:
            ad.backward(tape, ad.sum_all(ad.matmul(k, m) if left else ad.matmul(m, k)))
        want = k.data.T @ np.ones((2, 2)) if left else np.ones((3, 3)) @ k.data.T
        assert k.grad is None and np.array_equal(m.grad, want)


def test_parameter_off_the_root_path_keeps_no_gradient():
    a = ad.parameter(np.ones((2, 3)))
    b = ad.parameter(np.array([[1.5, -0.0, 2.0]]))
    with ad.Tape() as tape:
        ad.sum_all(b)  # touched but dead: not on the path to the root
        loss = ad.sum_all(a)
        ad.backward(tape, loss)
    assert b.grad is None and np.array_equal(a.grad, np.ones((2, 3)))
    before = b.data.tobytes()
    sgd_step(ModelParams(entity=a, relation=b), 0.5)
    assert b.data.tobytes() == before and np.array_equal(a.data, np.full((2, 3), 0.5))


def test_backward_requires_scalar_root():
    v = ad.parameter(np.ones(3))
    with ad.Tape() as tape:
        out = ad.scale(v, 2.0)
        with pytest.raises(ShapeError):
            ad.backward(tape, out)


def test_shape_and_domain_errors():
    v3 = ad.parameter(np.ones(3))
    v4 = ad.parameter(np.ones(4))
    m = ad.parameter(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        ad.add(v3, v4)
    with pytest.raises(ShapeError):
        ad.matmul(m, m)
    with pytest.raises(ShapeError):
        ad.elementwise_mul(v3, v4)
    with pytest.raises(ShapeError):
        ad.Tensor(np.ones((2, 2, 2)))
    with pytest.raises(ShapeError):
        ad.Tensor(np.ones((0, 2)))
    with pytest.raises(ShapeError):
        v3.item()
    with pytest.raises(IndexError):
        ad.rows(m, [0, 9])
    with pytest.raises(IndexError):
        ad.rows(v3, [0, 7])
    with pytest.raises(ShapeError):
        ad.rows(ad.parameter(1.0), [0])  # a scalar has no rows
    with pytest.raises(DomainError):
        ad.log(ad.constant(np.array([1.0, -0.5])))
    with pytest.raises(DomainError):
        ad.rowwise_norm(m, "l7")
    with pytest.raises(ShapeError):
        ad.segment_softmax(ad.constant(1.0), [0, 1])  # a scalar, not logits
    with pytest.raises(ShapeError):
        ad.segment_softmax(v4, [0, 2, 2, 4])  # empty segment
    with pytest.raises(ShapeError):
        ad.segment_softmax(v4, [0, 3])  # offsets stop short of the length
    with pytest.raises(ShapeError):
        ad.segment_weighted_sum(v3, m, [0, 1], [0, 1, 3])  # 2 indices for 3 weight rows
    with pytest.raises(IndexError):
        ad.segment_weighted_sum(v3, m, [0, 2, 1], [0, 1, 3])  # m has 2 rows
    with pytest.raises(ShapeError):
        ad.segment_weighted_sum(ad.parameter(np.ones((2, 2))), m, [0, 1], [0, 1, 2])  # width 3, two blocks
    with pytest.raises(ShapeError):
        ad.segment_weighted_sum(v3, v3, [0, 1, 2], [0, 1, 3])  # a vector is no table
    with pytest.raises(ShapeError):
        ad.concat_rows([m, ad.parameter(np.ones((2, 4)))])
    with pytest.raises(ShapeError):
        ad.scatter_rows(m, [0, 1, 1], 3)  # three indices for two rows
    with pytest.raises(IndexError):
        ad.scatter_rows(v3, [0, 3, 1], 3)
    with pytest.raises(ShapeError):
        ad.reshape(m, (4, 2))
    with pytest.raises(ShapeError):
        ad.reshape(m, (1, 2, 3))  # three dimensions


def test_zero_grads_clears():
    v = ad.parameter(np.ones(3))
    with ad.Tape() as tape:
        ad.backward(tape, ad.sum_all(v))
    assert v.grad is not None
    ad.zero_grads([v])
    assert v.grad is None


def test_values_are_float64_and_at_most_2d():
    t = ad.constant([1, 2, 3])
    assert t.data.dtype == np.float64
    assert ad.constant(2.0).shape == ()


def test_every_public_op_has_a_caller_in_the_package():
    """An op stays only while package code calls it: tests alone do not count."""
    package = Path(ad.__file__).parent
    public = {
        name for name, fn in vars(ad).items()
        if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and not name.startswith("_")
    }
    used = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # names a module may call bare: its own functions, or those it imports from autodiff
        bare = public if path.name == "autodiff.py" else {
            alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "autodiff"
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in ("ad", "autodiff"):
                used.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in bare:
                used.add(node.func.id)
    assert sorted(public - used) == []
