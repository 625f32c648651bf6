"""Gradient and contract tests for the tape engine and its NumPy kernels.

Every op, every fused record of the model and the segment kernels of
``AggregationPlan`` are checked against central finite differences (step
1e-6, relative error < 1e-5); random compositions of the model's records
are checked the same way. Inputs for kinked functions (abs, leaky) are
pushed away from their kinks so the numeric derivative is valid.
"""

from __future__ import annotations

import ast
import functools
import inspect
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kane.autodiff as ad
import kane.model as model_module
from kane.errors import ShapeError
from kane.kgdata import GraphView
from kane.model import ModelConfig, ModelParams, aggregate, forward_all, init_params
from kane.training import sgd_step

from helpers import (
    autodiff_gradients, away_from_zero, check_gradients, edge_case_graph, fused_add, fused_norm,
    fused_sub, layer_tensors, probe, random_kg, relative_error, total,
)

STEP = 1e-6
TOL = 1e-5


def mul(a, b):
    """The elementwise product of two tensors as one fused record."""
    return ad.fused(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def vec(rng, n=5):
    return ad.parameter(rng.normal(size=n))


def mat(rng, p=4, q=5):
    return ad.parameter(rng.normal(size=(p, q)))


def segments(offsets):
    """A plan over the segments of ``offsets`` whose entries all read table
    row 0: enough for the softmax kernels, which read no table."""
    return ad.AggregationPlan(np.zeros(offsets[-1], dtype=np.intp), offsets)


def softmax_record(logits, plan):
    """The plan's segment softmax as one fused record."""
    val = plan.softmax(logits.data)
    return ad.fused(val, (logits,), lambda g: (plan.softmax_grad(g, val),))


def weighted_sum_record(weights, table, plan):
    """The plan's weighted sum as one fused record."""
    return ad.fused(plan.weighted_sum(weights.data, table.data), (weights, table),
                    lambda g: plan.weighted_sum_grads(g, weights.data, table.data))


def layer_gradient_error(rng, config, use_attributes):
    """Worst finite-difference error of one attention layer record over the
    edge-case graph, for every tensor it reads; without attributes no edge
    reads a value, and the entity vectors are the only source rows."""
    kg = edge_case_graph()
    view = GraphView.restricted(kg, kg.relation_triples, use_attributes)
    inputs, rel, values, params = layer_tensors(rng, view, config, use_attributes)
    weights = rng.normal(size=(view.edges.active.size, config.heads * config.head_dim))

    def forward():
        _, outputs = model_module._layer_heads(inputs, rel, values, view, params, config, 0)
        return probe(outputs, weights)

    tensors = [inputs, rel, params.relation, params["head_w.0"]] + ([] if values is None else [values])
    return check_gradients(forward, tensors, STEP)


def aggregate_gradient_error(rng, config):
    """Worst finite-difference error of one ``aggregate`` record."""
    params = init_params(3, 2, 0, 0, config, rng)
    heads = ad.parameter(away_from_zero(rng.normal(size=(4, config.heads * config.head_dim))))
    weights = rng.normal(size=(4, config.dim))
    tensors = [heads] + [t for name, t in params.items() if name.startswith("out_w.")]
    return check_gradients(lambda: probe(aggregate(heads, params, config, 0), weights), tensors, STEP)


# ---------------------------------------------------------------------------
# per-op and per-record finite-difference checks


@pytest.mark.parametrize("seed", [0, 1])
class TestOpGradients:
    def test_add_sub_scale(self, seed):
        """Sums and differences as fused records, which hand one gradient
        buffer to two parents, and a scaled copy."""
        rng = np.random.default_rng(seed)
        a, b = vec(rng), vec(rng)
        assert check_gradients(lambda: total(fused_add(a, b)), [a, b], STEP) < TOL
        assert check_gradients(lambda: total(fused_sub(a, b)), [a, b], STEP) < TOL
        assert check_gradients(lambda: total(fused_add(a, a)), [a], STEP) < TOL

        def scaled():
            return ad.fused(a.data * -2.5, (a,), lambda g: (g * -2.5,))

        assert check_gradients(lambda: total(scaled()), [a], STEP) < TOL

    def test_elementwise_mul_dot(self, seed):
        rng = np.random.default_rng(seed)
        a, b = vec(rng), vec(rng)
        assert check_gradients(lambda: total(mul(a, b)), [a, b], STEP) < TOL
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
        assert check_gradients(lambda: total(ad.matmul(m, v)), [m, v], STEP) < TOL
        assert check_gradients(lambda: total(ad.matmul(u, m)), [u, m], STEP) < TOL
        assert check_gradients(lambda: total(ad.matmul(m, w)), [m, w], STEP) < TOL
        # an operand held transposed, as a column-major view
        t = ad.parameter(rng.normal(size=(3, 5)).T)
        assert not t.data.flags.c_contiguous
        w43 = rng.normal(size=(4, 3))
        assert check_gradients(lambda: probe(ad.matmul(m, t), w43), [m, t], STEP) < TOL

    def test_row_rows_take(self, seed):
        rng = np.random.default_rng(seed)
        m = mat(rng, 5, 3)
        v = vec(rng, 6)
        # repeated indices exercise gradient accumulation into shared rows
        assert check_gradients(lambda: total(ad.rows(m, [2])), [m], STEP) < TOL
        assert check_gradients(lambda: total(ad.rows(m, [0, 2, 2, 4])), [m], STEP) < TOL
        assert check_gradients(lambda: total(ad.rows(v, [1, 1, 5, 0])), [v], STEP) < TOL

    def test_scatter_rows_reshape(self, seed):
        rng = np.random.default_rng(seed)
        m, v = mat(rng, 6, 3), vec(rng, 6)
        # unsorted and repeated indices; row 1 of the (4, ...) result is never hit
        idx = [3, 0, 3, 2, 0, 3]
        w43, w4 = ad.constant(rng.normal(size=(4, 3))), ad.constant(rng.normal(size=4))
        assert check_gradients(lambda: probe(ad.scatter_rows(m, idx, 4), w43), [m], STEP) < TOL
        assert check_gradients(lambda: probe(ad.scatter_rows(v, idx, 4), w4), [v], STEP) < TOL

    def test_concat_stack_slices(self, seed):
        rng = np.random.default_rng(seed)
        m = mat(rng, 6, 3)
        top = mat(rng, 2, 3)
        w93 = ad.constant(rng.normal(size=(10, 3)))
        assert check_gradients(lambda: probe(ad.concat_rows([m, top, top]), w93), [m, top], STEP) < TOL

    def test_add_rowvec_and_reductions(self, seed):
        rng = np.random.default_rng(seed)
        m = mat(rng, 4, 3)
        v = vec(rng, 3)
        assert check_gradients(lambda: total(ad.add_rowvec(m, v)), [m, v], STEP) < TOL
        # the plan's weighted sum: segments of 1, 3 and 2 entries, the first
        # a single entry; the index repeats table rows 0 and 2 and never
        # reads row 1
        plan = ad.AggregationPlan([2, 0, 2, 3, 0, 2], [0, 1, 4, 6])
        weights, table = vec(rng, 6), mat(rng, 4, 3)
        w33 = ad.constant(rng.normal(size=(3, 3)))
        assert check_gradients(
            lambda: probe(weighted_sum_record(weights, table, plan), w33), [weights, table], STEP,
        ) < TOL
        # (6, 2) weights over 4 table columns: weight column j scales column block j
        heads, wide = mat(rng, 6, 2), mat(rng, 4, 4)
        w34 = ad.constant(rng.normal(size=(3, 4)))
        assert check_gradients(
            lambda: probe(weighted_sum_record(heads, wide, plan), w34), [heads, wide], STEP,
        ) < TOL

    def test_norms(self, seed):
        """Row norms, and the translational layer, whose logits are -||h +
        r - n||: l1 and l2, with and without a value table."""
        rng = np.random.default_rng(seed)
        m = ad.parameter(away_from_zero(rng.normal(size=(4, 3))))
        w4 = ad.constant(rng.normal(size=4))
        for kind in ("l1", "l2"):
            assert check_gradients(lambda: probe(fused_norm(m, kind), w4), [m], STEP) < TOL
            config = ModelConfig(dim=4, head_dim=3, heads=2, attention="translational", norm=kind)
            for use_attributes in (True, False):
                assert layer_gradient_error(rng, config, use_attributes) < TOL

    def test_nonlinearities(self, seed):
        """The leaky ReLU, at slopes 0.2 and 0 (a plain ReLU), inside the
        bilinear layer's logits and inside both merges of ``aggregate``."""
        rng = np.random.default_rng(seed)
        for slope in (0.2, 0.0):
            bilinear = ModelConfig(dim=4, head_dim=3, heads=2, leaky_slope=slope)
            assert layer_gradient_error(rng, bilinear, use_attributes=True) < TOL
            assert layer_gradient_error(rng, bilinear, use_attributes=False) < TOL
            for aggregator, head_dim in (("concat", 3), ("average", 4)):
                merge = ModelConfig(dim=4, head_dim=head_dim, heads=3, aggregator=aggregator, leaky_slope=slope)
                assert aggregate_gradient_error(rng, merge) < TOL

    def test_segment_softmax(self, seed):
        rng = np.random.default_rng(seed)
        logits = ad.parameter(rng.normal(size=5))
        weights = ad.constant(rng.normal(size=6))
        wl = ad.constant(rng.normal(size=5))
        # one segment over all logits, and segments of 1, 3 and 2 entries
        whole = segments([0, 5])
        assert check_gradients(lambda: probe(softmax_record(logits, whole), wl), [logits], STEP) < TOL
        grouped = ad.parameter(rng.normal(size=6))
        plan = segments([0, 1, 4, 6])
        assert check_gradients(lambda: probe(softmax_record(grouped, plan), weights), [grouped], STEP) < TOL
        # an (n, k) logit matrix: a softmax per column within each segment
        columns = mat(rng, 6, 3)
        w63 = ad.constant(rng.normal(size=(6, 3)))
        assert check_gradients(lambda: probe(softmax_record(columns, plan), w63), [columns], STEP) < TOL


# ---------------------------------------------------------------------------
# randomized compositions


def test_random_compositions():
    """Whole forward passes of random configurations over random graphs,
    each a composition of layer, merge, gather and stacking records: 1 or 2
    layers, bilinear or translational (l1 or l2) attention, 1-3 heads, the
    concat or average merge, and views over a random part of the triples,
    so some entities are isolated."""
    rng = np.random.default_rng(7)
    for _ in range(30):
        aggregator = ("concat", "average")[int(rng.integers(2))]
        dim = int(rng.integers(2, 5))
        config = ModelConfig(
            dim=dim, head_dim=dim if aggregator == "average" else int(rng.integers(1, 4)),
            heads=int(rng.integers(1, 4)), layers=int(rng.integers(1, 3)), aggregator=aggregator,
            attention=("bilinear", "translational")[int(rng.integers(2))],
            norm=("l1", "l2")[int(rng.integers(2))], leaky_slope=float(rng.uniform(0.0, 0.5)),
            use_attributes=bool(rng.integers(2)),
        )
        kg = random_kg(rng, entities=int(rng.integers(3, 7)), relations=int(rng.integers(1, 4)),
                       triples=int(rng.integers(4, 12)), attribute_relations=1, attribute_triples=3)
        keep = [t for t in kg.relation_triples if rng.random() < 0.7] or kg.relation_triples[:1]
        view = GraphView.restricted(kg, keep, config.use_attributes)
        params = init_params(kg.num_entities, kg.num_relations, kg.vocab_size, 0, config, rng)
        weights = rng.normal(size=(kg.num_entities, dim))
        err = check_gradients(lambda: probe(forward_all(view, params, config), weights), list(params.values()),
                              STEP, max_entries_per_param=6, rng=rng)
        assert err < TOL, config


def test_reused_tensor_accumulates():
    v = ad.parameter(np.array([1.0, -2.0, 3.0]))
    with ad.Tape() as tape:
        loss = total(mul(v, v))
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
        ad.backward(tape, fused_add(probe(ad.rows(m, idx), w_m), probe(ad.rows(v, idx), w_v)))
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
    the forward of ``scatter_rows``, and the plan's weighted sum and its
    table gradient; its weight gradient takes each entry's products with
    its segment's gradient row and sums them as ``np.sum`` does. Unsorted
    and repeated indices, rows no index hits, widths 1, 3 and 128, vector
    and (n, k) weights, and segments of unequal lengths whose longest is
    not the first; the aggregation runs twice through one plan."""
    width = data.draw(st.sampled_from([1, 3, 128]), label="width")
    n = data.draw(st.integers(1, 12), label="n")
    idx = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20), label="idx")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

    m, v = ad.parameter(rng.normal(size=(n, width))), ad.parameter(rng.normal(size=n))
    w_m, w_v = rng.normal(size=(len(idx), width)), rng.normal(size=len(idx))
    with ad.Tape() as tape:
        ad.backward(tape, fused_add(probe(ad.rows(m, idx), w_m), probe(ad.rows(v, idx), w_v)))
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
    plan = ad.AggregationPlan(index, offsets)
    for _ in range(2):  # one plan, fresh weights and table: the reuse path of training
        weights = rng.normal(size=entries if k is None else (entries, k))
        table = rng.normal(size=(rows_total, blocks * width))
        w_out = rng.normal(size=(len(counts), blocks * width))
        summed = plan.weighted_sum(weights, table)
        weight_grad, table_grad = plan.weighted_sum_grads(w_out, weights, table)
        want, want_table = np.zeros_like(w_out), np.zeros_like(table)
        want_weights = np.zeros((entries, blocks))
        for seg, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
            for e in range(lo, hi):
                for j in range(blocks):
                    block = slice(j * width, (j + 1) * width)
                    w = weights[e] if k is None else weights[e, j]
                    want[seg, block] += w * table[index[e], block]
        for e in range(entries):
            seg = np.searchsorted(offsets, e, side="right") - 1
            for j in range(blocks):
                block = slice(j * width, (j + 1) * width)
                want_table[index[e], block] += (weights[e] if k is None else weights[e, j]) * w_out[seg, block]
                want_weights[e, j] = (w_out[seg, block] * table[index[e], block]).sum()
        assert np.array_equal(summed, want)
        assert np.array_equal(table_grad, want_table)
        assert np.array_equal(weight_grad, want_weights.reshape(weights.shape))


def test_aggregation_backward_builds_no_entry_wide_array():
    """The gradients of the plan's weighted sum over 2,000 entries allocate
    less at their peak than one (entries, width) float64 array: both are
    summed slot by slot, not from gathered rows."""
    rng = np.random.default_rng(31)
    counts = rng.integers(1, 40, size=100)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    entries, width = int(offsets[-1]), 64
    assert entries >= 1000
    weights = rng.normal(size=(entries, 2))
    table = rng.normal(size=(50, width))
    plan = ad.AggregationPlan(rng.integers(0, 50, size=entries), offsets)
    w_out = rng.normal(size=(counts.size, width))
    plan.weighted_sum(weights, table)
    tracemalloc.start()
    try:
        weight_grad, table_grad = plan.weighted_sum_grads(w_out, weights, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert weight_grad.shape == (entries, 2) and table_grad.shape == (50, width)
    assert peak < entries * width * 8, f"peak {peak} bytes"


def test_gradient_buffers_belong_to_one_tensor():
    """Backward adopts fresh gradient arrays instead of copying them, so an
    op that hands one buffer to two parents must copy it for one of them,
    as ``fused`` does, and ``concat_rows`` hands out disjoint slices.
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
        terms = [probe(fused_add(p, q), c[0]), probe(fused_add(u, u), c[1]),
                 probe(ad.concat_rows([x, x]), c_cat), probe(ad.matmul(r, ad.constant(np.eye(2))), c[2].T),
                 probe(ad.rows(y, [1, 0]), c[4])]
        ad.backward(tape, functools.reduce(fused_add, terms))
    with ad.Tape() as tape:
        ad.backward(tape, total(s))  # a fused root: its gradient spreads over s
    want = {"p": c[0], "q": c[0], "u": 2.0 * c[1], "x": c_cat[:2] + c_cat[2:], "y": c[4][[1, 0]], "r": c[2].T,
            "s": np.ones((2, 2))}
    for name, t in params.items():
        assert relative_error(t.grad, want[name]) < 1e-14, name
    for a, b in itertools.combinations(params, 2):
        assert not np.shares_memory(params[a].grad, params[b].grad), (a, b)

    before = {name: t.grad.copy() for name, t in params.items()}
    with ad.Tape() as tape:
        ad.backward(tape, probe(q, c[3]))
    with ad.Tape() as tape:
        ad.backward(tape, total(s))
    assert np.array_equal(q.grad, before["q"] + c[3])
    assert np.array_equal(s.grad, 2.0 * before["s"])
    for name in "puxyr":
        assert np.array_equal(params[name].grad, before[name]), name


def test_fused_accumulates_under_the_ownership_rule():
    """``fused`` gives no gradient to a constant parent or where its backward
    returns ``None``, adds into a gradient already present, and copies a
    buffer it would otherwise hand to two parameters."""
    rng = np.random.default_rng(15)
    a, b, d, skipped = (ad.parameter(rng.normal(size=(2, 3))) for _ in range(4))
    c = ad.constant(rng.normal(size=(2, 3)))
    w, prior = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    d.grad = prior.copy()
    parents = (a, b, c, d, skipped)
    with ad.Tape() as tape:
        # the same buffer g for every parent but the last, which gets None
        out = ad.fused(sum(p.data for p in parents), parents, lambda g: (g, g, g, g, None))
        ad.backward(tape, probe(out, w))
    assert len(tape.records) == 2  # the record under test and the probe
    assert c.grad is None and skipped.grad is None
    assert np.array_equal(a.grad, w) and np.array_equal(b.grad, w) and np.array_equal(d.grad, prior + w)
    assert not np.shares_memory(a.grad, b.grad)


def test_gradient_linearity():
    rng = np.random.default_rng(3)
    v = ad.parameter(rng.normal(size=(1, 5)))
    u = ad.constant(rng.normal(size=(1, 5)))

    def f():
        return probe(mul(v, v), u)

    def g():
        return total(fused_norm(v, "l2"))

    def combo():
        a, b = f(), g()
        return ad.fused(2.0 * a.data - 3.0 * b.data, (a, b), lambda grad: (2.0 * grad, -3.0 * grad))

    _, (gf,) = autodiff_gradients(f, [v])
    _, (gg,) = autodiff_gradients(g, [v])
    _, (gc,) = autodiff_gradients(combo, [v])
    assert np.abs(gc - (2.0 * gf - 3.0 * gg)).max() < 1e-10


# ---------------------------------------------------------------------------
# properties of the segment kernels


def test_softmax_normalization_and_shift_invariance():
    rng = np.random.default_rng(11)
    for _ in range(200):
        logits = rng.normal(size=int(rng.integers(1, 9))) * 10
        whole = [0, len(logits)]
        base = segments(whole).softmax(logits)
        shifted = segments(whole).softmax(logits + 123.456)
        assert abs(base.sum() - 1.0) < 1e-12
        assert (base >= 0.0).all()
        assert np.abs(base - shifted).max() < 1e-12


def test_softmax_matches_naive_exp():
    logits = np.array([0.3, -1.2, 2.0, 0.0])
    naive = np.exp(logits) / np.exp(logits).sum()
    out = segments([0, 4]).softmax(logits)
    assert np.abs(out - naive).max() < 1e-12
    grouped = segments([0, 4, 8]).softmax(np.concatenate([logits, logits]))
    assert np.abs(grouped - np.concatenate([naive, naive])).max() < 1e-12


def test_softmax_extreme_logits_stay_finite():
    out = segments([0, 3]).softmax(np.array([1000.0, 0.0, -1000.0]))
    assert np.isfinite(out).all() and abs(out.sum() - 1.0) < 1e-12
    extreme = np.array([1000.0, 0.0, -1000.0, -1000.0, 1000.0])
    seg = segments([0, 3, 4, 5]).softmax(extreme)
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
        plan = ad.AggregationPlan(index, offsets)
        weights = plan.softmax(logits)
        summed = plan.weighted_sum(weights, table)
        for j in range(k):
            column = plan.softmax(logits[:, j])
            assert np.abs(weights[:, j] - column).max() < 1e-15
            block = slice(j * width, (j + 1) * width)
            want = plan.weighted_sum(column, table[:, block])
            assert np.abs(summed[:, block] - want).max() < 1e-14


# ---------------------------------------------------------------------------
# tape and shape contracts


def test_ops_outside_tape_do_not_record():
    v = ad.parameter(np.ones(3))
    for out in (ad.rows(v, [2, 0]), total(v)):
        assert out._backward is None and out._parents == ()


def test_nested_tapes_restore_outer():
    with ad.Tape() as outer:
        ad.rows(ad.parameter(np.ones(2)), [1])
        with ad.Tape() as inner:
            ad.rows(ad.parameter(np.ones(2)), [1])
        assert ad.active_tape() is outer
        assert len(inner.records) == 1
    assert ad.active_tape() is None
    assert len(outer.records) == 1


def test_constants_receive_no_gradient():
    c = ad.constant(np.arange(3.0))
    v = ad.parameter(np.ones(3))
    with ad.Tape() as tape:
        loss = total(mul(c, v))
        ad.backward(tape, loss)
    assert c.grad is None and v.grad is not None
    # matmul with one constant operand, on either side
    k = ad.constant(np.arange(6.0).reshape(2, 3))
    for left in (True, False):
        m = ad.parameter(np.ones((3, 2)))
        with ad.Tape() as tape:
            ad.backward(tape, total(ad.matmul(k, m) if left else ad.matmul(m, k)))
        want = k.data.T @ np.ones((2, 2)) if left else np.ones((3, 3)) @ k.data.T
        assert k.grad is None and np.array_equal(m.grad, want)


def test_parameter_off_the_root_path_keeps_no_gradient():
    a = ad.parameter(np.ones((2, 3)))
    b = ad.parameter(np.array([[1.5, -0.0, 2.0]]))
    with ad.Tape() as tape:
        total(b)  # touched but dead: not on the path to the root
        loss = total(a)
        ad.backward(tape, loss)
    assert b.grad is None and np.array_equal(a.grad, np.ones((2, 3)))
    before = b.data.tobytes()
    sgd_step(ModelParams(entity=a, relation=b), 0.5)
    assert b.data.tobytes() == before and np.array_equal(a.data, np.full((2, 3), 0.5))


def test_backward_requires_scalar_root():
    v = ad.parameter(np.ones(3))
    with ad.Tape() as tape:
        out = ad.rows(v, [0, 1])
        with pytest.raises(ShapeError):
            ad.backward(tape, out)


def test_shape_and_domain_errors():
    v3 = ad.parameter(np.ones(3))
    m = ad.parameter(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        ad.matmul(m, m)
    with pytest.raises(ShapeError):
        ad.add_rowvec(m, ad.parameter(np.ones(2)))
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
    plan = ad.AggregationPlan([0, 1], [0, 1, 2])
    with pytest.raises(ShapeError):
        plan.softmax(np.ones(()))  # a scalar, not logits
    with pytest.raises(ShapeError):
        plan.softmax(np.ones(3))  # 3 logits, 2 entries
    with pytest.raises(ShapeError):
        plan.weighted_sum(np.ones(3), m.data)  # 3 weight rows, 2 entries
    with pytest.raises(ShapeError):
        plan.weighted_sum(np.ones((2, 2)), m.data)  # width 3, two blocks
    with pytest.raises(ShapeError):
        plan.weighted_sum(np.ones(2), np.ones(3))  # a vector is no table
    with pytest.raises(ShapeError):
        plan.weighted_sum_grads(np.ones((2, 3)), np.ones(3), m.data)
    with pytest.raises(ShapeError):
        ad.concat_rows([m, ad.parameter(np.ones((2, 4)))])
    with pytest.raises(ShapeError):
        ad.scatter_rows(m, [0, 1, 1], 3)  # three indices for two rows
    with pytest.raises(IndexError):
        ad.scatter_rows(v3, [0, 3, 1], 3)


def test_aggregation_plan_checks_fire():
    """The index and offset checks run when a plan is built; each weighted
    sum, and each of its gradients, checks the table's row count against
    the plan's largest index."""
    plan = ad.AggregationPlan([0, 2, 1], [0, 1, 3])
    weights = np.ones(3)
    with pytest.raises(IndexError):
        plan.weighted_sum(weights, np.ones((2, 3)))  # row 2 of 2 rows
    with pytest.raises(IndexError):
        plan.weighted_sum_grads(np.ones((2, 3)), weights, np.ones((2, 3)))
    assert plan.weighted_sum(weights, np.ones((3, 3))).shape == (2, 3)
    with pytest.raises(ShapeError):
        ad.AggregationPlan([0, 1], [])  # no offsets
    with pytest.raises(ShapeError):
        ad.AggregationPlan([0, 1], [0, 1, 1, 2])  # an empty segment
    with pytest.raises(ShapeError):
        ad.AggregationPlan([0, 1, 2], [0, 2, 1, 3])  # offsets go down
    with pytest.raises(ShapeError):
        ad.AggregationPlan([0, 1, 2], [0, 1, 2])  # offsets stop short of the entries
    with pytest.raises(ShapeError):
        ad.AggregationPlan([], [0])  # no entries
    with pytest.raises(IndexError):
        ad.AggregationPlan([0, -1], [0, 2])


def test_zero_grads_clears():
    v = ad.parameter(np.ones(3))
    with ad.Tape() as tape:
        ad.backward(tape, total(v))
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
