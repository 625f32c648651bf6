"""Shared test oracles: finite differences, naive references, tiny graphs.

Everything here recomputes results through an independent route (plain
numpy/Python, no autodiff, no model code) so that agreement with the
package is evidence of correctness rather than a restatement of it.
"""

from __future__ import annotations

import json
import struct

import numpy as np

import kane.autodiff as ad
from kane.errors import IntegrityError
from kane.kgdata import KnowledgeGraph
from kane.model import ModelParams
from kane.training import CHECKPOINT_MAGIC


# ---------------------------------------------------------------------------
# finite-difference gradient checking

def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max over entries of |a - n| / max(1, |a|, |n|)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float((np.abs(a - n) / denom).max())


def autodiff_gradients(forward, params: list[ad.Tensor]) -> tuple[float, list[np.ndarray]]:
    """One taped forward/backward; returns (loss value, grads per param)."""
    ad.zero_grads(params)
    with ad.Tape() as tape:
        loss = forward()
        ad.backward(tape, loss)
    out = [np.zeros_like(p.data) if p.grad is None else np.array(p.grad) for p in params]
    ad.zero_grads(params)
    return float(loss.data), out


def numeric_gradient(
    forward,
    param: ad.Tensor,
    step: float = 1e-6,
    entries: list[tuple] | None = None,
) -> np.ndarray:
    """Central finite differences of ``forward()`` w.r.t. ``param.data``.

    ``forward`` must be a pure function of the current ``.data`` values.
    Returns an array shaped like the parameter; entries not probed are NaN
    when ``entries`` is given.
    """
    base = param.data.copy()
    if entries is None:
        probe = list(np.ndindex(base.shape))
        grad = np.zeros_like(base)
    else:
        probe = entries
        grad = np.full_like(base, np.nan)
    for idx in probe:
        param.data = base.copy()
        param.data[idx] = base[idx] + step
        up = float(forward().data)
        param.data = base.copy()
        param.data[idx] = base[idx] - step
        down = float(forward().data)
        grad[idx] = (up - down) / (2.0 * step)
    param.data = base
    return grad


def check_gradients(
    forward,
    params: list[ad.Tensor],
    step: float = 1e-6,
    max_entries_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Worst relative error between taped gradients and central differences."""
    _, grads = autodiff_gradients(forward, params)
    worst = 0.0
    for p, g in zip(params, grads):
        entries = None
        total = int(np.prod(p.data.shape)) if p.data.shape else 1
        if max_entries_per_param is not None and total > max_entries_per_param:
            assert rng is not None
            flat = rng.choice(total, size=max_entries_per_param, replace=False)
            entries = [np.unravel_index(int(i), p.data.shape) for i in flat]
        num = numeric_gradient(forward, p, step=step, entries=entries)
        if entries is None:
            worst = max(worst, relative_error(g, num))
        else:
            for idx in entries:
                worst = max(worst, relative_error(g[idx], num[idx]))
    return worst


def total(t: ad.Tensor) -> ad.Tensor:
    """The sum of all entries of ``t``: a scalar root for gradient checks,
    built as one ``ad.fused`` record."""
    return ad.fused(t.data.sum(), (t,), lambda g: (np.full(t.shape, g),))


def probe(t: ad.Tensor, weights) -> ad.Tensor:
    """The sum of ``t`` times the constant ``weights`` (an array or a
    constant tensor of ``t``'s shape), as one ``ad.fused`` record: a scalar
    root whose gradient for ``t`` is ``weights``."""
    w = np.asarray(getattr(weights, "data", weights), dtype=np.float64)
    if w.shape != t.shape:
        raise ValueError(f"probe: weights {w.shape} for a tensor {t.shape}")
    return ad.fused((t.data * w).sum(), (t,), lambda g: (g * w,))


# sums, differences and row norms as one record each, with the backward of
# the generic op: the steps of the composed completion loss below

def fused_add(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    return ad.fused(a.data + b.data, (a, b), lambda g: (g, g))


def fused_sub(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    return ad.fused(a.data - b.data, (a, b), lambda g: (g, -g))


def fused_norm(m: ad.Tensor, kind: str) -> ad.Tensor:
    if kind == "l1":
        val = np.abs(m.data).sum(axis=1)
        return ad.fused(val, (m,), lambda g: (g[:, None] * np.sign(m.data),))
    val = np.sqrt((m.data * m.data).sum(axis=1))

    def back(g):
        safe = np.where(val == 0.0, 1.0, val)
        return ((g / safe)[:, None] * m.data * (val != 0.0)[:, None],)

    return ad.fused(val, (m,), back)


def composed_completion_loss(
    positives: np.ndarray,
    negatives: np.ndarray,
    ent: ad.Tensor,
    relation: ad.Tensor,
    norm: str,
    margin: float,
    negatives_per_positive: int,
    values: ad.Tensor | None = None,
) -> ad.Tensor:
    """The completion hinge loss built op by op, one tape record per step:
    gather h, r and t (t from the entity rows, then the value rows), take
    the norm of (h + r) - t with the records above, split the distances
    into positives and negatives, and hinge them.
    ``training._completion_batch_loss`` fuses these steps into one record
    with the same sums in the same order."""
    rows = np.concatenate([positives, negatives])
    table = ent if values is None else ad.concat_rows([ent, values])
    head_mat = ad.rows(ent, rows[:, 0])
    tail_mat = ad.rows(table, rows[:, 2])
    rel_mat = ad.rows(relation, rows[:, 1])
    dists = fused_norm(fused_sub(fused_add(head_mat, rel_mat), tail_mat), norm)
    d_pos = ad.rows(dists, np.arange(len(positives)))
    d_neg = ad.rows(dists, np.arange(len(positives), len(rows)))
    owner = np.repeat(np.arange(len(positives)), negatives_per_positive)
    violation = (d_pos.data[owner] - d_neg.data) + float(margin)
    active = violation > 0.0

    def back(g):
        g_active = g * active
        return np.bincount(owner, weights=g_active, minlength=len(positives)), -g_active

    return ad.fused(np.where(active, violation, 0.0).sum(), (d_pos, d_neg), back)


def away_from_zero(arr: "np.ndarray", gap: float = 0.05) -> "np.ndarray":
    """Shift entries so none lies within ``gap`` of zero (kink safety)."""
    out = np.array(arr)
    small = np.abs(out) < gap
    out[small] = gap * np.where(out[small] >= 0.0, 1.0, -1.0)
    return out


# ---------------------------------------------------------------------------
# tiny graph builders

def kg_from_name_triples(
    relation_triples: list[tuple[str, str, str]],
    attribute_triples: list[tuple[str, str, str]] = (),
) -> KnowledgeGraph:
    kg = KnowledgeGraph()
    kg.add_relation_triples(relation_triples)
    kg.add_attribute_triples(attribute_triples)
    return kg


def random_kg(
    rng: np.random.Generator,
    entities: int = 6,
    relations: int = 3,
    triples: int = 12,
    attribute_relations: int = 0,
    attribute_triples: int = 0,
    vocab: tuple[str, ...] = ("red", "green", "blue", "round", "flat", "tall"),
    max_tokens: int = 3,
) -> KnowledgeGraph:
    """Random graph over named entities; every entity appears at least once."""
    kg = KnowledgeGraph()
    names = [f"e{i}" for i in range(entities)]
    rels = [f"r{i}" for i in range(relations)]
    for name in names:  # fix entity ids 0..n-1 up front
        kg.entities.intern(name)
    rel_triples = []
    for i in range(entities):  # guarantee an outgoing edge per entity
        r = rels[int(rng.integers(relations))]
        t = names[int(rng.integers(entities))]
        rel_triples.append((names[i], r, t))
    for _ in range(max(0, triples - entities)):
        h = names[int(rng.integers(entities))]
        r = rels[int(rng.integers(relations))]
        t = names[int(rng.integers(entities))]
        rel_triples.append((h, r, t))
    kg.add_relation_triples(rel_triples)
    if attribute_relations and attribute_triples:
        arels = [f"a{i}" for i in range(attribute_relations)]
        attr_triples = []
        for _ in range(attribute_triples):
            h = names[int(rng.integers(entities))]
            r = arels[int(rng.integers(attribute_relations))]
            k = int(rng.integers(1, max_tokens + 1))
            lit = " ".join(vocab[int(rng.integers(len(vocab)))] for _ in range(k))
            attr_triples.append((h, r, lit))
        kg.add_attribute_triples(attr_triples)
    return kg


def edge_case_graph() -> KnowledgeGraph:
    """Five entities whose edges hold every edge case of an attention layer:
    ``a`` reads ``b`` via two relations (a repeated source) and reads one
    attribute value, ``b`` has a single edge (a one-edge segment), ``c``
    reads the same value as ``a``, and ``d`` and ``e`` have no outgoing
    edge (isolated entities)."""
    return kg_from_name_triples(
        [("a", "r0", "b"), ("a", "r1", "b"), ("b", "r0", "c"), ("c", "r1", "a"), ("c", "r0", "d"),
         ("c", "r1", "e")],
        [("a", "color", "red round"), ("c", "color", "red round")],
    )


def layer_tensors(rng: np.random.Generator, view, config, with_values: bool = True):
    """Random tensors for one attention layer over ``view``: (entity vectors,
    relation row per edge, value table or None, ``ModelParams`` with the
    relation table and ``head_w.0``), every one a parameter."""
    kg, d = view.kg, config.dim
    params = ModelParams({
        "relation": ad.parameter(rng.normal(size=(kg.num_relations, d))),
        "head_w.0": ad.parameter(rng.normal(size=(d, config.heads * config.head_dim)) * 0.5),
    })
    values = ad.parameter(rng.normal(size=(len(kg.value_tokens), d))) if with_values else None
    rel = ad.parameter(rng.normal(size=(view.edges.source.size, d)))
    return ad.parameter(rng.normal(size=(kg.num_entities, d))), rel, values, params


def quantized_ranking_setups(count: int = 10):
    """(graph, entity vectors, relation vectors) on 2-d half-integer grids."""
    rng = np.random.default_rng(99)
    for _ in range(count):
        entities = int(rng.integers(5, 21))
        kg = random_kg(
            rng,
            entities=entities,
            relations=int(rng.integers(2, 5)),
            triples=int(rng.integers(entities, 3 * entities)),
        )
        # coarsely quantized coordinates force plenty of exact distance ties
        ent = rng.integers(-2, 3, size=(kg.num_entities, 2)).astype(float) / 2.0
        rel = rng.integers(-2, 3, size=(kg.num_relations, 2)).astype(float) / 2.0
        yield kg, ent, rel


def parse_embedding_export(text: str) -> tuple[list[str], np.ndarray]:
    """Names and matrix of a ``kane export`` file, read back independently
    of the writer (``cli.format_embedding_export``)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#"):
        raise IntegrityError("embedding export missing '#entities dim' header")
    count, dim = (int(x) for x in lines[0][1:].split())
    names: list[str] = []
    rows: list[list[float]] = []
    for line in lines[1:]:
        if not line:
            continue
        name, _, values = line.partition("\t")
        names.append(name)
        rows.append([float(x) for x in values.split()])
    mat = np.array(rows, dtype=np.float64)
    if mat.shape != (count, dim):
        raise IntegrityError(f"embedding export header says {(count, dim)}, found {mat.shape}")
    return names, mat


def checkpoint_header(blob: bytes) -> dict:
    """The JSON header of a checkpoint."""
    (length,) = struct.unpack_from("<Q", blob, len(CHECKPOINT_MAGIC))
    start = len(CHECKPOINT_MAGIC) + 8
    return json.loads(blob[start:start + length])


def with_checkpoint_header(blob: bytes, header) -> bytes:
    """``blob`` with its JSON header replaced and the arrays kept."""
    (length,) = struct.unpack_from("<Q", blob, len(CHECKPOINT_MAGIC))
    head = json.dumps(header).encode("utf-8")
    arrays = blob[len(CHECKPOINT_MAGIC) + 8 + length:]
    return CHECKPOINT_MAGIC + struct.pack("<Q", len(head)) + head + arrays


# ---------------------------------------------------------------------------
# independent numpy references

def reference_lstm_final_state(
    tokens: list[int], word: np.ndarray, p: dict[str, np.ndarray]
) -> np.ndarray:
    """Plain numpy LSTM over token embeddings; returns the final hidden state.
    ``p`` holds ``w_in`` and ``w_hid``, (dim, 4 * dim), and ``b``, (4 * dim,),
    with the gates side by side: input, forget, output, cell."""

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    dim = word.shape[1]
    h = np.zeros(dim)
    c = np.zeros(dim)
    for w in tokens:
        x = word[w]
        gate = [x @ p["w_in"][:, k * dim:(k + 1) * dim] + h @ p["w_hid"][:, k * dim:(k + 1) * dim]
                + p["b"][k * dim:(k + 1) * dim] for k in range(4)]
        i, f, o, g = sig(gate[0]), sig(gate[1]), sig(gate[2]), np.tanh(gate[3])
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


def reference_transe_hinge(
    entity: np.ndarray,
    relation: np.ndarray,
    positives: list[tuple[int, int, int]],
    negatives: list[list[tuple[int, int, int]]],
    margin: float,
    norm: str,
) -> float:
    """Margin hinge loss on raw embedding tables, pure numpy."""

    def dist(h, r, t):
        diff = entity[h] + relation[r] - entity[t]
        return np.abs(diff).sum() if norm == "l1" else np.sqrt((diff * diff).sum())

    total = 0.0
    for pos, negs in zip(positives, negatives):
        d_pos = dist(*pos)
        for neg in negs:
            total += max(0.0, margin + d_pos - dist(*neg))
    return float(total)


def reference_bce(scores: np.ndarray, labels: list[int]) -> float:
    """Mean one-hot binary cross-entropy from logits, pure numpy: per entry
    -log(sigmoid(s)) for the label's class and -log(1 - sigmoid(s)) for the
    others, each as ``np.logaddexp`` (log(1 + e^-s) and log(1 + e^s))."""
    n, c = scores.shape
    loss_sum = 0.0
    for i, lab in enumerate(labels):
        for j in range(c):
            s = float(scores[i, j])
            loss_sum += np.logaddexp(0.0, -s) if j == lab else np.logaddexp(0.0, s)
    return float(loss_sum / n)
