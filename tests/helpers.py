"""Shared test oracles: finite differences, naive references, tiny graphs.

Everything here recomputes results through an independent route (plain
numpy/Python, no autodiff, no model code) so that agreement with the
package is evidence of correctness rather than a restatement of it.
"""

from __future__ import annotations

import numpy as np

import kane.autodiff as ad
from kane.kgdata import KnowledgeGraph


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
        grads = ad.backward(tape, loss)
    out = [np.array(grads.get(p, np.zeros_like(p.data))) for p in params]
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
    for h, r, t in relation_triples:
        kg.add_relation_triple(h, r, t)
    for h, r, lit in attribute_triples:
        kg.add_attribute_triple(h, r, lit)
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
    for i in range(entities):  # guarantee an outgoing edge per entity
        r = rels[int(rng.integers(relations))]
        t = names[int(rng.integers(entities))]
        kg.add_relation_triple(names[i], r, t)
    for _ in range(max(0, triples - entities)):
        h = names[int(rng.integers(entities))]
        r = rels[int(rng.integers(relations))]
        t = names[int(rng.integers(entities))]
        kg.add_relation_triple(h, r, t)
    if attribute_relations and attribute_triples:
        arels = [f"a{i}" for i in range(attribute_relations)]
        for _ in range(attribute_triples):
            h = names[int(rng.integers(entities))]
            r = arels[int(rng.integers(attribute_relations))]
            k = int(rng.integers(1, max_tokens + 1))
            lit = " ".join(vocab[int(rng.integers(len(vocab)))] for _ in range(k))
            kg.add_attribute_triple(h, r, lit)
    return kg


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


# ---------------------------------------------------------------------------
# independent numpy references

def reference_lstm_final_state(
    tokens: list[int], word: np.ndarray, p: dict[str, np.ndarray]
) -> np.ndarray:
    """Plain numpy LSTM over token embeddings; returns the final hidden state."""

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    dim = word.shape[1]
    h = np.zeros(dim)
    c = np.zeros(dim)
    for w in tokens:
        x = word[w]
        i = sig(p["w_in_input"] @ x + p["w_hid_input"] @ h + p["b_input"])
        f = sig(p["w_in_forget"] @ x + p["w_hid_forget"] @ h + p["b_forget"])
        o = sig(p["w_in_output"] @ x + p["w_hid_output"] @ h + p["b_output"])
        g = np.tanh(p["w_in_cell"] @ x + p["w_hid_cell"] @ h + p["b_cell"])
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


def reference_bce(scores: np.ndarray, labels: list[int], clip: float = 30.0) -> float:
    """Mean one-hot binary cross-entropy with score clipping, pure numpy."""
    n, c = scores.shape
    s = np.clip(scores, -clip, clip)
    probs = 1.0 / (1.0 + np.exp(-s))
    total = 0.0
    for i, lab in enumerate(labels):
        for j in range(c):
            y = 1.0 if j == lab else 0.0
            total += y * np.log(probs[i, j]) + (1.0 - y) * np.log(1.0 - probs[i, j])
    return float(-total / n)
