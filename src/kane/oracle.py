"""Naive reference implementations for the tests and the benchmark checks.

Everything here is written with plain Python floats, lists and explicit
loops, allocating fresh lists at every step. It deliberately shares no
code with the model, encoder or evaluation modules (it imports only the
graph data types and ``math``), so agreement between the two routes is
meaningful evidence rather than a tautology.

Parameters arrive as a plain ``{name: nested lists}`` dict and the
configuration as a plain dict of values. Matrices are in the model's
(in, out) layout: a row vector times the matrix, and the stacked head
transforms and LSTM gates are read block by block.
"""

from __future__ import annotations

import math

from .kgdata import GraphView


def params_to_lists(named_parameters) -> dict[str, list]:
    """Convert ``ModelParams.named_parameters()`` output to nested lists."""
    return {name: tensor.data.tolist() for name, tensor in named_parameters}


def _vecmat(v: list[float], m: list[list[float]], lo: int, hi: int) -> list[float]:
    """Columns ``lo:hi`` of the row vector ``v`` times the matrix ``m``."""
    out = []
    for j in range(lo, hi):
        acc = 0.0
        for i, x in enumerate(v):
            acc += x * m[i][j]
        out.append(acc)
    return out


def _vadd(u: list[float], v: list[float]) -> list[float]:
    return [a + b for a, b in zip(u, v)]


def _vsub(u: list[float], v: list[float]) -> list[float]:
    return [a - b for a, b in zip(u, v)]


def _dot(u: list[float], v: list[float]) -> float:
    acc = 0.0
    for a, b in zip(u, v):
        acc += a * b
    return acc


def _norm(v: list[float], kind: str) -> float:
    if kind == "l1":
        acc = 0.0
        for x in v:
            acc += abs(x)
        return acc
    acc = 0.0
    for x in v:
        acc += x * x
    return math.sqrt(acc)


def _leaky(x: float, slope: float) -> float:
    return x if x > 0.0 else slope * x


def _sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _softmax(logits: list[float]) -> list[float]:
    top = max(logits)
    exps = [math.exp(x - top) for x in logits]
    total = sum(exps)
    return [e / total for e in exps]


def _encode_bow(tokens: list[int], word: list[list[float]]) -> list[float]:
    dim = len(word[0])
    acc = [0.0] * dim
    for w in tokens:
        acc = _vadd(acc, word[w])
    return acc


def _encode_lstm(tokens: list[int], word: list[list[float]], arrays: dict) -> list[float]:
    dim = len(word[0])
    h = [0.0] * dim
    c = [0.0] * dim

    def pre(x: list[float], hidden: list[float], gate: int) -> list[float]:
        # gates side by side: input, forget, output, cell
        lo, hi = gate * dim, (gate + 1) * dim
        return [a + b + bb for a, b, bb in zip(
            _vecmat(x, arrays["lstm.w_in"], lo, hi), _vecmat(hidden, arrays["lstm.w_hid"], lo, hi),
            arrays["lstm.b"][lo:hi])]

    for w in tokens:
        x = word[w]
        gate_i = [_sigmoid(a) for a in pre(x, h, 0)]
        gate_f = [_sigmoid(a) for a in pre(x, h, 1)]
        gate_o = [_sigmoid(a) for a in pre(x, h, 2)]
        cand = [math.tanh(a) for a in pre(x, h, 3)]
        c = [f * cc + i * g for f, cc, i, g in zip(gate_f, c, gate_i, cand)]
        h = [o * math.tanh(cc) for o, cc in zip(gate_o, c)]
    return h


def _encoded_value(value_id: int, view: GraphView, arrays: dict, cfg: dict) -> list[float]:
    tokens = view.kg.value_tokens[value_id]
    if cfg["encoder"] == "bow":
        return _encode_bow(tokens, arrays["word"])
    return _encode_lstm(tokens, arrays["word"], arrays)


def neighbor_lists(view: GraphView) -> list[list[tuple[int, int, bool]]]:
    """Per entity, its outgoing edges in edge order as (relation, target,
    is_attribute) tuples; the target is an entity id, or a value id when
    ``is_attribute``."""
    n = view.entity_count
    out: list[list[tuple[int, int, bool]]] = [[] for _ in range(n)]
    edges = view.edges
    for owner, rel, src in zip(edges.owner.tolist(), edges.relation.tolist(), edges.source.tolist()):
        if src >= n:
            out[owner].append((rel, src - n, True))
        else:
            out[owner].append((rel, src, False))
    return out


def naive_entity_vectors(view: GraphView, arrays: dict, cfg: dict) -> list[list[float]]:
    """Layer-by-layer propagation with explicit dense loops."""
    vecs = [list(map(float, row_vals)) for row_vals in arrays["entity"]]
    neighborhood = neighbor_lists(view)
    for layer in range(cfg["layers"]):
        transform = arrays[f"head_w.{layer}"]
        head_dim = len(transform[0]) // cfg["heads"]
        new_vecs = []
        for e in range(view.entity_count):
            neighbors = neighborhood[e]
            if not neighbors:
                new_vecs.append(list(vecs[e]))
                continue
            head_outs = []
            for head in range(cfg["heads"]):
                lo, hi = head * head_dim, (head + 1) * head_dim
                logits = []
                messages = []
                for relation, target, is_attribute in neighbors:
                    r_vec = arrays["relation"][relation]
                    if is_attribute:
                        n_vec = _encoded_value(target, view, arrays, cfg)
                    else:
                        n_vec = vecs[target]
                    combined = _vadd(r_vec, n_vec)
                    message = _vecmat(combined, transform, lo, hi)
                    if cfg["attention"] == "bilinear":
                        query = _vecmat(r_vec, transform, lo, hi)
                        logits.append(_leaky(_dot(query, message), cfg["leaky_slope"]))
                    else:
                        diff = _vsub(_vadd(vecs[e], r_vec), n_vec)
                        logits.append(-_norm(diff, cfg["norm"]))
                    messages.append(message)
                weights = _softmax(logits)
                out = [0.0] * len(messages[0])
                for w, msg in zip(weights, messages):
                    out = _vadd(out, [w * x for x in msg])
                head_outs.append(out)
            if cfg["aggregator"] == "concat":
                flat = [x for out in head_outs for x in out]
                out_w = arrays[f"out_w.{layer}"]
                merged = _vecmat(flat, out_w, 0, len(out_w[0]))
            else:
                merged = [0.0] * len(head_outs[0])
                for out in head_outs:
                    merged = _vadd(merged, out)
                merged = [x / cfg["heads"] for x in merged]
            new_vecs.append([_leaky(x, cfg["leaky_slope"]) for x in merged])
        vecs = new_vecs
    return vecs


def naive_distance(head_vec: list[float], rel_vec: list[float], tail_vec: list[float], norm: str) -> float:
    return _norm(_vsub(_vadd(head_vec, rel_vec), tail_vec), norm)


def _naive_rank(distances: list[float], true_idx: int, excluded: set[int], setting: str) -> int:
    true_d = distances[true_idx]
    better = 0
    for i, d in enumerate(distances):
        if setting == "filter" and i in excluded and i != true_idx:
            continue
        if d < true_d:
            better += 1
    return 1 + better


def naive_rank_tail(
    triple, vectors: list[list[float]], relations: list[list[float]],
    known_triples, norm: str, setting: str,
) -> int:
    h, r, t = triple
    excluded = {kt for kh, kr, kt in known_triples if kh == h and kr == r}
    distances = [
        naive_distance(vectors[h], relations[r], vectors[cand], norm)
        for cand in range(len(vectors))
    ]
    return _naive_rank(distances, t, excluded, setting)


def naive_rank_head(
    triple, vectors: list[list[float]], relations: list[list[float]],
    known_triples, norm: str, setting: str,
) -> int:
    h, r, t = triple
    excluded = {kh for kh, kr, kt in known_triples if kr == r and kt == t}
    distances = [
        naive_distance(vectors[cand], relations[r], vectors[t], norm)
        for cand in range(len(vectors))
    ]
    return _naive_rank(distances, h, excluded, setting)


def naive_rank_relation(
    triple, vectors: list[list[float]], relations: list[list[float]],
    known_triples, norm: str, setting: str,
) -> int:
    h, r, t = triple
    excluded = {kr for kh, kr, kt in known_triples if kh == h and kt == t}
    distances = [
        naive_distance(vectors[h], relations[cand], vectors[t], norm)
        for cand in range(len(relations))
    ]
    return _naive_rank(distances, r, excluded, setting)
