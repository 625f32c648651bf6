"""Attention-based embedding propagation over relation and attribute triples.

An entity's vector at layer ``l`` is an attention-weighted sum of messages
from its outgoing neighbors. For a neighbor reached via relation ``r`` with
vector ``n`` (either the tail entity's layer ``l-1`` vector or the encoded
attribute value), each head computes

    message  = W (r + n)
    logit    = LeakyReLU((W r)^T W (r + n))          # "bilinear" attention
    weights  = softmax over the entity's neighbors

and the head output is the weighted message sum. Head outputs are merged
either by concatenation followed by a learned projection, or by averaging
(which requires head_dim == dim). Entities with no outgoing neighbors keep
their previous-layer vector. Relation embeddings and attribute encodings
are read fresh at every layer; only entity vectors propagate.

Each layer runs over all edges of the view at once, for all heads at once.
Every transform is stored in the (in, out) layout of the row-vector
product that reads it, so no step transposes or stacks a parameter: a
layer's head transforms are one (dim, heads * head_dim)
matrix holding W_h^T in column block h, the concat merge is (heads *
head_dim, dim) and the classifier (dim, classes). The stacked transform
W multiplies the relation table (q = W r, R rows) and the source table
(t = W n, S rows: entity vectors, then value encodings) once each, since
W (r + n) = W r + W n. Nothing per edge then depends on the relation but
an (edges, heads) gather, by two exact identities, per head:

    logit:   <q_r, q_r + t_s> = <q_r, q_r> + <q_r, t_s>
    output:  sum_e a_e (q_r + t_s) = sum_e a_e t_s + sum_r A_r q_r

The first reads every <x, q_r> from one ((S + R) * R, heads) table, the
product of the rows x of [t; q] with a block-diagonal arrangement of q:
an edge's logits are two gathers, at rows ``source * R + relation`` and
``(S + relation) * R + relation``. In the second, A_r sums an entity's
weights over its edges labelled r: one scatter of the (edges, heads)
weights into an (active * R, heads) table, then one small matrix product
with q, next to one weighted sum of the rows t_s, which the plan's
``weighted_sum`` reads from the source table by index, slot by slot, with
no (edges, heads * head_dim) array of gathered rows. The plan is the
view's ``aggregation``, built once per view and shared by every layer,
step and validation over it. The tables hold (S + R) * R *
heads and active * R * heads entries, against the edges * heads *
head_dim of per-edge query rows; they are smaller whenever R * (S + R) <
edges * head_dim, which holds on every benchmark graph (R = 8).
Translational attention keeps its per-edge logits, whose weights all
heads share, and takes the same output identity with one weight per
(entity, relation) pair.

One segment softmax normalizes every head's logit column over each
entity's segment of the edge list, and the head outputs come out side by
side, in concat layout. All attribute values of a pass are encoded in one
batched encoder call into one value table, row ``v`` for value id ``v``,
which propagation and the completion loss both read.

A layer is one tape record, the SDDMM -> softmax -> SpMM sequence of
FusedMM (Rahman et al. 2021) run as NumPy calls: the products table and
its two logit gathers (or the translational norms), the leaky ReLU, the
segment softmax, the pair scatter, the weighted sum and the pair-weight
product. Its hand-written backward walks those steps in reverse and keeps
only the arrays it reads. The merge, a product and a leaky ReLU, is a
second record per layer.

With ``layers == 0`` and attributes off, scoring degenerates to plain
translation scoring on the raw embedding tables.

``parameter_shapes`` alone decides which parameters a config and a graph's
counts give, with their checkpoint names, shapes and order. ``ModelParams``
maps those names to tensors in that order, ``init_params`` draws them in
that order, and propagation reads each by name, such as ``head_w.{l}``.
A run stores only what it trains, with one corner left: with ``layers ==
0`` a classification run reads neither the relation table nor any
attribute, yet stores the relation table and, with ``use_attributes``, the
word table.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoders import bow_encode, lstm_encode
from .errors import ConfigError
from .kgdata import GraphView

AGGREGATORS = ("concat", "average")
ENCODERS = ("bow", "lstm")
NORMS = ("l1", "l2")
ATTENTION_FORMS = ("bilinear", "translational")


def check_field_types(config, prefix: str) -> None:
    """Each field of dataclass ``config`` must hold exactly the type of its
    default, or its default factory (a class), so a bool is no int. An int
    given for a float is stored as one."""
    for f in fields(config):
        value = getattr(config, f.name)
        want = f.default_factory if f.default is MISSING else type(f.default)
        if want is float and type(value) is int:
            object.__setattr__(config, f.name, float(value))
        elif type(value) is not want:
            raise ConfigError(f"{prefix}{f.name} must be {want.__name__}, got {value!r}")


def unit_rows(mat: np.ndarray) -> np.ndarray:
    """``mat`` with every nonzero row scaled to unit L2 norm."""
    norms = np.sqrt((mat * mat).sum(axis=1, keepdims=True))
    return mat / np.where(norms == 0.0, 1.0, norms)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters, checked when the config is built.

    ``attention`` selects the logit form: "bilinear" is the product form
    above; "translational" uses -||h + r - n|| with the configured norm.
    """

    dim: int = 64
    head_dim: int = 64
    heads: int = 2
    layers: int = 2
    aggregator: str = "concat"
    encoder: str = "bow"
    attention: str = "bilinear"
    norm: str = "l1"
    leaky_slope: float = 0.2
    use_attributes: bool = True

    def __post_init__(self) -> None:
        check_field_types(self, "model.")
        if self.dim < 1 or self.head_dim < 1:
            raise ConfigError(f"dim and head_dim must be >= 1, got {self.dim}, {self.head_dim}")
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.layers < 0:
            raise ConfigError(f"layers must be >= 0, got {self.layers}")
        if self.aggregator not in AGGREGATORS:
            raise ConfigError(f"aggregator must be one of {AGGREGATORS}, got {self.aggregator!r}")
        if self.encoder not in ENCODERS:
            raise ConfigError(f"encoder must be one of {ENCODERS}, got {self.encoder!r}")
        if self.norm not in NORMS:
            raise ConfigError(f"norm must be one of {NORMS}, got {self.norm!r}")
        if self.attention not in ATTENTION_FORMS:
            raise ConfigError(f"attention must be one of {ATTENTION_FORMS}, got {self.attention!r}")
        if self.aggregator == "average" and self.head_dim != self.dim:
            raise ConfigError(
                f"average aggregation needs head_dim == dim, got {self.head_dim} != {self.dim}"
            )
        if not 0.0 <= self.leaky_slope < 1.0:
            raise ConfigError(f"leaky_slope must be in [0, 1), got {self.leaky_slope}")


def is_translation_mode(config: ModelConfig) -> bool:
    """True when the model degenerates to plain translation scoring."""
    return config.layers == 0 and not config.use_attributes


def parameter_shapes(
    config: ModelConfig, entity_count: int, relation_count: int, vocab_size: int, class_count: int
) -> list[tuple[str, tuple[int, ...]]]:
    """(checkpoint name, shape) of every parameter of a model with this
    config and these counts, in checkpoint order: the one place that
    decides which parameters exist. ``word`` and ``lstm.*`` exist only with
    ``use_attributes``, the classifier only for ``class_count > 0``, which
    ``training.classifier_classes`` gives for classification alone."""
    d, width = config.dim, config.heads * config.head_dim
    out = [("entity", (entity_count, d)), ("relation", (relation_count, d))]
    if config.use_attributes and vocab_size > 0:
        out.append(("word", (vocab_size, d)))
        if config.encoder == "lstm":
            out += [("lstm.w_in", (d, 4 * d)), ("lstm.w_hid", (d, 4 * d)), ("lstm.b", (4 * d,))]
    out += [(f"head_w.{l}", (d, width)) for l in range(config.layers)]
    if config.aggregator == "concat":
        out += [(f"out_w.{l}", (width, d)) for l in range(config.layers)]
    if class_count > 0:
        out += [("cls_w", (d, class_count)), ("cls_b", (class_count,))]
    return out


class ModelParams(dict):
    """All trainable tensors by checkpoint name, in ``parameter_shapes`` order."""

    @property
    def entity(self) -> Tensor:
        return self["entity"]

    @property
    def relation(self) -> Tensor:
        return self["relation"]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.items())

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, t in self.items():
            t.data = snap[name].copy()


def init_params(
    entity_count: int,
    relation_count: int,
    vocab_size: int,
    class_count: int,
    config: ModelConfig,
    rng: np.random.Generator,
) -> ModelParams:
    """The parameters of ``parameter_shapes``, drawn in its order, so a seed
    pins every value. Embedding tables start uniform in [-6/sqrt(dim),
    6/sqrt(dim)], with entity and relation rows L2-normalized once; linear
    transforms use fan-based (Glorot) uniform bounds so propagation
    preserves vector magnitude instead of amplifying it layer over layer.
    Each transform is drawn in its (out, in) shape and stored transposed,
    row-major as a checkpoint load gives it: ``head_w.{l}`` as one
    (head_dim, dim) block per head, and the LSTM as each gate's (dim, dim)
    input and hidden matrices, gate by gate, input path first. Biases start
    at zero, but the LSTM forget bias starts at 1 so early training does
    not erase the cell state."""
    if entity_count < 1 or relation_count < 1:
        raise ConfigError("need at least one entity and one relation")
    d = config.dim
    bound = 6.0 / np.sqrt(d)

    def fan_uniform(shape: tuple[int, int], fan: int) -> np.ndarray:
        limit = np.sqrt(6.0 / fan)
        return rng.uniform(-limit, limit, size=shape)

    params = ModelParams()
    for name, shape in parameter_shapes(config, entity_count, relation_count, vocab_size, class_count):
        if name in ("entity", "relation"):
            data = unit_rows(rng.uniform(-bound, bound, size=shape))
        elif name == "word":
            data = rng.uniform(-bound, bound, size=shape)
        elif name == "lstm.w_in":
            gates = [(fan_uniform((d, d), 2 * d), fan_uniform((d, d), 2 * d)) for _ in range(4)]
            data = np.ascontiguousarray(np.concatenate([w_in.T for w_in, _ in gates], axis=1))
        elif name == "lstm.w_hid":  # drawn with lstm.w_in, which comes first
            data = np.ascontiguousarray(np.concatenate([w_hid.T for _, w_hid in gates], axis=1))
        elif name == "lstm.b":  # gates input, forget, output, cell
            data = np.repeat([0.0, 1.0, 0.0, 0.0], d)
        elif name == "cls_b":
            data = np.zeros(shape)
        else:  # head_w.{l}, out_w.{l}, cls_w
            fan = d + config.head_dim if name.startswith("head_w.") else sum(shape)
            data = np.ascontiguousarray(fan_uniform(shape[::-1], fan).T)
        params[name] = ad.parameter(data, name)
    return params


# ---------------------------------------------------------------------------
# attribute value encoding

def encode_value(view: GraphView, params: ModelParams, config: ModelConfig) -> Tensor | None:
    """Encodings of all attribute values of the graph in one batched encoder
    call, row ``v`` for value id ``v``; None when no edge of the view reads
    a value."""
    if not (view.edges.source >= view.entity_count).any():
        return None
    sequences, word = view.kg.value_tokens, params["word"]
    if config.encoder == "bow":
        return bow_encode(sequences, word)
    return lstm_encode(sequences, word, params["lstm.w_in"], params["lstm.w_hid"], params["lstm.b"])


# ---------------------------------------------------------------------------
# attention and propagation, over all edges of a view at once

def _layer_heads(
    inputs: Tensor,
    rel: Tensor | None,
    values: Tensor | None,
    view: GraphView,
    params: ModelParams,
    config: ModelConfig,
    layer: int,
) -> tuple[Tensor, Tensor]:
    """Attention weights over all edges and the head outputs, in concat
    layout, of the entities that have neighbors: (active, heads * head_dim).
    Bilinear weights are (edges, heads), column j for head j; translational
    weights are one (edges,) vector that all heads share. The weights are a
    constant for inspection; the outputs are one tape record.

    ``inputs`` are the previous layer's entity vectors, ``values`` the value
    table and ``rel`` the relation row of every edge, which only
    translational attention reads.

    The backward walks the forward's steps in reverse: the pair-weight
    product, the weighted sum, the pair scatter, the softmax, the leaky ReLU
    and the logit gathers (or the norms and the translational gathers), the
    products table and the spread mask, and last the transform's two
    products. It adds each gradient in the order the same steps would as
    separate tape records, so its sums, and with them fixed-seed runs, are
    bit for bit those of that composition: a tensor that several steps
    read, such as the source table, gets its contributions one after
    another, and ``inputs`` is listed once per step that hands it one, so
    even a gradient it already holds grows in that order.
    """
    edges, plan = view.edges, view.aggregation
    relation, transform = params.relation, params[f"head_w.{layer}"]
    relations, heads, slope = relation.shape[0], config.heads, config.leaky_slope
    bilinear = config.attention == "bilinear"
    table = inputs.data if values is None else np.concatenate([inputs.data, values.data])
    n_inputs, n_table = inputs.shape[0], table.shape[0]
    w = transform.data
    # all heads at once, applied to the tables before any per-edge gather,
    # since W (r + n) = W r + W n
    query = relation.data @ w  # (R, heads * head_dim)
    source = table @ w  # (S, heads * head_dim)
    if bilinear:
        # row r * heads + h holds q_r's head-h block and zeros elsewhere
        mask = np.tile(np.repeat(np.eye(heads), config.head_dim, axis=1), (relations, 1))
        relation_of = np.repeat(np.arange(relations), heads)
        spread = query[relation_of] * mask
        # <x_h, q_{r,h}> for every row x of [source; query], relation r and
        # head h, at row x * R + r, column h
        stacked = np.concatenate([source, query])
        spread_t = np.ascontiguousarray(spread.T)
        products = (stacked @ spread_t).reshape(-1, heads)
        at_source = edges.source * relations + edges.relation
        at_query = (n_table + edges.relation) * relations + edges.relation
        raw = products[at_source] + products[at_query]
        pos = raw > 0.0
        logits = np.where(pos, raw, slope * raw)
    else:
        # the logit reads no head transform, so all heads share the weights
        diff = inputs.data[edges.owner] + rel.data
        diff -= table[edges.source]
        l1 = config.norm == "l1"
        norms = np.abs(diff).sum(axis=1) if l1 else np.sqrt((diff * diff).sum(axis=1))
        logits = -norms
        spread = query
    weights = plan.softmax(logits)
    # sum_e a_e (q_r + t_s): the t_s half per edge, the q_r half from the
    # weight sums per (active entity, relation) pair
    pair = edges.merge[edges.owner] * relations + edges.relation
    pair_weights = ad.scatter_sum(pair, weights, edges.active.size * relations).reshape(edges.active.size, -1)
    out = plan.weighted_sum(weights, source)
    out += pair_weights @ spread

    def backward(g):
        g_pair = (g @ spread.T).reshape((-1,) + weights.shape[1:])
        g_spread = pair_weights.T @ g
        g_weights, g_source = plan.weighted_sum_grads(g, weights, source)
        g_weights += g_pair[pair]
        g_logits = plan.softmax_grad(g_weights, weights)
        if bilinear:
            g_raw = g_logits * np.where(pos, 1.0, slope)
            g_products = ad.scatter_sum(at_query, g_raw, stacked.shape[0] * relations)
            g_products += ad.scatter_sum(at_source, g_raw, stacked.shape[0] * relations)
            g_products = g_products.reshape(-1, relations * heads)
            g_stacked = g_products @ spread_t.T
            g_spread += (stacked.T @ g_products).T
            g_source += g_stacked[:n_table]
            g_query = g_stacked[n_table:]
            g_query += ad.scatter_sum(relation_of, g_spread * mask, relations)
            g_table = g_source @ w.T
            from_table = [g_table] if values is None else [g_table[:n_inputs], g_table[n_inputs:]]
            parts = from_table + [g_query @ w.T]
        else:
            g_query = g_spread
            g_norms = -g_logits
            if l1:
                g_diff = g_norms[:, None] * np.sign(diff)
            else:
                safe = np.where(norms == 0.0, 1.0, norms)
                g_diff = (g_norms / safe)[:, None] * diff * (norms != 0.0)[:, None]
            g_table = ad.scatter_sum(edges.source, -g_diff, n_table)
            g_owner = ad.scatter_sum(edges.owner, g_diff, n_inputs)
            # the source gather's, the owner gather's, then the product's
            if values is None:  # the table is the inputs, which get all three in turn
                parts = [g_table, g_owner, g_source @ w.T]
            else:
                g_table += g_source @ w.T
                parts = [g_owner, g_table[:n_inputs], g_table[n_inputs:]]
            parts += [g_diff, g_query @ w.T]
        g_w = table.T @ g_source
        g_w += relation.data.T @ g_query
        return parts + [g_w]

    if bilinear:
        parents = [inputs] if values is None else [inputs, values]
    else:
        parents = [inputs, inputs, inputs if values is None else values, rel]
    return ad.constant(weights), ad.fused(out, parents + [relation, transform], backward)


def aggregate(head_outputs: Tensor, params: ModelParams, config: ModelConfig, layer: int) -> Tensor:
    """Merge the (entities, heads * head_dim) head outputs, in concat layout,
    into one (entities, dim) matrix: the merge product, then the leaky ReLU,
    as one tape record."""
    width = config.heads * config.head_dim
    if head_outputs.data.ndim != 2 or head_outputs.shape[1] != width:
        raise ConfigError(f"expected head outputs {width} wide, got shape {head_outputs.shape}")
    if config.aggregator == "concat":
        merge = params[f"out_w.{layer}"]
        parents, matrix = (head_outputs, merge), merge.data
    else:
        # the mean of the head blocks
        parents, matrix = (head_outputs,), np.tile(np.eye(config.head_dim), (config.heads, 1)) / config.heads
    pre = head_outputs.data @ matrix
    pos = pre > 0.0
    slope = config.leaky_slope

    def backward(g):
        g_pre = g * np.where(pos, 1.0, slope)
        if len(parents) == 1:
            return (g_pre @ matrix.T,)
        return g_pre @ matrix.T, head_outputs.data.T @ g_pre

    return ad.fused(np.where(pos, pre, slope * pre), parents, backward)


def forward_all(
    view: GraphView,
    params: ModelParams,
    config: ModelConfig,
    values: Tensor | None = None,
) -> Tensor:
    """Final (entities, dim) entity vectors after ``layers`` rounds of propagation.

    Layer 0 is the raw embedding table. ``values`` is the value table from
    ``encode_value``, for a caller whose loss reads the same encodings on
    the same tape; without it, the table is encoded here.
    """
    vecs = params.entity
    edges = view.edges
    if config.layers == 0 or edges.active.size == 0:
        return vecs
    if values is None:
        values = encode_value(view, params, config)
    rel = ad.rows(params.relation, edges.relation) if config.attention == "translational" else None
    for layer in range(config.layers):
        _, outputs = _layer_heads(vecs, rel, values, view, params, config, layer)
        merged = aggregate(outputs, params, config, layer)
        if edges.active.size < view.entity_count:
            # isolated entities keep their previous vector
            merged = ad.rows(ad.concat_rows([merged, vecs]), edges.merge)
        vecs = merged
    return vecs
