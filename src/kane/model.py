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
The head transforms are stacked into one (heads * head_dim, dim) matrix W,
which multiplies the relation table and the source table (entity vectors,
then value encodings) once each, before any per-edge gather: the query is
row ``relation`` of the transformed relation table, and the message adds
row ``source`` of the transformed source table to it, since
W (r + n) = W r + W n. The bilinear logits are the per-head block sums of
query * message, one matrix product by a constant 0/1 block matrix. One
segment softmax normalizes every head's (edges, heads) logit column over
each entity's segment of the edge list, and one segment weighted sum gives
all head outputs side by side, in concat layout. All attribute values of a
pass are encoded in one batched encoder call into one value table, row
``v`` for value id ``v``, which propagation and the completion loss both
read.

With ``layers == 0`` and attributes off, scoring degenerates to plain
translation scoring on the raw embedding tables.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoders import LstmParams, bow_encode, init_lstm_params, lstm_encode
from .errors import ConfigError
from .kgdata import GraphView

AGGREGATORS = ("concat", "average")
ENCODERS = ("bow", "lstm")
NORMS = ("l1", "l2")
ATTENTION_FORMS = ("bilinear", "translational")


@dataclass
class ModelConfig:
    """Architecture hyperparameters.

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

    def validate(self) -> None:
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


@dataclass
class ModelParams:
    """All trainable tensors, with a fixed naming/ordering for checkpoints."""

    entity: Tensor
    relation: Tensor
    word: Tensor | None = None
    lstm: LstmParams | None = None
    head_w: list[list[Tensor]] = field(default_factory=list)  # [layer][head], (head_dim, dim)
    out_w: list[Tensor] = field(default_factory=list)  # [layer], (dim, heads * head_dim)
    cls_w: Tensor | None = None  # (classes, dim)
    cls_b: Tensor | None = None  # (classes,)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("entity", self.entity), ("relation", self.relation)]
        if self.word is not None:
            out.append(("word", self.word))
        if self.lstm is not None:
            out.extend(self.lstm.named())
        for l, heads in enumerate(self.head_w):
            for i, w in enumerate(heads):
                out.append((f"head_w.{l}.{i}", w))
        for l, w in enumerate(self.out_w):
            out.append((f"out_w.{l}", w))
        if self.cls_w is not None:
            out.append(("cls_w", self.cls_w))
            out.append(("cls_b", self.cls_b))
        return out

    def all_tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_parameters()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, t in self.named_parameters():
            t.data = snap[name].copy()


def init_params(
    entity_count: int,
    relation_count: int,
    vocab_size: int,
    class_count: int,
    config: ModelConfig,
    rng: np.random.Generator,
) -> ModelParams:
    """Embedding tables start uniform in [-6/sqrt(dim), 6/sqrt(dim)] with
    entity and relation rows L2-normalized once; linear transforms use
    fan-based (Glorot) uniform bounds so propagation preserves vector
    magnitude instead of amplifying it layer over layer. Draw order is
    fixed so a seed pins every value."""
    config.validate()
    if entity_count < 1 or relation_count < 1:
        raise ConfigError("need at least one entity and one relation")
    bound = 6.0 / np.sqrt(config.dim)

    def uniform(shape) -> np.ndarray:
        return rng.uniform(-bound, bound, size=shape)

    def fan_uniform(shape) -> np.ndarray:
        limit = np.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-limit, limit, size=shape)

    def normalized(mat: np.ndarray) -> np.ndarray:
        norms = np.sqrt((mat * mat).sum(axis=1, keepdims=True))
        return mat / np.where(norms == 0.0, 1.0, norms)

    entity = ad.parameter(normalized(uniform((entity_count, config.dim))), "entity")
    relation = ad.parameter(normalized(uniform((relation_count, config.dim))), "relation")
    word = ad.parameter(uniform((vocab_size, config.dim)), "word") if vocab_size > 0 else None
    lstm = None
    if config.encoder == "lstm" and word is not None:
        lstm = init_lstm_params(config.dim, rng)

    head_w = [
        [ad.parameter(fan_uniform((config.head_dim, config.dim)), f"head_w.{l}.{i}")
         for i in range(config.heads)]
        for l in range(config.layers)
    ]
    out_w = []
    if config.aggregator == "concat":
        out_w = [
            ad.parameter(fan_uniform((config.dim, config.heads * config.head_dim)), f"out_w.{l}")
            for l in range(config.layers)
        ]
    cls_w = cls_b = None
    if class_count > 0:
        cls_w = ad.parameter(fan_uniform((class_count, config.dim)), "cls_w")
        cls_b = ad.parameter(np.zeros(class_count), "cls_b")
    return ModelParams(
        entity=entity, relation=relation, word=word, lstm=lstm,
        head_w=head_w, out_w=out_w, cls_w=cls_w, cls_b=cls_b,
    )


def params_from_arrays(
    arrays: dict[str, np.ndarray], config: ModelConfig, class_count: int, vocab_size: int
) -> ModelParams:
    """Rebuild ModelParams from named arrays (checkpoint loading)."""
    def p(name: str) -> Tensor:
        return ad.parameter(arrays[name].copy(), name)

    word = p("word") if vocab_size > 0 else None
    lstm = None
    if config.encoder == "lstm" and vocab_size > 0:
        lstm = LstmParams(**{f.name: p(f"lstm.{f.name}") for f in fields(LstmParams)})
    head_w = [
        [p(f"head_w.{l}.{i}") for i in range(config.heads)] for l in range(config.layers)
    ]
    out_w = []
    if config.aggregator == "concat":
        out_w = [p(f"out_w.{l}") for l in range(config.layers)]
    cls_w = p("cls_w") if class_count > 0 else None
    cls_b = p("cls_b") if class_count > 0 else None
    return ModelParams(
        entity=p("entity"), relation=p("relation"), word=word, lstm=lstm,
        head_w=head_w, out_w=out_w, cls_w=cls_w, cls_b=cls_b,
    )


def parameter_shapes(
    config: ModelConfig, entity_count: int, relation_count: int, vocab_size: int, class_count: int
) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter ``init_params`` makes for these
    counts, in ``named_parameters`` order."""
    d, hd = config.dim, config.head_dim
    out = [("entity", (entity_count, d)), ("relation", (relation_count, d))]
    if vocab_size > 0:
        out.append(("word", (vocab_size, d)))
        if config.encoder == "lstm":
            out += [
                (f"lstm.{f.name}", (d,) if f.name.startswith("b_") else (d, d))
                for f in fields(LstmParams)
            ]
    out += [(f"head_w.{l}.{i}", (hd, d)) for l in range(config.layers) for i in range(config.heads)]
    if config.aggregator == "concat":
        out += [(f"out_w.{l}", (d, config.heads * hd)) for l in range(config.layers)]
    if class_count > 0:
        out += [("cls_w", (class_count, d)), ("cls_b", (class_count,))]
    return out


# ---------------------------------------------------------------------------
# attribute value encoding

def encode_value(
    value_ids: Sequence[int],
    view: GraphView,
    params: ModelParams,
    config: ModelConfig,
) -> Tensor:
    """Encode attribute values in one batched encoder call: one row per id."""
    if params.word is None:
        raise ConfigError("model has no word table but attribute encoding was requested")
    sequences = [view.kg.value_tokens[int(v)] for v in value_ids]
    if config.encoder == "bow":
        return bow_encode(sequences, params.word)
    if params.lstm is None:
        raise ConfigError("encoder is 'lstm' but the model has no LSTM parameters")
    return lstm_encode(sequences, params.word, params.lstm)


# ---------------------------------------------------------------------------
# attention and propagation, over all edges of a view at once

def _value_table(view: GraphView, params: ModelParams, config: ModelConfig) -> Tensor | None:
    """Encodings of all attribute values of the graph, row ``v`` for value
    id ``v``; None when no edge of the view reads a value."""
    if view.edges.source.max() < view.entity_count:
        return None
    return encode_value(np.arange(view.kg.num_values), view, params, config)


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
    weights are one (edges,) vector that all heads share.

    ``inputs`` are the previous layer's entity vectors, ``values`` the value
    table and ``rel`` the relation row of every edge, which only
    translational attention reads.
    """
    edges = view.edges
    table = inputs if values is None else ad.concat_rows([inputs, values])
    # all heads stacked: W = [W_0; W_1; ...], applied to the tables before
    # the per-edge gathers, since W (r + n) = W r + W n
    w_t = ad.transpose(ad.concat_rows(params.head_w[layer]))
    query = ad.rows(ad.matmul(params.relation, w_t), edges.relation)
    messages = ad.add(query, ad.rows(ad.matmul(table, w_t), edges.source))
    if config.attention == "bilinear":
        # per-head block sums of q * m
        blocks = ad.constant(np.repeat(np.eye(config.heads), config.head_dim, axis=0))
        raw = ad.matmul(ad.elementwise_mul(query, messages), blocks)
        logits = ad.leaky_relu(raw, config.leaky_slope)
    else:
        # the logit reads no head transform, so all heads share the weights
        diff = ad.sub(ad.add(ad.rows(inputs, edges.owner), rel), ad.rows(table, edges.source))
        logits = ad.scale(ad.rowwise_norm(diff, config.norm), -1.0)
    weights = ad.segment_softmax(logits, edges.segments)
    return weights, ad.segment_weighted_sum(weights, messages, edges.segments)


def aggregate(head_outputs: Tensor, params: ModelParams, config: ModelConfig, layer: int) -> Tensor:
    """Merge the (entities, heads * head_dim) head outputs, in concat layout,
    into one (entities, dim) matrix."""
    width = config.heads * config.head_dim
    if head_outputs.data.ndim != 2 or head_outputs.shape[1] != width:
        raise ConfigError(f"expected head outputs {width} wide, got shape {head_outputs.shape}")
    if config.aggregator == "concat":
        merge = ad.transpose(params.out_w[layer])
    else:
        # the mean of the head blocks
        merge = ad.constant(np.tile(np.eye(config.head_dim), (config.heads, 1)) / config.heads)
    return ad.leaky_relu(ad.matmul(head_outputs, merge), config.leaky_slope)


def forward_all(
    view: GraphView,
    params: ModelParams,
    config: ModelConfig,
    values: Tensor | None = None,
) -> Tensor:
    """Final (entities, dim) entity vectors after ``layers`` rounds of propagation.

    Layer 0 is the raw embedding table. ``values`` is the value table from
    ``encode_value`` over all value ids, for a caller whose loss reads the
    same encodings on the same tape; without it, the table is encoded here
    when an edge of the view reads a value.
    """
    config.validate()
    vecs = params.entity
    edges = view.edges
    if config.layers == 0 or edges.active.size == 0:
        return vecs
    if values is None:
        values = _value_table(view, params, config)
    rel = ad.rows(params.relation, edges.relation) if config.attention == "translational" else None
    for layer in range(config.layers):
        _, outputs = _layer_heads(vecs, rel, values, view, params, config, layer)
        merged = aggregate(outputs, params, config, layer)
        if edges.active.size < view.entity_count:
            # isolated entities keep their previous vector
            merged = ad.rows(ad.concat_rows([merged, vecs]), edges.merge)
        vecs = merged
    return vecs
