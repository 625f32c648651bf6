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
product that reads it, so the tape never transposes or stacks a
parameter: a layer's head transforms are one (dim, heads * head_dim)
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
with q, next to one weighted sum of the rows t_s, which
``segment_weighted_sum`` reads from the source table by index, slot by
slot, with no (edges, heads * head_dim) array of gathered rows. The
tables hold (S + R) * R * heads and active * R * heads entries, against
the edges * heads * head_dim of per-edge query rows; they are smaller
whenever R * (S + R) < edges * head_dim, which holds on every benchmark
graph (R = 8). Translational attention keeps its per-edge logits, whose
weights all heads share, and takes the same output identity with one
weight per (entity, relation) pair.

One segment softmax normalizes every head's logit column over each
entity's segment of the edge list, and the head outputs come out side by
side, in concat layout. All attribute values of a pass are encoded in one
batched encoder call into one value table, row ``v`` for value id ``v``,
which propagation and the completion loss both read.

With ``layers == 0`` and attributes off, scoring degenerates to plain
translation scoring on the raw embedding tables.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

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


@dataclass
class ModelParams:
    """All trainable tensors, with a fixed naming/ordering for checkpoints."""

    entity: Tensor
    relation: Tensor
    word: Tensor | None = None
    lstm: LstmParams | None = None
    head_w: list[Tensor] = field(default_factory=list)  # [layer], (dim, heads * head_dim)
    out_w: list[Tensor] = field(default_factory=list)  # [layer], (heads * head_dim, dim)
    cls_w: Tensor | None = None  # (dim, classes)
    cls_b: Tensor | None = None  # (classes,)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("entity", self.entity), ("relation", self.relation)]
        if self.word is not None:
            out.append(("word", self.word))
        if self.lstm is not None:
            out.extend(self.lstm.named())
        for l, w in enumerate(self.head_w):
            out.append((f"head_w.{l}", w))
        for l, w in enumerate(self.out_w):
            out.append((f"out_w.{l}", w))
        if self.cls_w is not None:
            out.append(("cls_w", self.cls_w))
            out.append(("cls_b", self.cls_b))
        return out

    @classmethod
    def from_named(cls, named: dict[str, Tensor]) -> ModelParams:
        """Inverse of ``named_parameters``: the parameters stored under
        those names, which must follow ``parameter_shapes``."""
        def layers(prefix: str) -> list[Tensor]:
            count = sum(name.startswith(prefix) for name in named)
            return [named[f"{prefix}{l}"] for l in range(count)]

        lstm = None
        if "lstm.w_in" in named:
            lstm = LstmParams(**{f.name: named[f"lstm.{f.name}"] for f in fields(LstmParams)})
        return cls(
            entity=named["entity"], relation=named["relation"], word=named.get("word"), lstm=lstm,
            head_w=layers("head_w."), out_w=layers("out_w."),
            cls_w=named.get("cls_w"), cls_b=named.get("cls_b"),
        )

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
    fixed so a seed pins every value: each head's (head_dim, dim)
    transform, the (dim, heads * head_dim) merge and the (classes, dim)
    classifier are drawn in that shape and stored transposed."""
    if entity_count < 1 or relation_count < 1:
        raise ConfigError("need at least one entity and one relation")
    bound = 6.0 / np.sqrt(config.dim)

    def uniform(shape) -> np.ndarray:
        return rng.uniform(-bound, bound, size=shape)

    def fan_uniform(shape) -> np.ndarray:
        limit = np.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-limit, limit, size=shape)

    entity = ad.parameter(unit_rows(uniform((entity_count, config.dim))), "entity")
    relation = ad.parameter(unit_rows(uniform((relation_count, config.dim))), "relation")
    word = ad.parameter(uniform((vocab_size, config.dim)), "word") if vocab_size > 0 else None
    lstm = None
    if config.encoder == "lstm" and word is not None:
        lstm = init_lstm_params(config.dim, rng)

    def transposed(draw: np.ndarray, name: str) -> Tensor:
        return ad.parameter(np.ascontiguousarray(draw.T), name)

    head_w = [
        transposed(np.concatenate([fan_uniform((config.head_dim, config.dim))
                                   for _ in range(config.heads)]), f"head_w.{l}")
        for l in range(config.layers)
    ]
    out_w = []
    if config.aggregator == "concat":
        out_w = [
            transposed(fan_uniform((config.dim, config.heads * config.head_dim)), f"out_w.{l}")
            for l in range(config.layers)
        ]
    cls_w = cls_b = None
    if class_count > 0:
        cls_w = transposed(fan_uniform((class_count, config.dim)), "cls_w")
        cls_b = ad.parameter(np.zeros(class_count), "cls_b")
    return ModelParams(
        entity=entity, relation=relation, word=word, lstm=lstm,
        head_w=head_w, out_w=out_w, cls_w=cls_w, cls_b=cls_b,
    )


def parameter_shapes(
    config: ModelConfig, entity_count: int, relation_count: int, vocab_size: int, class_count: int
) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter ``init_params`` makes for these
    counts, in ``named_parameters`` order."""
    d, width = config.dim, config.heads * config.head_dim
    out = [("entity", (entity_count, d)), ("relation", (relation_count, d))]
    if vocab_size > 0:
        out.append(("word", (vocab_size, d)))
        if config.encoder == "lstm":
            out += [("lstm.w_in", (d, 4 * d)), ("lstm.w_hid", (d, 4 * d)), ("lstm.b", (4 * d,))]
    out += [(f"head_w.{l}", (d, width)) for l in range(config.layers)]
    if config.aggregator == "concat":
        out += [(f"out_w.{l}", (width, d)) for l in range(config.layers)]
    if class_count > 0:
        out += [("cls_w", (d, class_count)), ("cls_b", (class_count,))]
    return out


# ---------------------------------------------------------------------------
# attribute value encoding

def encode_value(view: GraphView, params: ModelParams, config: ModelConfig) -> Tensor | None:
    """Encodings of all attribute values of the graph in one batched encoder
    call, row ``v`` for value id ``v``; None when no edge of the view reads
    a value."""
    if not (view.edges.source >= view.entity_count).any():
        return None
    if params.word is None:
        raise ConfigError("model has no word table but attribute encoding was requested")
    sequences = view.kg.value_tokens
    if config.encoder == "bow":
        return bow_encode(sequences, params.word)
    if params.lstm is None:
        raise ConfigError("encoder is 'lstm' but the model has no LSTM parameters")
    return lstm_encode(sequences, params.word, params.lstm)


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
    weights are one (edges,) vector that all heads share.

    ``inputs`` are the previous layer's entity vectors, ``values`` the value
    table and ``rel`` the relation row of every edge, which only
    translational attention reads.
    """
    edges = view.edges
    table = inputs if values is None else ad.concat_rows([inputs, values])
    relations, heads = params.relation.shape[0], config.heads
    # all heads at once, applied to the tables before any per-edge gather,
    # since W (r + n) = W r + W n
    query = ad.matmul(params.relation, params.head_w[layer])  # (R, heads * head_dim)
    source = ad.matmul(table, params.head_w[layer])  # (S, heads * head_dim)
    if config.attention == "bilinear":
        # row r * heads + h holds q_r's head-h block and zeros elsewhere
        mask = np.tile(np.repeat(np.eye(heads), config.head_dim, axis=1), (relations, 1))
        spread = ad.elementwise_mul(ad.rows(query, np.repeat(np.arange(relations), heads)),
                                    ad.constant(mask))
        # <x_h, q_{r,h}> for every row x of [source; query], relation r and
        # head h, at row x * R + r, column h
        products = ad.reshape(ad.matmul(ad.concat_rows([source, query]), ad.transpose(spread)),
                              (-1, heads))
        raw = ad.add(ad.rows(products, edges.source * relations + edges.relation),
                     ad.rows(products, (source.shape[0] + edges.relation) * relations + edges.relation))
        logits = ad.leaky_relu(raw, config.leaky_slope)
    else:
        # the logit reads no head transform, so all heads share the weights
        diff = ad.sub(ad.add(ad.rows(inputs, edges.owner), rel), ad.rows(table, edges.source))
        logits = ad.scale(ad.rowwise_norm(diff, config.norm), -1.0)
        spread = query
    weights = ad.segment_softmax(logits, edges.segments)
    # sum_e a_e (q_r + t_s): the t_s half per edge, the q_r half from the
    # weight sums per (active entity, relation) pair
    pair = edges.merge[edges.owner] * relations + edges.relation
    pair_weights = ad.reshape(ad.scatter_rows(weights, pair, edges.active.size * relations),
                              (edges.active.size, -1))
    outputs = ad.add(ad.segment_weighted_sum(weights, source, edges.source, edges.segments),
                     ad.matmul(pair_weights, spread))
    return weights, outputs


def aggregate(head_outputs: Tensor, params: ModelParams, config: ModelConfig, layer: int) -> Tensor:
    """Merge the (entities, heads * head_dim) head outputs, in concat layout,
    into one (entities, dim) matrix."""
    width = config.heads * config.head_dim
    if head_outputs.data.ndim != 2 or head_outputs.shape[1] != width:
        raise ConfigError(f"expected head outputs {width} wide, got shape {head_outputs.shape}")
    if config.aggregator == "concat":
        merge = params.out_w[layer]
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
