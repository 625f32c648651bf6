"""Training: negative sampling, losses, SGD loop, checkpoints.

Two tasks share the propagation model but train separately:

* ``completion``      -- margin hinge loss over positive triples (training
  relation triples plus all attribute triples) against sampled corruptions.
* ``classification``  -- per-class binary cross-entropy on the labeled
  training entities.

Runs are deterministic for a fixed seed: one RNG drives initialization,
shuffling and corruption in a fixed draw order, and evaluation consumes no
randomness.
"""

from __future__ import annotations

import io
import json
import struct
import time
from dataclasses import dataclass, field, asdict
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ConfigError, IntegrityError, SamplingError, TrainingError
from .kgdata import (
    AttributeTriple, DatasetSplit, GraphView, KnowledgeGraph, RelationTriple,
)
from .model import (
    EntityVectors, ModelConfig, ModelParams, encode_value, forward_all, init_params,
    is_translation_mode, params_from_arrays,
)

CHECKPOINT_MAGIC = b"KANECKP1"
SCORE_CLIP = 30.0  # classifier scores are clipped before sigmoid to keep log finite


@dataclass
class TrainConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    task: str = "completion"
    margin: float = 1.0
    learning_rate: float = 0.0005
    batch_size: int = 8
    negatives: int = 10
    epochs: int = 200
    seed: int = 0
    val_every: int = 5  # validate every N epochs; 0 disables
    patience: int = 20  # validation checks without improvement before stopping
    renormalize: bool = False  # re-unit-norm entity rows after each epoch

    def validate(self) -> None:
        self.model.validate()
        if self.task not in ("completion", "classification"):
            raise ConfigError(f"task must be 'completion' or 'classification', got {self.task!r}")
        if self.margin <= 0:
            raise ConfigError(f"margin must be > 0, got {self.margin}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.negatives < 1:
            raise ConfigError(f"negatives must be >= 1, got {self.negatives}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.val_every < 0 or self.patience < 1:
            raise ConfigError("val_every must be >= 0 and patience >= 1")


@dataclass
class TrainReport:
    """Per-epoch mean loss and wall-clock, plus validation history."""

    epoch_losses: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    validation: list[tuple[int, float]] = field(default_factory=list)  # (epoch, metric)
    best_epoch: int | None = None
    stopped_early_at: int | None = None
    final_validation: float | None = None
    rng_state: dict | None = None  # generator state when training finished

    def to_csv(self) -> str:
        """Loss log: epoch, loss, val_metric (blank between checks), seconds.

        The seconds column is wall-clock measurement and is the one column
        not reproducible across runs.
        """
        by_epoch = dict(self.validation)
        out = ["epoch,loss,val_metric,seconds"]
        for i, loss in enumerate(self.epoch_losses, start=1):
            val = repr(by_epoch[i]) if i in by_epoch else ""
            out.append(f"{i},{loss!r},{val},{self.epoch_seconds[i - 1]!r}")
        return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# negative sampling

_MAX_RESAMPLE = 1000


def corrupt(
    triple: RelationTriple | AttributeTriple,
    kg: KnowledgeGraph,
    rng: np.random.Generator,
    n: int,
) -> list[RelationTriple | AttributeTriple]:
    """``n`` corruptions of a positive triple, filtered against known positives.

    Each draw replaces the head or the tail (the attribute value, for
    attribute triples), chosen uniformly; draws that reproduce any known
    positive are resampled.
    """
    is_attr = isinstance(triple, AttributeTriple)
    if kg.num_entities < 2:
        raise SamplingError("cannot corrupt: need at least 2 entities")
    if is_attr and kg.num_values < 2:
        raise SamplingError("cannot corrupt attribute value: need at least 2 values")
    known_rel = kg.relation_triple_set
    known_attr = kg.attribute_triple_set
    out: list[RelationTriple | AttributeTriple] = []
    for _ in range(n):
        for attempt in range(_MAX_RESAMPLE):
            corrupt_head = bool(rng.integers(2))
            if is_attr:
                if corrupt_head:
                    cand = AttributeTriple(int(rng.integers(kg.num_entities)), triple.relation, triple.value)
                else:
                    cand = AttributeTriple(triple.head, triple.relation, int(rng.integers(kg.num_values)))
                if cand not in known_attr:
                    out.append(cand)
                    break
            else:
                if corrupt_head:
                    cand = RelationTriple(int(rng.integers(kg.num_entities)), triple.relation, triple.tail)
                else:
                    cand = RelationTriple(triple.head, triple.relation, int(rng.integers(kg.num_entities)))
                if cand not in known_rel:
                    out.append(cand)
                    break
        else:
            raise SamplingError(f"no valid corruption found for {triple} after {_MAX_RESAMPLE} draws")
    return out


# ---------------------------------------------------------------------------
# losses

def hinge_loss(
    pos_distances: Tensor, neg_distances: Tensor, margin: float, negatives_per_positive: int
) -> Tensor:
    """Sum of [margin + d(pos) - d(neg)]_+ over all (positive, negative) pairs.

    ``neg_distances`` holds ``negatives_per_positive`` entries per positive,
    grouped in positive order.
    """
    n_pos = pos_distances.shape[0]
    if neg_distances.shape[0] != n_pos * negatives_per_positive:
        raise ConfigError(
            f"expected {n_pos * negatives_per_positive} negative distances, got {neg_distances.shape[0]}"
        )
    paired = ad.take(pos_distances, np.repeat(np.arange(n_pos), negatives_per_positive))
    gamma = ad.constant(np.full(neg_distances.shape[0], float(margin)))
    violation = ad.add(ad.sub(paired, neg_distances), gamma)
    return ad.sum_all(ad.leaky_relu(violation, 0.0))


def bce_loss(scores: Tensor, labels: Sequence[int], class_count: int) -> Tensor:
    """Mean per-entity binary cross-entropy against one-hot labels.

    ``scores`` is (batch, classes); scores are clipped to +/-SCORE_CLIP
    before the sigmoid so perfectly confident outputs stay finite.
    """
    n, c = scores.shape
    if len(labels) != n:
        raise ConfigError(f"got {n} score rows but {len(labels)} labels")
    onehot = np.zeros((n, c))
    for i, lab in enumerate(labels):
        if not 0 <= lab < class_count or class_count != c:
            raise ConfigError(f"label {lab} outside 0..{c - 1}")
        onehot[i, lab] = 1.0
    probs = ad.sigmoid(ad.clip(scores, -SCORE_CLIP, SCORE_CLIP))
    pos_term = ad.elementwise_mul(ad.constant(onehot), ad.log(probs))
    neg_term = ad.elementwise_mul(
        ad.constant(1.0 - onehot), ad.log(ad.sub(ad.constant(np.ones((n, c))), probs))
    )
    total = ad.sum_all(ad.add(pos_term, neg_term))
    return ad.scale(total, -1.0 / n)


# ---------------------------------------------------------------------------
# optimizer

def sgd_step(params: ModelParams, learning_rate: float) -> None:
    """In-place SGD update; parameters without gradients stay untouched."""
    for name, p in params.named_parameters():
        if p.grad is None:
            continue
        if not np.isfinite(p.grad).all():
            raise TrainingError(f"non-finite gradient in parameter {name!r}")
        p.data -= learning_rate * p.grad


def _renormalize_entities(params: ModelParams) -> None:
    mat = params.entity.data
    norms = np.sqrt((mat * mat).sum(axis=1, keepdims=True))
    params.entity.data = mat / np.where(norms == 0.0, 1.0, norms)


# ---------------------------------------------------------------------------
# batch losses

def _completion_batch_loss(
    batch: list[RelationTriple | AttributeTriple],
    negatives: list[list[RelationTriple | AttributeTriple]],
    finals: EntityVectors,
    params: ModelParams,
    config: TrainConfig,
    values: Tensor | None = None,
) -> Tensor:
    """Hinge loss of a batch against its negatives. Attribute tails read
    ``values``, the value table from ``encode_value`` over all value ids."""
    triples: list[RelationTriple | AttributeTriple] = list(batch)
    for negs in negatives:
        triples.extend(negs)

    # tails index one table: the entity rows, then the value rows by value id
    ent = finals.matrix
    table = ent if values is None else ad.concat_rows([ent, values])
    tails = [ent.shape[0] + t.value if isinstance(t, AttributeTriple) else t.tail for t in triples]

    head_mat = ad.rows(ent, [t.head for t in triples])
    tail_mat = ad.rows(table, tails)
    rel_mat = ad.rows(params.relation, [t.relation for t in triples])
    dists = ad.rowwise_norm(ad.sub(ad.add(head_mat, rel_mat), tail_mat), config.model.norm)
    d_pos = ad.slice_vec(dists, 0, len(batch))
    d_neg = ad.slice_vec(dists, len(batch), len(triples))
    return hinge_loss(d_pos, d_neg, config.margin, config.negatives)


def _classification_batch_loss(
    batch_entities: list[int],
    finals: EntityVectors,
    params: ModelParams,
    split: DatasetSplit,
) -> Tensor:
    vecs = ad.rows(finals.matrix, batch_entities)
    scores = ad.add_rowvec(ad.matmul(vecs, ad.transpose(params.cls_w)), params.cls_b)
    labels = [split.labels[e] for e in batch_entities]
    return bce_loss(scores, labels, split.class_count)


# ---------------------------------------------------------------------------
# training loop

def train(
    kg: KnowledgeGraph, split: DatasetSplit, config: TrainConfig
) -> tuple[ModelParams, TrainReport]:
    """Train from scratch; returns the parameters and a per-epoch report.

    With validation enabled (``val_every > 0`` and held-out data present),
    the best-validation parameters are kept and restored at the end; early
    stopping triggers after ``patience`` checks without improvement.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    class_count = split.class_count if split.labels is not None else 0
    params = init_params(
        kg.num_entities, kg.num_relations, kg.vocab_size, class_count, config.model, rng
    )
    view = GraphView.restricted(kg, split.train, config.model.use_attributes)
    value_ids = np.arange(kg.num_values) if config.model.use_attributes and kg.num_values else None

    if config.task == "completion":
        positives: list = list(split.train)
        if config.model.use_attributes:
            positives.extend(kg.attribute_triples)
        if not positives and config.epochs > 0:
            raise ConfigError("no training triples")
        has_validation = bool(split.valid)
    else:
        if split.labels is None or class_count < 1:
            raise ConfigError("classification training needs labels")
        positives = list(split.label_train)
        if not positives and config.epochs > 0:
            raise ConfigError("no labeled training entities")
        for e in positives:
            if e not in split.labels:
                raise ConfigError(f"entity {e} has no label")
        has_validation = bool(split.label_valid)

    report = TrainReport()
    best_metric: float | None = None
    best_snap: dict[str, np.ndarray] | None = None
    checks_since_best = 0

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(positives))
        total_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            chunk = [positives[int(j)] for j in order[start:start + config.batch_size]]
            if config.task == "completion":
                negs = [corrupt(p, kg, rng, config.negatives) for p in chunk]
            ad.zero_grads(params.all_tensors())
            with Tape() as tape:
                if config.task == "completion":
                    # one value table, read by propagation and by the loss's attribute tails
                    values = None
                    if value_ids is not None:
                        values = encode_value(value_ids, view, params, config.model)
                    finals = forward_all(view, params, config.model, values)
                    loss = _completion_batch_loss(chunk, negs, finals, params, config, values)
                    total_loss += loss.item()
                else:
                    finals = forward_all(view, params, config.model)
                    loss = _classification_batch_loss(chunk, finals, params, split)
                    total_loss += loss.item() * len(chunk)
            if not np.isfinite(loss.data):
                raise TrainingError(f"epoch {epoch}, batch at {start}: non-finite loss")
            ad.backward(tape, loss)
            try:
                sgd_step(params, config.learning_rate)
            except TrainingError as err:
                raise TrainingError(f"epoch {epoch}, batch at {start}: {err}") from err
        if config.renormalize:
            _renormalize_entities(params)
        report.epoch_losses.append(total_loss / max(1, len(positives)))
        report.epoch_seconds.append(time.perf_counter() - t0)

        if config.val_every and has_validation and epoch % config.val_every == 0:
            metric = _validation_metric(kg, split, view, params, config)
            report.validation.append((epoch, metric))
            if best_metric is None or metric > best_metric:
                best_metric = metric
                best_snap = params.snapshot()
                report.best_epoch = epoch
                checks_since_best = 0
            else:
                checks_since_best += 1
                if checks_since_best >= config.patience:
                    report.stopped_early_at = epoch
                    break

    if best_snap is not None:
        params.restore(best_snap)
        report.final_validation = best_metric
    report.rng_state = _rng_state_json(rng)
    return params, report


def _validation_metric(
    kg: KnowledgeGraph,
    split: DatasetSplit,
    view: GraphView,
    params: ModelParams,
    config: TrainConfig,
) -> float:
    # imported here: evaluation depends on this module's checkpoint helpers
    from .evaluation import build_filter_index, entity_matrix, hits_fraction_for_triples

    ent = entity_matrix(view, params, config.model)
    if config.task == "completion":
        filt = build_filter_index(kg)
        return hits_fraction_for_triples(
            split.valid, ent, params.relation.data, config.model.norm, filt, k=10
        )
    scores = ent[split.label_valid] @ params.cls_w.data.T + params.cls_b.data
    pred = scores.argmax(axis=1)
    truth = np.array([split.labels[e] for e in split.label_valid])
    return float((pred == truth).mean())


# ---------------------------------------------------------------------------
# checkpoints

def _rng_state_json(rng: np.random.Generator) -> dict:
    state = rng.bit_generator.state
    return json.loads(json.dumps(state, default=int))


def save_checkpoint_bytes(
    params: ModelParams,
    config: TrainConfig,
    *,
    bundle_checksum: str = "",
    rng_state: dict | None = None,
    counts: dict[str, int] | None = None,
    meta: dict | None = None,
) -> bytes:
    """Serialize to the versioned binary layout.

    Layout: 8-byte magic ``KANECKP1``, little-endian uint64 header length,
    UTF-8 JSON header (sorted keys), then each array's raw float64
    little-endian row-major bytes in header order.
    """
    named = params.named_parameters()
    header = {
        "format_version": 1,
        "config": _config_to_dict(config),
        "bundle_checksum": bundle_checksum,
        "rng_state": rng_state or {},
        "counts": counts or {},
        "meta": meta or {},
        "arrays": [{"name": name, "shape": list(t.data.shape)} for name, t in named],
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<Q", len(head)))
    buf.write(head)
    for _, t in named:
        buf.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    return buf.getvalue()


def load_checkpoint_bytes(blob: bytes) -> tuple[ModelParams, TrainConfig, dict]:
    """Inverse of ``save_checkpoint_bytes``; round-trips bit-exactly."""
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise IntegrityError("not a checkpoint: bad magic")
    off = len(CHECKPOINT_MAGIC)
    (head_len,) = struct.unpack_from("<Q", blob, off)
    off += 8
    try:
        header = json.loads(blob[off:off + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise IntegrityError(f"corrupt checkpoint header: {e}") from e
    off += head_len
    config = _config_from_dict(header["config"])
    arrays: dict[str, np.ndarray] = {}
    for spec in header["arrays"]:
        shape = tuple(spec["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape)
        arrays[spec["name"]] = arr.astype(np.float64)
        off += count * 8
    if off != len(blob):
        raise IntegrityError(f"checkpoint has {len(blob) - off} trailing bytes")
    params = params_from_arrays(
        arrays, config.model,
        class_count=int(arrays["cls_w"].shape[0]) if "cls_w" in arrays else 0,
        vocab_size=int(arrays["word"].shape[0]) if "word" in arrays else 0,
    )
    return params, config, header


def _config_to_dict(config: TrainConfig) -> dict:
    d = asdict(config)
    model = d.pop("model")
    return {"model": model, **d}


def _config_from_dict(d: dict) -> TrainConfig:
    model = ModelConfig(**d["model"])
    rest = {k: v for k, v in d.items() if k != "model"}
    return TrainConfig(model=model, **rest)
