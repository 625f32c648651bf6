"""Training: negative sampling, losses, SGD loop, checkpoints.

Two tasks share the propagation model but train separately:

* ``completion``      -- margin hinge loss over positive triples (training
  relation triples plus all attribute triples) against sampled corruptions.
  Both are ``kgdata.triple_rows``; ``corrupt`` draws a whole batch at once.
* ``classification``  -- per-class binary cross-entropy on the labeled
  training entities.

Runs are deterministic for a fixed seed: one RNG drives initialization,
shuffling and corruption in a fixed draw order, and evaluation consumes no
randomness.
"""

from __future__ import annotations

import io
import json
import math
import struct
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from . import autodiff as ad
# evaluation's functions are looked up on the module at call time, so that
# wrappers installed on its attributes (bench/tracer.py) also see validation
from . import evaluation
from .autodiff import Tape, Tensor
from .errors import ConfigError, IntegrityError, SamplingError, TrainingError
from .kgdata import (
    DatasetSplit, GraphView, KnowledgeGraph, KnownAnswers, known_triples, pair_keys, triple_rows,
)
from .model import (
    ModelConfig, ModelParams, check_field_types, encode_value, forward_all, init_params,
    parameter_shapes, unit_rows,
)

CHECKPOINT_MAGIC = b"KANECKP1"
CHECKPOINT_FORMAT = 2  # the parameter names and shapes of ``model.parameter_shapes``
SCORE_CLIP = 30.0  # classifier scores are clipped before sigmoid to keep log finite


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters and the model config, checked when the
    config is built."""

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

    def __post_init__(self) -> None:
        check_field_types(self, "")
        if self.task not in ("completion", "classification"):
            raise ConfigError(f"task must be 'completion' or 'classification', got {self.task!r}")
        # range tests, so that NaN fails them too
        if not 0 < self.margin < math.inf:
            raise ConfigError(f"margin must be > 0 and finite, got {self.margin}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be > 0 and finite, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.negatives < 1:
            raise ConfigError(f"negatives must be >= 1, got {self.negatives}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.val_every < 0:
            raise ConfigError(f"val_every must be >= 0, got {self.val_every}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")


# the flat configuration keys, as the CLI sets them and checkpoints store them
MODEL_KEYS = tuple(f.name for f in fields(ModelConfig))
TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name != "model")


def make_train_config(flat: dict[str, object]) -> TrainConfig:
    """The config that the flat ``MODEL_KEYS`` and ``TRAIN_KEYS`` of
    ``flat`` set; other keys are ignored."""
    model = ModelConfig(**{k: flat[k] for k in MODEL_KEYS})
    return TrainConfig(model=model, **{k: flat[k] for k in TRAIN_KEYS})


@dataclass
class TrainReport:
    """Per-epoch mean loss and wall-clock, plus validation history."""

    epoch_losses: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    validation: list[tuple[int, float]] = field(default_factory=list)  # (epoch, metric)
    best_epoch: int | None = None
    stopped_early_at: int | None = None
    final_validation: float | None = None

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
    positives: np.ndarray,
    kg: KnowledgeGraph,
    known: KnownAnswers,
    rng: np.random.Generator,
    n: int,
) -> np.ndarray:
    """``n`` corruptions of each positive row, filtered against known positives.

    ``positives`` are (m, 3) ``triple_rows`` and ``known`` is
    ``known_triples(kg)``; returns (m * n, 3) rows grouped by positive. A
    fair coin picks the head or the target, which is replaced by a uniform
    entity (a uniform value, for an attribute row's target). Slots that hit
    a known triple are drawn again, coin included.
    """
    pos = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    ne, nv = kg.num_entities, kg.num_values
    if ne < 2:
        raise SamplingError("cannot corrupt: need at least 2 entities")
    if (pos[:, 2] >= ne).any() and nv < 2:
        raise SamplingError("cannot corrupt attribute value: need at least 2 values")
    out = np.repeat(pos, n, axis=0)
    slots = np.arange(len(out))
    for _ in range(_MAX_RESAMPLE):
        cand = pos[slots // n]
        head = rng.integers(2, size=slots.size).astype(bool)
        value = (cand[:, 2] >= ne) & ~head
        draw = rng.integers(np.where(value, ne, 0), np.where(value, ne + nv, ne))
        cand[np.arange(slots.size), np.where(head, 0, 2)] = draw
        out[slots] = cand
        slots = slots[known.contains(pair_keys(cand[:, 0], cand[:, 1]), cand[:, 2])]
        if not slots.size:
            return out
    raise SamplingError(
        f"no valid corruption found for {pos[slots[0] // n].tolist()} after {_MAX_RESAMPLE} draws"
    )


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
    paired = ad.rows(pos_distances, np.repeat(np.arange(n_pos), negatives_per_positive))
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
    if class_count != c:
        raise ConfigError(f"got {c} score columns for {class_count} classes")
    lab = np.asarray(labels, dtype=np.intp)
    outside = (lab < 0) | (lab >= c)
    if outside.any():
        raise ConfigError(f"label {lab[outside][0]} outside 0..{c - 1}")
    onehot = np.zeros((n, c))
    onehot[np.arange(n), lab] = 1.0
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


# ---------------------------------------------------------------------------
# batch losses

def _completion_batch_loss(
    positives: np.ndarray,
    negatives: np.ndarray,
    ent: Tensor,
    params: ModelParams,
    config: TrainConfig,
    values: Tensor | None = None,
) -> Tensor:
    """Hinge loss of positive rows against their negative rows, grouped by
    positive. Attribute targets read ``values``, the value table from
    ``encode_value``."""
    rows = np.concatenate([positives, negatives])
    # targets index one table: the entity rows, then the value rows by value id
    table = ent if values is None else ad.concat_rows([ent, values])
    head_mat = ad.rows(ent, rows[:, 0])
    tail_mat = ad.rows(table, rows[:, 2])
    rel_mat = ad.rows(params.relation, rows[:, 1])
    dists = ad.rowwise_norm(ad.sub(ad.add(head_mat, rel_mat), tail_mat), config.model.norm)
    d_pos = ad.rows(dists, np.arange(len(positives)))
    d_neg = ad.rows(dists, np.arange(len(positives), len(rows)))
    return hinge_loss(d_pos, d_neg, config.margin, config.negatives)


def _classification_batch_loss(
    batch_entities: list[int],
    ent: Tensor,
    params: ModelParams,
    split: DatasetSplit,
) -> Tensor:
    vecs = ad.rows(ent, batch_entities)
    scores = ad.add_rowvec(ad.matmul(vecs, params.cls_w), params.cls_b)
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
    rng = np.random.default_rng(config.seed)
    class_count = split.class_count if split.labels is not None else 0
    params = init_params(
        kg.num_entities, kg.num_relations, kg.vocab_size, class_count, config.model, rng
    )
    view = GraphView.restricted(kg, split.train, config.model.use_attributes)

    if config.task == "completion":
        positives = triple_rows(kg, split.train, config.model.use_attributes)
        known = known_triples(kg)
        if not len(positives) and config.epochs > 0:
            raise ConfigError("no training triples")
        has_validation = bool(split.valid)
    else:
        if split.labels is None or class_count < 1:
            raise ConfigError("classification training needs labels")
        positives = np.array(split.label_train, dtype=np.int64)
        if not len(positives) and config.epochs > 0:
            raise ConfigError("no labeled training entities")
        for e in positives:
            if e not in split.labels:
                raise ConfigError(f"entity {e} has no label")
        has_validation = bool(split.label_valid)

    report = TrainReport()
    best_metric: float | None = None
    best_snap: dict[str, np.ndarray] | None = None
    checks_since_best = 0
    filt = None  # the filter index, built at the first completion validation

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(positives))
        total_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            chunk = positives[order[start:start + config.batch_size]]
            if config.task == "completion":
                negs = corrupt(chunk, kg, known, rng, config.negatives)
            ad.zero_grads(params.all_tensors())
            with Tape() as tape:
                if config.task == "completion":
                    # one value table, read by propagation and by the loss's attribute targets
                    values = encode_value(view, params, config.model)
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
            params.entity.data = unit_rows(params.entity.data)
        report.epoch_losses.append(total_loss / max(1, len(positives)))
        report.epoch_seconds.append(time.perf_counter() - t0)

        if config.val_every and has_validation and epoch % config.val_every == 0:
            if config.task == "completion" and filt is None:
                filt = evaluation.build_filter_index(kg)
            metric = _validation_metric(split, view, params, config, filt)
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
    return params, report


def _validation_metric(
    split: DatasetSplit,
    view: GraphView,
    params: ModelParams,
    config: TrainConfig,
    filt: evaluation.FilterIndex | None,
) -> float:
    ent = evaluation.entity_matrix(view, params, config.model)
    if config.task == "completion":
        return evaluation.hits_fraction_for_triples(
            split.valid, ent, params.relation.data, config.model.norm, filt, k=10
        )
    return evaluation.classification_accuracy(ent, params, split.label_valid, split.labels)


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint_bytes(
    params: ModelParams,
    config: TrainConfig,
    *,
    bundle_checksum: str = "",
) -> bytes:
    """Serialize to the versioned binary layout.

    Layout: 8-byte magic ``KANECKP1``, little-endian uint64 header length,
    UTF-8 JSON header (sorted keys), then each array's raw float64
    little-endian row-major bytes in header order. The header's
    ``format_version`` names the parameter layout; a loader reads its own
    format only.
    """
    named = params.named_parameters()
    header = {
        "format_version": CHECKPOINT_FORMAT,
        "config": asdict(config),
        "bundle_checksum": bundle_checksum,
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
    if len(blob) < off + 8:
        raise IntegrityError(f"checkpoint truncated: {len(blob)} bytes, no header length")
    (head_len,) = struct.unpack_from("<Q", blob, off)
    off += 8
    if len(blob) < off + head_len:
        raise IntegrityError(
            f"checkpoint truncated: header of {head_len} bytes, {len(blob) - off} present"
        )
    try:
        header = json.loads(blob[off:off + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise IntegrityError(f"corrupt checkpoint header: {e}") from e
    off += head_len
    if not isinstance(header, dict) or "config" not in header:
        raise IntegrityError("corrupt checkpoint header: no config")
    version = header.get("format_version")
    if type(version) is not int or version != CHECKPOINT_FORMAT:
        raise IntegrityError(
            f"unsupported checkpoint format_version {version!r}: only format {CHECKPOINT_FORMAT} loads"
        )
    config = _config_from_dict(header["config"])
    specs = _array_specs(header.get("arrays"), config.model)
    named: dict[str, Tensor] = {}
    start = off
    for name, shape in specs:
        count = math.prod(shape)
        if len(blob) < off + count * 8:
            raise IntegrityError(
                f"checkpoint truncated: array {name!r} needs {count * 8} bytes, "
                f"{len(blob) - off} present"
            )
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape)
        named[name] = ad.parameter(arr.astype(np.float64), name)
        off += count * 8
    if off != len(blob):
        raise IntegrityError(f"checkpoint has {len(blob) - off} trailing bytes")
    if not np.isfinite(np.frombuffer(blob, dtype="<f8", count=(off - start) // 8, offset=start)).all():
        name = next(name for name, t in named.items() if not np.isfinite(t.data).all())
        raise IntegrityError(f"checkpoint array {name!r} holds a non-finite value")
    return ModelParams.from_named(named), config, header


def _array_specs(specs, model: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """The header's (name, shape) list, checked against the layout that the
    model config and the row counts of the embedding tables imply."""
    if not isinstance(specs, list):
        raise IntegrityError("corrupt checkpoint header: no arrays")
    out = []
    for spec in specs:
        ok = isinstance(spec, dict) and isinstance(spec.get("name"), str)
        shape = spec.get("shape") if ok else None
        if not (isinstance(shape, list) and all(type(x) is int and x >= 0 for x in shape)):
            raise IntegrityError(f"corrupt checkpoint header: bad array entry {spec!r}")
        out.append((spec["name"], tuple(shape)))
    # every layer stores at least head_w.{l}: refuse before building shapes
    if model.layers > len(out):
        raise IntegrityError(f"checkpoint config has {model.layers} layers, its header only {len(out)} arrays")
    rows = {name: shape[0] for name, shape in out if shape}
    counts = [rows.get(name, 0) for name in ("entity", "relation", "word", "cls_b")]
    expected = parameter_shapes(model, *counts)
    if out != expected:
        names, want = [n for n, _ in out], [n for n, _ in expected]
        if names != want:
            raise IntegrityError(f"checkpoint arrays {names} do not match the config's {want}")
        name, shape, need = next((n, a, b) for (n, a), (_, b) in zip(out, expected) if a != b)
        raise IntegrityError(f"checkpoint array {name!r} has shape {shape}, the config implies {need}")
    if not (counts[0] and counts[1]):
        raise IntegrityError("checkpoint has no entity or no relation rows")
    return out


def _check_keys(section, keys: tuple[str, ...], what: str) -> None:
    if not isinstance(section, dict):
        raise IntegrityError(f"corrupt checkpoint config: {what} is not an object")
    unknown = sorted(set(section) - set(keys))
    missing = [k for k in keys if k not in section]
    if unknown or missing:
        raise IntegrityError(
            f"corrupt checkpoint config: {what} has unknown keys {unknown} and lacks keys {missing}"
        )


def _config_from_dict(d: dict) -> TrainConfig:
    _check_keys(d, ("model", *TRAIN_KEYS), "config")
    _check_keys(d["model"], MODEL_KEYS, "model config")
    try:
        return make_train_config({**d, **d["model"]})
    except ConfigError as err:
        raise IntegrityError(f"corrupt checkpoint config: {err}") from err
