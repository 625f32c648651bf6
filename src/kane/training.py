"""Training: negative sampling, losses, SGD loop, checkpoints.

Two tasks share the propagation model but train separately:

* ``completion``      -- margin hinge loss over positive triples (training
  relation triples plus all attribute triples) against sampled corruptions.
  Both are ``kgdata.triple_rows``; ``corrupt`` draws a whole epoch's
  negatives at once.
* ``classification``  -- per-class binary cross-entropy on the labeled
  training entities.

Runs are deterministic for a fixed seed: one RNG drives initialization,
shuffling and corruption in a fixed draw order (the parameters, then per
epoch the permutation and, for completion, that epoch's negatives), and
evaluation consumes no randomness.
"""

from __future__ import annotations

import io
import itertools
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
from .errors import ConfigError, DatasetError, IntegrityError, SamplingError, TrainingError
from .kgdata import (
    DatasetSplit, GraphView, KnowledgeGraph, KnownAnswers, known_triples, pair_keys, triple_rows,
)
from .model import (
    ModelConfig, ModelParams, check_field_types, encode_value, forward_all, init_params,
    parameter_shapes, unit_rows,
)

CHECKPOINT_MAGIC = b"KANECKP1"
CHECKPOINT_FORMAT = 3  # arrays as ``model.parameter_shapes`` lays out the run's own config


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


def classifier_classes(config: TrainConfig, class_count: int) -> int:
    """Classes of the classifier head that a run with ``config`` holds: all
    ``class_count`` for classification, none for completion, whose steps
    never train a head."""
    return class_count if config.task == "classification" else 0


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
    ``known_triples(kg)``; returns (m * n, 3) int32 rows grouped by
    positive (ids are below 2**31, as bundles store them). A
    fair coin picks the head or the target, which is replaced by a uniform
    entity (a uniform value, for an attribute row's target). Slots that hit
    a known triple are drawn again, coin included.

    ``train`` calls it once per epoch, over all positives in that epoch's
    order, so the sampler's fixed cost and its redraw rounds are paid once
    per epoch, not once per batch. The result then holds positives x n x
    3 int32 for the whole epoch: 0.42 MB on the 500-entity benchmark graph
    (3,509 positives, 10 negatives each). The pair keys of the known-triple
    test stay int64.
    """
    pos = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    ne, nv = kg.num_entities, kg.num_values
    if ne < 2:
        raise SamplingError("cannot corrupt: need at least 2 entities")
    if (pos[:, 2] >= ne).any() and nv < 2:
        raise SamplingError("cannot corrupt attribute value: need at least 2 values")
    out = np.repeat(pos.astype(np.int32), n, axis=0)
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
    distances: np.ndarray, positives: int, margin: float, negatives_per_positive: int
) -> tuple[float, np.ndarray]:
    """Sum of [margin + d(pos) - d(neg)]_+ over all (positive, negative)
    pairs, and its gradient with respect to each distance.

    ``distances`` holds the ``positives`` positive distances, then
    ``negatives_per_positive`` negative ones per positive, grouped in
    positive order.
    """
    owner = np.repeat(np.arange(positives), negatives_per_positive)
    if distances.shape != (positives + owner.size,):
        raise ConfigError(f"expected {positives + owner.size} distances, got {distances.shape[0]}")
    violation = (distances[owner] - distances[positives:]) + float(margin)
    active = violation > 0.0
    grad = np.zeros(distances.shape)
    grad[:positives] = np.bincount(owner, weights=active, minlength=positives)
    grad[positives:] -= active
    return np.where(active, violation, 0.0).sum(), grad


def bce_loss(scores: np.ndarray, labels: Sequence[int], class_count: int) -> tuple[float, np.ndarray]:
    """Mean per-entity binary cross-entropy against one-hot labels, and its
    gradient with respect to each score.

    ``scores`` is (batch, classes) logits; a row's loss is the sum of
    softplus(s) - y s, exact and finite for any finite score, and its
    gradient (sigmoid(s) - y) / n.
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
    onehot = np.eye(c)[lab]
    z = np.exp(-np.abs(scores))  # overflow-free in both tails
    # max(s, 0) - y s is exact, so a confident right score keeps log1p's precision
    loss = ((np.maximum(scores, 0.0) - onehot * scores) + np.log1p(z)).sum() / n
    # times 1 / n rather than divided by n: the rounding fixed-seed runs were made with
    return loss, (np.where(scores >= 0.0, 1.0, z) / (1.0 + z) - onehot) * (1.0 / n)


# ---------------------------------------------------------------------------
# optimizer

def sgd_step(params: ModelParams, learning_rate: float) -> None:
    """In-place SGD update; parameters without gradients stay untouched. One
    that the update leaves non-finite raises ``TrainingError`` naming it."""
    for name, p in params.named_parameters():
        if p.grad is None:
            continue
        p.data -= learning_rate * p.grad
        if not np.isfinite(p.data).all():  # as it is after any non-finite gradient
            if not np.isfinite(p.grad).all():
                raise TrainingError(f"non-finite gradient in parameter {name!r}")
            raise TrainingError(f"update left parameter {name!r} non-finite")


# ---------------------------------------------------------------------------
# batch losses

_LOSS_ROWS = 256  # rows per forward block and backward row chunk: two (256, 64) float64 buffers fit in L2
_SCATTER_CELLS = 1 << 17  # elements of a backward column block's three flat scatter indexes together


def _completion_batch_loss(
    positives: np.ndarray,
    negatives: np.ndarray,
    ent: Tensor,
    params: ModelParams,
    config: TrainConfig,
    values: Tensor | None = None,
    work: np.ndarray | None = None,
) -> Tensor:
    """Hinge loss of positive rows against their negative rows, grouped by
    positive, as one tape record. Attribute targets read ``values``, the
    value table from ``encode_value``.

    The forward runs in blocks of ``_LOSS_ROWS`` rows, every gather writing
    straight into a buffer: each block's difference h + r - t is built in
    one buffer and its distances in the other. The record keeps only what
    its backward reads: l1's signs of the difference as int8, from two
    compares written into the second buffer's bytes once the distances are
    summed, or l2's float64 difference, which is then built in place. The
    two buffers are ``work[0]`` and ``work[1]``, a
    (2, >= min(rows, ``_LOSS_ROWS``), dim) float64 array that a training
    run allocates once, or new arrays; only the forward and the backward's
    row moves (below) use them.

    The backward runs over the live rows only, those whose hinge gradient
    is nonzero or whose distance is not finite: any other row adds only
    +-0.0 to gradient sums that start at +0.0, so dropping it changes no
    bit. It reads each live row's direction, l1's signs or l2's
    difference, with one scale per row: the hinge gradient, for l2 over
    the distance and 0 where the distance is 0. The backward runs once, so
    it moves the live rows to the front of the kept array, in chunks of
    ``_LOSS_ROWS`` rows through ``work[0]``, and reads them there: no
    (live, dim) copy is made while the kept array is alive. int8 holds no
    NaN, so l1's live rows whose distance is not finite take ``np.sign`` of
    their difference, gathered again as the forward did. One loop for both norms
    walks the columns in blocks of one width, whose relation, head and
    target flat scatter indexes hold at most ``_SCATTER_CELLS`` elements
    together and are built once per step; the last block ends at dim,
    redoing columns of the one before if it must. Each block multiplies
    the directions by their scales and scatters the product into the
    entity, relation and value gradients. Every
    (bin, column) sum still adds its rows in row order from zero, so the
    sums, redone ones too, are bit for bit those of one scatter over all
    columns.
    """
    rows = np.concatenate([positives, negatives])
    head, relation, target = rows[:, 0], rows[:, 1], rows[:, 2]
    rel, n_ent = params.relation, ent.shape[0]
    # targets index one table: the entity rows, then the value rows by value id
    table = ent.data if values is None else np.concatenate([ent.data, values.data])
    n_rel, (n_target, dim) = rel.shape[0], table.shape
    for col, n, what in ((head, n_ent, "head"), (relation, n_rel, "relation"), (target, n_target, "target")):
        if col.min() < 0 or col.max() >= n:
            raise IndexError(f"completion loss: {what} index out of range for {n} rows")
    if work is None:
        work = np.empty((2, min(len(rows), _LOSS_ROWS), dim))
    l1 = config.model.norm == "l1"
    kept = np.empty((len(rows), dim), dtype=np.int8 if l1 else np.float64)
    dist = np.empty(len(rows))
    for start in range(0, len(rows), _LOSS_ROWS):
        part, n = slice(start, start + _LOSS_ROWS), min(_LOSS_ROWS, len(rows) - start)
        diff, buf = work[0, :n] if l1 else kept[part], work[1, :n]
        # mode="clip" lets take write into ``out`` unbuffered; the checks above keep it from clipping
        ent.data.take(head[part], axis=0, out=diff, mode="clip")
        diff += rel.data.take(relation[part], axis=0, out=buf, mode="clip")
        diff -= table.take(target[part], axis=0, out=buf, mode="clip")
        if l1:
            np.abs(diff, out=buf).sum(axis=1, out=dist[part])
            above, below = buf.reshape(-1).view(np.bool_)[:2 * diff.size].reshape(2, n, dim)
            np.greater(diff, 0.0, out=above)
            np.subtract(above.view(np.int8), np.less(diff, 0.0, out=below).view(np.int8), out=kept[part])
        else:
            np.sqrt(np.multiply(diff, diff, out=buf).sum(axis=1, out=dist[part]), out=dist[part])
    loss, dist_grad = hinge_loss(dist, len(positives), config.margin, config.negatives)

    def back(g):
        g_dist = dist_grad * g
        live = np.flatnonzero((g_dist != 0.0) | ~np.isfinite(dist))
        new = np.empty if live.size else np.zeros  # no live row leaves every gradient +0.0
        head_grad, rel_grad, target_grad = new((n_ent, dim)), new((n_rel, dim)), new((n_target, dim))
        if live.size:
            # the live rows' directions move to the front of ``kept``, one
            # chunk of rows at a time through the first block buffer's bytes:
            # live[i] >= i, so no chunk reads a row that an earlier one wrote
            moved = work[0].reshape(-1).view(kept.dtype).reshape(-1, dim)
            for start in range(0, live.size if live.size < len(kept) else 0, _LOSS_ROWS):
                chunk = live[start : start + _LOSS_ROWS]
                kept[start : start + len(chunk)] = kept.take(chunk, axis=0, out=moved[: len(chunk)], mode="clip")
            direction = kept[: live.size]
            g_dist = g_dist[live, None]
            if l1:
                # NaN entries, which the int8 signs read as 0, lie in these rows alone
                odd = np.flatnonzero(~np.isfinite(dist[live]))
                if odd.size:
                    at = live[odd]
                    full = ent.data if values is None else np.concatenate([ent.data, values.data])
                    odd_signs = np.sign(ent.data[head[at]] + rel.data[relation[at]] - full[target[at]])
            else:
                odd = live[:0]  # l2's difference holds its own NaN
                d = dist[live, None]
                g_dist = g_dist / np.where(d == 0.0, 1.0, d)
                g_dist *= d != 0.0  # a zero-distance row's difference is finite: its zeros keep their signs
            # the fewest column blocks whose three flat indexes fit in the cells, all one width
            blocks = -(-dim // max(1, _SCATTER_CELLS // (3 * live.size)))
            width = -(-dim // blocks)
            flats = [ad.scatter_index(col[live], width) for col in (relation, head, target)]
            grad = np.empty((live.size, width))  # one column block's gradient, reused by the next
            for start in range(0, dim, width):
                start = min(start, dim - width)  # the last block ends at dim
                cols = slice(start, start + width)
                np.multiply(direction[:, cols], g_dist, out=grad)
                if odd.size:
                    grad[odd] = odd_signs[:, cols] * g_dist[odd]
                rel_grad[:, cols] = ad.scatter_rows(flats[0], grad, n_rel)
                head_grad[:, cols] = ad.scatter_rows(flats[1], grad, n_ent)
                target_grad[:, cols] = ad.scatter_rows(flats[2], np.negative(grad, out=grad), n_target)
        head_grad += target_grad[:n_ent]
        if values is None:
            return head_grad, rel_grad
        return head_grad, rel_grad, target_grad[n_ent:]

    return ad.fused(loss, (ent, rel) if values is None else (ent, rel, values), back)


def _classification_batch_loss(
    batch_entities: list[int],
    ent: Tensor,
    params: ModelParams,
    split: DatasetSplit,
) -> Tensor:
    """BCE of the classifier scores ``W v + b`` of the batch's entity rows,
    as one tape record: the row gather, the product, the bias and the loss.
    An entity read twice gets its two rows' gradients in one scatter."""
    batch = np.asarray(batch_entities, dtype=np.intp)
    w, b = params["cls_w"], params["cls_b"]
    vecs = ent.data[batch]
    loss, score_grad = bce_loss(vecs @ w.data + b.data, split.labels[batch], split.class_count)

    def back(g):
        g_scores = score_grad * g
        return ad.scatter_sum(batch, g_scores @ w.data.T, ent.shape[0]), vecs.T @ g_scores, g_scores.sum(axis=0)

    return ad.fused(loss, (ent, w, b), back)


# ---------------------------------------------------------------------------
# training loop

def train(
    kg: KnowledgeGraph, split: DatasetSplit, config: TrainConfig
) -> tuple[ModelParams, TrainReport]:
    """Train from scratch; returns the parameters and a per-epoch report.

    Each epoch draws a permutation of the positives and, for completion,
    all of its negatives in one ``corrupt`` call over the permuted
    positives, ``negatives`` rows per positive, grouped by positive; a
    batch of k positives takes its k * ``negatives`` rows as a slice.
    Classification draws no negatives.

    With validation enabled (``val_every > 0`` and held-out data present),
    the best-validation parameters are kept and restored at the end; early
    stopping triggers after ``patience`` checks without improvement.
    """
    rng = np.random.default_rng(config.seed)
    class_count = classifier_classes(config, split.class_count)
    params = init_params(
        kg.num_entities, kg.num_relations, kg.vocab_size, class_count, config.model, rng
    )
    view = GraphView.restricted(kg, split.train, config.model.use_attributes)

    if config.task == "completion":
        positives = triple_rows(kg, split.train, config.model.use_attributes)
        known = known_triples(kg)
        if not len(positives) and config.epochs > 0:
            raise DatasetError("no training triples")
        has_validation = bool(split.valid)
    else:
        if split.labels is None or class_count < 1:
            raise DatasetError("classification training needs labels")
        positives = split.label_train
        if not len(positives) and config.epochs > 0:
            raise DatasetError("no labeled training entities")
        unlabeled = positives[split.labels[positives] < 0]
        if len(unlabeled):
            raise ConfigError(f"entity {unlabeled[0]} has no label")
        has_validation = len(split.label_valid) > 0

    report = TrainReport()
    best_metric: float | None = None
    best_snap: dict[str, np.ndarray] | None = None
    checks_since_best = 0
    filt = None  # the filter index, built at the first completion validation
    # the completion loss's two block buffers: allocated once, not faulted in every step
    work = np.empty((2, _LOSS_ROWS, config.model.dim)) if config.task == "completion" else None

    with np.errstate(all="ignore"):  # no warnings: a diverging step fails a check below
        for epoch in range(1, config.epochs + 1):
            t0 = time.perf_counter()
            order = rng.permutation(len(positives))
            if config.task == "completion":
                # the epoch's negatives in one draw, grouped by positive in epoch order
                epoch_negs = corrupt(positives[order], kg, known, rng, config.negatives)
            total_loss = 0.0
            for start in range(0, len(order), config.batch_size):
                chunk = positives[order[start:start + config.batch_size]]
                ad.zero_grads(params.values())
                with Tape() as tape:
                    if config.task == "completion":
                        negs = epoch_negs[start * config.negatives:(start + len(chunk)) * config.negatives]
                        # one value table, read by propagation and by the loss's attribute targets
                        values = encode_value(view, params, config.model)
                        finals = forward_all(view, params, config.model, values)
                        loss = _completion_batch_loss(chunk, negs, finals, params, config, values, work)
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
                try:
                    metric = _validation_metric(split, view, params, config, filt)
                except IntegrityError as err:
                    raise TrainingError(f"epoch {epoch}, validation: {err}") from err
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


def load_checkpoint_bytes(
    blob: bytes, source: str = "<checkpoint>"
) -> tuple[ModelParams, TrainConfig, dict]:
    """Inverse of ``save_checkpoint_bytes``; round-trips bit-exactly. Any
    failure raises ``IntegrityError`` naming ``source``."""
    try:
        return _read_checkpoint(blob)
    except IntegrityError as err:
        raise IntegrityError(f"{source}: {err}") from err


def _read_checkpoint(blob: bytes) -> tuple[ModelParams, TrainConfig, dict]:
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
    except (ValueError, RecursionError) as e:  # also an integer past the digit limit, or nesting too deep
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
    specs = _array_specs(header.get("arrays"), config)
    params = ModelParams()
    start = off
    for name, shape in specs:
        count = math.prod(shape)
        if len(blob) < off + count * 8:
            raise IntegrityError(
                f"checkpoint truncated: array {name!r} needs {count * 8} bytes, "
                f"{len(blob) - off} present"
            )
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape)
        params[name] = ad.parameter(arr.astype(np.float64), name)
        off += count * 8
    if off != len(blob):
        raise IntegrityError(f"checkpoint has {len(blob) - off} trailing bytes")
    if not np.isfinite(np.frombuffer(blob, dtype="<f8", count=(off - start) // 8, offset=start)).all():
        name = next(name for name, t in params.items() if not np.isfinite(t.data).all())
        raise IntegrityError(f"checkpoint array {name!r} holds a non-finite value")
    return params, config, header


def _array_specs(specs, config: TrainConfig) -> list[tuple[str, tuple[int, ...]]]:
    """The header's (name, shape) list, checked against the layout that the
    config and the row counts of the tables imply."""
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
    model = config.model
    if model.layers > len(out):
        raise IntegrityError(f"checkpoint config has {model.layers} layers, its header only {len(out)} arrays")
    rows = {name: shape[0] for name, shape in out if shape}
    counts = [rows.get(name, 0) for name in ("entity", "relation", "word")]
    classes = classifier_classes(config, rows.get("cls_b", 0))
    check_layout(out, parameter_shapes(model, *counts, classes), "its config")
    if not (counts[0] and counts[1]):
        raise IntegrityError("checkpoint has no entity or no relation rows")
    if config.task == "classification" and not classes:
        raise IntegrityError("classification checkpoint has no classifier head")
    return out


def check_layout(
    arrays: list[tuple[str, tuple[int, ...]]], expected: list[tuple[str, tuple[int, ...]]], against: str
) -> None:
    """Refuse a checkpoint whose (name, shape) list ``arrays`` is not the
    ``expected`` layout that ``against`` implies, naming the first array
    that differs."""
    for have, want in itertools.zip_longest(arrays, expected):
        if have != want:
            raise IntegrityError(
                f"checkpoint holds {_array_text(have)} where {against} implies {_array_text(want)}"
            )


def _array_text(spec: tuple[str, tuple[int, ...]] | None) -> str:
    return "no array" if spec is None else f"{spec[0]!r} of shape {spec[1]}"


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
