"""Link-prediction ranking and entity-classification evaluation.

Ranking protocol: for each test triple, score every candidate entity as
replacement head and as replacement tail (and every candidate relation),
rank the true answer, and aggregate Mean Rank and Hits@k. A rank is
1 + the number of strictly better candidates, so exact ties take the
optimistic rank. The "filter" setting drops candidates that form a known
positive triple (train + valid + test) other than the answer itself;
a filtered rank can never be worse than the raw rank.

Ranking is batched: ``rank_tail``, ``rank_head`` and ``rank_relation``
take many queries at once and score them in chunks of (queries x
candidates) distances; one distance pass gives both the raw and the
filtered rank. The known positives are sorted key -> answer arrays
(``FilterIndex``, built from ``kgdata.KnownAnswers``), looked up with
``searchsorted``.

Candidates are scored against the final propagated entity vectors; the
propagation runs over the training graph so held-out edges never leak
into the messages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .kgdata import (
    DatasetSplit, GraphView, KnowledgeGraph, KnownAnswers, Triple, pair_keys, triple_rows,
)
from .model import ModelConfig, ModelParams, forward_all, is_translation_mode

SETTINGS = ("raw", "filter")

# Elements of the (queries x candidates x dim) float64 buffer that one
# ranking chunk fills: 2**17 is 1 MiB, about 4 queries over 500 entities
# at dim 64 and about 40 over 50.
CHUNK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class FilterIndex:
    """Known-positive lookups for the filtered setting, over all splits."""

    tails: KnownAnswers  # (h, r) -> t
    heads: KnownAnswers  # (r, t) -> h
    relations: KnownAnswers  # (h, t) -> r


def build_filter_index(kg: KnowledgeGraph) -> FilterIndex:
    h, r, t = triple_rows(kg, kg.relation_triples).T
    return FilterIndex(
        tails=KnownAnswers.from_pairs(pair_keys(h, r), t),
        heads=KnownAnswers.from_pairs(pair_keys(r, t), h),
        relations=KnownAnswers.from_pairs(pair_keys(h, t), r),
    )


def entity_matrix(view: GraphView, params: ModelParams, config: ModelConfig) -> np.ndarray:
    """Final entity vectors as one (entities, dim) array (no tape recorded).

    The array is a copy: with no propagation layers the final matrix is
    the live embedding table itself.
    """
    return np.array(forward_all(view, params, config).data)


def _as_queries(queries) -> tuple[np.ndarray, bool]:
    """(n, 3) int64 triples, and whether ``queries`` was a single triple."""
    q = np.asarray(queries, dtype=np.int64)
    if q.shape == (3,):
        return q.reshape(1, 3), True
    if q.size == 0:
        return q.reshape(0, 3), False
    if q.ndim != 2 or q.shape[1] != 3:
        raise ConfigError(f"queries must be a triple or an (n, 3) array of triples, got shape {q.shape}")
    return q, False


def _rank(
    kind: str,
    queries,
    ent: np.ndarray,
    rel: np.ndarray,
    norm: str,
    known: KnownAnswers,
    setting: str | tuple[str, ...],
) -> int | np.ndarray:
    if setting == SETTINGS:
        wanted = SETTINGS
    elif isinstance(setting, str) and setting in SETTINGS:
        wanted = (setting,)
    else:
        raise ConfigError(f"setting must be one of {SETTINGS} or that tuple, got {setting!r}")
    q, single = _as_queries(queries)
    h, r, t = q.T
    if kind == "tail":
        answer, keys, candidates = t, pair_keys(h, r), len(ent)
    elif kind == "head":
        answer, keys, candidates = h, pair_keys(r, t), len(ent)
    else:
        answer, keys, candidates = r, pair_keys(h, t), len(rel)
    rows = max(1, min(len(q), CHUNK_ELEMENTS // max(1, candidates * ent.shape[1])))
    buf = np.empty((rows, candidates, ent.shape[1]))
    out = np.empty((len(wanted), len(q)), dtype=np.int64)
    for lo in range(0, len(q), rows):
        s = slice(lo, lo + rows)
        diff = buf[: len(answer[s])]
        if kind == "tail":  # (e_h + r) - e_c
            np.subtract((ent[h[s]] + rel[r[s]])[:, None], ent, out=diff)
        elif kind == "head":  # (e_c + r) - e_t
            np.add(ent, rel[r[s]][:, None], out=diff)
            diff -= ent[t[s]][:, None]
        else:  # (e_h + r_c) - e_t
            np.add(ent[h[s]][:, None], rel, out=diff)
            diff -= ent[t[s]][:, None]
        if norm == "l1":
            dist = np.abs(diff, out=diff).sum(axis=2)
        else:
            dist = np.sqrt(np.multiply(diff, diff, out=diff).sum(axis=2))
        better = dist < dist[np.arange(len(dist)), answer[s]][:, None]
        raw = 1 + better.sum(axis=1)
        for i, name in enumerate(wanted):
            if name == "raw":
                out[i, s] = raw
                continue
            # the answer itself is never better than its own distance
            query, cand = known.lookup(keys[s])
            dropped = query[better[query, cand]]
            out[i, s] = raw - np.bincount(dropped, minlength=len(raw))
    if single:
        return int(out[0, 0]) if len(wanted) == 1 else out[:, 0]
    return out[0] if len(wanted) == 1 else out


def rank_tail(
    queries,
    ent: np.ndarray,
    rel: np.ndarray,
    norm: str,
    filt: FilterIndex,
    setting: str | tuple[str, ...],
) -> int | np.ndarray:
    """Rank of each query's tail among all entities as candidate tails.

    ``queries`` is one triple or an (n, 3) array of triples; ``setting``
    one name in ``SETTINGS`` or ``SETTINGS`` itself. One triple and one
    setting give an int; n triples give an (n,) int64 array; ``SETTINGS``
    adds a leading axis with one row per setting, all from one pass over
    the distances.
    """
    return _rank("tail", queries, ent, rel, norm, filt.tails, setting)


def rank_head(
    queries,
    ent: np.ndarray,
    rel: np.ndarray,
    norm: str,
    filt: FilterIndex,
    setting: str | tuple[str, ...],
) -> int | np.ndarray:
    """Rank of each query's head among all entities; shapes as ``rank_tail``."""
    return _rank("head", queries, ent, rel, norm, filt.heads, setting)


def rank_relation(
    queries,
    ent: np.ndarray,
    rel: np.ndarray,
    norm: str,
    filt: FilterIndex,
    setting: str | tuple[str, ...],
) -> int | np.ndarray:
    """Rank of each query's relation among all relations; shapes as ``rank_tail``."""
    return _rank("relation", queries, ent, rel, norm, filt.relations, setting)


def aggregate_metrics(ranks, k: int) -> tuple[float, float]:
    """(mean rank, fraction of ranks <= k). Empty input is an error."""
    arr = np.asarray(ranks, dtype=np.float64)
    if arr.size == 0:
        raise ConfigError("no ranks to aggregate")
    return float(arr.mean()), float((arr <= k).mean())


@dataclass
class RankingReport:
    """Raw and filtered metrics for one prediction task."""

    task: str
    hits_k: int
    queries: int
    candidates: int
    mean_rank_raw: float
    hits_raw: float
    mean_rank_filtered: float
    hits_filtered: float

    def rows(self) -> list[tuple[str, str, str, float]]:
        return [
            (self.task, "raw", "mean_rank", self.mean_rank_raw),
            (self.task, "raw", f"hits_at_{self.hits_k}", self.hits_raw),
            (self.task, "filter", "mean_rank", self.mean_rank_filtered),
            (self.task, "filter", f"hits_at_{self.hits_k}", self.hits_filtered),
        ]


def evaluate_completion(
    kg: KnowledgeGraph,
    split: DatasetSplit,
    params: ModelParams,
    config: ModelConfig,
) -> dict[str, RankingReport]:
    """Entity prediction (head + tail queries pooled, Hits@10) and relation
    prediction (Hits@1) over the test triples."""
    if not split.test:
        raise ConfigError("no evaluation triples")
    view = GraphView.restricted(kg, split.train, config.use_attributes)
    ent = entity_matrix(view, params, config)
    rel = params.relation.data
    filt = build_filter_index(kg)

    queries = np.asarray(split.test, dtype=np.int64)
    args = (ent, rel, config.norm, filt, SETTINGS)
    # each call gives one row per setting
    entity = np.concatenate([rank_tail(queries, *args), rank_head(queries, *args)], axis=1)
    ent_ranks = dict(zip(SETTINGS, entity))
    rel_ranks = dict(zip(SETTINGS, rank_relation(queries, *args)))

    def report(task: str, ranks: dict[str, np.ndarray], k: int, candidates: int) -> RankingReport:
        mr_raw, hits_raw = aggregate_metrics(ranks["raw"], k)
        mr_f, hits_f = aggregate_metrics(ranks["filter"], k)
        return RankingReport(
            task=task, hits_k=k, queries=len(ranks["raw"]), candidates=candidates,
            mean_rank_raw=mr_raw, hits_raw=hits_raw,
            mean_rank_filtered=mr_f, hits_filtered=hits_f,
        )

    return {
        "entity_prediction": report("entity_prediction", ent_ranks, 10, kg.num_entities),
        "relation_prediction": report("relation_prediction", rel_ranks, 1, kg.num_relations),
    }


def hits_fraction_for_triples(
    triples: list[Triple],
    ent: np.ndarray,
    rel: np.ndarray,
    norm: str,
    filt: FilterIndex,
    k: int,
) -> float:
    """Filtered entity-prediction Hits@k (used as the validation metric)."""
    if not triples:
        raise ConfigError("no triples for validation metric")
    queries = np.asarray(triples, dtype=np.int64)
    hits = int((rank_tail(queries, ent, rel, norm, filt, "filter") <= k).sum())
    hits += int((rank_head(queries, ent, rel, norm, filt, "filter") <= k).sum())
    return hits / (2 * len(triples))


# ---------------------------------------------------------------------------
# classification

def classification_accuracy(
    ent: np.ndarray, params: ModelParams, entities: list[int], labels: dict[int, int]
) -> float:
    """Accuracy of argmax class prediction (ties resolve to the lowest index)."""
    if not entities:
        raise ConfigError("no entities to classify")
    if params.cls_w is None or params.cls_b is None:
        raise ConfigError("model has no classifier head")
    for e in entities:
        if e not in labels:
            raise ConfigError(f"entity {e} has no label")
    scores = ent[entities] @ params.cls_w.data + params.cls_b.data
    pred = scores.argmax(axis=1)
    truth = np.array([labels[e] for e in entities])
    return float((pred == truth).mean())


def evaluate_classification(
    kg: KnowledgeGraph,
    split: DatasetSplit,
    params: ModelParams,
    config: ModelConfig,
) -> dict[str, float | int]:
    """Accuracy over the labeled test entities."""
    if split.labels is None:
        raise ConfigError("dataset has no labels")
    view = GraphView.restricted(kg, split.train, config.use_attributes)
    ent = entity_matrix(view, params, config)
    acc = classification_accuracy(ent, params, split.label_test, split.labels)
    return {"accuracy": acc, "entities": len(split.label_test), "classes": split.class_count}


# ---------------------------------------------------------------------------
# report rendering

def completion_report_text(reports: dict[str, RankingReport], config: ModelConfig) -> str:
    lines = ["link prediction results"]
    if is_translation_mode(config):
        lines.append("mode: transe-mode (no propagation layers, no attributes)")
    for name in ("entity_prediction", "relation_prediction"):
        r = reports[name]
        lines.append(f"\n{name} ({r.queries} queries over {r.candidates} candidates)")
        lines.append(f"  raw     mean rank {r.mean_rank_raw:.2f}   hits@{r.hits_k} {r.hits_raw:.4f}")
        lines.append(f"  filter  mean rank {r.mean_rank_filtered:.2f}   hits@{r.hits_k} {r.hits_filtered:.4f}")
    return "\n".join(lines) + "\n"


def completion_report_tsv(reports: dict[str, RankingReport], config: ModelConfig) -> str:
    lines = ["task\tsetting\tmetric\tvalue"]
    if is_translation_mode(config):
        lines.append("meta\t-\tmode\ttranse-mode")
    for name in ("entity_prediction", "relation_prediction"):
        for task, setting, metric, value in reports[name].rows():
            lines.append(f"{task}\t{setting}\t{metric}\t{value!r}")
    return "\n".join(lines) + "\n"


def classification_report_text(result: dict, config: ModelConfig) -> str:
    lines = ["entity classification results"]
    if is_translation_mode(config):
        lines.append("mode: transe-mode (no propagation layers, no attributes)")
    lines.append(
        f"accuracy {result['accuracy']:.4f} over {result['entities']} entities, "
        f"{result['classes']} classes"
    )
    return "\n".join(lines) + "\n"


def classification_report_tsv(result: dict, config: ModelConfig) -> str:
    lines = ["task\tsetting\tmetric\tvalue"]
    if is_translation_mode(config):
        lines.append("meta\t-\tmode\ttranse-mode")
    lines.append(f"entity_classification\t-\taccuracy\t{result['accuracy']!r}")
    lines.append(f"entity_classification\t-\tentities\t{result['entities']}")
    return "\n".join(lines) + "\n"
