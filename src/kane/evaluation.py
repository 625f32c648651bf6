"""Link-prediction ranking and entity-classification evaluation.

Ranking protocol: for each test triple, score every candidate entity as
replacement head and as replacement tail (and every candidate relation),
rank the true answer, and aggregate Mean Rank and Hits@k. A rank is
1 + the number of strictly better candidates, so exact ties take the
optimistic rank. The "filter" setting drops candidates that form a known
positive triple (train + valid + test) other than the answer itself;
a filtered rank can never be worse than the raw rank.

Ranking is batched: ``rank_tail``, ``rank_head`` and ``rank_relation``
take many queries at once; one distance pass gives both the raw and the
filtered rank. The known positives are sorted key -> answer arrays
(``FilterIndex``, built from ``kgdata.KnownAnswers``), looked up with
``searchsorted``.

Ranks are exactly those of the float64 distances ``||(x + y) - z||``
(the tail's ``(e_h + r) - e_c``, the head's ``(e_c + r) - e_t``, the
relation's ``(e_h + r_c) - e_t``). Each kind is one distance from a
per-query vector ``a`` to every candidate ``c``, first computed from
their float32 roundings in one of two forms that cost two memory sweeps
or one product:

- l1 as ``2 sum_d max(a_d, c_d) - sum a - sum c``: one broadcast maximum
  into a (dim x queries x candidates) chunk and one sum over dim, then
  the row sums, taken once per call, subtracted in place;
- l2, compared squared, as ``||a||^2 + ||c||^2 - 2 a.c``: one float32
  matrix product per group of queries.

A per-query rounding bound (Higham's gamma_n, see ``_bound``) puts each
float32 value within ``err`` of the float64 one. Both forms cancel, so
the bound follows the size of the operands, not of the distance: for l1
twice gamma_n of ``sum |a| + sum |c|`` (the doubled sum of the maxima),
for l2 gamma_n of ``(||a|| + ||c||)**2``.
A candidate below the answer by more than twice ``err`` is better; one
above by more is not; the band between, and any query whose values are
not finite or near float32's limit, is recomputed in float64 with the
expression above and its summation order.

Candidates with equal rows share every distance, so all three steps run
once per copy group, over one representative row each. A ranking builds
its entity rows' ``CandidateTable`` once and hands it to every rank call:
the approximate distances, the band and the recheck are (query, group)
arrays, and a better group counts once per member. The answer's own
group is never better and leaves the band as one column; a known
positive is filtered when its group is better, once per known copy.

Validation (``hits_fraction_for_triples``) reads only whether a filtered
entity rank is at most k. On a table of at least four times
``BLOCK_GROUPS`` copy groups, ``_undecided`` first runs the float32 pass
over the first ``BLOCK_GROUPS`` groups: a query with k or more members
there that are not known answers and lie below the answer's float64
distance less the bound (strictly closer in float64) is a miss; only the
other queries are ranked. A hit is never decided early and a query with
an infinite bound falls through, so the metric is that of every rank.

Candidates are scored against the final propagated entity vectors; the
propagation runs over the training graph so held-out edges never leak
into the messages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DatasetError, IntegrityError
from .kgdata import (
    DatasetSplit, GraphView, KnowledgeGraph, KnownAnswers, Triple, pair_keys, triple_rows,
)
from .model import ModelConfig, ModelParams, forward_all, is_translation_mode

SETTINGS = ("raw", "filter")

# Elements of the (dim x queries x candidates) float32 buffer of one l1
# ranking chunk: 2**18 is 1 MiB, about 8 queries over 500 entities at dim
# 64 and about 80 over 50. A band holds the approximate distances of up
# to this many (query, candidate) pairs, and a float64 recheck up to this
# many differences.
CHUNK_ELEMENTS = 1 << 18

# Copy groups in validation's block (``hits_fraction_for_triples``): the
# first this many representatives, read only when the table holds at least
# four times as many groups, so that the block's float32 pass costs at
# most a quarter of the full one.
BLOCK_GROUPS = 64


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


@dataclass(frozen=True)
class CandidateTable:
    """Candidate rows and their copy groups, built once per ranking by
    ``candidate_table``. Copies are equal vectors, not entities with equal
    graph neighbourhoods: ranks are functions of the vectors, and BLAS can
    split rows that the graph makes equal by 1e-16, so a grouping from the
    graph would rank otherwise than the float64 distances and ``kane.oracle``."""

    rows: np.ndarray  # (n, dim) candidate rows
    group: np.ndarray  # group id of each row
    reps: np.ndarray  # one row index per group, its representative
    sizes: np.ndarray  # rows per group, as float64


def candidate_table(mat: np.ndarray) -> CandidateTable:
    """The copy groups of the rows of ``mat``: two rows share a group id,
    from 0 up, when they are equal and only then (a row holding NaN shares
    its id with none). The rows are sorted by their bytes, with -0.0 read
    as 0.0, so that equal rows lie next to each other; then adjacent rows
    are compared."""
    rows = np.ascontiguousarray(mat + 0.0)  # -0.0 + 0.0 is 0.0
    order = np.argsort(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel())
    ordered = rows[order]
    new = np.ones(len(mat), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group = np.empty(len(mat), dtype=np.int64)
    group[order] = np.cumsum(new) - 1
    return CandidateTable(mat, group, order[new], np.bincount(group).astype(np.float64))


def entity_matrix(view: GraphView, params: ModelParams, config: ModelConfig) -> np.ndarray:
    """Final entity vectors as one (entities, dim) array (no tape recorded).

    The array is a copy: with no propagation layers the final matrix is
    the live embedding table itself. Finite but huge parameters can
    propagate to vectors that are not finite: that raises
    ``IntegrityError``, with no NumPy warning on the way.
    """
    with np.errstate(all="ignore"):
        ent = np.array(forward_all(view, params, config).data)
    if not np.isfinite(ent).all():
        raise IntegrityError("propagated entity vectors are not finite")
    return ent


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


# Unit roundoffs of float32 and float64, and the absolute error of one
# float32 rounding below its normal range (half the smallest subnormal).
_U32, _U64, _ETA32 = 2.0**-24, 2.0**-53, 2.0**-150
# Queries whose distances could come near float32's largest value (or are
# not finite) get no band: the recheck covers all their candidates.
_SAFE32 = float(np.finfo(np.float32).max) / 4
# Per norm, the map of each coordinate difference and the power p of the
# summed map: l2 distances are compared squared until the float64 recheck
# takes the square root.
_NORM_MAPS = {"l1": (np.abs, 1), "l2": (np.square, 2)}


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n = nu / (1 - nu): bounds the relative error of a
    result that passed through n roundings of unit roundoff u."""
    return n * u / (1.0 - n * u)


def _operands(kind: str, q: np.ndarray, ent: np.ndarray, rel: np.ndarray):
    """For one ranking kind and (n, 3) queries: each query's answer, the
    pair keys of its known answers, the candidate table, the parts
    (x, y, z) of the float64 distance's map of (x + y) - z, with None at
    the candidate's place, and the per-query vector a whose distance to a
    candidate c is the same map of a - c."""
    h, r, t = q.T
    if kind == "tail":  # (e_h + r) - e_c
        parts = (ent[h], rel[r], None)
        return t, pair_keys(h, r), ent, parts, parts[0] + parts[1]
    if kind == "head":  # (e_c + r) - e_t
        parts = (None, rel[r], ent[t])
        return h, pair_keys(r, t), ent, parts, parts[2] - parts[1]
    parts = (ent[h], None, ent[t])  # (e_h + r_c) - e_t
    return r, pair_keys(h, t), rel, parts, parts[2] - parts[0]


def _bound(norm: str, parts: tuple, cand: np.ndarray) -> np.ndarray:
    """Per query, a bound on how far each distance of ``_float32_pass``
    lies from the float64 one (both squared for l2): infinite for a query
    whose distances could come near float32's largest value or are not
    finite.

    With n = dim, u and v the float32 and float64 unit roundoffs and
    ``size`` >= the sum over coordinates of (|x| + |y| + |c|)**p for every
    candidate c, so >= sum |a| + sum |c| (l1) or (||a|| + ||c||)**2 (l2):
      l1's doubled sum of the maxima errs by 2 gamma_{n-1} sum |max(a, c)|
        <= 2 gamma_{n-1} size, its row sums and two
        subtractions by under 5u size                       2 gamma_{n+2} size
      l2's product errs by gamma_n sum |a c|, its squared norms and two
        additions by a few u of ||a||^2 + ||c||^2 + 2 sum |a c|,
        which is <= size by Cauchy-Schwarz                  gamma_{n+4} size
    The bound covers that, with room to spare, plus
      rounding a and c to float32                            (2u + v) size
      the float64 (x + y) - z, map and sum                   gamma_n size
      float32 underflow, absolute                            ~6n eta
    Sums and the max are exact below float32's normal range, so only the
    roundings to float32 and l2's products underflow. Below ``_SAFE32``
    no intermediate value overflows.
    """
    phi, p = _NORM_MAPS[norm]
    dim = cand.shape[1]
    x, y = (part for part in parts if part is not None)
    with np.errstate(over="ignore"):
        size = (phi(np.abs(x) + np.abs(y)).sum(axis=1) ** (1 / p)
                + phi(cand).sum(axis=1).max(initial=0.0) ** (1 / p)) ** p
    terms = 2 if norm == "l1" else 1
    err = ((terms * _gamma(dim + 8, _U32) + _gamma(dim + 8, _U64) + 8 * dim * _ETA32) * size
           + 16 * dim * _ETA32)
    return np.where(size < _SAFE32, err, np.inf)


def _float64_sums(norm: str, parts: tuple, cand: np.ndarray, qi: np.ndarray, ci: np.ndarray) -> np.ndarray:
    """Per pair j, the float64 sum of the norm's map of (x + y) - z for
    query qi[j] and candidate row cand[ci[j]]: the distance, or for l2 its
    square before the root (infinite where the squares overflow)."""
    phi = _NORM_MAPS[norm][0]
    x, y, z = (cand[ci] if part is None else part[qi] for part in parts)
    with np.errstate(over="ignore"):
        return phi((x + y) - z).sum(axis=1)


def _float32_pass(norm: str, a: np.ndarray, cand: np.ndarray, rows: int):
    """A function ``fill(lo, out)`` that writes the float32 distance (l2's
    squared) of queries lo, lo + 1, ... to every candidate into the rows of
    the (queries, candidates) float32 array ``out``, from the float32
    roundings of ``a`` and ``cand``.

    l1 is 2 sum_d max(a_d, c_d) - sum a - sum c: one broadcast maximum into
    a (dim x rows x candidates) buffer and one sum over dim per ``rows``
    queries, then the row sums, taken once, subtracted in place. l2 is
    ||a||^2 + ||c||^2 - 2 a.c: one float32 product per call. Values that
    are not finite make NaN or infinity without a warning only under the
    caller's ``np.errstate``.
    """
    dim = cand.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        c32 = np.ascontiguousarray(cand.T, dtype=np.float32)
        if norm == "l2":
            a32 = np.ascontiguousarray(a, dtype=np.float32)
            a_sums = np.square(a32, dtype=np.float64).sum(axis=1).astype(np.float32)
            c_sums = np.square(c32, dtype=np.float64).sum(axis=0).astype(np.float32)
        else:
            a32 = np.ascontiguousarray(a.T, dtype=np.float32)
            a_sums = a32.sum(axis=0, dtype=np.float64).astype(np.float32)
            c_sums = c32.sum(axis=0, dtype=np.float64).astype(np.float32)

    if norm == "l2":
        def fill(lo: int, out: np.ndarray) -> None:
            np.matmul(a32[lo : lo + len(out)], c32, out=out)
            out *= -2
            out += a_sums[lo : lo + len(out), None]
            out += c_sums
        return fill

    buf = np.empty(rows * len(cand) * dim, dtype=np.float32)

    def fill(lo: int, out: np.ndarray) -> None:
        n = len(out)
        for j in range(0, n, rows):
            k = min(rows, n - j)
            chunk = buf[: dim * k * len(cand)].reshape(dim, k, len(cand))
            np.maximum(a32[:, lo + j : lo + j + k, None], c32[:, None], out=chunk)
            np.add.reduce(chunk, axis=0, out=out[j : j + k])
        out *= 2
        out -= a_sums[lo : lo + n, None]
        out -= c_sums
    return fill


def _rank(
    kind: str,
    queries,
    ent: CandidateTable | np.ndarray,
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
    if norm not in _NORM_MAPS:
        raise ConfigError(f"norm must be one of {tuple(_NORM_MAPS)}, got {norm!r}")
    p = _NORM_MAPS[norm][1]
    q, single = _as_queries(queries)
    ent = ent if isinstance(ent, CandidateTable) else candidate_table(ent)
    answer, keys, cand, parts, a = _operands(kind, q, ent.rows, rel)
    # each distinct candidate row is ranked once: copy group g is the row
    # distinct[g], held by table.sizes[g] candidates, and group[c] is
    # candidate c's group; the answer's own group is never strictly better
    table = candidate_table(rel) if kind == "relation" else ent
    group, distinct = table.group, cand[table.reps]
    target = group[answer]
    # A float32 distance below the answer's by more than twice the bound is
    # strictly below in float64 too (after l2's root as well), and one
    # above by more is not better.
    width = 2 * _bound(norm, parts, distinct)
    dim = cand.shape[1]

    def exact(qi: np.ndarray, gi: np.ndarray) -> np.ndarray:
        """The float64 distance of each (query, group) pair (infinite where
        l2's squares overflow)."""
        dist = _float64_sums(norm, parts, distinct, qi, gi)
        return np.sqrt(dist) if p == 2 else dist

    # queries per band (their approximate distances fill one chunk),
    # queries per float32 sweep, and (query, group) pairs per recheck
    batch = max(1, min(len(q), CHUNK_ELEMENTS // max(1, len(distinct))))
    rows = max(1, min(batch, CHUNK_ELEMENTS // max(1, len(distinct) * dim)))
    pairs = max(1, CHUNK_ELEMENTS // max(1, dim))
    fill = _float32_pass(norm, a, distinct, rows)
    out = np.empty((len(wanted), len(q)), dtype=np.int64)
    for lo in range(0, len(q), batch):
        s = slice(lo, lo + batch)
        n = len(answer[s])
        approx = np.empty((n, len(distinct)), dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            fill(lo, approx)
            near = approx[np.arange(n), target[s]].astype(np.float64)
            # thresholds rounded outward to float32, so each test stays sound
            below = np.nextafter((near - width[s]).astype(np.float32), -np.inf)[:, None]
            above = np.nextafter((near + width[s]).astype(np.float32), np.inf)[:, None]
        better = approx < below
        # the band holds every NaN
        band = approx > above
        band |= better
        np.logical_not(band, out=band)
        band[np.arange(n), target[s]] = False
        qi, gi = np.nonzero(band)
        dist = np.empty(len(qi))
        for i in range(0, len(qi), pairs):
            dist[i : i + pairs] = exact(qi[i : i + pairs] + lo, gi[i : i + pairs])
        closer = dist < exact(np.arange(lo, lo + n), target[s])[qi]
        better[qi[closer], gi[closer]] = True
        # a better group counts once per member (an exact float64 count)
        raw = 1 + (better @ table.sizes).astype(np.int64)
        for i, name in enumerate(wanted):
            if name == "raw":
                out[i, s] = raw
                continue
            # each known answer in a better group drops once; the answer
            # itself is never better than its own distance
            query, cand_id = known.lookup(keys[s])
            dropped = query[better[query, group[cand_id]]]
            out[i, s] = raw - np.bincount(dropped, minlength=len(raw))
    if single:
        return int(out[0, 0]) if len(wanted) == 1 else out[:, 0]
    return out[0] if len(wanted) == 1 else out


def rank_tail(
    queries,
    ent: CandidateTable | np.ndarray,
    rel: np.ndarray,
    norm: str,
    filt: FilterIndex,
    setting: str | tuple[str, ...],
) -> int | np.ndarray:
    """Rank of each query's tail among all entities as candidate tails.

    ``queries`` is one triple or an (n, 3) array of triples, ``ent`` the
    entities' ``candidate_table`` (or their array, grouped in the call) and
    ``setting`` one name in ``SETTINGS`` or ``SETTINGS`` itself. One triple
    and one setting give an int; n triples give an (n,) int64 array;
    ``SETTINGS`` adds a leading axis with one row per setting, all from one
    pass over the distances.
    """
    return _rank("tail", queries, ent, rel, norm, filt.tails, setting)


def rank_head(
    queries,
    ent: CandidateTable | np.ndarray,
    rel: np.ndarray,
    norm: str,
    filt: FilterIndex,
    setting: str | tuple[str, ...],
) -> int | np.ndarray:
    """Rank of each query's head among all entities; shapes as ``rank_tail``."""
    return _rank("head", queries, ent, rel, norm, filt.heads, setting)


def rank_relation(
    queries,
    ent: CandidateTable | np.ndarray,
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
        raise DatasetError("no evaluation triples")
    view = GraphView.restricted(kg, split.train, config.use_attributes)
    ent = candidate_table(entity_matrix(view, params, config))
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


def _undecided(
    kind: str,
    q: np.ndarray,
    table: CandidateTable,
    rel: np.ndarray,
    norm: str,
    known: KnownAnswers,
    k: int,
) -> np.ndarray:
    """Indices of the (n, 3) queries ``q`` of an entity ranking ``kind``
    that the block of the first ``BLOCK_GROUPS`` copy groups of ``table``
    cannot show to rank above ``k`` filtered.

    A block group whose float32 distance lies below the answer's float64
    one less the ``_bound``, the threshold rounded outward to float32, is
    strictly closer in float64 (for l2 after the root too, as in ``_rank``),
    so each of its members is better than the answer. A query whose better
    block members, less its known answers among them, number ``k`` or more
    has a filtered rank above ``k``. The answer's own group lies within
    the bound of the answer's distance, so it never falls below the
    threshold, nor does any group of a query whose bound is infinite or
    whose values are not finite."""
    answer, keys, cand, parts, a = _operands(kind, q, table.rows, rel)
    block = cand[table.reps[:BLOCK_GROUPS]]
    near = _float64_sums(norm, parts, cand, np.arange(len(q)), answer)
    with np.errstate(over="ignore", invalid="ignore"):
        below = np.nextafter((near - _bound(norm, parts, cand)).astype(np.float32), -np.inf)[:, None]
    batch = max(1, min(len(q), CHUNK_ELEMENTS // len(block)))
    fill = _float32_pass(norm, a, block, max(1, min(batch, CHUNK_ELEMENTS // block.size)))
    closer = np.empty((len(q), len(block)), dtype=bool)
    approx = np.empty((batch, len(block)), dtype=np.float32)
    for lo in range(0, len(q), batch):
        out = approx[: min(batch, len(q) - lo)]
        with np.errstate(over="ignore", invalid="ignore"):
            fill(lo, out)
        np.less(out, below[lo : lo + batch], out=closer[lo : lo + batch])
    count = closer @ table.sizes[: len(block)]
    # each known answer in a closer block group is filtered, once per copy
    query, cand_id = known.lookup(keys)
    in_block = table.group[cand_id] < len(block)
    query, kept = query[in_block], table.group[cand_id[in_block]]
    count -= np.bincount(query[closer[query, kept]], minlength=len(q))
    return np.flatnonzero(count < k)


def hits_fraction_for_triples(
    triples: list[Triple],
    ent: np.ndarray,
    rel: np.ndarray,
    norm: str,
    filt: FilterIndex,
    k: int,
) -> float:
    """Filtered entity-prediction Hits@k (the validation metric), equal to
    the one from every query's rank. One ``candidate_table`` of ``ent``
    serves the block (``_undecided``, on at least four times
    ``BLOCK_GROUPS`` copy groups) and both rank calls, which get only the
    queries the block leaves undecided; a call left with none is skipped."""
    if not triples:
        raise ConfigError("no triples for validation metric")
    queries = np.asarray(triples, dtype=np.int64)
    table = candidate_table(ent)
    block = len(table.reps) >= 4 * BLOCK_GROUPS
    hits = 0
    for kind, rank, known in (("tail", rank_tail, filt.tails), ("head", rank_head, filt.heads)):
        q = queries[_undecided(kind, queries, table, rel, norm, known, k)] if block else queries
        if len(q):
            hits += int((rank(q, table, rel, norm, filt, "filter") <= k).sum())
    return hits / (2 * len(triples))


# ---------------------------------------------------------------------------
# classification

def classification_accuracy(
    ent: np.ndarray, params: ModelParams, entities: np.ndarray, labels: np.ndarray
) -> float:
    """Accuracy of argmax class prediction (ties resolve to the lowest index)
    against ``labels`` (-1: no label). Class scores that are not finite raise ``IntegrityError``."""
    if not len(entities):
        raise DatasetError("no entities to classify")
    if "cls_w" not in params:
        raise ConfigError("model has no classifier head")
    truth = labels[entities]
    if (truth < 0).any():
        raise ConfigError(f"entity {entities[truth < 0][0]} has no label")
    with np.errstate(all="ignore"):
        scores = ent[entities] @ params["cls_w"].data + params["cls_b"].data
    if not np.isfinite(scores).all():
        raise IntegrityError("class scores are not finite")
    pred = scores.argmax(axis=1)
    return float((pred == truth).mean())


def evaluate_classification(
    kg: KnowledgeGraph,
    split: DatasetSplit,
    params: ModelParams,
    config: ModelConfig,
) -> dict[str, float | int]:
    """Accuracy over the labeled test entities."""
    if split.labels is None:
        raise DatasetError("dataset has no labels")
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
