"""Ranking metrics: hand-crafted tie/filter cases, brute-force oracle
agreement, metric aggregation, and report rendering."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kane.evaluation as evaluation
import kane.oracle as oracle
from kane.errors import ConfigError, DatasetError, IntegrityError
from kane.evaluation import (
    SETTINGS,
    FilterIndex,
    aggregate_metrics,
    build_filter_index,
    classification_accuracy,
    classification_report_text,
    classification_report_tsv,
    completion_report_text,
    completion_report_tsv,
    entity_matrix,
    evaluate_classification,
    evaluate_completion,
    hits_fraction_for_triples,
    rank_head,
    rank_relation,
    rank_tail,
)
from kane.kgdata import (
    DatasetSplit,
    GraphView,
    KnowledgeGraph,
    KnownAnswers,
    id_tuples,
    pair_keys,
    split_relation_triples,
)
from kane.model import ModelConfig, init_params
from kane.training import TrainConfig, train

from helpers import quantized_ranking_setups, random_kg


# ---------------------------------------------------------------------------
# rank computation on crafted distances


def _index(triples: list[tuple[int, int, int]], entities: int = 4, relations: int = 1):
    """Filter index over the given known (h, r, t) id triples."""
    kg = KnowledgeGraph()
    kg.entities = {f"e{i}": i for i in range(entities)}
    kg.relations = {f"r{i}": i for i in range(relations)}
    kg.add_relation_triples((f"e{h}", f"r{r}", f"e{t}") for h, r, t in triples)
    return build_filter_index(kg)


class TestRankHandCases:
    def _setup(self):
        # 1-d embeddings: distances from head 0 with r=0 are 0, 1, 2, 2
        ent = np.array([[0.0], [1.0], [2.0], [2.0]])
        rel = np.array([[0.0]])
        triple = (0, 0, 2)
        return ent, rel, triple

    def test_raw_rank_counts_strictly_better_only(self):
        ent, rel, triple = self._setup()
        filt = _index([(0, 0, 2)])
        # true tail at distance 2 ties with entity 3; ties do not hurt
        assert rank_tail(triple, ent, rel, "l1", filt, "raw") == 3

    def test_filtered_rank_drops_known_positives(self):
        ent, rel, triple = self._setup()
        filt = _index([(0, 0, 1), (0, 0, 2)])
        assert rank_tail(triple, ent, rel, "l1", filt, "filter") == 2

    def test_true_answer_never_filtered_out(self):
        ent, rel, triple = self._setup()
        filt = _index([(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3)])
        assert rank_tail(triple, ent, rel, "l1", filt, "filter") == 1

    def test_exact_match_ranks_first(self):
        ent = np.array([[0.0, 0.0], [1.0, 2.0], [-3.0, 1.0]])
        rel = np.array([ent[1] - ent[0]])
        triple = (0, 0, 1)
        filt = _index([(0, 0, 1)], entities=3)
        assert rank_tail(triple, ent, rel, "l2", filt, "raw") == 1
        assert rank_head(triple, ent, rel, "l2", filt, "raw") == 1

    def test_unknown_setting_rejected(self):
        ent, rel, triple = self._setup()
        filt = _index([(0, 0, 2)])
        for setting in ("both", ("raw",), ("filter", "raw")):
            with pytest.raises(ConfigError):
                rank_tail(triple, ent, rel, "l1", filt, setting)
        with pytest.raises(ConfigError):
            rank_tail([[0, 0]], ent, rel, "l1", filt, "raw")
        with pytest.raises(ConfigError, match="norm must be one of"):
            rank_tail(triple, ent, rel, "l3", filt, "raw")


# ---------------------------------------------------------------------------
# batched ranking


@pytest.fixture
def sweeps(monkeypatch):
    """Each ``_float32_pass`` call as (queries, the candidate rows it reads,
    queries per float32 sweep)."""
    calls = []
    real = evaluation._float32_pass

    def spy(norm, a, cand, rows):
        calls.append((len(a), cand, rows))
        return real(norm, a, cand, rows)

    monkeypatch.setattr(evaluation, "_float32_pass", spy)
    return calls


def _three_queries_per_sweep(monkeypatch, ent: np.ndarray) -> int:
    """Size the chunks so that a float32 sweep over the distinct entity rows
    holds three queries; returns the number of those rows (copy groups)."""
    groups = len(evaluation.candidate_table(ent).reps)
    monkeypatch.setattr(evaluation, "CHUNK_ELEMENTS", 3 * groups * ent.shape[1])
    return groups


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_batches_match_single_triple_calls(norm, monkeypatch, sweeps):
    """Batches rank as single triples do, with the entities given as their
    bare array and as their ``candidate_table``, and both rank alike."""
    checked = 0
    for kg, ent, rel in quantized_ranking_setups():
        filt = build_filter_index(kg)
        # three entity queries per sweep; n is not a multiple of three, so
        # the last sweep is ragged
        groups = _three_queries_per_sweep(monkeypatch, ent)
        n = len(kg.relation_triples) - (len(kg.relation_triples) % 3 == 0)
        for batch in (kg.relation_triples[:1], kg.relation_triples[:n]):
            for fn in (rank_tail, rank_head, rank_relation):
                bare = fn(np.array(batch), ent, rel, norm, filt, SETTINGS)
                for table in (ent, evaluation.candidate_table(ent)):
                    sweeps.clear()
                    both = fn(np.array(batch), table, rel, norm, filt, SETTINGS)
                    assert both.shape == (len(SETTINGS), len(batch))
                    assert both.tolist() == bare.tolist()
                    [(queries, cand, rows)] = sweeps
                    if fn is not rank_relation:
                        assert (len(cand), rows) == (groups, min(3, len(batch)))
                        assert len(batch) == 1 or (queries > rows and queries % rows)
                    for i, setting in enumerate(SETTINGS):
                        single = [fn(t, table, rel, norm, filt, setting) for t in batch]
                        assert all(type(r) is int for r in single)
                        got = fn(batch, table, rel, norm, filt, setting)
                        assert got.dtype == np.int64 and got.tolist() == single
                        assert both[i].tolist() == single
                        checked += len(batch)
                    assert fn(batch[0], table, rel, norm, filt, SETTINGS).tolist() == both[:, 0].tolist()
    assert checked >= 2000


# ---------------------------------------------------------------------------
# float32 pass and float64 recheck: ranks exactly as the float64 distances


RANKERS = {"tail": rank_tail, "head": rank_head, "relation": rank_relation}


@pytest.mark.parametrize("band", ["bound", "everything", "nothing"])
@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_tie_heavy_ranks_match_oracle_whatever_the_band(norm, band, monkeypatch, sweeps):
    """The rounding bound, a band over every candidate (no float32 result is
    trusted) and a band of zero width (only exact float32 ties are
    rechecked) all give the oracle's ranks: half-integer grids are exact in
    float32, so only the bound's soundness is at stake elsewhere."""
    if band == "everything":
        monkeypatch.setattr(evaluation, "_SAFE32", 0.0)
    elif band == "nothing":
        for name in ("_U32", "_U64", "_ETA32"):
            monkeypatch.setattr(evaluation, name, 0.0)
    checked = ragged = 0
    for kg, ent, rel in quantized_ranking_setups():
        filt = build_filter_index(kg)
        groups = _three_queries_per_sweep(monkeypatch, ent)
        vectors, relations = ent.tolist(), rel.tolist()
        known = id_tuples(kg.relation_triples)
        for kind, fn in RANKERS.items():
            naive = getattr(oracle, f"naive_rank_{kind}")
            sweeps.clear()
            got = fn(kg.relation_triples, ent, rel, norm, filt, SETTINGS)
            [(queries, cand, rows)] = sweeps
            if kind != "relation":
                assert (len(cand), rows) == (groups, 3)
                ragged += queries > rows and queries % rows != 0
            for i, setting in enumerate(SETTINGS):
                want = [naive(tuple(trip), vectors, relations, known, norm, setting)
                        for trip in kg.relation_triples.tolist()]
                assert got[i].tolist() == want, (kind, setting)
                checked += len(want)
    assert checked >= 1000 and ragged >= 10


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_copied_rows_rank_once_and_count_per_copy(norm, sweeps):
    """Every entity row held three times, with each triple's ids moved onto
    random copies: the float32 pass reads each distinct row once, and the
    ranks equal the oracle's, which counts every copy of a better row and
    filters every known copy, several of one better row included."""
    rng = np.random.default_rng(7)
    base = random_kg(rng, entities=6, relations=3, triples=14)
    distinct = rng.standard_normal((6, 4))
    ent = np.repeat(distinct, 3, axis=0)  # entity e's copies are 3e, 3e + 1 and 3e + 2
    rel = rng.standard_normal((3, 4))
    triples = sorted({(3 * h + i, r, 3 * t + k) for h, r, t in base.relation_triples.tolist()
                      for i, k in rng.integers(0, 3, size=(3, 2)).tolist()})
    filt = _index(triples, entities=len(ent), relations=len(rel))
    vectors, relations = ent.tolist(), rel.tolist()
    for kind, fn in RANKERS.items():
        naive = getattr(oracle, f"naive_rank_{kind}")
        sweeps.clear()
        got = fn(triples, ent, rel, norm, filt, SETTINGS)
        [(_, cand, _)] = sweeps
        assert sorted(cand.tolist()) == sorted((rel if kind == "relation" else distinct).tolist())
        for i, setting in enumerate(SETTINGS):
            want = [naive(trip, vectors, relations, triples, norm, setting) for trip in triples]
            assert got[i].tolist() == want, (kind, setting)
            assert [fn(trip, ent, rel, norm, filt, setting) for trip in triples] == want
    # some tail query has two or more known copies of one better row
    most = 0
    for h, r, t in triples:
        d = [oracle.naive_distance(vectors[h], relations[r], vectors[c], norm) for c in range(len(ent))]
        rows = [c // 3 for kh, kr, c in triples if (kh, kr) == (h, r) and d[c] < d[t]]
        most = max([most] + [rows.count(row) for row in rows])
    assert most >= 2


def test_copy_groups_keep_nan_rows_apart():
    mat = np.array([[np.nan, 1.0], [1.0, 1.0], [np.nan, 1.0], [1.0, 1.0]])
    table = evaluation.candidate_table(mat)
    ids, reps = table.group, table.reps
    assert ids[0] != ids[2] and ids[1] == ids[3]
    assert ids[reps].tolist() == list(range(len(reps))) == sorted(set(ids.tolist()))
    assert table.rows is mat and table.sizes.dtype == np.float64
    assert table.sizes[ids].tolist() == [1.0, 2.0, 1.0, 2.0]


def test_copy_groups_join_equal_rows_whose_sum_ties_another_row():
    """Equal rows share one id even when a different row with the same row
    sum lies between them in the input (rows 0 and 2 around row 1, all
    summing to 3), and rows equal up to the sign of a zero share one too."""
    mat = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [0.0, 3.0], [-0.0, 3.0], [2.0, 1.0]])
    table = evaluation.candidate_table(mat)
    ids, reps = table.group, table.reps
    assert ids[0] == ids[2] and ids[1] == ids[5] and ids[3] == ids[4]
    assert len({ids[0], ids[1], ids[3]}) == 3 == len(reps)
    assert ids[reps].tolist() == list(range(len(reps)))
    assert table.sizes.tolist() == [2.0, 2.0, 2.0]


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_candidate_past_float32_range_still_ranks_in_float64(norm):
    """A candidate row beyond float32's largest value (3.4e38) is infinite
    in float32, yet in float64 it is closer than the answer."""
    ent = np.array([[3e38], [0.0], [3.5e38]])  # distances 0, 3e38, 0.5e38 from e_0
    filt = _index([(0, 0, 1)], entities=3)
    assert rank_tail((0, 0, 1), ent, np.zeros((1, 1)), norm, filt, "raw") == 3


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_rows_past_float32_range_rank_without_a_warning(norm):
    """A row whose float32 rounding holds both infinities (so its float32
    sum is NaN) and one whose float64 squares overflow rank as their
    float64 distances do, with no NumPy warning (warnings fail tests)."""
    ent = np.array([[1e39, -1e39], [0.0, 1.0], [2e200, 1.0]])
    filt = _index([(0, 0, 1)], entities=3)
    got = [fn((0, 0, 1), ent, np.zeros((1, 2)), norm, filt, "raw") for fn in RANKERS.values()]
    assert got == [2, 2, 1]


def _float64_differences(kind, queries, ent, rel):
    """Every (query, candidate, coordinate) float64 difference in the
    expression the rankers compute it with, each query's answer, and the
    columns (two key columns, then the answer's) of the known triples."""
    h, r, t = queries.T
    if kind == "tail":
        return (ent[h] + rel[r])[:, None] - ent, t, (0, 1, 2)
    if kind == "head":
        return (ent + rel[r][:, None]) - ent[t][:, None], h, (1, 2, 0)
    return (ent[h][:, None] + rel) - ent[t][:, None], r, (0, 2, 1)


def _float64_ranks(kind, queries, ent, rel, norm, known):
    """(raw, filter) ranks from every float64 distance at once, in the
    expression and summation order the rankers compute them with."""
    diff, answer, cols = _float64_differences(kind, queries, ent, rel)
    dist = np.abs(diff).sum(axis=2) if norm == "l1" else np.sqrt((diff * diff).sum(axis=2))
    better = dist < dist[np.arange(len(queries)), answer][:, None]
    positive = np.zeros_like(better)
    for i, query in enumerate(queries):
        for triple in known:
            if triple[cols[0]] == query[cols[0]] and triple[cols[1]] == query[cols[1]]:
                positive[i, triple[cols[2]]] = True
    return np.stack([1 + better.sum(axis=1), 1 + (better & ~positive).sum(axis=1)])


def _mixed_scale_example(rng, dim):
    """Entity and relation tables whose entries span float32 underflow
    (1e-40), the normal range, ties and float32 overflow (1e200), with
    duplicated rows, and 12 queries over them."""
    entities, relations = int(rng.integers(2, 12)), int(rng.integers(1, 4))

    # one scale for the whole example, or a scale per row
    scales = [1e-40, 1.0, 1e38, 1e200, None]
    scale = scales[int(rng.integers(len(scales)))]

    def table(rows):
        base = 1 + rows // 3
        row_scale = scale or 10.0 ** rng.choice([-40, -20, 0, 20, 38, 200], size=(base, 1))
        grid = rng.integers(-2, 3, size=(base, dim)) / 2.0
        mat = np.where(rng.random((base, dim)) < 0.5, grid, rng.standard_normal((base, dim))) * row_scale
        # the other rows copy a base row or mirror one through another (the
        # same distance away on the other side), exactly or with entries
        # moved by a few float64 or float32 ulps or float32 subnormal steps
        mat = mat[np.concatenate([np.arange(base), rng.integers(0, base, rows - base)])]
        for k in range(base, rows):
            if rng.random() < 0.5:
                mat[k] = 2 * mat[rng.integers(0, base)] - mat[rng.integers(0, base)]
        steps = rng.uniform(-3, 3, size=(rows, dim)) * (rng.random((rows, dim)) < 0.3)
        steps[:base] = 0
        steps[rng.random(rows) < 0.3] = 0
        unit = rng.choice([2.0**-52, 2.0**-23, 0.0], size=(rows, 1)) * np.abs(mat)
        return mat + steps * np.where(unit > 0, unit, 2.0**-149)

    ent, rel = table(entities), table(relations)
    rel[0] *= rng.integers(0, 2)  # a zero relation: the query vector is an entity row
    queries = np.stack([rng.integers(0, entities, 12), rng.integers(0, relations, 12),
                        rng.integers(0, entities, 12)], axis=1)
    return ent, rel, queries


def _mixed_scale_known(rng, queries):
    """A filter index over a random prefix of the queries, distinct triples
    as a graph stores them, and those known triples as an (n, 3) array."""
    h, r, t = np.unique(queries[: int(rng.integers(1, 13))], axis=0).T
    filt = FilterIndex(
        tails=KnownAnswers.from_pairs(pair_keys(h, r), t),
        heads=KnownAnswers.from_pairs(pair_keys(r, t), h),
        relations=KnownAnswers.from_pairs(pair_keys(h, t), r),
    )
    return filt, np.stack([h, r, t], axis=1)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 70), norm=st.sampled_from(["l1", "l2"]))
def test_ranks_equal_float64_ranks_on_mixed_scales(seed, dim, norm):
    """Mixed-scale vectors (``_mixed_scale_example``) rank exactly as their
    float64 distances do."""
    rng = np.random.default_rng(seed)
    ent, rel, queries = _mixed_scale_example(rng, dim)
    entities = len(ent)
    filt, known = _mixed_scale_known(rng, queries)
    ids = evaluation.candidate_table(ent).group
    same = ids[:, None] == ids[None, :]
    assert (ent[np.nonzero(same)[0]] == ent[np.nonzero(same)[1]]).all()
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "CHUNK_ELEMENTS", int(rng.integers(1, 4)) * entities * dim)
        for kind, fn in RANKERS.items():
            got = fn(queries, ent, rel, norm, filt, SETTINGS)
            assert got.tolist() == _float64_ranks(kind, queries, ent, rel, norm, known).tolist(), kind


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 70), norm=st.sampled_from(["l1", "l2"]))
def test_float32_distances_lie_within_the_bound(seed, dim, norm):
    """On mixed-scale vectors, every float32 distance of the approximate
    pass (l2's squared) lies within its query's bound of the float64 one
    in the rankers' expression, for every (query, candidate) pair of each
    query the bound covers; the bound covers every query whose vectors stay
    well inside float32's range."""
    rng = np.random.default_rng(seed)
    ent, rel, queries = _mixed_scale_example(rng, dim)
    for kind in RANKERS:
        with np.errstate(all="ignore"):
            _, _, cand, parts, a = evaluation._operands(kind, queries, ent, rel)
            err = evaluation._bound(norm, parts, cand)
            diff, _, _ = _float64_differences(kind, queries, ent, rel)
            exact = np.abs(diff).sum(axis=2) if norm == "l1" else (diff * diff).sum(axis=2)
            approx = np.empty(exact.shape, dtype=np.float32)
            fill = evaluation._float32_pass(norm, a, cand, rows=int(rng.integers(1, 4)))
            # two calls, so a pass that starts past query 0 is covered too
            half = int(rng.integers(0, len(queries) + 1))
            fill(0, approx[:half])
            fill(half, approx[half:])
        covered = np.isfinite(err)
        small = max(np.abs(ent).max(), np.abs(rel).max()) < 1e10
        assert covered.all() or not small, kind
        gap = np.abs(approx[covered].astype(np.float64) - exact[covered])
        assert (gap <= err[covered, None]).all(), (kind, (gap / err[covered, None]).max())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 70), norm=st.sampled_from(["l1", "l2"]))
def test_block_decides_only_misses_on_mixed_scales(seed, dim, norm):
    """On mixed-scale vectors, whose rows copy, mirror or sit a few ulps
    from each other, a block of one copy group decides only queries whose
    float64 filtered rank is above k, for k = 1, 2 and 3."""
    rng = np.random.default_rng(seed)
    ent, rel, queries = _mixed_scale_example(rng, dim)
    filt, known = _mixed_scale_known(rng, queries)
    table = evaluation.candidate_table(ent)
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "BLOCK_GROUPS", 1)
        for kind, answers in (("tail", filt.tails), ("head", filt.heads)):
            ranks = _float64_ranks(kind, queries, ent, rel, norm, known)[1]
            for k in (1, 2, 3):
                undecided = evaluation._undecided(kind, queries, table, rel, norm, answers, k)
                decided = np.setdiff1d(np.arange(len(queries)), undecided)
                assert (ranks[decided] > k).all(), (kind, k)


def test_aggregate_metrics_hand_case():
    mean, hits = aggregate_metrics([1, 2, 11], k=10)
    assert mean == pytest.approx(14.0 / 3.0)
    assert hits == pytest.approx(2.0 / 3.0)
    with pytest.raises(ConfigError):
        aggregate_metrics([], k=10)


# ---------------------------------------------------------------------------
# brute-force oracle agreement and filter dominance


def _random_setup(seed: int):
    rng = np.random.default_rng(seed)
    kg = random_kg(rng, entities=int(rng.integers(4, 9)), relations=3, triples=16)
    ent = rng.standard_normal((kg.num_entities, 4))
    rel = rng.standard_normal((kg.num_relations, 4))
    return kg, ent, rel


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_ranks_match_brute_force_oracle(norm):
    checked = 0
    for seed in range(6):
        kg, ent, rel = _random_setup(seed)
        filt = build_filter_index(kg)
        vectors = [list(map(float, row)) for row in ent]
        relations = [list(map(float, row)) for row in rel]
        known = id_tuples(kg.relation_triples)
        for trip in kg.relation_triples:
            tup = tuple(trip.tolist())
            for setting in ("raw", "filter"):
                assert rank_tail(trip, ent, rel, norm, filt, setting) == \
                    oracle.naive_rank_tail(tup, vectors, relations, known, norm, setting)
                assert rank_head(trip, ent, rel, norm, filt, setting) == \
                    oracle.naive_rank_head(tup, vectors, relations, known, norm, setting)
                assert rank_relation(trip, ent, rel, norm, filt, setting) == \
                    oracle.naive_rank_relation(tup, vectors, relations, known, norm, setting)
                checked += 3
    assert checked >= 300


def test_filtered_rank_never_exceeds_raw():
    for seed in range(8):
        kg, ent, rel = _random_setup(seed)
        filt = build_filter_index(kg)
        for trip in kg.relation_triples:
            for fn in (rank_tail, rank_head, rank_relation):
                raw = fn(trip, ent, rel, "l1", filt, "raw")
                filtered = fn(trip, ent, rel, "l1", filt, "filter")
                assert filtered <= raw
                assert filtered >= 1


# ---------------------------------------------------------------------------
# evaluate_completion / hits fraction


def _trained_toy(task="completion", seed=0):
    kg = random_kg(np.random.default_rng(seed), entities=8, relations=2, triples=24)
    train_t, valid_t, test_t = split_relation_triples(
        kg.relation_triples, np.random.default_rng(seed + 1)
    )
    split = DatasetSplit(train=train_t, valid=valid_t, test=test_t)
    model = ModelConfig(dim=6, head_dim=6, heads=1, layers=1)
    config = TrainConfig(model=model, task=task, epochs=2, batch_size=4,
                         negatives=2, val_every=0, seed=seed)
    if task == "classification":
        split.labels = np.arange(kg.num_entities) % 2
        split.class_names = ["c0", "c1"]
        split.label_train = np.arange(6)
        split.label_test = np.array([6, 7])
    params, _ = train(kg, split, config)
    return kg, split, params, model


class TestEvaluateCompletion:
    def test_report_structure_and_bounds(self):
        kg, split, params, model = _trained_toy()
        reports = evaluate_completion(kg, split, params, model)
        ent = reports["entity_prediction"]
        rel = reports["relation_prediction"]
        assert ent.hits_k == 10 and rel.hits_k == 1
        assert ent.queries == 2 * len(split.test)
        assert rel.queries == len(split.test)
        assert ent.candidates == kg.num_entities
        assert rel.candidates == kg.num_relations
        for rep in (ent, rel):
            assert rep.mean_rank_filtered <= rep.mean_rank_raw
            assert rep.hits_filtered >= rep.hits_raw
            assert 1.0 <= rep.mean_rank_raw <= rep.candidates
            assert 0.0 <= rep.hits_raw <= 1.0

    def test_report_aggregates_single_triple_ranks(self):
        kg, split, params, model = _trained_toy()
        reports = evaluate_completion(kg, split, params, model)
        view = GraphView.restricted(kg, split.train, model.use_attributes)
        ent = entity_matrix(view, params, model)
        args = (ent, params.relation.data, model.norm, build_filter_index(kg))
        ent_rep, rel_rep = reports["entity_prediction"], reports["relation_prediction"]
        for setting in SETTINGS:
            entity = [fn(t, *args, setting) for t in split.test for fn in (rank_tail, rank_head)]
            relation = [rank_relation(t, *args, setting) for t in split.test]
            if setting == "raw":
                assert aggregate_metrics(entity, 10) == (ent_rep.mean_rank_raw, ent_rep.hits_raw)
                assert aggregate_metrics(relation, 1) == (rel_rep.mean_rank_raw, rel_rep.hits_raw)
            else:
                assert aggregate_metrics(entity, 10) == (ent_rep.mean_rank_filtered, ent_rep.hits_filtered)
                assert aggregate_metrics(relation, 1) == (rel_rep.mean_rank_filtered, rel_rep.hits_filtered)

    def test_no_test_triples_rejected(self):
        kg, split, params, model = _trained_toy()
        split = DatasetSplit(train=split.train, valid=[], test=[])
        with pytest.raises(ConfigError):
            evaluate_completion(kg, split, params, model)

    def test_hits_fraction_matches_manual_ranks(self):
        kg, split, params, model = _trained_toy()
        view = GraphView.restricted(kg, split.train, model.use_attributes)
        ent = entity_matrix(view, params, model)
        filt = build_filter_index(kg)
        triples = split.test
        got = hits_fraction_for_triples(triples, ent, params.relation.data, model.norm, filt, k=3)
        hits = 0
        for trip in triples:
            hits += rank_tail(trip, ent, params.relation.data, model.norm, filt, "filter") <= 3
            hits += rank_head(trip, ent, params.relation.data, model.norm, filt, "filter") <= 3
        assert got == pytest.approx(hits / (2 * len(triples)))
        with pytest.raises(ConfigError):
            hits_fraction_for_triples([], ent, params.relation.data, model.norm, filt, k=3)


@pytest.fixture
def ranked(monkeypatch):
    """The queries that reach the full ranking: one (kind, number of
    queries) per ``rank_tail``/``rank_head`` call."""
    calls = []
    for kind in ("tail", "head"):
        real = getattr(evaluation, f"rank_{kind}")

        def spy(queries, *args, kind=kind, real=real):
            calls.append((kind, len(queries)))
            return real(queries, *args)

        monkeypatch.setattr(evaluation, f"rank_{kind}", spy)
    return calls


def _oracle_hits(triples, ent, rel, known, norm, k) -> float:
    vectors, relations = ent.tolist(), rel.tolist()
    hits = sum(getattr(oracle, f"naive_rank_{kind}")(trip, vectors, relations, known, norm, "filter") <= k
               for trip in triples for kind in ("tail", "head"))
    return hits / (2 * len(triples))


def _known_copies_in_the_block(block: int):
    """(triples, entity vectors, relation vectors) on a 4 x 5 integer grid
    whose first copy group (always in the block) is held by three entities,
    0, 20 and 21. The tail query (1, 0, t) has e_1 + r_0 on that row, the
    answer t one step from it, and all three copies as known tails: they
    are the only rows closer than t, so its filtered rank is 1, while the
    block holds three closer members."""
    grid = np.array([(i, j) for i in range(4) for j in range(5)], dtype=float)
    first = evaluation.candidate_table(grid).reps[0]
    grid[[0, first]] = grid[[first, 0]]  # entity 0 holds the first group's row
    ent = np.concatenate([grid, grid[[0, 0]]])
    t = next(c for c in range(1, len(grid)) if np.abs(grid[c] - grid[0]).sum() == 1)
    rel = np.array([grid[0] - grid[1], [1.0, 0.0]])
    triples = [(1, 0, t), (1, 0, 0), (1, 0, 20), (1, 0, 21), (2, 1, 3), (4, 1, 7), (5, 0, 9)]
    table = evaluation.candidate_table(ent)
    assert table.group[[0, 20, 21]].tolist() == [0, 0, 0] and table.sizes[0] == 3.0
    assert len(table.reps) >= 4 * block
    return triples, ent, rel


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_validation_hits_equal_the_oracle_with_a_small_block(norm, monkeypatch, ranked):
    """With a block of 2 or 3 copy groups, the tie-heavy quantized graphs
    decide some queries as misses early, and the validation metric equals
    the filtered hits@k of ``kane.oracle``'s naive ranks for k = 1, 3 and
    10. Also on a grid whose first copy group holds three known copies of a
    row closer than the answer (a hit only once they are filtered), and
    with one entity row past float32's range, where the bound is infinite
    and every query falls through to the full ranking."""
    decided = 0
    for block in (2, 3):  # the quantized graphs hold 4-13 groups
        monkeypatch.setattr(evaluation, "BLOCK_GROUPS", block)
        setups = []
        for kg, ent, rel in quantized_ranking_setups():
            triples = id_tuples(kg.relation_triples)
            setups.append((triples, ent, rel, build_filter_index(kg), "quantized"))
        big = next((trip, ent.copy(), rel, filt) for trip, ent, rel, filt, _ in setups
                   if len(evaluation.candidate_table(ent).reps) >= 4 * block)
        big[1][-1] = [1e39, 0.0]
        setups.append((*big, "huge"))
        triples, ent, rel = _known_copies_in_the_block(block)
        setups.append((triples, ent, rel, _index(triples, entities=len(ent), relations=len(rel)), "copies"))
        for triples, ent, rel, filt, what in setups:
            for k in (1, 3, 10):
                ranked.clear()
                got = hits_fraction_for_triples(triples, ent, rel, norm, filt, k)
                assert got == _oracle_hits(triples, ent, rel, triples, norm, k), (what, block, k)
                queries = sum(n for _, n in ranked)
                if what == "huge":
                    assert ranked == [("tail", len(triples)), ("head", len(triples))]
                elif what == "copies":
                    assert ("tail", 0) not in ranked and ranked[0][0] == "tail"
                decided += 2 * len(triples) - queries
    assert decided >= 100


@pytest.mark.parametrize("norm", ["l1", "l2"])
@pytest.mark.parametrize("answers", ["far", "nearest"])
def test_validation_ranks_only_the_undecided_queries(norm, answers, monkeypatch, ranked):
    """49 rows on a 7 x 7 integer grid about the origin and 8 far rows +-p.
    With ``far`` answers each triple is (-p, r = p, +p): every other row c
    is at ||c|| from the query, the answer at ||p||, so all grid rows are
    strictly closer, those in the block among them, and not one query
    reaches the full ranking. With ``nearest`` answers r = e_t - e_h puts
    every answer at distance 0 in both directions, so every query is
    ranked."""
    monkeypatch.setattr(evaluation, "BLOCK_GROUPS", 4)
    k = 2
    far = np.array([(100.0, 0.0), (0.0, 100.0), (100.0, 100.0), (100.0, -100.0)])
    grid = np.array([(i, j) for i in range(-3, 4) for j in range(-3, 4)], dtype=float)
    ent = np.concatenate([grid, far, -far])
    plus, minus = np.arange(len(grid), len(grid) + 4), np.arange(len(grid) + 4, len(ent))
    if answers == "far":
        triples = [(int(h), i, int(t)) for i, (h, t) in enumerate(zip(minus, plus))]
        rel = far.copy()
        reps = evaluation.candidate_table(ent).reps
        assert (reps[:4] < len(grid)).sum() >= k  # block rows on the grid, none of them known
    else:
        pairs = np.random.default_rng(5).choice(len(ent), size=(12, 2), replace=True)
        triples = [(int(h), i, int(t)) for i, (h, t) in enumerate(pairs) if h != t]
        rel = np.array([ent[t] - ent[h] for h, _, t in triples])
    filt = _index(triples, entities=len(ent), relations=len(rel))
    got = hits_fraction_for_triples(triples, ent, rel, norm, filt, k)
    assert got == _oracle_hits(triples, ent, rel, triples, norm, k) == (0.0 if answers == "far" else 1.0)
    assert ranked == ([] if answers == "far" else [("tail", len(triples)), ("head", len(triples))])


@pytest.fixture
def byte_sorts(monkeypatch):
    """The rows of each table sorted by its rows' bytes (the copy groups):
    one entry per ``np.argsort`` call over a whole-row (void) dtype."""
    calls = []
    real = np.argsort

    def spy(a, *args, **kwargs):
        if np.asarray(a).dtype.kind == "V":
            calls.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    return calls


@pytest.mark.parametrize("entities", [50, 300])
def test_one_candidate_table_per_validation_and_per_eval(entities, byte_sorts, ranked):
    """``hits_fraction_for_triples`` sorts its entity table once, for its
    block (300 distinct rows, at least four times ``BLOCK_GROUPS``) or
    without one (50) and both rank calls; ``evaluate_completion`` sorts
    the entity table once for its three rank calls, and the relation table
    once for its relation ranking."""
    rng = np.random.default_rng(entities)
    kg = random_kg(rng, entities=entities, relations=3, triples=2 * entities)
    ent, rel = rng.standard_normal((entities, 4)), rng.standard_normal((3, 4))
    hits_fraction_for_triples(id_tuples(kg.relation_triples), ent, rel, "l1", build_filter_index(kg), 10)
    assert byte_sorts == [entities]
    assert [kind for kind, _ in ranked] == ["tail", "head"]

    kg, split, params, model = _trained_toy()
    byte_sorts.clear()
    evaluate_completion(kg, split, params, model)
    assert byte_sorts == [kg.num_entities, kg.num_relations] and kg.num_entities != kg.num_relations


# ---------------------------------------------------------------------------
# classification metrics


class TestClassification:
    def _params_with_identity_head(self):
        model = ModelConfig(dim=2, head_dim=2, heads=1, layers=0)
        params = init_params(4, 1, 0, 2, model, np.random.default_rng(0))
        params["cls_w"].data = np.eye(2)
        params["cls_b"].data = np.zeros(2)
        return params

    def test_accuracy_hand_case(self):
        params = self._params_with_identity_head()
        ent = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 0.0]])
        labels = np.array([0, 0, 1])
        acc = classification_accuracy(ent, params, np.arange(3), labels)
        assert acc == pytest.approx(1.0 / 3.0)

    def test_tie_resolves_to_lowest_class_index(self):
        params = self._params_with_identity_head()
        ent = np.array([[1.0, 1.0]])
        assert classification_accuracy(ent, params, np.array([0]), np.array([0])) == 1.0
        assert classification_accuracy(ent, params, np.array([0]), np.array([1])) == 0.0

    def test_errors(self):
        params = self._params_with_identity_head()
        ent = np.zeros((2, 2))
        labels = np.array([0, -1])  # entity 1 has no label
        with pytest.raises(ConfigError):
            classification_accuracy(ent, params, np.array([], dtype=np.int64), labels)
        with pytest.raises(ConfigError, match="^entity 1 has no label$"):
            classification_accuracy(ent, params, np.array([1]), labels)
        bare = init_params(2, 1, 0, 0, ModelConfig(dim=2, head_dim=2, heads=1, layers=0),
                           np.random.default_rng(1))
        with pytest.raises(ConfigError):
            classification_accuracy(ent, bare, np.array([0]), labels)

    def test_scores_that_overflow_raise_integrity_error(self):
        """Finite vectors times a huge head overflow to infinite scores:
        they are refused, not ranked, and warn nothing."""
        params = self._params_with_identity_head()
        params["cls_w"].data = np.array([[1e308, -1e308], [1e308, -1e308]])
        ent = np.array([[2.0, 2.0]])
        with pytest.raises(IntegrityError, match="class scores are not finite"):
            classification_accuracy(ent, params, np.array([0]), np.array([0]))

    def test_evaluate_classification_output(self):
        kg, split, params, model = _trained_toy(task="classification")
        result = evaluate_classification(kg, split, params, model)
        assert set(result) == {"accuracy", "entities", "classes"}
        assert result["entities"] == 2 and result["classes"] == 2
        assert 0.0 <= result["accuracy"] <= 1.0

    def test_evaluate_classification_needs_labels(self):
        kg, split, params, model = _trained_toy()
        with pytest.raises(DatasetError, match="^dataset has no labels$"):
            evaluate_classification(kg, split, params, model)


# ---------------------------------------------------------------------------
# report rendering


def test_completion_reports_render_and_flag_translation_mode():
    kg, split, params, model = _trained_toy()
    reports = evaluate_completion(kg, split, params, model)
    text = completion_report_text(reports, model)
    assert "entity_prediction" in text and "relation_prediction" in text
    assert "transe-mode" not in text
    tsv = completion_report_tsv(reports, model)
    lines = tsv.strip().split("\n")
    assert lines[0] == "task\tsetting\tmetric\tvalue"
    assert len(lines) == 1 + 8
    for line in lines[1:]:
        task, setting, metric, value = line.split("\t")
        assert float(value) >= 0.0

    degenerate = ModelConfig(dim=6, head_dim=6, heads=1, layers=0, use_attributes=False)
    assert "transe-mode" in completion_report_text(reports, degenerate)
    assert "transe-mode" in completion_report_tsv(reports, degenerate)


def test_classification_reports_render():
    kg, split, params, model = _trained_toy(task="classification")
    result = evaluate_classification(kg, split, params, model)
    text = classification_report_text(result, model)
    assert "accuracy" in text and "transe-mode" not in text
    tsv = classification_report_tsv(result, model)
    lines = tsv.strip().split("\n")
    assert lines[0] == "task\tsetting\tmetric\tvalue"
    acc_line = [l for l in lines if "accuracy" in l][0]
    assert float(acc_line.split("\t")[-1]) == pytest.approx(result["accuracy"])
    degenerate = ModelConfig(layers=0, use_attributes=False)
    assert "transe-mode" in classification_report_tsv(result, degenerate)
