"""Ranking metrics: hand-crafted tie/filter cases, brute-force oracle
agreement, metric aggregation, and report rendering."""

from __future__ import annotations

import numpy as np
import pytest

import kane.evaluation as evaluation
import kane.oracle as oracle
from kane.errors import ConfigError
from kane.evaluation import (
    SETTINGS,
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
    RelationTriple,
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
    for i in range(entities):
        kg.entities.intern(f"e{i}")
    for i in range(relations):
        kg.relations.intern(f"r{i}")
    for h, r, t in triples:
        kg.add_relation_triple(f"e{h}", f"r{r}", f"e{t}")
    return build_filter_index(kg)


class TestRankHandCases:
    def _setup(self):
        # 1-d embeddings: distances from head 0 with r=0 are 0, 1, 2, 2
        ent = np.array([[0.0], [1.0], [2.0], [2.0]])
        rel = np.array([[0.0]])
        triple = RelationTriple(head=0, relation=0, tail=2)
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
        triple = RelationTriple(0, 0, 1)
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


# ---------------------------------------------------------------------------
# batched ranking


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_batches_match_single_triple_calls(norm, monkeypatch):
    checked = 0
    for kg, ent, rel in quantized_ranking_setups():
        filt = build_filter_index(kg)
        # three entity queries per chunk; n is not a multiple of three
        monkeypatch.setattr(evaluation, "CHUNK_ELEMENTS", 3 * ent.size)
        n = len(kg.relation_triples) - (len(kg.relation_triples) % 3 == 0)
        for batch in (kg.relation_triples[:1], kg.relation_triples[:n]):
            for fn in (rank_tail, rank_head, rank_relation):
                both = fn(np.array(batch), ent, rel, norm, filt, SETTINGS)
                assert both.shape == (len(SETTINGS), len(batch))
                for i, setting in enumerate(SETTINGS):
                    single = [fn(t, ent, rel, norm, filt, setting) for t in batch]
                    assert all(type(r) is int for r in single)
                    got = fn(batch, ent, rel, norm, filt, setting)
                    assert got.dtype == np.int64 and got.tolist() == single
                    assert both[i].tolist() == single
                    checked += len(batch)
                assert fn(batch[0], ent, rel, norm, filt, SETTINGS).tolist() == both[:, 0].tolist()
    assert checked >= 1000


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
        known = [(t.head, t.relation, t.tail) for t in kg.relation_triples]
        for trip in kg.relation_triples:
            tup = (trip.head, trip.relation, trip.tail)
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
        list(kg.relation_triples), np.random.default_rng(seed + 1)
    )
    split = DatasetSplit(train=train_t, valid=valid_t, test=test_t)
    model = ModelConfig(dim=6, head_dim=6, heads=1, layers=1)
    config = TrainConfig(model=model, task=task, epochs=2, batch_size=4,
                         negatives=2, val_every=0, seed=seed)
    if task == "classification":
        split.labels = {e: e % 2 for e in range(kg.num_entities)}
        split.class_count = 2
        split.label_train = list(range(6))
        split.label_test = [6, 7]
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


# ---------------------------------------------------------------------------
# classification metrics


class TestClassification:
    def _params_with_identity_head(self):
        model = ModelConfig(dim=2, head_dim=2, heads=1, layers=0)
        params = init_params(4, 1, 0, 2, model, np.random.default_rng(0))
        params.cls_w.data = np.eye(2)
        params.cls_b.data = np.zeros(2)
        return params

    def test_accuracy_hand_case(self):
        params = self._params_with_identity_head()
        ent = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 0.0]])
        labels = {0: 0, 1: 0, 2: 1}
        acc = classification_accuracy(ent, params, [0, 1, 2], labels)
        assert acc == pytest.approx(1.0 / 3.0)

    def test_tie_resolves_to_lowest_class_index(self):
        params = self._params_with_identity_head()
        ent = np.array([[1.0, 1.0]])
        assert classification_accuracy(ent, params, [0], {0: 0}) == 1.0
        assert classification_accuracy(ent, params, [0], {0: 1}) == 0.0

    def test_errors(self):
        params = self._params_with_identity_head()
        ent = np.zeros((2, 2))
        with pytest.raises(ConfigError):
            classification_accuracy(ent, params, [], {0: 0})
        with pytest.raises(ConfigError):
            classification_accuracy(ent, params, [1], {0: 0})
        bare = init_params(2, 1, 0, 0, ModelConfig(dim=2, head_dim=2, heads=1, layers=0),
                           np.random.default_rng(1))
        with pytest.raises(ConfigError):
            classification_accuracy(ent, bare, [0], {0: 0})

    def test_evaluate_classification_output(self):
        kg, split, params, model = _trained_toy(task="classification")
        result = evaluate_classification(kg, split, params, model)
        assert set(result) == {"accuracy", "entities", "classes"}
        assert result["entities"] == 2 and result["classes"] == 2
        assert 0.0 <= result["accuracy"] <= 1.0

    def test_evaluate_classification_needs_labels(self):
        kg, split, params, model = _trained_toy()
        with pytest.raises(ConfigError):
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
