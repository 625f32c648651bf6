"""Parsing, interning, splits, synthesis and bundle round-trips."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kane.errors import ConfigError, DomainError, IntegrityError, KaneError, ParseError
from kane.kgdata import (
    AttributeTriple, GraphView, Interner, KnowledgeGraph, RelationTriple,
    attributes_to_tsv, bundle_checksum, bundle_from_json, bundle_to_json, generate_synthetic_kg,
    kg_statistics, known_triples, labels_to_tsv, pair_keys, parse_attribute_triples, parse_labels,
    parse_relation_triples, relations_to_tsv, split_labeled_entities,
    split_relation_triples, tokenize, triple_rows,
)

from helpers import kg_from_name_triples, random_kg


# ---------------------------------------------------------------------------
# interning and tokenization


def test_interner_is_dense_first_seen_bijection():
    it = Interner()
    assert [it.intern(s) for s in ["b", "a", "b", "c", "a"]] == [0, 1, 0, 2, 1]
    assert it.names == ["b", "a", "c"]
    for i, name in enumerate(it.names):
        assert it.id_of(name) == i and it.name_of(i) == name
    assert "a" in it and "z" not in it and len(it) == 3


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(min_size=1), max_size=30))
def test_interner_round_trip_property(names):
    it = Interner()
    ids = [it.intern(n) for n in names]
    assert max(ids, default=-1) + 1 == len(it)  # dense
    for n, i in zip(names, ids):
        assert it.id_of(n) == i and it.name_of(i) == n


def test_tokenize_lowercases_and_keeps_punctuation():
    assert tokenize("June 14, 1946") == ["june", "14,", "1946"]
    assert tokenize("  spaced\tout\nwords ") == ["spaced", "out", "words"]
    assert tokenize("") == []


# ---------------------------------------------------------------------------
# graph construction, deduplication, neighborhood


def test_duplicates_dropped_and_counted():
    kg = KnowledgeGraph()
    assert kg.add_relation_triple("a", "r", "b") is not None
    assert kg.add_relation_triple("a", "r", "b") is None
    assert kg.add_attribute_triple("a", "p", "Blue Sky") is not None
    assert kg.add_attribute_triple("a", "p", "Blue Sky") is None
    assert kg.dropped_relation_duplicates == 1
    assert kg.dropped_attribute_duplicates == 1
    assert len(kg.relation_triples) == 1 and len(kg.attribute_triples) == 1


def test_add_attribute_triple_refuses_literal_without_tokens():
    kg = KnowledgeGraph()
    with pytest.raises(DomainError, match="no tokens") as err:
        kg.add_attribute_triple("a", "p", "  ")
    assert isinstance(err.value, KaneError)
    assert kg.num_entities == 0 and kg.num_values == 0  # nothing was interned


def test_triple_rows_put_values_after_entities():
    kg = random_kg(np.random.default_rng(3), entities=6, relations=2, triples=10,
                   attribute_relations=2, attribute_triples=5)
    ne = kg.num_entities
    rows = triple_rows(kg, kg.relation_triples, with_attributes=True)
    assert rows.dtype == np.int64
    assert [tuple(r) for r in rows.tolist()] == [tuple(t) for t in kg.relation_triples] + [
        (a.head, a.relation, ne + a.value) for a in kg.attribute_triples
    ]
    assert triple_rows(kg, kg.relation_triples[:3]).tolist() == [list(t) for t in kg.relation_triples[:3]]
    assert triple_rows(kg, []).shape == (0, 3)


def test_known_triples_agree_with_python_set():
    for seed in range(6):
        kg = random_kg(np.random.default_rng(seed), entities=6, relations=3, triples=14,
                       attribute_relations=2, attribute_triples=8)
        ne = kg.num_entities
        want = {tuple(t) for t in kg.relation_triples} | {
            (a.head, a.relation, ne + a.value) for a in kg.attribute_triples
        }
        grid = np.array(list(itertools.product(
            range(ne), range(kg.num_relations), range(ne + kg.num_values)
        )))
        hit = known_triples(kg).contains(pair_keys(grid[:, 0], grid[:, 1]), grid[:, 2])
        assert {tuple(r) for r in grid[hit].tolist()} == want


def test_neighborhood_lists_relations_then_attributes_in_load_order():
    kg = kg_from_name_triples(
        [("a", "r1", "b"), ("a", "r2", "c"), ("b", "r1", "a")],
        [("a", "p", "x y"), ("b", "p", "z")],
    )
    a, b = kg.entities.id_of("a"), kg.entities.id_of("b")
    neighborhood = GraphView.restricted(kg, kg.relation_triples).neighborhood
    nb_a = neighborhood[a]
    assert [(n.relation, n.is_attribute) for n in nb_a] == [
        (kg.relations.id_of("r1"), False),
        (kg.relations.id_of("r2"), False),
        (kg.relations.id_of("p"), True),
    ]
    assert neighborhood[b][0].target == a
    total = sum(len(lst) for lst in neighborhood)
    assert total == len(kg.relation_triples) + len(kg.attribute_triples)


def test_neighborhood_completeness_on_random_graphs():
    for seed in range(5):
        kg = random_kg(np.random.default_rng(seed), entities=8, relations=3,
                       triples=20, attribute_relations=2, attribute_triples=8)
        total = sum(len(lst) for lst in GraphView.restricted(kg, kg.relation_triples).neighborhood)
        assert total == len(kg.relation_triples) + len(kg.attribute_triples)


def test_graphview_restricted_drops_heldout_edges_and_optionally_attributes():
    kg = kg_from_name_triples(
        [("a", "r", "b"), ("a", "r", "c"), ("b", "r", "c")],
        [("a", "p", "v")],
    )
    train = [kg.relation_triples[0]]
    view = GraphView.restricted(kg, train, True)
    a = kg.entities.id_of("a")
    b = kg.entities.id_of("b")
    assert [n.is_attribute for n in view.neighborhood[a]] == [False, True]
    assert view.neighborhood[b] == []
    bare = GraphView.restricted(kg, train, False)
    assert [n.is_attribute for n in bare.neighborhood[a]] == [False]
    full = GraphView.restricted(kg, kg.relation_triples)
    assert len(full.neighborhood[a]) == 3


# ---------------------------------------------------------------------------
# parsing


def test_parse_relation_triples_round_trip():
    text = "a\tlikes\tb\n# comment\n\nb\tlikes\tc\na\tknows\tc\n"
    kg = KnowledgeGraph()
    trips = parse_relation_triples(text, kg, "relations.tsv")
    assert len(trips) == 3
    again = KnowledgeGraph()
    parse_relation_triples(relations_to_tsv(kg), again)
    assert [
        (again.entities.name_of(t.head), again.relations.name_of(t.relation),
         again.entities.name_of(t.tail))
        for t in again.relation_triples
    ] == [("a", "likes", "b"), ("b", "likes", "c"), ("a", "knows", "c")]


def test_parse_attribute_triples_quotes_and_tokens():
    kg = KnowledgeGraph()
    parse_attribute_triples('e\tborn\t"June 14, 1946"\nf\tcolor\tDeep Blue\n', kg)
    assert kg.values.names == ["June 14, 1946", "Deep Blue"]
    assert [kg.words.name_of(w) for w in kg.value_tokens[0]] == ["june", "14,", "1946"]
    tsv = attributes_to_tsv(kg)
    again = KnowledgeGraph()
    parse_attribute_triples(tsv, again)
    assert again.values.names == kg.values.names


def test_parse_errors_name_source_and_line():
    kg = KnowledgeGraph()
    with pytest.raises(ParseError) as err:
        parse_relation_triples("a\tb\n", kg, "bad.tsv")
    assert "bad.tsv:1" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_relation_triples("ok\tr\tt\nx\t\ty\n", kg, "bad.tsv")
    assert "bad.tsv:2" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_attribute_triples('e\tp\t""\n', kg, "attrs.tsv")
    assert "attrs.tsv:1" in str(err.value)


def test_parse_labels_validation():
    kg = kg_from_name_triples([("a", "r", "b")])
    labels, classes = parse_labels("a\tcat\nb\tdog\n", kg)
    assert classes == ["cat", "dog"]
    assert labels == {kg.entities.id_of("a"): 0, kg.entities.id_of("b"): 1}
    with pytest.raises(ParseError, match="unknown entity"):
        parse_labels("zzz\tcat\n", kg)
    with pytest.raises(ParseError, match="duplicate label"):
        parse_labels("a\tcat\na\tdog\n", kg)
    tsv = labels_to_tsv(kg, labels, classes)
    labels2, classes2 = parse_labels(tsv, kg)
    assert labels2 == labels and classes2 == classes


# ---------------------------------------------------------------------------
# splits


def assert_split_invariants(triples, train, valid, test):
    # partition: disjoint, exhaustive
    assert sorted(train + valid + test) == sorted(triples)
    assert len(set(train) | set(valid) | set(test)) == len(triples)
    # coverage: every held-out entity and relation appears in train
    train_entities = {t.head for t in train} | {t.tail for t in train}
    train_relations = {t.relation for t in train}
    for t in valid + test:
        assert t.head in train_entities and t.tail in train_entities
        assert t.relation in train_relations


def test_split_relation_triples_invariants_hold_on_random_graphs():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        kg = random_kg(rng, entities=10, relations=3, triples=40)
        train, valid, test = split_relation_triples(kg.relation_triples, rng, 0.1, 0.1)
        assert_split_invariants(kg.relation_triples, train, valid, test)


def test_split_relation_triples_is_seeded():
    kg = random_kg(np.random.default_rng(0), entities=10, relations=3, triples=40)
    a = split_relation_triples(kg.relation_triples, np.random.default_rng(42), 0.1, 0.1)
    b = split_relation_triples(kg.relation_triples, np.random.default_rng(42), 0.1, 0.1)
    assert a == b


def test_split_never_orphans_a_single_occurrence():
    # the only r2 triple and the only edges touching "c" must stay in train
    kg = kg_from_name_triples(
        [("a", "r1", "b"), ("b", "r1", "a"), ("a", "r1", "b2"), ("b2", "r1", "a"),
         ("a", "r2", "c")]
    )
    for seed in range(20):
        train, valid, test = split_relation_triples(
            kg.relation_triples, np.random.default_rng(seed), 0.2, 0.2
        )
        assert kg.relation_triples[4] in train


def test_split_labeled_entities_stratified():
    labels = {i: i % 3 for i in range(30)}
    train, valid, test = split_labeled_entities(labels, 3, np.random.default_rng(0))
    assert sorted(train + valid + test) == sorted(labels)
    for part in (train, valid, test):
        counts = [sum(1 for e in part if labels[e] == c) for c in range(3)]
        assert max(counts) - min(counts) <= 1  # stratified within one entity
    # every class keeps at least one training entity even in tiny classes
    tiny = {0: 0, 1: 1, 2: 2}
    tr, va, te = split_labeled_entities(tiny, 3, np.random.default_rng(1))
    assert sorted(tr) == [0, 1, 2] and va == [] and te == []


# ---------------------------------------------------------------------------
# synthetic generator


def test_generator_is_deterministic_and_labeled():
    kg1, split1 = generate_synthetic_kg(7)
    kg2, split2 = generate_synthetic_kg(7)
    assert bundle_to_json(kg1, split1) == bundle_to_json(kg2, split2)
    kg3, _ = generate_synthetic_kg(8)
    assert bundle_to_json(kg1, split1) != bundle_to_json(kg3, _)
    assert kg1.num_entities == 50
    assert split1.class_count == 5
    assert sorted(split1.labels) == list(range(50))
    assert set(split1.labels.values()) == set(range(5))


def test_generator_split_and_attribute_conventions():
    kg, split = generate_synthetic_kg(0)
    assert_split_invariants(kg.relation_triples, split.train, split.valid, split.test)
    # every entity carries one attribute triple per attribute relation
    per_entity = {}
    for a in kg.attribute_triples:
        per_entity[a.head] = per_entity.get(a.head, 0) + 1
    assert all(per_entity.get(e, 0) == 3 for e in range(kg.num_entities))
    # labeled split partitions all entities
    assert sorted(split.label_train + split.label_valid + split.label_test) == list(range(50))
    # attribute tokens identify the label cluster: same label -> same value set
    by_label = {}
    values_of = {}
    for a in kg.attribute_triples:
        values_of.setdefault(a.head, set()).add(a.value)
    for e, lab in split.labels.items():
        by_label.setdefault(lab, []).append(values_of[e])
    for group in by_label.values():
        assert all(vals == group[0] for vals in group)


def test_generator_relation_identity_matches_cluster_pair():
    kg, split = generate_synthetic_kg(3)
    label = split.labels
    # tail cluster is (head cluster + relation displacement) except for the
    # ~10% decoy heads whose outgoing edges follow a shifted cluster's rule
    pair_counts: dict[tuple[int, int], dict[int, int]] = {}
    for t in kg.relation_triples:
        key = (label[t.head], t.relation)
        tgt = pair_counts.setdefault(key, {})
        tgt[label[t.tail]] = tgt.get(label[t.tail], 0) + 1
    modal = sum(max(c.values()) for c in pair_counts.values())
    assert modal >= 0.85 * len(kg.relation_triples)
    # each relation's modal mapping is one fixed displacement along the chain;
    # pairs with fewer than 5 triples may be pure decoy artifacts and are skipped
    for r in range(5):
        displacements = {
            max(tgt, key=tgt.get) - c
            for (c, rel), tgt in pair_counts.items()
            if rel == r and sum(tgt.values()) >= 5
        }
        assert len(displacements) == 1 and displacements.pop() > 0


def test_generator_validates_arguments():
    with pytest.raises(ConfigError):
        generate_synthetic_kg(0, entities=3, clusters=5)
    with pytest.raises(ConfigError):
        generate_synthetic_kg(0, clusters=1)
    with pytest.raises(ConfigError):
        generate_synthetic_kg(0, edge_prob=0.0)
    with pytest.raises(ConfigError):
        generate_synthetic_kg(0, decoy_fraction=1.0)


def test_kg_statistics_counts():
    kg, _ = generate_synthetic_kg(0)
    stats = kg_statistics(kg)
    assert stats["entities"] == 50
    assert stats["relations"] == 5
    assert stats["attributes"] == 3
    assert stats["relation_triples"] == len(kg.relation_triples)
    assert stats["attribute_triples"] == len(kg.attribute_triples)
    assert stats["total_triples"] == stats["relation_triples"] + stats["attribute_triples"]


# ---------------------------------------------------------------------------
# TSV and bundle round-trips


def test_full_tsv_round_trip_reproduces_graph():
    kg, split = generate_synthetic_kg(1, entities=20, relations=3, clusters=4)
    again = KnowledgeGraph()
    parse_relation_triples(relations_to_tsv(kg), again)
    parse_attribute_triples(attributes_to_tsv(kg), again)
    labels, classes = parse_labels(labels_to_tsv(kg, split.labels, split.class_names), again)
    assert again.entities.names[: kg.num_entities] == kg.entities.names or set(
        again.entities.names
    ) == set(kg.entities.names)
    assert {
        (again.entities.name_of(t.head), again.relations.name_of(t.relation),
         again.entities.name_of(t.tail))
        for t in again.relation_triples
    } == {
        (kg.entities.name_of(t.head), kg.relations.name_of(t.relation),
         kg.entities.name_of(t.tail))
        for t in kg.relation_triples
    }
    assert {
        (again.entities.name_of(a.head), again.values.name_of(a.value))
        for a in again.attribute_triples
    } == {
        (kg.entities.name_of(a.head), kg.values.name_of(a.value))
        for a in kg.attribute_triples
    }
    assert {again.entities.name_of(e): classes[c] for e, c in labels.items()} == {
        kg.entities.name_of(e): split.class_names[c] for e, c in split.labels.items()
    }


def test_bundle_round_trip_is_bit_exact():
    kg, split = generate_synthetic_kg(5)
    blob = bundle_to_json(kg, split)
    kg2, split2, checksum = bundle_from_json(blob)
    assert bundle_to_json(kg2, split2) == blob
    assert checksum in blob
    assert split2.train == split.train
    assert split2.labels == split.labels
    assert kg2.value_tokens == kg.value_tokens


def test_bundle_checksum_detects_tampering():
    kg, split = generate_synthetic_kg(5)
    blob = bundle_to_json(kg, split)
    tampered = blob.replace("ent_000", "ent_XXX", 1)
    with pytest.raises(IntegrityError, match="checksum"):
        bundle_from_json(tampered)
    with pytest.raises(IntegrityError):
        bundle_from_json("{}")
    with pytest.raises(IntegrityError):
        bundle_from_json("not json")


def _edited_bundle(edit) -> str:
    """A valid bundle with ``edit`` applied to its data and the checksum
    recomputed, so only the schema checks can refuse it."""
    kg, split = generate_synthetic_kg(5)
    doc = json.loads(bundle_to_json(kg, split))
    edit(doc["data"])
    doc["checksum"] = bundle_checksum(doc["data"])
    return json.dumps(doc)


def _set_tail(data, part, tail):
    data["relation_triples"][data["split"][part][0]][2] = tail


MALFORMED_BUNDLES = [
    (lambda d: d.pop("split"), "data lacks split"),
    (lambda d: d["split"].pop("valid"), "split lacks valid"),
    (lambda d: d["split"]["test"].__setitem__(0, 99999), "split test entry 0 is out of range"),
    (lambda d: _set_tail(d, "train", -1), "relation_triples entry \\d+ is out of range"),
    (lambda d: _set_tail(d, "valid", 9999), "relation_triples entry \\d+ is out of range"),
    (lambda d: d["relation_triples"][0].pop(), "relation_triples is not a list of rows of 3 ids"),
    (lambda d: d["relation_triples"].append(d["relation_triples"][0]), "lists a triple twice"),
    (lambda d: d["attribute_triples"][3].__setitem__(2, len(d["values"])),
     "attribute_triples entry 3 is out of range"),
    (lambda d: d["attribute_triples"][0].__setitem__(1, 0.5), "attribute_triples is not a list"),
    (lambda d: d.update(entities="ent_000"), "entities is not a list of strings"),
    (lambda d: d.update(dropped_duplicates=[0]), "dropped_duplicates is not a pair"),
    (lambda d: d["labels"]["by_entity"][2].__setitem__(1, 5), "labels by_entity entry 2 is out of range"),
    (lambda d: d["labels"]["by_entity"][0].__setitem__(0, 50), "labels by_entity entry 0 is out of range"),
    (lambda d: d["labels"]["test"].__setitem__(1, -3), "labels test entry 1 is out of range"),
    (lambda d: d["labels"].pop("classes"), "labels lacks classes"),
    (lambda d: d["values"].__setitem__(2, " "), "value 2 has no tokens"),
]


@pytest.mark.parametrize("edit, message", MALFORMED_BUNDLES, ids=[
    "no-split", "no-valid-split", "test-index", "train-tail", "valid-tail", "short-triple",
    "duplicate-triple", "value-id", "float-id", "entities-string", "dropped-count",
    "class-id", "label-entity", "label-test-entity", "no-classes", "blank-value",
])
def test_malformed_bundle_names_source_and_problem(edit, message):
    with pytest.raises(IntegrityError, match=f"^data/b.json: bundle .*{message}"):
        bundle_from_json(_edited_bundle(edit), "data/b.json")


def test_bundle_without_data_rejected():
    kg, split = generate_synthetic_kg(5)
    doc = json.loads(bundle_to_json(kg, split))
    del doc["data"]
    with pytest.raises(IntegrityError, match="b.json: not a kane-bundle-v1 bundle"):
        bundle_from_json(json.dumps(doc), "b.json")
