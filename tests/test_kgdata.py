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
    GraphView, Interner, KnowledgeGraph, attributes_to_tsv, bundle_checksum, bundle_from_json,
    bundle_to_json, first_occurrences, generate_synthetic_kg, id_tuples, kg_statistics,
    known_triples, labels_to_tsv, pair_keys, parse_attribute_triples, parse_labels,
    parse_relation_triples, relations_to_tsv, split_labeled_entities, split_relation_triples,
    tokenize, triple_rows,
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


def _relation_names(kg, rows) -> list[tuple[str, str, str]]:
    ent, rel = kg.entities.names, kg.relations.names
    return [(ent[h], rel[r], ent[t]) for h, r, t in rows.tolist()]


def test_duplicates_dropped_and_counted():
    kg = KnowledgeGraph()
    kg.add_relation_triples([("a", "r", "b"), ("a", "r", "b"), ("b", "r", "a")])
    assert kg.relation_triples.tolist() == [[0, 0, 1], [1, 0, 0]]
    kg.add_relation_triples([("b", "r", "a")])  # already stored
    kg.add_attribute_triples([("a", "p", "Blue Sky")] * 2)
    assert kg.attribute_triples.tolist() == [[0, 1, 0]]
    kg.add_attribute_triples([("a", "p", "Blue Sky")])
    assert kg.dropped_relation_duplicates == 2
    assert kg.dropped_attribute_duplicates == 2
    assert kg.relation_triples.tolist() == [[0, 0, 1], [1, 0, 0]]
    assert kg.attribute_triples.tolist() == [[0, 1, 0]]
    assert kg.relation_triples.dtype == kg.attribute_triples.dtype == np.int64


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.tuples(*[st.sampled_from("abc")] * 3), max_size=12), max_size=3))
def test_batch_adds_keep_first_occurrences_in_order(batches):
    kg = KnowledgeGraph()
    seen: dict[tuple[str, str, str], None] = {}
    for batch in batches:
        new = [t for t in dict.fromkeys(batch) if t not in seen]
        before = len(kg.relation_triples)
        kg.add_relation_triples(batch)
        assert _relation_names(kg, kg.relation_triples[before:]) == new
        seen.update(dict.fromkeys(new))
    assert _relation_names(kg, kg.relation_triples) == list(seen)
    assert kg.dropped_relation_duplicates == sum(map(len, batches)) - len(seen)
    # names are interned in first-seen order: head, relation, tail of each triple
    first_seen = dict.fromkeys(n for batch in batches for h, _, t in batch for n in (h, t))
    assert kg.entities.names == list(first_seen)


def test_first_occurrences_marks_each_distinct_row_once():
    rows = np.array([[1, 2, 3], [0, 0, 0], [1, 2, 3], [1, 2, 4], [0, 0, 0], [1, 2, 3]])
    assert first_occurrences(rows).tolist() == [True, True, False, True, False, False]
    assert first_occurrences(rows[:0]).shape == (0,)


def test_add_attribute_triple_refuses_literal_without_tokens():
    kg = KnowledgeGraph()
    with pytest.raises(DomainError, match="no tokens") as err:
        kg.add_attribute_triples([("a", "p", "fine"), ("b", "p", "  ")])
    assert isinstance(err.value, KaneError)
    assert kg.num_entities == 0 and kg.num_values == 0  # nothing was interned
    assert kg.attribute_triples.shape == (0, 3)


def test_triple_rows_put_values_after_entities():
    kg = random_kg(np.random.default_rng(3), entities=6, relations=2, triples=10,
                   attribute_relations=2, attribute_triples=5)
    ne = kg.num_entities
    rows = triple_rows(kg, kg.relation_triples, with_attributes=True)
    assert rows.dtype == np.int64
    assert rows.tolist() == kg.relation_triples.tolist() + [
        [h, r, ne + v] for h, r, v in kg.attribute_triples.tolist()
    ]
    first = id_tuples(kg.relation_triples[:3])
    assert all(type(x) is int for t in first for x in t)
    assert triple_rows(kg, first).tolist() == kg.relation_triples[:3].tolist()
    assert triple_rows(kg, []).shape == (0, 3)


def test_known_triples_agree_with_python_set():
    for seed in range(6):
        kg = random_kg(np.random.default_rng(seed), entities=6, relations=3, triples=14,
                       attribute_relations=2, attribute_triples=8)
        ne = kg.num_entities
        want = set(id_tuples(kg.relation_triples)) | {
            (h, r, ne + v) for h, r, v in kg.attribute_triples.tolist()
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
    edges = GraphView.restricted(kg, kg.relation_triples).edges
    of_a = edges.owner == a
    assert edges.relation[of_a].tolist() == [kg.relations.id_of(r) for r in ("r1", "r2", "p")]
    # source rows past the entities are attribute values
    assert (edges.source[of_a] >= kg.num_entities).tolist() == [False, False, True]
    assert edges.source[edges.owner == b][0] == a
    assert edges.owner.size == len(kg.relation_triples) + len(kg.attribute_triples)


def test_neighborhood_completeness_on_random_graphs():
    for seed in range(5):
        kg = random_kg(np.random.default_rng(seed), entities=8, relations=3,
                       triples=20, attribute_relations=2, attribute_triples=8)
        edges = GraphView.restricted(kg, kg.relation_triples).edges
        assert edges.owner.size == len(kg.relation_triples) + len(kg.attribute_triples)


def test_graphview_restricted_drops_heldout_edges_and_optionally_attributes():
    kg = kg_from_name_triples(
        [("a", "r", "b"), ("a", "r", "c"), ("b", "r", "c")],
        [("a", "p", "v")],
    )
    train = id_tuples(kg.relation_triples[:1])
    a = kg.entities.id_of("a")
    b = kg.entities.id_of("b")

    def reads_value(view, e):
        """Per outgoing edge of ``e``, whether it reads an attribute value."""
        return (view.edges.source[view.edges.owner == e] >= kg.num_entities).tolist()

    view = GraphView.restricted(kg, train, True)
    assert reads_value(view, a) == [False, True]
    assert reads_value(view, b) == []
    assert reads_value(GraphView.restricted(kg, train, False), a) == [False]
    assert len(reads_value(GraphView.restricted(kg, kg.relation_triples), a)) == 3


# ---------------------------------------------------------------------------
# parsing


def test_parse_relation_triples_round_trip():
    text = "a\tlikes\tb\n# comment\n\nb\tlikes\tc\na\tknows\tc\n"
    kg = KnowledgeGraph()
    parse_relation_triples(text, kg, "relations.tsv")
    assert kg.relation_triples.tolist() == [[0, 0, 1], [1, 0, 2], [0, 1, 2]]
    again = KnowledgeGraph()
    parse_relation_triples(relations_to_tsv(kg), again)
    assert _relation_names(again, again.relation_triples) == [
        ("a", "likes", "b"), ("b", "likes", "c"), ("a", "knows", "c")
    ]


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
    with pytest.raises(ParseError, match="attrs.tsv:2: attribute literal ' ' has no tokens"):
        parse_attribute_triples('e\tp\tfine\nf\tp\t" "\n', kg, "attrs.tsv")
    # every line is checked before any triple is stored
    assert kg.num_entities == 0 and len(kg.relation_triples) == len(kg.attribute_triples) == 0


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


def assert_split_invariants(rows, train, valid, test):
    triples = id_tuples(rows)
    # partition: disjoint, exhaustive
    assert sorted(train + valid + test) == sorted(triples)
    assert len(set(train) | set(valid) | set(test)) == len(triples)
    # coverage: every held-out entity and relation appears in train
    train_entities = {h for h, _, _ in train} | {t for _, _, t in train}
    train_relations = {r for _, r, _ in train}
    for h, r, t in valid + test:
        assert h in train_entities and t in train_entities
        assert r in train_relations


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
        assert id_tuples(kg.relation_triples[4:5])[0] in train


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
    assert np.bincount(kg.attribute_triples[:, 0]).tolist() == [3] * kg.num_entities
    # labeled split partitions all entities
    assert sorted(split.label_train + split.label_valid + split.label_test) == list(range(50))
    # attribute tokens identify the label cluster: same label -> same value set
    by_label = {}
    values_of = {}
    for h, _, v in kg.attribute_triples.tolist():
        values_of.setdefault(h, set()).add(v)
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
    for h, r, t in kg.relation_triples.tolist():
        tgt = pair_counts.setdefault((label[h], r), {})
        tgt[label[t]] = tgt.get(label[t], 0) + 1
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
    assert set(_relation_names(again, again.relation_triples)) == set(_relation_names(kg, kg.relation_triples))

    def attribute_names(g):
        return {(g.entities.name_of(h), g.values.name_of(v)) for h, _, v in g.attribute_triples.tolist()}

    assert attribute_names(again) == attribute_names(kg)
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
    assert all(type(x) is int for t in split2.test for x in t)
    assert np.array_equal(kg2.relation_triples, kg.relation_triples)
    assert np.array_equal(kg2.attribute_triples, kg.attribute_triples)
    assert kg2.relation_triples.dtype == kg2.attribute_triples.dtype == np.int64
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
    (lambda d: d["relation_triples"][0].__setitem__(1, True), "relation_triples is not a list of rows of 3 ids"),
    (lambda d: d["split"]["test"].__setitem__(0, False), "split test is not a list of ids"),
    (lambda d: d.update(entities="ent_000"), "entities is not a list of strings"),
    (lambda d: d.update(dropped_duplicates=[0]), "dropped_duplicates is not a pair"),
    (lambda d: d["labels"]["by_entity"][2].__setitem__(1, 5), "labels by_entity entry 2 is out of range"),
    (lambda d: d["labels"]["by_entity"][0].__setitem__(0, 50), "labels by_entity entry 0 is out of range"),
    (lambda d: d["labels"]["test"].__setitem__(1, -3), "labels test entry 1 is out of range"),
    (lambda d: d["labels"].pop("classes"), "labels lacks classes"),
    (lambda d: d["values"].__setitem__(2, " "), "value 2 has no tokens"),
    (lambda d: d["entities"].__setitem__(3, d["entities"][1]), "entities entry 3 repeats 'ent_001'"),
    (lambda d: d["relations"].__setitem__(1, d["relations"][0]), "relations entry 1 repeats"),
    (lambda d: d["values"].__setitem__(1, d["values"][0]), "values entry 1 repeats"),
    (lambda d: d["split"]["train"].append(d["split"]["train"][0]), "split lists triple \\d+ more than once"),
    (lambda d: d["split"]["train"].append(d["split"]["test"][0]), "split lists triple \\d+ more than once"),
    (lambda d: d["labels"]["by_entity"].append([7, 0]), "labels by_entity lists entity 7 more than once"),
    (lambda d: d["labels"]["by_entity"].remove([4, 4]), "labels split entity 4 has no label"),
    (lambda d: d.update(dropped_duplicates=[-1, 0]), "dropped_duplicates is not a pair of counts"),
    (lambda d: d["labels"]["train"].append(d["labels"]["test"][0]),
     "labels split lists entity \\d+ more than once"),
]


@pytest.mark.parametrize("edit, message", MALFORMED_BUNDLES, ids=[
    "no-split", "no-valid-split", "test-index", "train-tail", "valid-tail", "short-triple",
    "duplicate-triple", "value-id", "float-id", "bool-id", "bool-index", "entities-string", "dropped-count",
    "class-id", "label-entity", "label-test-entity", "no-classes", "blank-value",
    "duplicate-entity", "duplicate-relation", "duplicate-value", "split-repeat-within",
    "split-repeat-across", "labeled-twice", "split-entity-unlabeled", "negative-dropped-count",
    "label-split-repeat",
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
