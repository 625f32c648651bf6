"""Parsing, name ids, splits, synthesis and bundle round-trips."""

from __future__ import annotations

import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kane.kgdata as kgdata
from kane.errors import ConfigError, DomainError, IntegrityError, KaneError, ParseError
from kane.kgdata import (
    GraphView, KnowledgeGraph, KnownAnswers, attributes_to_tsv, bundle_checksum,
    bundle_from_json, bundle_to_json, first_occurrences, generate_synthetic_kg, id_tuples,
    kg_statistics, known_triples, labels_to_tsv, pair_keys, parse_attribute_triples, parse_labels,
    parse_relation_triples, relations_to_tsv, split_labeled_entities, split_relation_triples,
    tokenize, triple_rows,
)

from helpers import (
    UNPARSEABLE_JSON, contains_by_lookup, edited_bundle, kg_from_name_triples, pack_ids, random_kg, unpack_fields,
    unpack_ids,
)


# ---------------------------------------------------------------------------
# name ids and tokenization


def test_names_take_dense_first_seen_ids():
    kg = KnowledgeGraph()
    kg.add_relation_triples([("b", "r", "a"), ("b", "q", "c"), ("a", "r", "b")])
    kg.add_attribute_triples([("c", "p", "Blue sky"), ("a", "s", "blue Sky"), ("b", "p", "Blue sky")])
    assert kg.entities == {"b": 0, "a": 1, "c": 2}
    assert kg.relations == {"r": 0, "q": 1, "p": 2, "s": 3}
    assert kg.values == {"Blue sky": 0, "blue Sky": 1}
    assert kg.words == {"blue": 0, "sky": 1}
    assert kg.value_tokens == [[0, 1], [0, 1]]
    assert list(kg.entities) == ["b", "a", "c"] and kg.num_entities == 3
    assert (kg.num_relations, kg.num_values, kg.vocab_size) == (4, 2, 2)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(min_size=1), min_size=1, max_size=30))
def test_name_ids_round_trip_property(names):
    kg = KnowledgeGraph()
    kg.add_relation_triples(zip(names, names[1:] + names[:1], names))
    for table, column in ((kg.entities, 0), (kg.relations, 1), (kg.entities, 2)):
        assert sorted(table.values()) == list(range(len(table)))  # dense
        listed = list(table)
        for name, i in table.items():
            assert listed[i] == name
        for row in kg.relation_triples.tolist():
            assert row[column] == table[listed[row[column]]]


def test_tokenize_lowercases_and_keeps_punctuation():
    assert tokenize("June 14, 1946") == ["june", "14,", "1946"]
    assert tokenize("  spaced\tout\nwords ") == ["spaced", "out", "words"]
    assert tokenize("") == []


# ---------------------------------------------------------------------------
# graph construction, deduplication, neighborhood


def _relation_names(kg, rows) -> list[tuple[str, str, str]]:
    ent, rel = list(kg.entities), list(kg.relations)
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
    # names take ids in first-seen order: head, relation, tail of each triple
    first_seen = dict.fromkeys(n for batch in batches for h, _, t in batch for n in (h, t))
    assert list(kg.entities) == list(first_seen)
    assert kg.entities == {name: i for i, name in enumerate(first_seen)}


def test_first_occurrences_marks_each_distinct_row_once():
    rows = np.array([[1, 2, 3], [0, 0, 0], [1, 2, 3], [1, 2, 4], [0, 0, 0], [1, 2, 3]])
    assert first_occurrences(rows).tolist() == [True, True, False, True, False, False]
    assert first_occurrences(rows[:0]).shape == (0,)


def test_first_occurrences_match_a_set_with_codes_and_without():
    """Small non-negative ids take one int64 code per row, even from int32
    rows whose codes pass int32; negative ids and ids whose code would pass
    int64 take the three-column sort. Either marks the rows a set has not
    seen yet."""
    rng = np.random.default_rng(7)
    for low, high, dtype in ((0, 4, np.int64), (0, 2000, np.int32), (-2, 3, np.int64), (0, 2**40, np.int64)):
        for n in (1, 2, 30):
            rows = rng.integers(low, high, size=(n, 3)).astype(dtype)
            rows[n // 2:] = rows[:n - n // 2]  # repeats
            seen, want = set(), []
            for row in map(tuple, rows.tolist()):
                want.append(row not in seen)
                seen.add(row)
            assert first_occurrences(rows).tolist() == want


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
    """``contains`` answers every (head, relation, target) of a grid wider
    than the graph, absent keys and answers above every stored answer
    included, as a Python set and the lookup-based reference do."""
    for seed in range(6):
        kg = random_kg(np.random.default_rng(seed), entities=6, relations=3, triples=14,
                       attribute_relations=2, attribute_triples=8)
        ne = kg.num_entities
        want = set(id_tuples(kg.relation_triples)) | {
            (h, r, ne + v) for h, r, v in kg.attribute_triples.tolist()
        }
        known = known_triples(kg)
        assert (np.bincount(np.unique(known.keys, return_inverse=True)[1]) > 1).any()  # several answers
        grid = np.array(list(itertools.product(
            range(ne + 2), range(kg.num_relations + 2), range(ne + kg.num_values + 3)
        )))
        keys = pair_keys(grid[:, 0], grid[:, 1])
        hit = known.contains(keys, grid[:, 2])
        assert {tuple(r) for r in grid[hit].tolist()} == want
        assert np.array_equal(hit, contains_by_lookup(known, keys, grid[:, 2]))
    empty = KnownAnswers.from_pairs(keys[:0], grid[:0, 2])
    assert not empty.contains(keys, grid[:, 2]).any()


def test_known_answers_contains_at_the_id_limits():
    """Negative ids and ids past the stored widths are unknown, and every
    answer of a key with several is known, both with small ids and with ids
    near 2**31, whose pair codes would overflow int64 and are answered
    through ``lookup``."""
    for big in (0, 2**31 - 10):
        h, r = np.array([big + 2, big, big + 2, big + 2]), np.array([1, 0, 1, 3])
        a = np.array([big + 5, big, big + 1, big + 5])
        known = KnownAnswers.from_pairs(pair_keys(h, r), a)
        queries = [  # (head, relation, answer, known)
            (big + 2, 1, big + 5, True), (big + 2, 1, big + 1, True), (big + 2, 1, big + 2, False),
            (big, 0, big, True), (big, 2, big, False), (big + 9, 1, big + 5, False),
            (big + 2, 3, big + 6, False), (big + 2, 0, big + 5, False), (-1, 0, big, False), (big, 0, -1, False),
            # these two would share the code of (big + 2, 1, big + 5) if not masked
            (big + 1, 5, big + 5, False), (big + 2, 0, 2 * big + 11, False),
        ]
        qh, qr, qa, want = (np.array(column) for column in zip(*queries))
        assert np.array_equal(known.contains(pair_keys(qh, qr), qa), want)
        assert np.array_equal(contains_by_lookup(known, pair_keys(qh, qr), qa), want)


def test_neighborhood_lists_relations_then_attributes_in_load_order():
    kg = kg_from_name_triples(
        [("a", "r1", "b"), ("a", "r2", "c"), ("b", "r1", "a")],
        [("a", "p", "x y"), ("b", "p", "z")],
    )
    a, b = kg.entities["a"], kg.entities["b"]
    edges = GraphView.restricted(kg, kg.relation_triples).edges
    of_a = edges.owner == a
    assert edges.relation[of_a].tolist() == [kg.relations[r] for r in ("r1", "r2", "p")]
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
    a = kg.entities["a"]
    b = kg.entities["b"]

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
    assert list(kg.values) == ["June 14, 1946", "Deep Blue"]
    assert [list(kg.words)[w] for w in kg.value_tokens[0]] == ["june", "14,", "1946"]
    tsv = attributes_to_tsv(kg)
    again = KnowledgeGraph()
    parse_attribute_triples(tsv, again)
    assert again.values == kg.values


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
    kg = kg_from_name_triples([("a", "r", "b"), ("b", "r", "c")])
    labels, classes = parse_labels("a\tcat\nb\tdog\n", kg)
    assert classes == ["cat", "dog"]
    assert labels.dtype == np.int64
    assert labels.tolist() == [0, 1, -1]  # c has no label
    with pytest.raises(ParseError, match="unknown entity"):
        parse_labels("zzz\tcat\n", kg)
    with pytest.raises(ParseError, match="duplicate label"):
        parse_labels("a\tcat\na\tdog\n", kg)
    tsv = labels_to_tsv(kg, labels, classes)
    assert tsv == "a\tcat\nb\tdog\n"
    labels2, classes2 = parse_labels(tsv, kg)
    assert np.array_equal(labels2, labels) and classes2 == classes


def test_tsv_writers_refuse_a_name_that_would_read_as_a_comment():
    """A line that begins with ``#`` parses as a comment, so a writer whose
    line would begin with an entity named ``#ent_000`` raises a
    ``KaneError`` naming it instead of losing the triple or label."""
    kg, split = generate_synthetic_kg(0, entities=10)
    assert split.labels[0] >= 0 and (kg.relation_triples[:, 0] == 0).any()
    assert (kg.attribute_triples[:, 0] == 0).any()
    kg.entities = {("#ent_000" if i == 0 else name): i for name, i in kg.entities.items()}
    writers = (lambda: relations_to_tsv(kg), lambda: attributes_to_tsv(kg),
               lambda: labels_to_tsv(kg, split.labels, split.class_names))
    for write in writers:
        with pytest.raises(KaneError, match="'#ent_000' begins with '#'"):
            write()
    # a name that no line starts with is written, and read back
    tail_only = kg_from_name_triples([("a", "r", "#b")])
    again = KnowledgeGraph()
    parse_relation_triples(relations_to_tsv(tail_only), again)
    assert list(again.entities) == ["a", "#b"]


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
    labels = np.arange(30) % 3
    train, valid, test = split_labeled_entities(labels, 3, np.random.default_rng(0))
    assert sorted(np.concatenate([train, valid, test]).tolist()) == list(range(30))
    for part in (train, valid, test):
        assert part.dtype == np.int64 and part.tolist() == sorted(part.tolist())
        counts = np.bincount(labels[part], minlength=3)
        assert max(counts) - min(counts) <= 1  # stratified within one entity
    # every class keeps at least one training entity even in tiny classes
    tiny = np.array([0, 1, 2])
    tr, va, te = split_labeled_entities(tiny, 3, np.random.default_rng(1))
    assert tr.tolist() == [0, 1, 2] and va.tolist() == [] and te.tolist() == []
    # an entity without a label (-1) is in no part
    partial = np.array([0, -1, 0, 1, -1, 1])
    parts = split_labeled_entities(partial, 2, np.random.default_rng(2))
    assert sorted(np.concatenate(parts).tolist()) == [0, 2, 3, 5]


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
    assert split1.labels.dtype == np.int64
    assert np.array_equal(split1.labels, np.arange(50) % 5)


def test_generator_split_and_attribute_conventions():
    kg, split = generate_synthetic_kg(0)
    assert_split_invariants(kg.relation_triples, split.train, split.valid, split.test)
    # every entity carries one attribute triple per attribute relation
    assert np.bincount(kg.attribute_triples[:, 0]).tolist() == [3] * kg.num_entities
    # labeled split partitions all entities
    assert sorted(np.concatenate([split.label_train, split.label_valid, split.label_test]).tolist()) == list(range(50))
    # attribute tokens identify the label cluster: same label -> same value set
    by_label = {}
    values_of = {}
    for h, _, v in kg.attribute_triples.tolist():
        values_of.setdefault(h, set()).add(v)
    for e, lab in enumerate(split.labels.tolist()):
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
    assert list(again.entities)[: kg.num_entities] == list(kg.entities) or set(again.entities) == set(kg.entities)
    assert set(_relation_names(again, again.relation_triples)) == set(_relation_names(kg, kg.relation_triples))

    def attribute_names(g):
        ent, val = list(g.entities), list(g.values)
        return {(ent[h], val[v]) for h, _, v in g.attribute_triples.tolist()}

    assert attribute_names(again) == attribute_names(kg)
    assert {name: classes[c] for name, c in zip(again.entities, labels.tolist())} == {
        name: split.class_names[c] for name, c in zip(kg.entities, split.labels.tolist())
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
    assert np.array_equal(split2.labels, split.labels)
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


def _written_bundle(data: dict) -> str:
    """``data`` with its checksum, in the layout ``bundle_to_json`` writes."""
    doc = {"format": "kane-bundle-v2", "checksum": bundle_checksum(data), "data": data}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_written_bundle_is_verified_without_serializing_it_again(monkeypatch):
    kg, split = generate_synthetic_kg(5)
    blob = bundle_to_json(kg, split)
    assert _written_bundle(json.loads(blob)["data"]) == blob

    def refuse(data):
        raise AssertionError("bundle_checksum called")

    monkeypatch.setattr(kgdata, "bundle_checksum", refuse)
    for text in (blob, blob.rstrip("\n")):
        kg2, split2, checksum = bundle_from_json(text)
        assert checksum == json.loads(blob)["checksum"]
        assert np.array_equal(kg2.relation_triples, kg.relation_triples)
        assert split2.train == split.train and np.array_equal(split2.labels, split.labels)


def test_reindented_bundle_loads_with_its_stored_checksum():
    kg, split = generate_synthetic_kg(5)
    blob = bundle_to_json(kg, split)
    kg2, split2, checksum = bundle_from_json(json.dumps(json.loads(blob), indent=1), "b.json")
    assert checksum == json.loads(blob)["checksum"]
    assert bundle_to_json(kg2, split2) == blob


def test_changed_character_in_written_bundle_is_a_checksum_mismatch():
    kg, split = generate_synthetic_kg(5)
    blob = bundle_to_json(kg, split)
    at = blob.index('"relation_triples":"') + len('"relation_triples":"')
    char = "B" if blob[at] == "A" else "A"
    with pytest.raises(IntegrityError, match="^data/b.json: bundle checksum mismatch"):
        bundle_from_json(blob[:at] + char + blob[at + 1 :], "data/b.json")


def test_packed_fields_hold_little_endian_int32_rows():
    kg, split = generate_synthetic_kg(5)
    data = json.loads(bundle_to_json(kg, split))["data"]
    assert unpack_ids(data["relation_triples"], 3) == kg.relation_triples.tolist()
    assert unpack_ids(data["attribute_triples"], 3) == kg.attribute_triples.tolist()
    index = {t: i for i, t in enumerate(id_tuples(kg.relation_triples))}
    for part in ("train", "valid", "test"):
        assert unpack_ids(data["split"][part], 1) == [index[t] for t in getattr(split, part)]
    assert unpack_ids(data["labels"]["by_entity"], 2) == [[e, c] for e, c in enumerate(split.labels.tolist()) if c >= 0]
    assert unpack_ids(data["labels"]["test"], 1) == split.label_test.tolist()
    assert data["labels"]["classes"] == split.class_names


def test_id_list_refused_in_the_written_layout():
    kg, split = generate_synthetic_kg(5)
    data = json.loads(bundle_to_json(kg, split))["data"]
    data["relation_triples"] = unpack_ids(data["relation_triples"], 3)
    with pytest.raises(IntegrityError, match="^b.json: bundle relation_triples is not a packed string of rows of 3 ids"):
        bundle_from_json(_written_bundle(data), "b.json")


def test_entities_named_true_and_false_load():
    kg, split = generate_synthetic_kg(5)
    data = json.loads(bundle_to_json(kg, split))["data"]
    data["entities"][:2] = ["true", "false"]
    kg2, _, _ = bundle_from_json(_written_bundle(data))
    assert list(kg2.entities)[:2] == ["true", "false"]
    assert np.array_equal(kg2.relation_triples, kg.relation_triples)


@pytest.mark.parametrize("layout", ["written", "indented"])
def test_retired_v1_bundle_is_refused_with_a_hint(layout):
    kg, split = generate_synthetic_kg(5)
    data = unpack_fields(json.loads(bundle_to_json(kg, split))["data"])
    doc = {"format": "kane-bundle-v1", "checksum": bundle_checksum(data), "data": data}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) if layout == "written" else json.dumps(doc, indent=1)
    message = "^data/b.json: bundle is in the retired kane-bundle-v1 format; re-run `kane prepare`"
    with pytest.raises(IntegrityError, match=message):
        bundle_from_json(text, "data/b.json")
    with pytest.raises(IntegrityError, match=message):  # a bare header: no checksum is checked first
        bundle_from_json('{"checksum":"0","data":{},"format":"kane-bundle-v1"}', "data/b.json")


def test_writer_refuses_ids_past_int32():
    kg, split = generate_synthetic_kg(5)
    kg.attribute_triples = kg.attribute_triples.copy()
    kg.attribute_triples[4, 2] = 2**31
    with pytest.raises(DomainError, match="^bundle attribute_triples holds id 2147483648"):
        bundle_to_json(kg, split)
    kg.attribute_triples[4, 2] = 2**31 - 1  # the largest id a bundle stores
    blob = bundle_to_json(kg, split)
    assert unpack_ids(json.loads(blob)["data"]["attribute_triples"], 3)[4][2] == 2**31 - 1


def test_writer_refuses_a_split_triple_the_graph_does_not_hold():
    kg, split = generate_synthetic_kg(5)
    h, r, t = split.test[0]
    split.test[0] = (h, r, kg.num_entities)
    with pytest.raises(DomainError, match="split lists a triple the graph does not hold"):
        bundle_to_json(kg, split)


def _assert_same_split(loaded, split, num_entities):
    """``loaded`` holds the relation parts of ``split`` as int tuples, and
    its labels and label parts as equal int64 arrays: the labels one entry
    per entity, -1 exactly where ``split`` has none."""
    for part in ("train", "valid", "test"):
        assert getattr(loaded, part) == getattr(split, part)
        assert all(type(x) is int for t in getattr(loaded, part) for x in t)
    assert loaded.class_names == split.class_names
    assert loaded.labels.dtype == np.int64 and loaded.labels.shape == (num_entities,)
    assert np.array_equal(np.flatnonzero(loaded.labels < 0), np.flatnonzero(split.labels < 0))
    assert np.array_equal(loaded.labels, split.labels)
    for part in ("label_train", "label_valid", "label_test"):
        assert getattr(loaded, part).dtype == np.int64
        assert np.array_equal(getattr(loaded, part), getattr(split, part))


@pytest.mark.parametrize("entities", [50, 500])
@pytest.mark.parametrize("seed", range(5))
def test_loaded_bundle_equals_the_generated_graph_and_split(seed, entities):
    kg, split = generate_synthetic_kg(seed, entities=entities)
    kg2, split2, _ = bundle_from_json(bundle_to_json(kg, split))
    for table in ("entities", "relations", "values", "words"):
        names = getattr(kg, table)
        assert getattr(kg2, table) == names
        assert list(getattr(kg2, table).values()) == list(range(len(names)))
        assert list(getattr(kg2, table)) == list(names)
    for rows in ("relation_triples", "attribute_triples"):
        assert getattr(kg2, rows).dtype == np.int64
        assert np.array_equal(getattr(kg2, rows), getattr(kg, rows))
    assert kg2.value_tokens == kg.value_tokens
    assert (kg2.dropped_relation_duplicates, kg2.dropped_attribute_duplicates) == (
        kg.dropped_relation_duplicates, kg.dropped_attribute_duplicates)
    _assert_same_split(split2, split, kg.num_entities)
    # the test part's entities lose their labels: -1 exactly there after a load
    split.labels = split.labels.copy()
    split.labels[split.label_test] = -1
    split.label_test = split.label_test[:0]
    _, split3, _ = bundle_from_json(bundle_to_json(kg, split))
    _assert_same_split(split3, split, kg.num_entities)


def test_empty_id_fields_round_trip():
    kg = kg_from_name_triples([("a", "r", "b")])
    split = kgdata.DatasetSplit(id_tuples(kg.relation_triples), [], [], labels=np.full(2, -1), class_names=["c"])
    blob = bundle_to_json(kg, split)
    data = json.loads(blob)["data"]
    assert data["attribute_triples"] == data["split"]["test"] == data["labels"]["by_entity"] == ""
    kg2, split2, _ = bundle_from_json(blob)
    assert kg2.attribute_triples.shape == (0, 3)
    _assert_same_split(split2, split, kg.num_entities)


def test_bundle_load_peaks_below_ten_times_its_text():
    # a loader that builds nested JSON id lists peaks near 17 times the text
    kg, split = generate_synthetic_kg(0, entities=500)
    text = bundle_to_json(kg, split)
    tracemalloc.start()
    try:
        bundle_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * len(text)


def _edited_bundle(edit) -> str:
    """A valid bundle with ``edit`` applied to its data, id fields as JSON
    lists, and the checksum recomputed."""
    kg, split = generate_synthetic_kg(5)
    return edited_bundle(bundle_to_json(kg, split), edit)


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
    (lambda d: d["split"].__setitem__("test", True), "split test is not a packed string of ids"),
    (lambda d: d["attribute_triples"][0].__setitem__(1, 0.5),
     "attribute_triples is not a packed string of rows of 3 ids"),
    (lambda d: d.update(relation_triples="AAAA!AAA"), "relation_triples is not valid base64"),
    (lambda d: d["labels"].update(by_entity="AAAA\u00e9AAA"), "labels by_entity is not valid base64"),
    (lambda d: d["split"].update(train="AAAAAAAA"),
     "split train is not a list of ids: 6 bytes is not a multiple of 4"),
    (lambda d: d["labels"].update(by_entity=pack_ids([0, 0, 1])),
     "labels by_entity is not a list of rows of 2 ids: 12 bytes is not a multiple of 8"),
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
    (lambda d: d["entities"].__setitem__(0, "ent\n000"),
     r"entities entry 0 is 'ent\\n000', which a TSV field cannot hold"),
    (lambda d: d["relations"].__setitem__(1, "rel\t1"),
     r"relations entry 1 is 'rel\\t1', which a TSV field cannot hold"),
    (lambda d: d["values"].__setitem__(2, "line\u2028separator"),
     r"values entry 2 is 'line\\u2028separator', which a TSV field cannot hold"),
    (lambda d: d["labels"]["classes"].__setitem__(0, ""), "label classes entry 0 is '', which a TSV field cannot hold"),
]


@pytest.mark.parametrize("edit, message", MALFORMED_BUNDLES, ids=[
    "no-split", "no-valid-split", "test-index", "train-tail", "valid-tail", "short-triple",
    "duplicate-triple", "value-id", "packed-not-string", "packed-unpacked-list", "packed-bad-char",
    "packed-non-ascii", "packed-partial-id", "packed-partial-row", "entities-string", "dropped-count",
    "class-id", "label-entity", "label-test-entity", "no-classes", "blank-value",
    "duplicate-entity", "duplicate-relation", "duplicate-value", "split-repeat-within",
    "split-repeat-across", "labeled-twice", "split-entity-unlabeled", "negative-dropped-count",
    "label-split-repeat", "entity-line-break", "relation-tab", "value-line-separator", "class-empty",
])
def test_malformed_bundle_names_source_and_problem(edit, message):
    with pytest.raises(IntegrityError, match=f"^data/b.json: bundle .*{message}"):
        bundle_from_json(_edited_bundle(edit), "data/b.json")


@pytest.mark.parametrize("layout", ["written", "bare"])
@pytest.mark.parametrize("kind", sorted(UNPARSEABLE_JSON))
def test_json_the_parser_cannot_read_is_an_integrity_error(kind, layout):
    """Nesting past the recursion limit, or an integer past Python's digit
    limit, as a bare document, or as the data span of the written layout
    with a matching checksum, which the fast path parses first."""
    text = span = UNPARSEABLE_JSON[kind]
    if layout == "written":
        checksum = hashlib.sha256(span.encode("utf-8")).hexdigest()
        text = f'{{"checksum":"{checksum}","data":{span},"format":"kane-bundle-v2"}}\n'
        assert kgdata._WRITTEN.fullmatch(text)
    with pytest.raises(IntegrityError, match="^data/b.json: bundle JSON cannot be parsed: "):
        bundle_from_json(text, "data/b.json")


# every character str.splitlines breaks a line at: the last of each piece
# but the final one, when the pieces are cut from a string of every character
LINE_BREAKS = "".join(piece[-1] for piece in "".join(map(chr, range(0x110000))).splitlines(True)[:-1])


def test_each_name_list_refuses_exactly_what_a_tsv_field_cannot_hold():
    """An entity, relation, value or class name that holds a tab or a line
    break is refused; one that holds another control character loads."""
    assert len(LINE_BREAKS) == 10 and "\n" in LINE_BREAKS and "\u2029" in LINE_BREAKS
    names = {"entities": lambda d: d["entities"], "relations": lambda d: d["relations"],
             "values": lambda d: d["values"], "label classes": lambda d: d["labels"]["classes"]}
    for what, of in names.items():
        message = f"^b.json: bundle {what} entry 1 is .*, which a TSV field cannot hold"
        for char in "\t" + LINE_BREAKS:
            bundle = _edited_bundle(lambda d: of(d).__setitem__(1, of(d)[1] + char))
            with pytest.raises(IntegrityError, match=message):
                bundle_from_json(bundle, "b.json")
        kg, split, _ = bundle_from_json(_edited_bundle(lambda d: of(d).__setitem__(1, of(d)[1] + "\x1f")))
        assert (split.class_names if what == "label classes" else list(getattr(kg, what)))[1].endswith("\x1f")


def test_bundle_without_data_rejected():
    kg, split = generate_synthetic_kg(5)
    doc = json.loads(bundle_to_json(kg, split))
    del doc["data"]
    with pytest.raises(IntegrityError, match="b.json: not a kane-bundle-v2 bundle"):
        bundle_from_json(json.dumps(doc), "b.json")
