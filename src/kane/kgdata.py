"""Knowledge graph data: parsing, name ids, indexing, splits, synthesis.

File formats (UTF-8, ``#`` starts a comment line, blank lines ignored):

* ``relations.tsv``   -- ``head<TAB>relation<TAB>tail`` per line.
* ``attributes.tsv``  -- ``head<TAB>relation<TAB>"literal value"`` per line;
  the surrounding double quotes are optional and stripped.
* ``labels.tsv``      -- ``entity<TAB>class_name`` per line.

Entities, relations, attribute values and literal words get dense integer
ids in first-seen order, so loading the same files always produces the same
ids. Each name table is a plain ``dict`` from name to id: a new name takes
id ``len(d)`` (``d.setdefault(name, len(d))``) and ``list(d)`` lists the
names in id order.

The graph stores triples as (n, 3) int64 id rows: ``relation_triples``
holds ``(head, relation, tail)`` and ``attribute_triples`` ``(head,
relation, value)``. Hot paths read ``triple_rows`` ``(head, relation,
target)``: ``target`` is the tail entity, or ``num_entities + v`` for
attribute value ``v``. ``known_triples`` indexes every known row by sorted
int64 keys (``KnownAnswers``). The relation parts of a ``DatasetSplit`` are
lists of ``(head, relation, tail)`` int tuples; its ``labels`` are one int64
array over all entities, the class id or -1 where an entity has no label,
and its label parts int64 arrays of entity ids.

A dataset bundle (``bundle_to_json``, ``bundle_from_json``) is one JSON
document, ``kane-bundle-v2``: names, literals and counts as plain JSON,
and every id array packed into one base64 string of little-endian int32
ids, row-major, so that loading decodes each array in one step.
"""

from __future__ import annotations

import base64
import hashlib
import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .autodiff import AggregationPlan
from .errors import ConfigError, DomainError, IntegrityError, ParseError

BUNDLE_FORMAT = "kane-bundle-v2"
# the format before the id arrays were packed: refused, with a hint to re-run prepare
_RETIRED_FORMAT = "kane-bundle-v1"

Triple = tuple[int, int, int]


def tokenize(literal: str) -> list[str]:
    """Lowercase and split on Unicode whitespace; punctuation stays attached."""
    return literal.lower().split()


def first_occurrences(rows: np.ndarray) -> np.ndarray:
    """Bool mask over (n, 3) ``rows``: True at the first occurrence of each
    distinct row. One stable sort, then a compare of adjacent rows. Where
    the ids are non-negative and the product of the column widths (largest
    id + 1) fits in int64, each row is one int64 code, ``(a * w1 + b) * w2
    + c``, and the sort is one ``argsort``; otherwise it is a ``lexsort``
    of the three columns."""
    keep = np.ones(len(rows), dtype=bool)
    if len(rows) < 2:
        return keep
    w0, w1, w2 = (int(w) + 1 for w in rows.max(axis=0))
    if rows.min() >= 0 and w0 * w1 * w2 <= np.iinfo(np.int64).max:
        codes = (rows[:, 0].astype(np.int64) * w1 + rows[:, 1]) * w2 + rows[:, 2]
        order = np.argsort(codes, kind="stable")
        keep[order[1:]] = np.diff(codes[order]) != 0
    else:
        order = np.lexsort(rows.T)
        ordered = rows[order]
        keep[order[1:]] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return keep


def _append_new(stored: np.ndarray, rows: list[Triple]) -> tuple[np.ndarray, int]:
    """``stored`` followed by the rows it does not hold yet, each once, in
    input order; and the number of rows dropped."""
    both = np.concatenate([stored, np.asarray(rows, dtype=np.int64).reshape(-1, 3)])
    keep = first_occurrences(both)
    return both[keep], len(keep) - int(keep.sum())


class KnowledgeGraph:
    """Interned triple store: ``relation_triples`` is an (n, 3) int64 array
    of ``(head, relation, tail)`` rows and ``attribute_triples`` an (m, 3)
    one of ``(head, relation, value)`` rows, each row stored once in load
    order. Duplicate triples are dropped on insert and counted."""

    def __init__(self) -> None:
        self.entities: dict[str, int] = {}
        self.relations: dict[str, int] = {}
        self.values: dict[str, int] = {}  # keyed by the literal string, quotes stripped
        self.words: dict[str, int] = {}
        self.value_tokens: list[list[int]] = []  # per value id, word ids
        self.relation_triples = np.empty((0, 3), dtype=np.int64)
        self.attribute_triples = np.empty((0, 3), dtype=np.int64)
        self.dropped_relation_duplicates = 0
        self.dropped_attribute_duplicates = 0

    # -- sizes ----------------------------------------------------------
    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    @property
    def num_values(self) -> int:
        return len(self.values)

    @property
    def vocab_size(self) -> int:
        return len(self.words)

    # -- construction ---------------------------------------------------
    def add_relation_triples(self, triples: Iterable[tuple[str, str, str]]) -> None:
        """Intern the names of ``(head, relation, tail)`` triples in
        first-seen order and store their rows in input order; a triple
        already stored, or repeated in ``triples``, is dropped and counted."""
        ent, rel = self.entities, self.relations
        # a tuple evaluates left to right: the head takes its id before the tail
        rows = [(ent.setdefault(h, len(ent)), rel.setdefault(r, len(rel)), ent.setdefault(t, len(ent)))
                for h, r, t in triples]
        self.relation_triples, dropped = _append_new(self.relation_triples, rows)
        self.dropped_relation_duplicates += dropped

    def add_attribute_triples(self, triples: Iterable[tuple[str, str, str]]) -> None:
        """``add_relation_triples`` for ``(head, relation, literal)``
        triples; each new literal is interned as a value with its tokens. A
        literal with no tokens raises ``DomainError`` before anything is
        interned."""
        triples = list(triples)
        for _, _, literal in triples:
            if not literal.strip():  # no tokens: strip and split share one whitespace
                raise DomainError(f"attribute literal {literal!r} has no tokens")
        ent, rel, val = self.entities, self.relations, self._intern_value
        rows = [(ent.setdefault(h, len(ent)), rel.setdefault(r, len(rel)), val(literal))
                for h, r, literal in triples]
        self.attribute_triples, dropped = _append_new(self.attribute_triples, rows)
        self.dropped_attribute_duplicates += dropped

    def _intern_value(self, literal: str) -> int:
        vid = self.values.setdefault(literal, len(self.values))
        if vid == len(self.value_tokens):  # a new value
            words = self.words
            self.value_tokens.append([words.setdefault(w, len(words)) for w in tokenize(literal)])
        return vid


def triple_rows(kg: KnowledgeGraph, relation_triples, with_attributes: bool = False) -> np.ndarray:
    """(n, 3) int64 rows ``(head, relation, target)``: the given relation
    triples (rows or id tuples) in order, then, when ``with_attributes``,
    every attribute triple of the graph with target ``num_entities + value``."""
    rows = np.asarray(relation_triples, dtype=np.int64).reshape(-1, 3)
    if not (with_attributes and len(kg.attribute_triples)):
        return rows
    return np.concatenate([rows, kg.attribute_triples + (0, 0, kg.num_entities)])


def pair_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One int64 key per id pair (ids are below 2**31)."""
    return (a.astype(np.int64) << 32) | b.astype(np.int64)


@dataclass(frozen=True)
class KnownAnswers:
    """Known answers of one query kind, sorted by key: ``answers[i]``
    completes the known triple whose two other ids make ``keys[i]``.

    ``lookup`` lists every known answer of each key (the filter index).
    ``contains`` tests single pairs (the negative sampler) with one search
    per pair among sorted codes, one per known pair, built at its first
    call: the key's dense id, its first id times (largest second id + 1)
    plus its second id, times (largest answer + 1) plus the answer. Where
    such a code could overflow int64, it expands ``lookup`` instead.
    """

    keys: np.ndarray
    answers: np.ndarray

    @classmethod
    def from_pairs(cls, keys: np.ndarray, answers: np.ndarray) -> KnownAnswers:
        order = np.argsort(keys, kind="stable")
        return cls(keys[order], answers[order])

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(position in ``keys``, known answer), one pair per known answer."""
        start = np.searchsorted(self.keys, keys, side="left")
        count = np.searchsorted(self.keys, keys, side="right") - start
        query = np.repeat(np.arange(len(keys)), count)
        first = np.repeat(start - (np.cumsum(count) - count), count)
        return query, self.answers[first + np.arange(len(query))]

    @cached_property
    def _codes(self) -> tuple[int, int, int, np.ndarray] | None:
        """(first-id width, second-id width, answer width, sorted codes) of
        the ``pair_keys`` keys, or None when a code would overflow int64."""
        first, second = self.keys >> 32, self.keys & 0xFFFFFFFF
        first_width, second_width = int(first.max()) + 1, int(second.max()) + 1
        width = int(self.answers.max()) + 1
        if first_width * second_width * width > np.iinfo(np.int64).max:
            return None
        codes = np.sort((first * second_width + second) * width + self.answers)
        return first_width, second_width, width, codes

    def contains(self, keys: np.ndarray, answers: np.ndarray) -> np.ndarray:
        """Whether each (key, answer) pair is known: a bool per pair."""
        if not self.keys.size:
            return np.zeros(len(keys), dtype=bool)
        if self._codes is None:
            query, known = self.lookup(keys)
            return np.bincount(query[known == answers[query]], minlength=len(keys)) > 0
        first_width, second_width, width, codes = self._codes
        first, second = keys >> 32, keys & 0xFFFFFFFF
        # codes of the pairs outside the widths may wrap; they are masked
        code = (first * second_width + second) * width + answers
        inside = (keys >= 0) & (first < first_width) & (second < second_width)
        inside &= (answers >= 0) & (answers < width)
        return inside & (codes.take(np.searchsorted(codes, code), mode="clip") == code)


def known_triples(kg: KnowledgeGraph) -> KnownAnswers:
    """(head, relation) -> target over the ``triple_rows`` of every relation
    triple of the graph (all splits) and every attribute triple."""
    rows = triple_rows(kg, kg.relation_triples, with_attributes=True)
    return KnownAnswers.from_pairs(pair_keys(rows[:, 0], rows[:, 1]), rows[:, 2])


class EdgeIndex(NamedTuple):
    """All edges of a view as flat arrays, grouped by owner (CSR layout).

    Edge ``i`` leads from entity ``owner[i]`` via ``relation[i]`` to row
    ``source[i]`` of the source table: one row per entity, then one row per
    attribute value, in value id order. The ``active`` entities (those with
    at least one edge) own one segment each, in entity order; ``segments``
    delimits them, so none is empty. ``merge[e]`` is entity ``e``'s row in
    the table of the active entities' new rows followed by every entity's
    previous row.
    """

    owner: np.ndarray
    relation: np.ndarray
    source: np.ndarray
    active: np.ndarray
    segments: np.ndarray
    merge: np.ndarray


class GraphView:
    """A propagation view: the graph plus the edges that messages follow.

    Training and evaluation propagate over the training edges only, so the
    held-out triples never leak into the message passing.
    """

    def __init__(self, kg: KnowledgeGraph, edges: EdgeIndex):
        self.kg = kg
        self.edges = edges
        # read-only arrays that other modules derive from this view (and
        # settings of theirs, part of the key), built at first use
        self.derived: dict[tuple, object] = {}

    @property
    def entity_count(self) -> int:
        return self.kg.num_entities

    @cached_property
    def aggregation(self) -> AggregationPlan:
        """The plan of every edge aggregation over this view, built at first
        use: a view's edges never change."""
        return AggregationPlan(self.edges.source, self.edges.segments)

    @classmethod
    def restricted(cls, kg: KnowledgeGraph, relation_triples, use_attributes: bool = True) -> "GraphView":
        """View over the given relation triples (and all attribute triples
        when ``use_attributes``). Each entity's edges are its outgoing
        (relation, target) pairs in load order: relation triples first,
        then attribute triples."""
        n = kg.num_entities
        rows = triple_rows(kg, relation_triples, use_attributes)
        owner, relation, source = rows[np.argsort(rows[:, 0], kind="stable")].T.copy()
        starts = np.flatnonzero(np.diff(owner, prepend=-1))  # each owner's first edge
        active = owner[starts]
        merge = np.arange(n) + len(active)
        merge[active] = np.arange(len(active))
        segments = np.append(starts, len(rows))
        return cls(kg, EdgeIndex(owner, relation, source, active, segments, merge))


# ---------------------------------------------------------------------------
# parsing

def _content_lines(text: str):
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        yield ln, line


def _three_fields(line: str, source: str, ln: int) -> list[str]:
    fields = line.split("\t")
    if len(fields) != 3:
        raise ParseError(source, ln, f"expected 3 tab-separated fields, got {len(fields)}")
    return fields


def parse_relation_triples(text: str, kg: KnowledgeGraph, source: str = "<input>") -> None:
    """Parse ``head<TAB>relation<TAB>tail`` lines into the graph.

    Every line is checked before any triple is stored. Duplicates are
    dropped (counted on the graph).
    """
    triples = []
    for ln, line in _content_lines(text):
        fields = _three_fields(line, source, ln)
        if not all(fields):
            raise ParseError(source, ln, "empty field in relation triple")
        triples.append(fields)
    kg.add_relation_triples(triples)


def parse_attribute_triples(text: str, kg: KnowledgeGraph, source: str = "<input>") -> None:
    """Parse ``head<TAB>relation<TAB>"literal"`` lines into the graph.

    Surrounding double quotes on the literal are stripped; the literal is
    lowercased and split on whitespace. A literal with no tokens is an error.
    """
    triples = []
    for ln, line in _content_lines(text):
        h, r, lit = _three_fields(line, source, ln)
        if not h or not r:
            raise ParseError(source, ln, "empty field in attribute triple")
        if len(lit) >= 2 and lit.startswith('"') and lit.endswith('"'):
            lit = lit[1:-1]
        if not lit.strip():
            raise ParseError(source, ln, f"attribute literal {lit!r} has no tokens")
        triples.append((h, r, lit))
    kg.add_attribute_triples(triples)


def parse_labels(text: str, kg: KnowledgeGraph, source: str = "<input>") -> tuple[np.ndarray, list[str]]:
    """Parse ``entity<TAB>class_name`` lines; entities must already exist.
    Returns each entity's class id (-1 where it has none) and the class
    names in first-seen order."""
    labels = np.full(kg.num_entities, -1, dtype=np.int64)
    classes: dict[str, int] = {}
    for ln, line in _content_lines(text):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(source, ln, f"expected 2 tab-separated fields, got {len(fields)}")
        ent, cls = fields
        if not ent or not cls:
            raise ParseError(source, ln, "empty field in label line")
        eid = kg.entities.get(ent)
        if eid is None:
            raise ParseError(source, ln, f"label for unknown entity {ent!r}")
        if labels[eid] >= 0:
            raise ParseError(source, ln, f"duplicate label for entity {ent!r}")
        labels[eid] = classes.setdefault(cls, len(classes))
    return labels, list(classes)


# ---------------------------------------------------------------------------
# serialization back to TSV

def _tsv(lines: list[str], what: str) -> str:
    """The lines as one TSV text. Each starts with an entity name, and one
    that starts with ``#`` would parse as a comment: that raises."""
    text = "\n".join(lines) + ("\n" if lines else "")
    if "#" in text:
        for line in text.splitlines():
            if line.startswith("#"):
                name = line.split("\t")[0]
                raise DomainError(f"{what}: entity {name!r} begins with '#', "
                                  "and the TSV parser would read its line as a comment")
    return text


def relations_to_tsv(kg: KnowledgeGraph) -> str:
    ent, rel = list(kg.entities), list(kg.relations)
    lines = [f"{ent[h]}\t{rel[r]}\t{ent[t]}" for h, r, t in kg.relation_triples.tolist()]
    return _tsv(lines, "relation triples")


def attributes_to_tsv(kg: KnowledgeGraph) -> str:
    ent, rel, val = list(kg.entities), list(kg.relations), list(kg.values)
    lines = [f'{ent[h]}\t{rel[r]}\t"{val[v]}"' for h, r, v in kg.attribute_triples.tolist()]
    return _tsv(lines, "attribute triples")


def labels_to_tsv(kg: KnowledgeGraph, labels: np.ndarray, class_names: list[str]) -> str:
    lines = [f"{name}\t{class_names[c]}" for name, c in zip(kg.entities, labels.tolist()) if c >= 0]
    return _tsv(lines, "labels")


# ---------------------------------------------------------------------------
# splits

@dataclass
class DatasetSplit:
    """Train/valid/test partition of the relation triples, plus labels.

    Held-out triples only use entities and relations that occur in the
    training portion (the filtered evaluation protocol requires it).
    ``labels`` holds each entity's class id, -1 where it has none. Labeled
    entities get their own train/valid/test partition for the
    classification task: sorted int64 arrays of entity ids.
    """

    train: list[Triple]
    valid: list[Triple]
    test: list[Triple]
    labels: np.ndarray | None = None
    class_names: list[str] = field(default_factory=list)
    label_train: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    label_valid: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    label_test: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def class_count(self) -> int:
        return len(self.class_names)


def id_tuples(rows: np.ndarray) -> list[Triple]:
    """(n, 3) id rows as a list of plain int tuples (``DatasetSplit`` parts)."""
    return list(map(tuple, rows.tolist()))


def split_relation_triples(
    triples,
    rng: np.random.Generator,
    valid_fraction: float = 0.1,
    test_fraction: float = 0.1,
) -> tuple[list[Triple], list[Triple], list[Triple]]:
    """Seeded split of (n, 3) id rows that keeps every held-out entity and
    relation in train.

    A triple is only eligible for holdout while each of its entities and
    its relation still occurs at least once in the remaining pool.
    """
    # range tests, so that NaN fails them too
    for key, fraction in (("valid_fraction", valid_fraction), ("test_fraction", test_fraction)):
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError(f"{key} must be in [0, 1], got {fraction}")
    if not valid_fraction + test_fraction <= 1.0:
        raise ConfigError(
            f"valid_fraction + test_fraction must be at most 1, got {valid_fraction} + {test_fraction}"
        )
    rows = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    ent_count = np.bincount(rows[:, [0, 2]].ravel()).tolist()
    rel_count = np.bincount(rows[:, 1]).tolist()

    n = len(rows)
    want_valid = int(n * valid_fraction)
    want_test = int(n * test_fraction)
    valid: list[Triple] = []
    test: list[Triple] = []
    train: list[Triple] = []
    triples = id_tuples(rows)
    for j in rng.permutation(n).tolist():
        t = h, r, tail = triples[j]
        need = len(valid) < want_valid or len(test) < want_test
        if need and _removable(h, r, tail, ent_count, rel_count):
            ent_count[h] -= 1
            ent_count[tail] -= 1
            rel_count[r] -= 1
            if len(valid) < want_valid:
                valid.append(t)
            else:
                test.append(t)
        else:
            train.append(t)
    return train, valid, test


def _removable(h: int, r: int, t: int, ent_count: list[int], rel_count: list[int]) -> bool:
    if rel_count[r] <= 1:
        return False
    if h == t:
        return ent_count[h] > 2
    return ent_count[h] > 1 and ent_count[t] > 1


def split_labeled_entities(
    labels: np.ndarray,
    class_count: int,
    rng: np.random.Generator,
    valid_fraction: float = 0.2,
    test_fraction: float = 0.2,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stratified per-class split of the entities whose ``labels`` entry
    is a class id; every class keeps at least one train entity. Returns
    the sorted train, valid and test entity ids."""
    part = np.full(len(labels), -1)  # 0 train, 1 valid, 2 test
    for c in range(class_count):
        members = np.flatnonzero(labels == c)
        order = members[rng.permutation(len(members))]
        n = len(order)
        n_test = int(round(n * test_fraction))
        n_valid = int(round(n * valid_fraction))
        while n and n_test + n_valid >= n:  # keep at least one in train
            if n_valid > 0:
                n_valid -= 1
            elif n_test > 0:
                n_test -= 1
        part[order[:n_test]] = 2
        part[order[n_test:n_test + n_valid]] = 1
        part[order[n_test + n_valid:]] = 0
    return np.flatnonzero(part == 0), np.flatnonzero(part == 1), np.flatnonzero(part == 2)


# ---------------------------------------------------------------------------
# synthetic benchmark generator

_CLUSTER_WORDS = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    "india", "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
]

_ATTR_RELATIONS = ["affiliation", "motto", "badge"]
_ATTR_TEMPLATES = ["member of the {} order", "{} before all else", "{} guild badge"]


def generate_synthetic_kg(
    seed: int,
    entities: int = 50,
    relations: int = 5,
    clusters: int = 5,
    *,
    edge_prob: float = 0.9,
    decoy_fraction: float = 0.1,
    attribute_relations: int = 3,
    valid_fraction: float = 0.1,
    test_fraction: float = 0.1,
) -> tuple[KnowledgeGraph, DatasetSplit]:
    """Seeded benchmark graph with planted, learnable cluster structure.

    Entities are assigned to ``clusters`` round-robin and the clusters form
    a chain: relation ``r`` carries a fixed displacement ``d_r`` and always
    points from cluster ``c`` into cluster ``c + d_r`` (edges that would
    fall off the end of the chain are skipped). Relation identity and
    cluster pair therefore determine each other, and the chain has no
    cycles, so a translation model can satisfy the structure exactly.
    Every entity carries one attribute triple per attribute relation whose
    literal tokens name its cluster, and its label is its cluster index.

    ``decoy_fraction`` of the entities are decoys: their outgoing edges
    follow a *different* cluster's rule while label and attributes keep the
    true cluster. Decoys stay self-consistent for link prediction but make
    pure-structure classification strictly harder than classification with
    attributes, which is the planted gap the benchmark is meant to expose.
    """
    if clusters < 2 or entities < clusters:
        raise ConfigError(f"need entities >= clusters >= 2, got {entities} and {clusters}")
    if relations < 1:
        raise ConfigError("need at least one relation")
    if not 0.0 < edge_prob <= 1.0:
        raise ConfigError(f"edge_prob must be in (0, 1], got {edge_prob}")
    if not 0.0 <= decoy_fraction < 1.0:
        raise ConfigError(f"decoy_fraction must be in [0, 1), got {decoy_fraction}")
    if not 1 <= attribute_relations <= len(_ATTR_RELATIONS):
        raise ConfigError(f"attribute_relations must be in 1..{len(_ATTR_RELATIONS)}")

    rng = np.random.default_rng(seed)
    kg = KnowledgeGraph()
    names = [f"ent_{i:03d}" for i in range(entities)]
    kg.entities = dict(zip(names, range(entities)))
    cluster_of = [i % clusters for i in range(entities)]
    members = [[i for i in range(entities) if cluster_of[i] == c] for c in range(clusters)]
    labels = np.arange(entities) % clusters
    class_names = [f"cluster_{c}" for c in range(clusters)]

    lab_train, lab_valid, lab_test = split_labeled_entities(labels, clusters, rng)

    # decoys: structure follows a shifted cluster, label/attributes keep the true one
    structural = list(cluster_of)
    for part, minimum in ((lab_train, 0), (lab_valid, 1), (lab_test, 1)):
        k = int(round(decoy_fraction * len(part)))
        if decoy_fraction > 0:
            k = max(k, minimum)
        k = min(k, len(part))
        for j in rng.choice(len(part), size=k, replace=False) if k else []:
            e = part[int(j)]
            shift = 1 + int(rng.integers(clusters - 1))
            structural[e] = (cluster_of[e] + shift) % clusters

    # an entity's edges are drawn only in its own iteration, so its two
    # draws for one relation are the only triples that can repeat
    displacement = [1 + (r % (clusters - 1)) for r in range(relations)]
    triples = []
    for i in range(entities):
        src = structural[i]
        eligible = [r for r in range(relations) if src + displacement[r] < clusters]
        degree = 0
        for r in eligible:
            pool = members[src + displacement[r]]
            tails = [pool[int(rng.integers(len(pool)))] for _ in range(2) if rng.random() < edge_prob]
            triples += [(names[i], f"rel_{r}", names[t]) for t in tails]
            degree += len(set(tails))
        if degree == 0 and eligible:  # keep chain sources inside the training graph
            r = eligible[int(rng.integers(len(eligible)))]
            target = src + displacement[r]
            tail = members[target][int(rng.integers(len(members[target])))]
            triples.append((names[i], f"rel_{r}", names[tail]))
    kg.add_relation_triples(triples)

    words = [_CLUSTER_WORDS[c] if c < len(_CLUSTER_WORDS) else f"clan{c}" for c in cluster_of]
    kg.add_attribute_triples(
        (names[i], _ATTR_RELATIONS[s], _ATTR_TEMPLATES[s].format(words[i]))
        for i in range(entities) for s in range(attribute_relations)
    )

    train, valid, test = split_relation_triples(
        kg.relation_triples, rng, valid_fraction, test_fraction
    )
    split = DatasetSplit(
        train=train, valid=valid, test=test,
        labels=labels, class_names=class_names,
        label_train=lab_train, label_valid=lab_valid, label_test=lab_test,
    )
    return kg, split


# ---------------------------------------------------------------------------
# statistics

def kg_statistics(kg: KnowledgeGraph) -> dict[str, int]:
    """Dataset summary: entity/relation/attribute counts and triple totals."""
    return {
        "entities": kg.num_entities,
        "relations": len(set(kg.relation_triples[:, 1].tolist())),
        "attributes": len(set(kg.attribute_triples[:, 1].tolist())),
        "relation_triples": len(kg.relation_triples),
        "attribute_triples": len(kg.attribute_triples),
        "total_triples": len(kg.relation_triples) + len(kg.attribute_triples),
    }


# ---------------------------------------------------------------------------
# dataset bundle (single self-contained JSON file with content checksum)

def _pack(ids, what: str) -> str:
    """Ids (an int array, or rows of one) as the base64 of their
    little-endian int32 bytes, row-major."""
    arr = np.asarray(ids, dtype=np.int64)
    outside = (arr < 0) | (arr >= 2**31)
    if outside.any():
        raise DomainError(f"bundle {what} holds id {int(arr[outside][0])}, outside the int32 ids a bundle stores")
    return base64.b64encode(arr.astype("<i4").tobytes()).decode("ascii")


def _stored_positions(stored: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The position in ``stored`` ((n, 3) rows, each once) of each of
    ``rows``: one sort of both, where each row's first occurrence is its
    stored one."""
    both = np.concatenate([stored, rows])
    _, first, inverse = np.unique(both, axis=0, return_index=True, return_inverse=True)
    positions = first[inverse.reshape(-1)[len(stored):]]
    if (positions >= len(stored)).any():
        raise DomainError("split lists a triple the graph does not hold")
    return positions


def _bundle_data(kg: KnowledgeGraph, split: DatasetSplit) -> dict:
    parts = [np.asarray(part, dtype=np.int64).reshape(-1, 3) for part in (split.train, split.valid, split.test)]
    positions = _stored_positions(kg.relation_triples, np.concatenate(parts))
    indices = np.split(positions, np.cumsum([len(part) for part in parts])[:-1])
    data = {
        "entities": list(kg.entities),
        "relations": list(kg.relations),
        "values": list(kg.values),
        "relation_triples": _pack(kg.relation_triples, "relation_triples"),
        "attribute_triples": _pack(kg.attribute_triples, "attribute_triples"),
        "dropped_duplicates": [kg.dropped_relation_duplicates, kg.dropped_attribute_duplicates],
        "split": {p: _pack(ids, f"split {p}") for p, ids in zip(_SPLIT_KEYS, indices)},
        "labels": None,
    }
    if split.labels is not None:
        labeled = np.flatnonzero(split.labels >= 0)
        data["labels"] = {
            "classes": list(split.class_names),
            "by_entity": _pack(np.column_stack([labeled, split.labels[labeled]]), "labels by_entity"),
            **{p: _pack(ids, f"labels {p}") for p, ids in
               zip(_SPLIT_KEYS, (split.label_train, split.label_valid, split.label_test))},
        }
    return data


def bundle_checksum(data: dict) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def bundle_to_json(kg: KnowledgeGraph, split: DatasetSplit) -> str:
    data = _bundle_data(kg, split)
    doc = {"format": BUNDLE_FORMAT, "checksum": bundle_checksum(data), "data": data}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# the layout bundle_to_json writes: the data span is the canonical
# serialization that bundle_checksum hashes
_WRITTEN = re.compile(r'\{"checksum":"([0-9a-f]{64})","data":(.*),"format":"%s"\}\n?' % BUNDLE_FORMAT, re.DOTALL)


def _verified_data(text: str, source: str):
    """The bundle's data, with its checksum verified, and the checksum.

    In the layout ``bundle_to_json`` writes, the data span's bytes are what
    the checksum hashes, so a span that hashes to the stored checksum is
    read without serializing it again. Any other layout (or a span that
    does not match) is parsed whole and checked against its canonical
    serialization, which accepts the same files."""
    written = _WRITTEN.fullmatch(text)
    if written is not None:
        stored, span = written.groups()
        if hashlib.sha256(span.encode("utf-8")).hexdigest() == stored:
            try:
                return json.loads(span), stored
            except (ValueError, RecursionError):
                pass  # reported by the full parse below
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # also an integer past the digit limit, or nesting too deep
        raise IntegrityError(f"{source}: bundle JSON cannot be parsed: {e}") from e
    if isinstance(doc, dict) and doc.get("format") == _RETIRED_FORMAT:
        raise IntegrityError(
            f"{source}: bundle is in the retired {_RETIRED_FORMAT} format; "
            f"re-run `kane prepare` to write a {BUNDLE_FORMAT} bundle"
        )
    if not isinstance(doc, dict) or doc.get("format") != BUNDLE_FORMAT or "data" not in doc:
        raise IntegrityError(f"{source}: not a {BUNDLE_FORMAT} bundle")
    data = doc["data"]
    stored = doc.get("checksum", "")
    actual = bundle_checksum(data)
    if stored != actual:
        raise IntegrityError(f"{source}: bundle checksum mismatch: stored {stored}, computed {actual}")
    return data, actual


_BUNDLE_KEYS = (
    "entities", "relations", "values", "relation_triples", "attribute_triples",
    "dropped_duplicates", "split", "labels",
)
_SPLIT_KEYS = ("train", "valid", "test")
_LABEL_KEYS = ("classes", "by_entity", "train", "valid", "test")


def _require(obj, keys: tuple[str, ...], what: str, source: str) -> None:
    if not isinstance(obj, dict):
        raise IntegrityError(f"{source}: bundle {what} is not an object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise IntegrityError(f"{source}: bundle {what} lacks {', '.join(missing)}")


# a tab, or any character that str.splitlines breaks a line at
_NOT_IN_TSV_FIELD = re.compile("[\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


def _interned(value, what: str, source: str) -> dict[str, int]:
    """A bundle's name list as a name -> id dict in one pass, each name's id
    its list position. A name listed twice raises, since its ids would
    collide; so does one that a TSV field cannot hold (empty, or holding a
    tab or a line break), since ``prepare`` never writes one and the TSV
    writers would corrupt their file with it."""
    if not isinstance(value, list) or not set(map(type, value)) <= {str}:
        raise IntegrityError(f"{source}: bundle {what} is not a list of strings")
    ids = dict(zip(value, range(len(value))))
    if len(ids) < len(value):  # find the first repeat to name it
        seen: set[str] = set()
        for i, name in enumerate(value):
            if name in seen:
                raise IntegrityError(f"{source}: bundle {what} entry {i} repeats {name!r}")
            seen.add(name)
    if "" in ids or _NOT_IN_TSV_FIELD.search("".join(value)):
        i = next(i for i, name in enumerate(value) if not name or _NOT_IN_TSV_FIELD.search(name))
        raise IntegrityError(f"{source}: bundle {what} entry {i} is {value[i]!r}, which a TSV field cannot hold")
    return ids


def _unpacked(value, limits: tuple[int, ...], what: str, source: str) -> np.ndarray:
    """A packed id field as an int64 array: rows whose column j holds ids
    below ``limits[j]``, or, with one limit, a flat array of ids below it."""
    width = len(limits)
    kind = f"rows of {width} ids" if width > 1 else "ids"
    if not isinstance(value, str):
        raise IntegrityError(f"{source}: bundle {what} is not a packed string of {kind}")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as e:  # binascii.Error, or a character outside ASCII
        raise IntegrityError(f"{source}: bundle {what} is not valid base64 ({e})") from e
    if len(raw) % (4 * width):
        raise IntegrityError(
            f"{source}: bundle {what} is not a list of {kind}: "
            f"{len(raw)} bytes is not a multiple of {4 * width}"
        )
    arr = np.frombuffer(raw, dtype="<i4").reshape((-1, width) if width > 1 else -1)
    bad = ((arr < 0) | (arr >= np.asarray(limits))).reshape(len(arr), width).any(axis=1)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise IntegrityError(f"{source}: bundle {what} entry {i} is out of range: {arr[i].tolist()}")
    return arr.astype(np.int64)


def _check_once(ids: np.ndarray, limit: int, what: str, source: str) -> None:
    """Raise if an id (each below ``limit``) occurs more than once in ``ids``."""
    counts = np.bincount(ids, minlength=limit)
    if (counts > 1).any():
        raise IntegrityError(f"{source}: bundle {what} {int(np.argmax(counts > 1))} more than once")


def bundle_from_json(text: str, source: str = "<bundle>") -> tuple[KnowledgeGraph, DatasetSplit, str]:
    """Rebuild graph and split from a bundle.

    Verifies the content checksum, the required keys, that every packed id
    field is base64 of whole rows, that every entity, relation, value,
    triple, class and split id is in range, that no name, triple, split
    index, labeled entity or label-split entity is listed twice, that every
    value has a token and that every entity of the label split has a label;
    any failure raises ``IntegrityError`` naming ``source``. A
    ``kane-bundle-v1`` file is refused with a hint to re-run ``prepare``.
    """
    data, checksum = _verified_data(text, source)

    _require(data, _BUNDLE_KEYS, "data", source)
    kg = KnowledgeGraph()
    kg.entities = _interned(data["entities"], "entities", source)
    kg.relations = _interned(data["relations"], "relations", source)
    kg.values = _interned(data["values"], "values", source)
    n_ent, n_rel, n_val = kg.num_entities, kg.num_relations, kg.num_values
    rel_rows = _unpacked(data["relation_triples"], (n_ent, n_rel, n_ent), "relation_triples", source)
    attr_rows = _unpacked(data["attribute_triples"], (n_ent, n_rel, n_val), "attribute_triples", source)
    if not (first_occurrences(rel_rows).all() and first_occurrences(attr_rows).all()):
        raise IntegrityError(f"{source}: bundle lists a triple twice")
    _require(data["split"], _SPLIT_KEYS, "split", source)
    parts = [_unpacked(data["split"][p], (len(rel_rows),), f"split {p}", source) for p in _SPLIT_KEYS]
    _check_once(np.concatenate(parts), len(rel_rows), "split lists triple", source)
    dropped = data["dropped_duplicates"]
    if not (isinstance(dropped, list) and len(dropped) == 2 and all(type(x) is int and x >= 0 for x in dropped)):
        raise IntegrityError(f"{source}: bundle dropped_duplicates is not a pair of counts")
    lab = data["labels"]
    if lab is not None:
        _require(lab, _LABEL_KEYS, "labels", source)
        n_cls = len(_interned(lab["classes"], "label classes", source))
        by_entity = _unpacked(lab["by_entity"], (n_ent, n_cls), "labels by_entity", source)
        _check_once(by_entity[:, 0], n_ent, "labels by_entity lists entity", source)
        labels = np.full(n_ent, -1, dtype=np.int64)
        labels[by_entity[:, 0]] = by_entity[:, 1]
        label_parts = [_unpacked(lab[p], (n_ent,), f"labels {p}", source) for p in _SPLIT_KEYS]
        split_entities = np.concatenate(label_parts)
        _check_once(split_entities, n_ent, "labels split lists entity", source)
        unlabeled = split_entities[labels[split_entities] < 0]
        if len(unlabeled):
            raise IntegrityError(f"{source}: bundle labels split entity {unlabeled[0]} has no label")

    words = kg.words
    for i, literal in enumerate(kg.values):
        tokens = tokenize(literal)
        if not tokens:
            raise IntegrityError(f"{source}: bundle value {i} has no tokens: {literal!r}")
        kg.value_tokens.append([words.setdefault(w, len(words)) for w in tokens])
    kg.relation_triples, kg.attribute_triples = rel_rows, attr_rows
    kg.dropped_relation_duplicates, kg.dropped_attribute_duplicates = dropped

    split = DatasetSplit(*(id_tuples(rel_rows[ids]) for ids in parts))
    if lab is not None:
        split.labels = labels
        split.class_names = list(lab["classes"])
        split.label_train, split.label_valid, split.label_test = label_parts
    return kg, split, checksum
