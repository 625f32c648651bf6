"""Knowledge graph data: parsing, interning, indexing, splits, synthesis.

File formats (UTF-8, ``#`` starts a comment line, blank lines ignored):

* ``relations.tsv``   -- ``head<TAB>relation<TAB>tail`` per line.
* ``attributes.tsv``  -- ``head<TAB>relation<TAB>"literal value"`` per line;
  the surrounding double quotes are optional and stripped.
* ``labels.tsv``      -- ``entity<TAB>class_name`` per line.

Entities, relations, attribute values and literal words are interned into
dense integer ids in first-seen order, so loading the same files always
produces the same ids.

Hot paths read triples as (n, 3) int64 ``triple_rows`` ``(head, relation,
target)``: ``target`` is the tail entity, or ``num_entities + v`` for
attribute value ``v``. ``known_triples`` indexes every known row by sorted
int64 keys (``KnownAnswers``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, IntegrityError, ParseError

BUNDLE_FORMAT = "kane-bundle-v1"


class Interner:
    """Bijective string <-> dense int mapping in first-seen order."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self.names: list[str] = []

    def intern(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = len(self.names)
            self._ids[name] = i
            self.names.append(name)
        return i

    def id_of(self, name: str) -> int:
        return self._ids[name]

    def name_of(self, i: int) -> str:
        return self.names[i]

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __len__(self) -> int:
        return len(self.names)


class RelationTriple(NamedTuple):
    head: int
    relation: int
    tail: int


class AttributeTriple(NamedTuple):
    head: int
    relation: int
    value: int


def tokenize(literal: str) -> list[str]:
    """Lowercase and split on Unicode whitespace; punctuation stays attached."""
    return literal.lower().split()


class KnowledgeGraph:
    """Interned triple store; duplicate triples are dropped on insert and counted."""

    def __init__(self) -> None:
        self.entities = Interner()
        self.relations = Interner()
        self.values = Interner()  # keyed by the literal string, quotes stripped
        self.words = Interner()
        self.value_tokens: list[list[int]] = []  # per value id, word ids
        self.relation_triples: list[RelationTriple] = []
        self.attribute_triples: list[AttributeTriple] = []
        self.dropped_relation_duplicates = 0
        self.dropped_attribute_duplicates = 0
        self._rel_set: set[RelationTriple] = set()
        self._attr_set: set[AttributeTriple] = set()

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
    def add_relation_triple(self, head: str, relation: str, tail: str) -> RelationTriple | None:
        """Intern names and store the triple; returns None for a duplicate."""
        trip = RelationTriple(
            self.entities.intern(head), self.relations.intern(relation), self.entities.intern(tail)
        )
        return self._store_relation(trip)

    def add_attribute_triple(self, head: str, relation: str, literal: str) -> AttributeTriple | None:
        """Intern names and the literal and store the triple; returns None
        for a duplicate. A literal with no tokens raises ``DomainError``."""
        tokens = tokenize(literal)
        if not tokens:
            raise DomainError(f"attribute literal {literal!r} has no tokens")
        trip = AttributeTriple(
            self.entities.intern(head),
            self.relations.intern(relation),
            self._intern_value(literal, tokens),
        )
        return self._store_attribute(trip)

    def _intern_value(self, literal: str, tokens: list[str]) -> int:
        known = literal in self.values
        vid = self.values.intern(literal)
        if not known:
            self.value_tokens.append([self.words.intern(w) for w in tokens])
        return vid

    def _store_relation(self, trip: RelationTriple) -> RelationTriple | None:
        if trip in self._rel_set:
            self.dropped_relation_duplicates += 1
            return None
        self._rel_set.add(trip)
        self.relation_triples.append(trip)
        return trip

    def _store_attribute(self, trip: AttributeTriple) -> AttributeTriple | None:
        if trip in self._attr_set:
            self.dropped_attribute_duplicates += 1
            return None
        self._attr_set.add(trip)
        self.attribute_triples.append(trip)
        return trip


def triple_rows(
    kg: KnowledgeGraph, relation_triples: Iterable[RelationTriple], with_attributes: bool = False
) -> np.ndarray:
    """(n, 3) int64 rows ``(head, relation, target)``: the given relation
    triples in order, then, when ``with_attributes``, every attribute
    triple of the graph with target ``num_entities + value``."""
    rows = np.fromiter(chain.from_iterable(relation_triples), dtype=np.int64).reshape(-1, 3)
    if not (with_attributes and kg.attribute_triples):
        return rows
    attr = np.fromiter(chain.from_iterable(kg.attribute_triples), dtype=np.int64).reshape(-1, 3)
    return np.concatenate([rows, attr + (0, 0, kg.num_entities)])


def pair_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One int64 key per id pair (ids are below 2**31)."""
    return (a.astype(np.int64) << 32) | b.astype(np.int64)


@dataclass(frozen=True)
class KnownAnswers:
    """Known answers of one query kind, sorted by key: ``answers[i]``
    completes the known triple whose two other ids make ``keys[i]``."""

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

    def contains(self, keys: np.ndarray, answers: np.ndarray) -> np.ndarray:
        """Whether each (key, answer) pair is known: a bool per pair."""
        query, known = self.lookup(keys)
        return np.bincount(query[known == answers[query]], minlength=len(keys)) > 0


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

    @property
    def entity_count(self) -> int:
        return self.kg.num_entities

    @classmethod
    def restricted(
        cls, kg: KnowledgeGraph, relation_triples: Iterable[RelationTriple], use_attributes: bool = True
    ) -> "GraphView":
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


def parse_relation_triples(text: str, kg: KnowledgeGraph, source: str = "<input>") -> list[RelationTriple]:
    """Parse ``head<TAB>relation<TAB>tail`` lines into the graph.

    Duplicates are dropped (counted on the graph); returns the stored
    triples in input order.
    """
    out = []
    for ln, line in _content_lines(text):
        h, r, t = _three_fields(line, source, ln)
        if not h or not r or not t:
            raise ParseError(source, ln, "empty field in relation triple")
        trip = kg.add_relation_triple(h, r, t)
        if trip is not None:
            out.append(trip)
    return out


def parse_attribute_triples(text: str, kg: KnowledgeGraph, source: str = "<input>") -> list[AttributeTriple]:
    """Parse ``head<TAB>relation<TAB>"literal"`` lines into the graph.

    Surrounding double quotes on the literal are stripped; the literal is
    lowercased and split on whitespace. A literal with no tokens is an error.
    """
    out = []
    for ln, line in _content_lines(text):
        h, r, lit = _three_fields(line, source, ln)
        if not h or not r:
            raise ParseError(source, ln, "empty field in attribute triple")
        if len(lit) >= 2 and lit.startswith('"') and lit.endswith('"'):
            lit = lit[1:-1]
        try:
            trip = kg.add_attribute_triple(h, r, lit)
        except DomainError as err:
            raise ParseError(source, ln, str(err)) from err
        if trip is not None:
            out.append(trip)
    return out


def parse_labels(text: str, kg: KnowledgeGraph, source: str = "<input>") -> tuple[dict[int, int], list[str]]:
    """Parse ``entity<TAB>class_name`` lines; entities must already exist."""
    labels: dict[int, int] = {}
    classes = Interner()
    for ln, line in _content_lines(text):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(source, ln, f"expected 2 tab-separated fields, got {len(fields)}")
        ent, cls = fields
        if not ent or not cls:
            raise ParseError(source, ln, "empty field in label line")
        if ent not in kg.entities:
            raise ParseError(source, ln, f"label for unknown entity {ent!r}")
        eid = kg.entities.id_of(ent)
        if eid in labels:
            raise ParseError(source, ln, f"duplicate label for entity {ent!r}")
        labels[eid] = classes.intern(cls)
    return labels, list(classes.names)


# ---------------------------------------------------------------------------
# serialization back to TSV

def relations_to_tsv(kg: KnowledgeGraph) -> str:
    lines = [
        f"{kg.entities.name_of(t.head)}\t{kg.relations.name_of(t.relation)}\t{kg.entities.name_of(t.tail)}"
        for t in kg.relation_triples
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def attributes_to_tsv(kg: KnowledgeGraph) -> str:
    lines = [
        f'{kg.entities.name_of(a.head)}\t{kg.relations.name_of(a.relation)}\t"{kg.values.name_of(a.value)}"'
        for a in kg.attribute_triples
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def labels_to_tsv(kg: KnowledgeGraph, labels: dict[int, int], class_names: list[str]) -> str:
    lines = [
        f"{kg.entities.name_of(e)}\t{class_names[c]}"
        for e, c in sorted(labels.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# splits

@dataclass
class DatasetSplit:
    """Train/valid/test partition of the relation triples, plus labels.

    Held-out triples only use entities and relations that occur in the
    training portion (the filtered evaluation protocol requires it).
    Labeled entities get their own train/valid/test partition for the
    classification task.
    """

    train: list[RelationTriple]
    valid: list[RelationTriple]
    test: list[RelationTriple]
    labels: dict[int, int] | None = None
    class_count: int = 0
    class_names: list[str] = field(default_factory=list)
    label_train: list[int] = field(default_factory=list)
    label_valid: list[int] = field(default_factory=list)
    label_test: list[int] = field(default_factory=list)


def split_relation_triples(
    triples: list[RelationTriple],
    rng: np.random.Generator,
    valid_fraction: float = 0.1,
    test_fraction: float = 0.1,
) -> tuple[list[RelationTriple], list[RelationTriple], list[RelationTriple]]:
    """Seeded split that keeps every held-out entity and relation in train.

    A triple is only eligible for holdout while each of its entities and
    its relation still occurs at least once in the remaining pool.
    """
    ent_count: dict[int, int] = {}
    rel_count: dict[int, int] = {}
    for t in triples:
        ent_count[t.head] = ent_count.get(t.head, 0) + 1
        ent_count[t.tail] = ent_count.get(t.tail, 0) + 1
        rel_count[t.relation] = rel_count.get(t.relation, 0) + 1

    n = len(triples)
    want_valid = int(n * valid_fraction)
    want_test = int(n * test_fraction)
    valid: list[RelationTriple] = []
    test: list[RelationTriple] = []
    train: list[RelationTriple] = []
    for j in rng.permutation(n):
        t = triples[int(j)]
        need = len(valid) < want_valid or len(test) < want_test
        if need and _removable(t, ent_count, rel_count):
            ent_count[t.head] -= 1
            ent_count[t.tail] -= 1
            rel_count[t.relation] -= 1
            if len(valid) < want_valid:
                valid.append(t)
            else:
                test.append(t)
        else:
            train.append(t)
    return train, valid, test


def _removable(t: RelationTriple, ent_count: dict[int, int], rel_count: dict[int, int]) -> bool:
    if rel_count[t.relation] <= 1:
        return False
    if t.head == t.tail:
        return ent_count[t.head] > 2
    return ent_count[t.head] > 1 and ent_count[t.tail] > 1


def split_labeled_entities(
    labels: dict[int, int],
    class_count: int,
    rng: np.random.Generator,
    valid_fraction: float = 0.2,
    test_fraction: float = 0.2,
) -> tuple[list[int], list[int], list[int]]:
    """Stratified per-class split; every class keeps at least one train entity."""
    by_class: list[list[int]] = [[] for _ in range(class_count)]
    for e in sorted(labels):
        by_class[labels[e]].append(e)
    train: list[int] = []
    valid: list[int] = []
    test: list[int] = []
    for members in by_class:
        order = [members[int(i)] for i in rng.permutation(len(members))]
        n = len(order)
        n_test = int(round(n * test_fraction))
        n_valid = int(round(n * valid_fraction))
        while n and n_test + n_valid >= n:  # keep at least one in train
            if n_valid > 0:
                n_valid -= 1
            elif n_test > 0:
                n_test -= 1
        test.extend(order[:n_test])
        valid.extend(order[n_test:n_test + n_valid])
        train.extend(order[n_test + n_valid:])
    return sorted(train), sorted(valid), sorted(test)


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
    for name in names:
        kg.entities.intern(name)
    cluster_of = [i % clusters for i in range(entities)]
    members = [[i for i in range(entities) if cluster_of[i] == c] for c in range(clusters)]
    labels = {i: cluster_of[i] for i in range(entities)}
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

    displacement = [1 + (r % (clusters - 1)) for r in range(relations)]
    for i in range(entities):
        src = structural[i]
        eligible = [r for r in range(relations) if src + displacement[r] < clusters]
        degree = 0
        for r in eligible:
            target = src + displacement[r]
            pool = members[target]
            for _ in range(2):
                if rng.random() >= edge_prob:
                    continue
                tail = pool[int(rng.integers(len(pool)))]
                if kg.add_relation_triple(names[i], f"rel_{r}", names[tail]) is not None:
                    degree += 1
        if degree == 0 and eligible:  # keep chain sources inside the training graph
            r = eligible[int(rng.integers(len(eligible)))]
            target = src + displacement[r]
            tail = members[target][int(rng.integers(len(members[target])))]
            kg.add_relation_triple(names[i], f"rel_{r}", names[tail])

    for i in range(entities):
        c = cluster_of[i]
        word = _CLUSTER_WORDS[c] if c < len(_CLUSTER_WORDS) else f"clan{c}"
        for s in range(attribute_relations):
            kg.add_attribute_triple(names[i], _ATTR_RELATIONS[s], _ATTR_TEMPLATES[s].format(word))

    train, valid, test = split_relation_triples(
        kg.relation_triples, rng, valid_fraction, test_fraction
    )
    split = DatasetSplit(
        train=train, valid=valid, test=test,
        labels=labels, class_count=clusters, class_names=class_names,
        label_train=lab_train, label_valid=lab_valid, label_test=lab_test,
    )
    return kg, split


# ---------------------------------------------------------------------------
# statistics

def kg_statistics(kg: KnowledgeGraph) -> dict[str, int]:
    """Dataset summary: entity/relation/attribute counts and triple totals."""
    structural = {t.relation for t in kg.relation_triples}
    attributive = {a.relation for a in kg.attribute_triples}
    return {
        "entities": kg.num_entities,
        "relations": len(structural),
        "attributes": len(attributive),
        "relation_triples": len(kg.relation_triples),
        "attribute_triples": len(kg.attribute_triples),
        "total_triples": len(kg.relation_triples) + len(kg.attribute_triples),
    }


# ---------------------------------------------------------------------------
# dataset bundle (single self-contained JSON file with content checksum)

def _bundle_data(kg: KnowledgeGraph, split: DatasetSplit) -> dict:
    index = {t: i for i, t in enumerate(kg.relation_triples)}
    data = {
        "entities": list(kg.entities.names),
        "relations": list(kg.relations.names),
        "values": list(kg.values.names),
        "relation_triples": [list(t) for t in kg.relation_triples],
        "attribute_triples": [list(t) for t in kg.attribute_triples],
        "dropped_duplicates": [kg.dropped_relation_duplicates, kg.dropped_attribute_duplicates],
        "split": {
            "train": [index[t] for t in split.train],
            "valid": [index[t] for t in split.valid],
            "test": [index[t] for t in split.test],
        },
        "labels": None,
    }
    if split.labels is not None:
        data["labels"] = {
            "classes": list(split.class_names),
            "by_entity": [[e, split.labels[e]] for e in sorted(split.labels)],
            "train": list(split.label_train),
            "valid": list(split.label_valid),
            "test": list(split.label_test),
        }
    return data


def bundle_checksum(data: dict) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def bundle_to_json(kg: KnowledgeGraph, split: DatasetSplit) -> str:
    data = _bundle_data(kg, split)
    doc = {"format": BUNDLE_FORMAT, "checksum": bundle_checksum(data), "data": data}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


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


def _names(value, what: str, source: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise IntegrityError(f"{source}: bundle {what} is not a list of strings")
    # ids are list positions, and interning a repeated name would drop one
    seen: set[str] = set()
    for i, name in enumerate(value):
        if name in seen:
            raise IntegrityError(f"{source}: bundle {what} entry {i} repeats {name!r}")
        seen.add(name)
    return value


def _check_ids(value, limits: tuple[int, ...], what: str, source: str) -> None:
    """``value`` must be a list of ids below ``limits[0]`` (one limit), or a
    list of rows whose column j holds ids below ``limits[j]``."""
    shape = (len(limits),) if len(limits) > 1 else ()
    if value == []:
        return
    try:
        arr = np.asarray(value) if isinstance(value, list) else None
    except ValueError:  # rows of unequal length
        arr = None
    if arr is None or arr.dtype.kind != "i" or arr.shape[1:] != shape:
        kind = f"rows of {len(limits)} ids" if shape else "ids"
        raise IntegrityError(f"{source}: bundle {what} is not a list of {kind}")
    bad = ((arr < 0) | (arr >= np.asarray(limits))).reshape(len(arr), -1).any(axis=1)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise IntegrityError(f"{source}: bundle {what} entry {i} is out of range: {arr[i].tolist()}")


def bundle_from_json(text: str, source: str = "<bundle>") -> tuple[KnowledgeGraph, DatasetSplit, str]:
    """Rebuild graph and split from a bundle.

    Verifies the content checksum, the required keys, and that every
    entity, relation, value, triple, class and split id is in range; any
    failure raises ``IntegrityError`` naming ``source``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise IntegrityError(f"{source}: bundle is not valid JSON: {e}") from e
    if not isinstance(doc, dict) or doc.get("format") != BUNDLE_FORMAT or "data" not in doc:
        raise IntegrityError(f"{source}: not a {BUNDLE_FORMAT} bundle")
    data = doc["data"]
    stored = doc.get("checksum", "")
    actual = bundle_checksum(data)
    if stored != actual:
        raise IntegrityError(f"{source}: bundle checksum mismatch: stored {stored}, computed {actual}")

    _require(data, _BUNDLE_KEYS, "data", source)
    n_ent = len(_names(data["entities"], "entities", source))
    n_rel = len(_names(data["relations"], "relations", source))
    n_val = len(_names(data["values"], "values", source))
    _check_ids(data["relation_triples"], (n_ent, n_rel, n_ent), "relation_triples", source)
    _check_ids(data["attribute_triples"], (n_ent, n_rel, n_val), "attribute_triples", source)
    _require(data["split"], _SPLIT_KEYS, "split", source)
    for part in _SPLIT_KEYS:
        _check_ids(data["split"][part], (len(data["relation_triples"]),), f"split {part}", source)
    dropped = data["dropped_duplicates"]
    if not (isinstance(dropped, list) and len(dropped) == 2 and all(type(x) is int for x in dropped)):
        raise IntegrityError(f"{source}: bundle dropped_duplicates is not a pair of counts")
    lab = data["labels"]
    if lab is not None:
        _require(lab, _LABEL_KEYS, "labels", source)
        n_cls = len(_names(lab["classes"], "label classes", source))
        _check_ids(lab["by_entity"], (n_ent, n_cls), "labels by_entity", source)
        for part in _SPLIT_KEYS:
            _check_ids(lab[part], (n_ent,), f"labels {part}", source)

    kg = KnowledgeGraph()
    for name in data["entities"]:
        kg.entities.intern(name)
    for name in data["relations"]:
        kg.relations.intern(name)
    for i, literal in enumerate(data["values"]):
        tokens = tokenize(literal)
        if not tokens:
            raise IntegrityError(f"{source}: bundle value {i} has no tokens: {literal!r}")
        kg._intern_value(literal, tokens)
    for h, r, t in data["relation_triples"]:
        kg._store_relation(RelationTriple(h, r, t))
    for h, r, v in data["attribute_triples"]:
        kg._store_attribute(AttributeTriple(h, r, v))
    if kg.dropped_relation_duplicates or kg.dropped_attribute_duplicates:
        raise IntegrityError(f"{source}: bundle lists a triple twice")
    kg.dropped_relation_duplicates, kg.dropped_attribute_duplicates = dropped

    trips = kg.relation_triples
    split = DatasetSplit(
        train=[trips[i] for i in data["split"]["train"]],
        valid=[trips[i] for i in data["split"]["valid"]],
        test=[trips[i] for i in data["split"]["test"]],
    )
    if lab is not None:
        split.labels = {e: c for e, c in lab["by_entity"]}
        split.class_names = list(lab["classes"])
        split.class_count = len(split.class_names)
        split.label_train = list(lab["train"])
        split.label_valid = list(lab["valid"])
        split.label_test = list(lab["test"])
    return kg, split, actual
