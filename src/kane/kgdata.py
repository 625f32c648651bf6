"""Knowledge graph data: parsing, interning, indexing, splits, synthesis.

File formats (UTF-8, ``#`` starts a comment line, blank lines ignored):

* ``relations.tsv``   -- ``head<TAB>relation<TAB>tail`` per line.
* ``attributes.tsv``  -- ``head<TAB>relation<TAB>"literal value"`` per line;
  the surrounding double quotes are optional and stripped.
* ``labels.tsv``      -- ``entity<TAB>class_name`` per line.

Entities, relations, attribute values and literal words are interned into
dense integer ids in first-seen order, so loading the same files always
produces the same ids.

The graph stores triples as (n, 3) int64 id rows: ``relation_triples``
holds ``(head, relation, tail)`` and ``attribute_triples`` ``(head,
relation, value)``. Hot paths read ``triple_rows`` ``(head, relation,
target)``: ``target`` is the tail entity, or ``num_entities + v`` for
attribute value ``v``. ``known_triples`` indexes every known row by sorted
int64 keys (``KnownAnswers``). The parts of a ``DatasetSplit`` are lists of
``(head, relation, tail)`` int tuples.
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

Triple = tuple[int, int, int]


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


def tokenize(literal: str) -> list[str]:
    """Lowercase and split on Unicode whitespace; punctuation stays attached."""
    return literal.lower().split()


def first_occurrences(rows: np.ndarray) -> np.ndarray:
    """Bool mask over (n, 3) ``rows``: True at the first occurrence of each
    distinct row. One stable sort, then a compare of adjacent rows."""
    order = np.lexsort(rows.T)
    ordered = rows[order]
    keep = np.ones(len(rows), dtype=bool)
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
        self.entities = Interner()
        self.relations = Interner()
        self.values = Interner()  # keyed by the literal string, quotes stripped
        self.words = Interner()
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
        ent, rel = self.entities.intern, self.relations.intern
        rows = [(ent(h), rel(r), ent(t)) for h, r, t in triples]
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
        ent, rel, val = self.entities.intern, self.relations.intern, self._intern_value
        rows = [(ent(h), rel(r), val(literal)) for h, r, literal in triples]
        self.attribute_triples, dropped = _append_new(self.attribute_triples, rows)
        self.dropped_attribute_duplicates += dropped

    def _intern_value(self, literal: str) -> int:
        known = literal in self.values
        vid = self.values.intern(literal)
        if not known:
            self.value_tokens.append([self.words.intern(w) for w in tokenize(literal)])
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
    ent, rel = kg.entities.names, kg.relations.names
    lines = [f"{ent[h]}\t{rel[r]}\t{ent[t]}" for h, r, t in kg.relation_triples.tolist()]
    return "\n".join(lines) + ("\n" if lines else "")


def attributes_to_tsv(kg: KnowledgeGraph) -> str:
    ent, rel, val = kg.entities.names, kg.relations.names, kg.values.names
    lines = [f'{ent[h]}\t{rel[r]}\t"{val[v]}"' for h, r, v in kg.attribute_triples.tolist()]
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

    train: list[Triple]
    valid: list[Triple]
    test: list[Triple]
    labels: dict[int, int] | None = None
    class_names: list[str] = field(default_factory=list)
    label_train: list[int] = field(default_factory=list)
    label_valid: list[int] = field(default_factory=list)
    label_test: list[int] = field(default_factory=list)

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

def _bundle_data(kg: KnowledgeGraph, split: DatasetSplit) -> dict:
    index = {t: i for i, t in enumerate(id_tuples(kg.relation_triples))}
    data = {
        "entities": list(kg.entities.names),
        "relations": list(kg.relations.names),
        "values": list(kg.values.names),
        "relation_triples": kg.relation_triples.tolist(),
        "attribute_triples": kg.attribute_triples.tolist(),
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


def _check_ids(value, limits: tuple[int, ...], what: str, source: str) -> np.ndarray:
    """``value`` as an int64 array: it must be a list of ids below
    ``limits[0]`` (one limit), or a list of rows whose column j holds ids
    below ``limits[j]``."""
    shape = (len(limits),) if len(limits) > 1 else ()
    if value == []:
        return np.empty((0, *shape), dtype=np.int64)
    try:
        arr = np.asarray(value) if isinstance(value, list) else None
    except ValueError:  # rows of unequal length
        arr = None
    # NumPy reads JSON true and false among ints as 1 and 0
    if (arr is None or arr.dtype.kind != "i" or arr.shape[1:] != shape
            or bool in set(map(type, chain.from_iterable(value) if shape else value))):
        kind = f"rows of {len(limits)} ids" if shape else "ids"
        raise IntegrityError(f"{source}: bundle {what} is not a list of {kind}")
    bad = ((arr < 0) | (arr >= np.asarray(limits))).reshape(len(arr), -1).any(axis=1)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise IntegrityError(f"{source}: bundle {what} entry {i} is out of range: {arr[i].tolist()}")
    return arr.astype(np.int64, copy=False)


def _check_once(ids: np.ndarray, limit: int, what: str, source: str) -> np.ndarray:
    """How often each id below ``limit`` occurs in ``ids``; an id that
    occurs more than once raises."""
    counts = np.bincount(ids, minlength=limit)
    if (counts > 1).any():
        raise IntegrityError(f"{source}: bundle {what} {int(np.argmax(counts > 1))} more than once")
    return counts


def bundle_from_json(text: str, source: str = "<bundle>") -> tuple[KnowledgeGraph, DatasetSplit, str]:
    """Rebuild graph and split from a bundle.

    Verifies the content checksum, the required keys, that every entity,
    relation, value, triple, class and split id is in range, that no
    triple, split index, labeled entity or label-split entity is listed
    twice, and that every entity of the label split has a label; any
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
    rel_rows = _check_ids(data["relation_triples"], (n_ent, n_rel, n_ent), "relation_triples", source)
    attr_rows = _check_ids(data["attribute_triples"], (n_ent, n_rel, n_val), "attribute_triples", source)
    if not (first_occurrences(rel_rows).all() and first_occurrences(attr_rows).all()):
        raise IntegrityError(f"{source}: bundle lists a triple twice")
    _require(data["split"], _SPLIT_KEYS, "split", source)
    parts = [_check_ids(data["split"][p], (len(rel_rows),), f"split {p}", source) for p in _SPLIT_KEYS]
    _check_once(np.concatenate(parts), len(rel_rows), "split lists triple", source)
    dropped = data["dropped_duplicates"]
    if not (isinstance(dropped, list) and len(dropped) == 2 and all(type(x) is int and x >= 0 for x in dropped)):
        raise IntegrityError(f"{source}: bundle dropped_duplicates is not a pair of counts")
    lab = data["labels"]
    if lab is not None:
        _require(lab, _LABEL_KEYS, "labels", source)
        n_cls = len(_names(lab["classes"], "label classes", source))
        by_entity = _check_ids(lab["by_entity"], (n_ent, n_cls), "labels by_entity", source)
        labeled = _check_once(by_entity[:, 0], n_ent, "labels by_entity lists entity", source)
        label_parts = [_check_ids(lab[p], (n_ent,), f"labels {p}", source) for p in _SPLIT_KEYS]
        split_entities = np.concatenate(label_parts)
        _check_once(split_entities, n_ent, "labels split lists entity", source)
        unlabeled = split_entities[labeled[split_entities] == 0]
        if len(unlabeled):
            raise IntegrityError(f"{source}: bundle labels split entity {unlabeled[0]} has no label")

    kg = KnowledgeGraph()
    for name in data["entities"]:
        kg.entities.intern(name)
    for name in data["relations"]:
        kg.relations.intern(name)
    for i, literal in enumerate(data["values"]):
        if not tokenize(literal):
            raise IntegrityError(f"{source}: bundle value {i} has no tokens: {literal!r}")
        kg._intern_value(literal)
    kg.relation_triples, kg.attribute_triples = rel_rows, attr_rows
    kg.dropped_relation_duplicates, kg.dropped_attribute_duplicates = dropped

    split = DatasetSplit(*(id_tuples(rel_rows[ids]) for ids in parts))
    if lab is not None:
        split.labels = dict(by_entity.tolist())
        split.class_names = list(lab["classes"])
        split.label_train, split.label_valid, split.label_test = (ids.tolist() for ids in label_parts)
    return kg, split, actual
