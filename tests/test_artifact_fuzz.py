"""Fuzzed artifacts: a damaged bundle or checkpoint loads or raises
``IntegrityError``, never another exception.

Byte-level damage (truncations, and a byte replaced by another or by a
run of bytes) mostly stops at the checksum or the JSON parser, so the
bundle is also mutated at the JSON level with its checksum recomputed:
inside its packed id strings, whose characters are flipped or cut, and in
its data with the packed id fields unpacked to JSON lists and packed
again. The checkpoint header is mutated field by field. Each mutation
thus reaches the schema checks behind the checksum.
"""

from __future__ import annotations

import json
import string
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kane.errors import IntegrityError
from kane.kgdata import bundle_checksum, bundle_from_json, bundle_to_json, generate_synthetic_kg
from kane.model import ModelConfig, init_params
from kane.training import CHECKPOINT_MAGIC, TrainConfig, load_checkpoint_bytes, save_checkpoint_bytes

from helpers import (
    PACKED_FIELDS, UNPARSEABLE_JSON, checkpoint_header, edited_bundle, unpack_fields, with_checkpoint_header,
)

FUZZ = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])

_kg, _split = generate_synthetic_kg(5, entities=12, relations=3, clusters=3, attribute_relations=2)
BUNDLE = bundle_to_json(_kg, _split).encode("utf-8")
_model = ModelConfig(dim=3, head_dim=2, heads=2, layers=2, aggregator="concat", encoder="lstm")
CHECKPOINT = save_checkpoint_bytes(
    init_params(_kg.num_entities, _kg.num_relations, _kg.vocab_size, _split.class_count, _model,
                np.random.default_rng(0)),
    TrainConfig(model=_model, task="classification"),
)

# replacement values: wrong types, out-of-range and huge numbers (2**62
# rows of a 3-wide array overflow an int64 byte count), empty and nested
# containers
BAD_VALUES = [
    None, True, -1, 0, 2**40, 2**62, 2**63, 10**20, 1.5, float("inf"), "", "x", [], [-1], [[0, 0, 0]], {},
]


def _paths(node, prefix=()):
    """Every path into a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(doc, path, op, value):
    """``doc`` (a fresh copy) with the node at ``path`` replaced by
    ``value``, deleted, or, in a list, duplicated."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "replace":
        parent[key] = value
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, parent[key])
    return doc


def _loads_or_refuses(load, blob) -> None:
    try:
        load(blob)
    except IntegrityError:
        pass


def _load_bundle(blob: bytes) -> None:
    # the CLI decodes files first and refuses non-UTF-8 bytes as a ParseError
    bundle_from_json(blob.decode("utf-8"), "b.json")


_MUTATION = dict(op=st.sampled_from(["replace", "delete", "duplicate"]), value=st.sampled_from(BAD_VALUES))


def _byte(top: int):
    """One byte up to ``top``, as the run that replaces a byte."""
    return st.integers(0, top).map(lambda b: bytes([b]))


# where the bundle's first count begins: a run of digits there is one integer
_COUNT_AT = BUNDLE.index(b'"dropped_duplicates":[') + len(b'"dropped_duplicates":[')


@FUZZ
@given(cut=st.integers(0, len(BUNDLE) - 1), at=st.integers(0, len(BUNDLE) - 1), run=_byte(0x7F))
@example(cut=0, at=0, run=UNPARSEABLE_JSON["nested"].encode())
@example(cut=0, at=_COUNT_AT, run=b"1" * 5000)
def test_truncated_or_flipped_bundle_raises_only_integrity_error(cut, at, run):
    _loads_or_refuses(_load_bundle, BUNDLE[:cut])
    _loads_or_refuses(_load_bundle, BUNDLE[:at] + run + BUNDLE[at + 1:])


def _written(doc) -> bytes:
    """``doc`` with its checksum recomputed, in the layout the writer uses."""
    doc["checksum"] = bundle_checksum(doc["data"])
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


_PACKED = [path for path, _ in PACKED_FIELDS]


def _field(data, path):
    for key in path[:-1]:
        data = data[key]
    return data, path[-1]


# base64 characters, padding, and characters outside the alphabet and ASCII
_CHARS = string.ascii_letters + string.digits + "+/=" + " \n-_.!\u00e9"


@FUZZ
@given(path=st.sampled_from(_PACKED), at=st.integers(0, 10**6), char=st.sampled_from(_CHARS), cut=st.booleans())
@example(path=("split", "test"), at=1, char="=", cut=False)
@example(path=("relation_triples",), at=7, char="A", cut=True)
def test_flipped_or_cut_packed_field_raises_only_integrity_error(path, at, char, cut):
    doc = json.loads(BUNDLE)
    parent, key = _field(doc["data"], path)
    at %= len(parent[key]) + 1
    parent[key] = parent[key][:at] if cut else parent[key][:at] + char + parent[key][at + 1:]
    _loads_or_refuses(_load_bundle, _written(doc))


@pytest.mark.parametrize("path", _PACKED, ids=["/".join(path) for path in _PACKED])
def test_packed_field_replaced_by_each_bad_value_raises_only_integrity_error(path):
    for value in BAD_VALUES:
        doc = json.loads(BUNDLE)
        parent, key = _field(doc["data"], path)
        parent[key] = value
        if isinstance(value, str):  # "" is an empty field, which may load
            _loads_or_refuses(_load_bundle, _written(doc))
            continue
        with pytest.raises(IntegrityError, match=f"^b.json: bundle {' '.join(path)} is not a packed string"):
            _load_bundle(_written(doc))


@FUZZ
@given(path=st.sampled_from(list(_paths(unpack_fields(json.loads(BUNDLE)["data"])))), **_MUTATION)
@example(path=("split", "test", 0), op="replace", value=2**40)
@example(path=("labels", "by_entity", 3), op="replace", value=[-1])
def test_mutated_bundle_data_raises_only_integrity_error(path, op, value):
    blob = edited_bundle(BUNDLE.decode("utf-8"), lambda data: _mutate(data, path, op, value))
    _loads_or_refuses(_load_bundle, blob.encode("utf-8"))


_HEADER_AT = len(CHECKPOINT_MAGIC) + 8
_HEADER_END = _HEADER_AT + struct.unpack_from("<Q", CHECKPOINT, len(CHECKPOINT_MAGIC))[0]


def _spliced_checkpoint(at: int, run: bytes) -> bytes:
    """``CHECKPOINT`` with the byte at ``at`` replaced by ``run``; a run
    inside the header lengthens the header by its stored length too."""
    blob = CHECKPOINT[:at] + run + CHECKPOINT[at + 1:]
    if _HEADER_AT <= at < _HEADER_END:
        grown = struct.pack("<Q", _HEADER_END - _HEADER_AT + len(run) - 1)
        blob = blob[:len(CHECKPOINT_MAGIC)] + grown + blob[_HEADER_AT:]
    return blob


@FUZZ
@given(cut=st.integers(0, len(CHECKPOINT) - 1), at=st.integers(0, len(CHECKPOINT) - 1), run=_byte(255))
@example(cut=0, at=_HEADER_AT, run=UNPARSEABLE_JSON["nested"].encode())
@example(cut=0, at=CHECKPOINT.index(b'"format_version":') + len(b'"format_version":'), run=b"1" * 5000)
def test_truncated_or_flipped_checkpoint_raises_only_integrity_error(cut, at, run):
    with pytest.raises(IntegrityError):
        load_checkpoint_bytes(CHECKPOINT[:cut])
    _loads_or_refuses(load_checkpoint_bytes, _spliced_checkpoint(at, run))


@FUZZ
@given(path=st.sampled_from(list(_paths(checkpoint_header(CHECKPOINT)))), **_MUTATION)
@example(path=("config", "model", "layers"), op="replace", value=2**40)
@example(path=("arrays", 0, "shape", 0), op="replace", value=2**62)
def test_mutated_checkpoint_header_raises_only_integrity_error(path, op, value):
    header = _mutate(checkpoint_header(CHECKPOINT), path, op, value)
    _loads_or_refuses(load_checkpoint_bytes, with_checkpoint_header(CHECKPOINT, header))
