"""Fuzzed artifacts: a damaged bundle or checkpoint loads or raises
``IntegrityError``, never another exception.

Byte-level damage (truncations, flipped bytes) mostly stops at the
checksum or the JSON parser, so the bundle is also mutated at the JSON
level with its checksum recomputed, and the checkpoint header field by
field, which lets each mutation reach the schema checks behind them.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kane.errors import IntegrityError
from kane.kgdata import bundle_checksum, bundle_from_json, bundle_to_json, generate_synthetic_kg
from kane.model import ModelConfig, init_params
from kane.training import TrainConfig, load_checkpoint_bytes, save_checkpoint_bytes

from helpers import checkpoint_header, with_checkpoint_header

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


@FUZZ
@given(cut=st.integers(0, len(BUNDLE) - 1), at=st.integers(0, len(BUNDLE) - 1), byte=st.integers(0, 0x7F))
def test_truncated_or_flipped_bundle_raises_only_integrity_error(cut, at, byte):
    _loads_or_refuses(_load_bundle, BUNDLE[:cut])
    _loads_or_refuses(_load_bundle, BUNDLE[:at] + bytes([byte]) + BUNDLE[at + 1:])


_BUNDLE_DOC = json.loads(BUNDLE)


@FUZZ
@given(path=st.sampled_from(list(_paths(_BUNDLE_DOC["data"]))), **_MUTATION)
def test_mutated_bundle_data_raises_only_integrity_error(path, op, value):
    doc = json.loads(BUNDLE)
    _mutate(doc["data"], path, op, value)
    doc["checksum"] = bundle_checksum(doc["data"])
    _loads_or_refuses(_load_bundle, json.dumps(doc).encode("utf-8"))


@FUZZ
@given(cut=st.integers(0, len(CHECKPOINT) - 1), at=st.integers(0, len(CHECKPOINT) - 1), byte=st.integers(0, 255))
def test_truncated_or_flipped_checkpoint_raises_only_integrity_error(cut, at, byte):
    with pytest.raises(IntegrityError):
        load_checkpoint_bytes(CHECKPOINT[:cut])
    _loads_or_refuses(load_checkpoint_bytes, CHECKPOINT[:at] + bytes([byte]) + CHECKPOINT[at + 1:])


@FUZZ
@given(path=st.sampled_from(list(_paths(checkpoint_header(CHECKPOINT)))), **_MUTATION)
@example(path=("config", "model", "layers"), op="replace", value=2**40)
@example(path=("arrays", 0, "shape", 0), op="replace", value=2**62)
def test_mutated_checkpoint_header_raises_only_integrity_error(path, op, value):
    header = _mutate(checkpoint_header(CHECKPOINT), path, op, value)
    _loads_or_refuses(load_checkpoint_bytes, with_checkpoint_header(CHECKPOINT, header))
