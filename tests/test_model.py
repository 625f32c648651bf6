"""Propagation model: attention normalization, per-piece hand oracles, and
full forward passes checked against the pure-Python reference implementation."""

from __future__ import annotations

import numpy as np
import pytest

import kane.autodiff as ad
import kane.model as model_module
import kane.oracle as oracle
from kane.errors import ConfigError
from kane.kgdata import GraphView
from kane.model import (
    ModelConfig,
    aggregate,
    attention_logit,
    attention_weights,
    classify,
    encode_value,
    forward_all,
    init_params,
    is_translation_mode,
    params_from_arrays,
    propagate_head,
    score,
)

from helpers import check_gradients, kg_from_name_triples, random_kg, relative_error


def build(
    seed: int,
    config: ModelConfig,
    entities: int = 6,
    relations: int = 3,
    triples: int = 14,
    with_attributes: bool = False,
    class_count: int = 0,
):
    rng = np.random.default_rng(seed)
    kg = random_kg(
        rng,
        entities=entities,
        relations=relations,
        triples=triples,
        attribute_relations=2 if with_attributes else 0,
        attribute_triples=2 * entities if with_attributes else 0,
    )
    view = GraphView.full(kg, config.use_attributes)
    params = init_params(
        kg.num_entities, kg.num_relations, kg.vocab_size, class_count, config, rng
    )
    return kg, view, params


def oracle_config(config: ModelConfig) -> dict:
    return {
        "layers": config.layers,
        "heads": config.heads,
        "attention": config.attention,
        "leaky_slope": config.leaky_slope,
        "norm": config.norm,
        "aggregator": config.aggregator,
        "encoder": config.encoder,
    }


# ---------------------------------------------------------------------------
# configuration contracts


BAD_CONFIGS = [
    {"dim": 0},
    {"head_dim": 0},
    {"heads": 0},
    {"layers": -1},
    {"aggregator": "mean"},
    {"encoder": "cnn"},
    {"norm": "l3"},
    {"attention": "dot"},
    {"aggregator": "average", "head_dim": 3, "dim": 4},
    {"leaky_slope": 1.0},
    {"leaky_slope": -0.1},
]


@pytest.mark.parametrize("overrides", BAD_CONFIGS)
def test_invalid_config_rejected(overrides):
    with pytest.raises(ConfigError):
        ModelConfig(**overrides).validate()


def test_default_config_is_valid():
    ModelConfig().validate()


def test_translation_mode_flag():
    assert is_translation_mode(ModelConfig(layers=0, use_attributes=False))
    assert not is_translation_mode(ModelConfig(layers=0, use_attributes=True))
    assert not is_translation_mode(ModelConfig(layers=2, use_attributes=False))


def test_init_rows_are_unit_length():
    config = ModelConfig(dim=7, head_dim=7, heads=1, layers=1)
    rng = np.random.default_rng(0)
    params = init_params(10, 4, 6, 3, config, rng)
    for table in (params.entity, params.relation):
        norms = np.linalg.norm(table.data, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
    assert params.cls_b is not None and np.array_equal(params.cls_b.data, np.zeros(3))


def test_params_from_arrays_round_trip():
    config = ModelConfig(dim=5, head_dim=4, heads=2, layers=2, encoder="lstm")
    rng = np.random.default_rng(1)
    params = init_params(6, 3, 8, 2, config, rng)
    arrays = params.snapshot()
    rebuilt = params_from_arrays(arrays, config, class_count=2, vocab_size=8)
    got = dict(rebuilt.named_parameters())
    want = dict(params.named_parameters())
    assert set(got) == set(want)
    for name in want:
        assert np.array_equal(got[name].data, want[name].data), name


# ---------------------------------------------------------------------------
# attention


class TestAttention:
    def test_weights_sum_to_one_and_are_non_negative(self):
        for seed in range(6):
            for attention in ("bilinear", "translational"):
                config = ModelConfig(
                    dim=5, head_dim=4, heads=2, layers=2, attention=attention
                )
                kg, view, params = build(seed, config, with_attributes=seed % 2 == 0)
                for e in range(kg.num_entities):
                    w = attention_weights(e, view, params, config, layer=1, head=1).data
                    assert abs(float(w.sum()) - 1.0) < 1e-12
                    assert (w >= 0.0).all()
                    assert w.shape == (len(view.neighborhood[e]),)

    def test_bilinear_logit_hand_oracle(self):
        rng = np.random.default_rng(3)
        config = ModelConfig(dim=4, head_dim=3, heads=1, layers=1, leaky_slope=0.2)
        h = ad.constant(rng.standard_normal(4))
        r = ad.constant(rng.standard_normal(4))
        n = ad.constant(rng.standard_normal(4))
        w = ad.constant(rng.standard_normal((3, 4)))
        got = float(attention_logit(h, r, n, w, config).data)
        q = w.data @ r.data
        m = w.data @ (r.data + n.data)
        raw = float(q @ m)
        want = raw if raw > 0 else config.leaky_slope * raw
        assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_translational_logit_hand_oracle(self, norm):
        rng = np.random.default_rng(4)
        config = ModelConfig(
            dim=4, head_dim=4, heads=1, layers=1, attention="translational", norm=norm
        )
        h = ad.constant(rng.standard_normal(4))
        r = ad.constant(rng.standard_normal(4))
        n = ad.constant(rng.standard_normal(4))
        w = ad.constant(rng.standard_normal((4, 4)))
        got = float(attention_logit(h, r, n, w, config).data)
        diff = h.data + r.data - n.data
        want = -(np.abs(diff).sum() if norm == "l1" else np.sqrt((diff * diff).sum()))
        assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("attention", ["bilinear", "translational"])
    def test_weights_equal_softmax_of_single_logits(self, attention):
        config = ModelConfig(dim=5, head_dim=4, heads=2, layers=1, attention=attention)
        if attention == "translational":
            config = ModelConfig(
                dim=5, head_dim=4, heads=2, layers=1, attention=attention, norm="l2"
            )
        kg, view, params = build(7, config, with_attributes=True)
        values = encode_value(np.arange(kg.num_values), view, params, config)
        for e in range(kg.num_entities):
            neighbors = view.neighborhood[e]
            logits = []
            h_vec = ad.row(params.entity, e)
            for nb in neighbors:
                r_vec = ad.row(params.relation, nb.relation)
                if nb.is_attribute:
                    n_vec = ad.row(values, nb.target)
                else:
                    n_vec = ad.row(params.entity, nb.target)
                logits.append(
                    float(
                        attention_logit(
                            h_vec, r_vec, n_vec, params.head_w[0][1], config
                        ).data
                    )
                )
            shifted = np.exp(np.array(logits) - max(logits))
            want = shifted / shifted.sum()
            got = attention_weights(e, view, params, config, layer=0, head=1).data
            assert relative_error(got, want) < 1e-12

    def test_no_neighbors_raises(self):
        kg = kg_from_name_triples([("a", "r", "b")])
        config = ModelConfig(dim=3, head_dim=3, heads=1, layers=1)
        params = init_params(2, 1, 0, 0, config, np.random.default_rng(0))
        view = GraphView.full(kg, config.use_attributes)
        sink = kg.entities.id_of("b")
        with pytest.raises(ValueError):
            attention_weights(sink, view, params, config)
        with pytest.raises(ValueError):
            propagate_head(sink, view, params, config)


def test_propagate_head_is_weighted_message_sum():
    config = ModelConfig(dim=5, head_dim=3, heads=2, layers=1)
    kg, view, params = build(11, config, with_attributes=True)
    values = encode_value(np.arange(kg.num_values), view, params, config).data
    for e in range(kg.num_entities):
        weights = attention_weights(e, view, params, config, layer=0, head=0).data
        transform = params.head_w[0][0].data
        messages = []
        for nb in view.neighborhood[e]:
            r_vec = params.relation.data[nb.relation]
            if nb.is_attribute:
                n_vec = values[nb.target]
            else:
                n_vec = params.entity.data[nb.target]
            messages.append(transform @ (r_vec + n_vec))
        want = weights @ np.stack(messages)
        got = propagate_head(e, view, params, config, layer=0, head=0).data
        assert relative_error(got, want) < 1e-12


# ---------------------------------------------------------------------------
# aggregation, scoring, classification


def test_aggregate_concat_hand_oracle():
    config = ModelConfig(dim=4, head_dim=3, heads=2, layers=1, leaky_slope=0.1)
    params = init_params(3, 2, 0, 0, config, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    outs = [ad.constant(rng.standard_normal(3)) for _ in range(2)]
    got = aggregate(outs, params, config, layer=0).data
    pre = params.out_w[0].data @ np.concatenate([o.data for o in outs])
    want = np.where(pre > 0, pre, config.leaky_slope * pre)
    assert relative_error(got, want) < 1e-12


def test_aggregate_average_hand_oracle():
    config = ModelConfig(
        dim=4, head_dim=4, heads=3, layers=1, aggregator="average", leaky_slope=0.3
    )
    params = init_params(3, 2, 0, 0, config, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    outs = [ad.constant(rng.standard_normal(4)) for _ in range(3)]
    got = aggregate(outs, params, config, layer=0).data
    pre = sum(o.data for o in outs) / 3.0
    want = np.where(pre > 0, pre, config.leaky_slope * pre)
    assert relative_error(got, want) < 1e-12


def test_aggregate_rejects_wrong_head_count():
    config = ModelConfig(dim=4, head_dim=3, heads=2, layers=1)
    params = init_params(3, 2, 0, 0, config, np.random.default_rng(9))
    with pytest.raises(ConfigError):
        aggregate([ad.constant(np.zeros(3))], params, config, layer=0)


def test_score_hand_values():
    h = ad.constant(np.array([1.0, 2.0]))
    r = ad.constant(np.array([0.0, 1.0]))
    t = ad.constant(np.array([0.0, 0.0]))
    assert abs(float(score(h, r, t, "l1").data) - 4.0) < 1e-15
    assert abs(float(score(h, r, t, "l2").data) - np.sqrt(10.0)) < 1e-15


def test_classify_hand_oracle_and_missing_head():
    config = ModelConfig(dim=4, head_dim=4, heads=1, layers=1)
    params = init_params(3, 2, 0, 3, config, np.random.default_rng(10))
    v = ad.constant(np.arange(4.0))
    got = classify(v, params).data
    want = params.cls_w.data @ v.data + params.cls_b.data
    assert relative_error(got, want) < 1e-12
    bare = init_params(3, 2, 0, 0, config, np.random.default_rng(11))
    with pytest.raises(ConfigError):
        classify(v, bare)


def test_encode_value_once_per_pass(monkeypatch):
    config = ModelConfig(dim=4, head_dim=4, heads=1, layers=2)
    kg, view, params = build(12, config, with_attributes=True)
    ids = [2, 0, 2]
    table = encode_value(ids, view, params, config).data
    assert table.shape == (3, 4) and np.array_equal(table[0], table[2])
    for row, v in zip(table, ids):
        want = params.word.data[sorted(kg.value_tokens[v])].sum(axis=0)
        assert relative_error(row, want) < 1e-12
    # a forward pass encodes every value once, in one call, for all layers
    calls = []
    real = model_module.bow_encode
    monkeypatch.setattr(
        model_module, "bow_encode", lambda seqs, word: calls.append(seqs) or real(seqs, word)
    )
    forward_all(view, params, config)
    assert calls == [kg.value_tokens]


# ---------------------------------------------------------------------------
# full forward pass against the reference implementation


FORWARD_CASES = [
    ModelConfig(dim=5, head_dim=4, heads=2, layers=2),
    ModelConfig(dim=4, head_dim=4, heads=1, layers=1, aggregator="average"),
    ModelConfig(dim=4, head_dim=3, heads=3, layers=2, attention="translational", norm="l2"),
    ModelConfig(dim=5, head_dim=5, heads=2, layers=1, encoder="lstm"),
    ModelConfig(dim=3, head_dim=2, heads=2, layers=3, leaky_slope=0.0),
]


@pytest.mark.parametrize("config", FORWARD_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_all_matches_reference(config, seed):
    kg, view, params = build(seed, config, with_attributes=True)
    got = forward_all(view, params, config)
    arrays = oracle.params_to_lists(params.named_parameters())
    want = oracle.naive_entity_vectors(view, arrays, oracle_config(config))
    for e in range(kg.num_entities):
        assert relative_error(got[e].data, np.array(want[e])) < 1e-10


def test_zero_layers_returns_raw_embeddings():
    config = ModelConfig(dim=4, head_dim=4, heads=1, layers=0)
    kg, view, params = build(3, config)
    vecs = forward_all(view, params, config)
    for e in range(kg.num_entities):
        assert np.array_equal(vecs[e].data, params.entity.data[e])


def test_isolated_entity_keeps_raw_vector():
    kg = kg_from_name_triples([("a", "r", "b"), ("b", "r", "a"), ("a", "r", "c")])
    config = ModelConfig(dim=3, head_dim=3, heads=1, layers=2)
    params = init_params(3, 1, 0, 0, config, np.random.default_rng(4))
    view = GraphView.full(kg, config.use_attributes)
    vecs = forward_all(view, params, config)
    sink = kg.entities.id_of("c")
    assert np.array_equal(vecs[sink].data, params.entity.data[sink])
    moved = kg.entities.id_of("a")
    assert not np.array_equal(vecs[moved].data, params.entity.data[moved])


def test_forward_all_reads_the_given_value_table(monkeypatch):
    config = ModelConfig(dim=4, head_dim=4, heads=1, layers=1)
    kg, view, params = build(13, config, with_attributes=True)
    used = {nb.target for nbs in view.neighborhood for nb in nbs if nb.is_attribute}
    assert used
    values = encode_value(np.arange(kg.num_values), view, params, config)
    want = forward_all(view, params, config).matrix.data

    def no_second_encoding(*args):
        raise AssertionError("forward_all encoded values although a table was given")

    monkeypatch.setattr(model_module, "encode_value", no_second_encoding)
    got = forward_all(view, params, config, values).matrix.data
    assert np.array_equal(got, want)


def test_attributes_off_ignores_attribute_triples():
    relation_triples = [("a", "r", "b"), ("b", "r", "a")]
    with_attr = kg_from_name_triples(relation_triples, [("a", "has", "red thing")])
    without = kg_from_name_triples(relation_triples)
    config_off = ModelConfig(dim=3, head_dim=3, heads=1, layers=2, use_attributes=False)
    params_a = init_params(2, 2, 2, 0, config_off, np.random.default_rng(5))
    params_b = init_params(2, 2, 2, 0, config_off, np.random.default_rng(5))
    vec_a = forward_all(GraphView.full(with_attr, False), params_a, config_off)
    vec_b = forward_all(GraphView.full(without, False), params_b, config_off)
    top = with_attr.entities.id_of("a")
    assert np.array_equal(vec_a[top].data, vec_b[top].data)
    config_on = ModelConfig(dim=3, head_dim=3, heads=1, layers=2)
    vec_on = forward_all(GraphView.full(with_attr, True), params_a, config_on)
    assert not np.array_equal(vec_on[top].data, vec_a[top].data)


def test_forward_gradients_end_to_end():
    config = ModelConfig(dim=4, head_dim=3, heads=2, layers=2)
    kg, view, params = build(21, config, entities=4, triples=8, with_attributes=True)
    tensors = params.all_tensors()

    def forward():
        vecs = forward_all(view, params, config)
        total = vecs[0]
        for v in vecs[1:]:
            total = ad.add(total, v)
        return ad.sum_all(total)

    rng = np.random.default_rng(0)
    worst = check_gradients(forward, tensors, step=1e-6, max_entries_per_param=6, rng=rng)
    assert worst < 1e-4
