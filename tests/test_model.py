"""Propagation model: attention normalization, per-piece hand oracles, and
full forward passes checked against the pure-Python reference implementation."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

import kane.autodiff as ad
import kane.model as model_module
import kane.oracle as oracle
from kane.encoders import BowLayout, LstmLayout
from kane.errors import ConfigError, ShapeError
from kane.evaluation import classification_accuracy
from kane.kgdata import DatasetSplit, GraphView, generate_synthetic_kg
from kane.model import (
    ModelConfig,
    ModelParams,
    aggregate,
    encode_value,
    forward_all,
    init_params,
    is_translation_mode,
    parameter_shapes,
    unit_rows,
)
from kane.training import (
    TrainConfig, _classification_batch_loss, _completion_batch_loss, load_checkpoint_bytes,
    save_checkpoint_bytes, train,
)

from helpers import (
    autodiff_gradients, check_gradients, encode_bow, encode_lstm, fused_concat_rows, fused_rows,
    kg_from_name_triples, probe, random_kg, reference_bce, relative_error, total,
)


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
    view = GraphView.restricted(kg, kg.relation_triples, config.use_attributes)
    params = init_params(
        kg.num_entities, kg.num_relations, kg.vocab_size, class_count, config, rng
    )
    return kg, view, params


def layer_heads(view, params, config, layer=0):
    """(Attention weights over all edges, (edges, heads), and head outputs of
    the entities with neighbors, (active, heads * head_dim)) of one layer run
    on the raw embedding table, read from the whole-graph layer
    ``forward_all`` runs. Translational heads share one weight vector; it
    is repeated here once per head."""
    weights, outputs = model_module._layer_heads(
        params.entity, encode_value(view, params, config), view, params, config, layer,
    )
    edges = view.edges.source.size
    if config.attention == "bilinear":
        assert weights.shape == (edges, config.heads)
        return weights.data, outputs.data
    assert weights.shape == (edges,)
    return np.repeat(weights.data[:, None], config.heads, axis=1), outputs.data


def edge_slice(view, weights, e, head):
    """Entity ``e``'s attention weights in ``head``, one per neighbor."""
    return weights[view.edges.owner == e, head]


def head_block(outputs, config, head):
    """The columns of ``head`` in concat-layout head outputs."""
    return outputs[:, head * config.head_dim:(head + 1) * config.head_dim]


def head_transform(params, config, layer, head):
    """Head ``head``'s (head_dim, dim) transform W_h, acting on column
    vectors: the transpose of its column block of ``head_w.{layer}``."""
    return params[f"head_w.{layer}"].data[:, head * config.head_dim:(head + 1) * config.head_dim].T


def numpy_logits(config, transform, head_vec, neighbors):
    """Unnormalized attention logits of one entity's (relation vector,
    neighbor vector) pairs, computed in plain NumPy."""
    logits = []
    for r_vec, n_vec in neighbors:
        if config.attention == "bilinear":
            raw = float((transform @ r_vec) @ (transform @ (r_vec + n_vec)))
            logits.append(raw if raw > 0 else config.leaky_slope * raw)
        else:
            diff = head_vec + r_vec - n_vec
            logits.append(-(np.abs(diff).sum() if config.norm == "l1" else np.sqrt((diff * diff).sum())))
    return np.array(logits)


def softmax(logits):
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


def neighbor_vectors(view, params, values, e):
    """(relation vector, neighbor vector) per outgoing edge of ``e``;
    attribute neighbors read row ``v`` of the value table ``values``."""
    return [
        (params.relation.data[relation], values[target] if is_attribute else params.entity.data[target])
        for relation, target, is_attribute in oracle.neighbor_lists(view)[e]
    ]


def hand_built(config):
    """A small graph whose entity "a" reaches two entities, itself and one
    attribute value; every parameter is redrawn standard-normal, the
    transforms in their (out, in) shape and stored transposed, as
    ``init_params`` draws them."""
    kg = kg_from_name_triples(
        [("a", "r", "b"), ("a", "s", "c"), ("a", "r", "a"), ("b", "s", "a")],
        [("a", "p", "x y")],
    )
    rng = np.random.default_rng(5)
    params = init_params(kg.num_entities, kg.num_relations, kg.vocab_size, 0, config, rng)
    for name, t in params.named_parameters():
        if name.startswith(("head_w", "out_w")):
            t.data = rng.standard_normal(t.shape[::-1]).T
        else:
            t.data = rng.standard_normal(t.shape)
    view = GraphView.restricted(kg, kg.relation_triples, config.use_attributes)
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
        ModelConfig(**overrides)


def test_default_config_is_valid():
    ModelConfig()


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
    assert np.array_equal(params["cls_b"].data, np.zeros(3))


def test_from_named_round_trip():
    config = ModelConfig(dim=5, head_dim=4, heads=2, layers=2, encoder="lstm")
    rng = np.random.default_rng(1)
    params = init_params(6, 3, 8, 2, config, rng)
    want = params.named_parameters()
    rebuilt = ModelParams(want)
    assert rebuilt.named_parameters() == want


def test_init_params_stores_each_draw_transposed():
    """A seed pins every value, drawn in this order: the entity, relation
    and word tables, uniform in +-6/sqrt(dim), entity and relation rows
    then scaled to unit length; with the LSTM encoder, each gate's (dim,
    dim) input and hidden matrices, gate by gate, input path first; each
    head's (head_dim, dim) transform per layer, the (dim, heads *
    head_dim) merge per layer and the (classes, dim) classifier. Every
    transform is stored transposed, and every array row-major, as a
    checkpoint load gives it; the LSTM forget bias starts at 1 and every
    other bias at 0."""
    for vocab, encoder in ((0, "bow"), (7, "lstm")):
        config = ModelConfig(dim=5, head_dim=3, heads=2, layers=2, encoder=encoder)
        params = init_params(6, 3, vocab, 4, config, np.random.default_rng(9))
        got = {name: t.data for name, t in params.named_parameters()}
        rng = np.random.default_rng(9)

        def table(rows):
            return rng.uniform(-6.0 / np.sqrt(5), 6.0 / np.sqrt(5), size=(rows, 5))

        def fan(shape):
            limit = np.sqrt(6.0 / sum(shape))
            return rng.uniform(-limit, limit, size=shape)

        want = {"entity": unit_rows(table(6)), "relation": unit_rows(table(3))}
        if vocab:
            want["word"] = table(vocab)
        if encoder == "lstm":
            gates = [(fan((5, 5)), fan((5, 5))) for _ in range(4)]
            want["lstm.w_in"] = np.concatenate([w_in.T for w_in, _ in gates], axis=1)
            want["lstm.w_hid"] = np.concatenate([w_hid.T for _, w_hid in gates], axis=1)
            want["lstm.b"] = np.repeat([0.0, 1.0, 0.0, 0.0], 5)  # input, forget, output, cell
        for layer in range(2):
            want[f"head_w.{layer}"] = np.concatenate([fan((3, 5)) for _ in range(2)]).T
        for layer in range(2):
            want[f"out_w.{layer}"] = fan((5, 6)).T
        want["cls_w"] = fan((4, 5)).T
        want["cls_b"] = np.zeros(4)
        assert list(got) == list(want), encoder
        for name, value in want.items():
            assert np.array_equal(got[name], value), (encoder, name)
            assert got[name].flags.c_contiguous, (encoder, name)


_LAYOUT_CASES = {
    "lstm-concat-classes": ("classification", ModelConfig(dim=5, head_dim=4, heads=2, layers=2, encoder="lstm")),
    "bow-average": ("completion", ModelConfig(dim=4, head_dim=4, heads=3, layers=1, aggregator="average")),
    "no-words": ("completion", ModelConfig(dim=3, head_dim=2, heads=1, layers=0, use_attributes=False)),
    **{
        f"{task}-{'attributes' if attributes else 'no-attributes'}-{encoder}": (
            task, ModelConfig(dim=4, head_dim=3, heads=2, layers=1, encoder=encoder, use_attributes=attributes)
        )
        for task, attributes, encoder in itertools.product(
            ("completion", "classification"), (True, False), ("bow", "lstm")
        )
    },
}


@pytest.mark.parametrize("task, config", _LAYOUT_CASES.values(), ids=_LAYOUT_CASES)
def test_parameter_shapes_match_init_params(task, config):
    """``init_params`` draws the layout of ``parameter_shapes``, the
    classifier only for classification, and one epoch of training on the
    seed-0 synthetic graph moves every array of the checkpoint from its
    init draw: a run stores nothing that it does not train."""
    kg, split = generate_synthetic_kg(0)
    counts = (kg.num_entities, kg.num_relations, kg.vocab_size,
              split.class_count if task == "classification" else 0)
    init = init_params(*counts, config, np.random.default_rng(0))
    assert [(name, t.shape) for name, t in init.items()] == parameter_shapes(config, *counts)
    train_config = TrainConfig(model=config, task=task, epochs=1, seed=0, val_every=0, negatives=2)
    trained, _ = train(kg, split, train_config)
    stored, _, _ = load_checkpoint_bytes(save_checkpoint_bytes(trained, train_config))
    assert list(stored) == list(init)
    for name, t in stored.items():
        assert not np.array_equal(t.data, init[name].data), name


@pytest.mark.parametrize("encoder", ["bow", "lstm"])
def test_classification_without_layers_stores_no_encoder(encoder):
    """At ``layers == 0`` a classification run encodes no value, so it lays
    out no ``word`` and no ``lstm.*``; it keeps ``relation``, which
    ``eval-completion`` reads though no step trains it, and one epoch moves
    every other array."""
    kg, split = generate_synthetic_kg(0)
    config = ModelConfig(dim=4, head_dim=4, heads=1, layers=0, encoder=encoder)
    counts = (kg.num_entities, kg.num_relations, kg.vocab_size, split.class_count)
    assert [name for name, _ in parameter_shapes(config, *counts)] == ["entity", "relation", "cls_w", "cls_b"]
    assert "word" in dict(parameter_shapes(config, *counts[:3], 0))
    init = init_params(*counts, config, np.random.default_rng(0))
    train_config = TrainConfig(model=config, task="classification", epochs=1, seed=0, val_every=0)
    trained, _ = train(kg, split, train_config)
    stored, _, _ = load_checkpoint_bytes(save_checkpoint_bytes(trained, train_config))
    assert list(stored) == list(init)
    for name, t in stored.items():
        assert np.array_equal(t.data, init[name].data) == (name == "relation"), name


# ---------------------------------------------------------------------------
# attention


class TestAttention:
    @staticmethod
    def _check_hand_built(config):
        """Entity "a"'s weights on the hand-built graph equal the softmax of
        its four NumPy logits."""
        kg, view, params = hand_built(config)
        a = kg.entities["a"]
        values = np.array([params["word"].data[toks].sum(axis=0) for toks in kg.value_tokens])
        neighbors = neighbor_vectors(view, params, values, a)
        logits = numpy_logits(config, head_transform(params, config, 0, 0), params.entity.data[a], neighbors)
        weights, _ = layer_heads(view, params, config)
        # logits within a few units of each other, so every weight counts,
        # and one negative bilinear logit takes the leaky branch
        assert len(logits) == 4 and (logits < 0).any() and np.abs(logits).max() < 5
        assert relative_error(edge_slice(view, weights, a, 0), softmax(logits)) < 1e-12

    def test_weights_sum_to_one_and_are_non_negative(self):
        for seed in range(6):
            for attention in ("bilinear", "translational"):
                config = ModelConfig(
                    dim=5, head_dim=4, heads=2, layers=2, attention=attention
                )
                kg, view, params = build(seed, config, with_attributes=seed % 2 == 0)
                weights, _ = layer_heads(view, params, config, layer=1)
                for e in range(kg.num_entities):
                    for head in range(config.heads):
                        w = edge_slice(view, weights, e, head)
                        assert abs(float(w.sum()) - 1.0) < 1e-12
                        assert (w >= 0.0).all()
                        assert w.shape == ((view.edges.owner == e).sum(),)

    def test_bilinear_logit_hand_oracle(self):
        config = ModelConfig(dim=4, head_dim=3, heads=1, layers=1, leaky_slope=0.2)
        self._check_hand_built(config)

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_translational_logit_hand_oracle(self, norm):
        config = ModelConfig(
            dim=4, head_dim=4, heads=1, layers=1, attention="translational", norm=norm
        )
        self._check_hand_built(config)

    @pytest.mark.parametrize("attention", ["bilinear", "translational"])
    def test_weights_equal_softmax_of_single_logits(self, attention):
        config = ModelConfig(dim=5, head_dim=4, heads=2, layers=1, attention=attention)
        if attention == "translational":
            config = ModelConfig(
                dim=5, head_dim=4, heads=2, layers=1, attention=attention, norm="l2"
            )
        kg, view, params = build(7, config, with_attributes=True)
        values = encode_value(view, params, config).data
        weights, _ = layer_heads(view, params, config)
        for e in range(kg.num_entities):
            for head in range(config.heads):
                logits = numpy_logits(
                    config, head_transform(params, config, 0, head), params.entity.data[e],
                    neighbor_vectors(view, params, values, e),
                )
                assert relative_error(edge_slice(view, weights, e, head), softmax(logits)) < 1e-12

    def test_no_neighbors_raises(self):
        kg = kg_from_name_triples([("a", "r", "b")])
        config = ModelConfig(dim=3, head_dim=3, heads=1, layers=1)
        params = init_params(2, 1, 0, 0, config, np.random.default_rng(0))
        view = GraphView.restricted(kg, kg.relation_triples, config.use_attributes)
        sink = kg.entities["b"]
        edges = view.edges
        # attention over an empty neighborhood is refused, so the sink owns
        # no edge and no softmax segment
        assert sink not in edges.owner
        with pytest.raises(ShapeError):
            ad.AggregationPlan([0], np.array([0, 1, 1]))
        assert sink not in edges.active
        assert edges.segments.tolist() == [0, 1]
        weights, outputs = layer_heads(view, params, config)
        assert weights.shape == (1, 1) and outputs.shape == (1, 3)


def test_head_output_is_weighted_message_sum():
    config = ModelConfig(dim=5, head_dim=3, heads=2, layers=1)
    kg, view, params = build(11, config, with_attributes=True)
    values = encode_value(view, params, config).data
    weights, outputs = layer_heads(view, params, config)
    for head in range(config.heads):
        transform = head_transform(params, config, 0, head)
        for e in range(kg.num_entities):
            messages = [
                transform @ (r_vec + n_vec)
                for r_vec, n_vec in neighbor_vectors(view, params, values, e)
            ]
            want = edge_slice(view, weights, e, head) @ np.stack(messages)
            got = head_block(outputs, config, head)[view.edges.merge[e]]
            assert relative_error(got, want) < 1e-12


# ---------------------------------------------------------------------------
# aggregation, scoring, classification


def merge_two(head_outputs, params, config):
    """``aggregate`` over a view of two entities that both have neighbors."""
    kg = kg_from_name_triples([("a", "r", "b"), ("b", "r", "a")])
    view = GraphView.restricted(kg, kg.relation_triples)
    previous = ad.constant(np.zeros((2, config.dim)))
    return aggregate(ad.constant(head_outputs), previous, view, params, config, layer=0)


def test_aggregate_concat_hand_oracle():
    config = ModelConfig(dim=4, head_dim=3, heads=2, layers=1, leaky_slope=0.1)
    params = init_params(3, 2, 0, 0, config, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    outs = [rng.standard_normal((2, 3)) for _ in range(2)]
    got = merge_two(np.concatenate(outs, axis=1), params, config).data
    pre = np.concatenate(outs, axis=1) @ params["out_w.0"].data
    want = np.where(pre > 0, pre, config.leaky_slope * pre)
    assert relative_error(got, want) < 1e-12


def test_aggregate_average_hand_oracle():
    config = ModelConfig(
        dim=4, head_dim=4, heads=3, layers=1, aggregator="average", leaky_slope=0.3
    )
    params = init_params(3, 2, 0, 0, config, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    outs = [rng.standard_normal((2, 4)) for _ in range(3)]
    got = merge_two(np.concatenate(outs, axis=1), params, config).data
    pre = sum(outs) / 3.0
    want = np.where(pre > 0, pre, config.leaky_slope * pre)
    assert relative_error(got, want) < 1e-12


def test_aggregate_rejects_wrong_head_count():
    config = ModelConfig(dim=4, head_dim=3, heads=2, layers=1)
    params = init_params(3, 2, 0, 0, config, np.random.default_rng(9))
    # one head's columns where two heads' are due
    with pytest.raises(ConfigError):
        merge_two(np.zeros((2, 3)), params, config)


def test_score_hand_values():
    """The completion loss scores triples by ||h + r - t||: one positive at
    distance 4 (l1) or sqrt(10) (l2), one negative at distance 1."""
    kg = kg_from_name_triples([("h", "r", "t")])
    h, t = kg.entities["h"], kg.entities["t"]
    for norm, d_pos in (("l1", 4.0), ("l2", np.sqrt(10.0))):
        model = ModelConfig(dim=2, head_dim=2, heads=1, layers=0, use_attributes=False, norm=norm)
        config = TrainConfig(model=model, margin=10.0, negatives=1)
        params = init_params(2, 1, 0, 0, model, np.random.default_rng(0))
        params.entity.data = np.array([[1.0, 2.0], [0.0, 0.0]])
        params.relation.data = np.array([[0.0, 1.0]])
        loss = _completion_batch_loss(
            np.array([[h, 0, t]]), np.array([[t, 0, t]]), params.entity, params, config
        )
        assert abs(float(loss.data) - (10.0 + d_pos - 1.0)) < 1e-12


def test_classify_hand_oracle_and_missing_head():
    config = ModelConfig(dim=4, head_dim=4, heads=1, layers=1)
    params = init_params(3, 2, 0, 3, config, np.random.default_rng(10))
    ent = np.random.default_rng(11).standard_normal((3, 4))
    scores = ent @ params["cls_w"].data + params["cls_b"].data
    labels = np.array([2, 0, 1])
    split = DatasetSplit([], [], [], labels=labels, class_names=["x", "y", "z"])
    got = _classification_batch_loss([0, 1, 2], ad.constant(ent), params, split)
    # the loss reads the scores W v + b
    assert abs(float(got.data) - reference_bce(scores, labels)) < 1e-12
    truth = scores.argmax(axis=1)
    assert classification_accuracy(ent, params, np.arange(3), truth) == 1.0
    bare = init_params(3, 2, 0, 0, config, np.random.default_rng(12))
    with pytest.raises(ConfigError):
        classification_accuracy(ent, bare, np.arange(3), truth)


def test_encode_value_once_per_pass(monkeypatch):
    config = ModelConfig(dim=4, head_dim=4, heads=1, layers=2)
    kg, view, params = build(12, config, with_attributes=True)
    table = encode_value(view, params, config).data
    assert table.shape == (kg.num_values, 4)
    for v, row in enumerate(table):
        want = params["word"].data[sorted(kg.value_tokens[v])].sum(axis=0)
        assert relative_error(row, want) < 1e-12
    # no edge of a view without attributes reads a value
    assert encode_value(GraphView.restricted(kg, kg.relation_triples, False), params, config) is None
    # a forward pass encodes every value once, in one call, for all layers
    calls = []
    real = model_module.bow_encode
    monkeypatch.setattr(
        model_module, "bow_encode", lambda layout, word: calls.append(layout) or real(layout, word)
    )
    forward_all(view, params, config)
    assert len(calls) == 1
    assert np.array_equal(calls[0].lengths, [len(tokens) for tokens in kg.value_tokens])
    assert np.array_equal(calls[0].flat, np.concatenate(kg.value_tokens))


# ---------------------------------------------------------------------------
# full forward pass against the reference implementation


def sparse_view(seed, config):
    """A graph with an entity that owns no edge, ordered before entities
    that do (the merge path), and a relation whose only triple the view
    leaves out, so the per-relation tables hold rows no edge reads."""
    kg = kg_from_name_triples(
        [("a", "r", "sink"), ("b", "r", "a"), ("a", "s", "b"), ("c", "s", "a"),
         ("b", "r", "c"), ("c", "r", "b"), ("c", "unused", "sink")],
        [("a", "p", "red round"), ("c", "q", "blue"), ("b", "p", "green red")],
    )
    unused = kg.relations["unused"]
    view = GraphView.restricted(
        kg, kg.relation_triples[kg.relation_triples[:, 1] != unused], config.use_attributes
    )
    sink = kg.entities["sink"]
    assert sink not in view.edges.active and sink < view.edges.active.max()
    assert unused not in view.edges.relation
    params = init_params(kg.num_entities, kg.num_relations, kg.vocab_size, 0, config,
                         np.random.default_rng(seed))
    return view, params


FORWARD_CASES = [
    ModelConfig(dim=5, head_dim=4, heads=2, layers=2),
    ModelConfig(dim=4, head_dim=4, heads=1, layers=1, aggregator="average"),
    ModelConfig(dim=4, head_dim=3, heads=3, layers=2, attention="translational", norm="l2"),
    ModelConfig(dim=5, head_dim=5, heads=2, layers=1, encoder="lstm"),
    ModelConfig(dim=3, head_dim=2, heads=2, layers=3, leaky_slope=0.0),
    ModelConfig(dim=4, head_dim=4, heads=3, layers=2, aggregator="average"),
    ModelConfig(dim=4, head_dim=3, heads=1, layers=2, attention="translational"),
]


@pytest.mark.parametrize("config", FORWARD_CASES)
@pytest.mark.parametrize("graph", [0, 1, 2, "sparse"])  # a random graph's seed, or the sparse graph
def test_forward_all_matches_reference(config, graph):
    if graph == "sparse":
        view, params = sparse_view(4, config)
    else:
        _, view, params = build(graph, config, with_attributes=True)
    got = forward_all(view, params, config)
    arrays = oracle.params_to_lists(params.named_parameters())
    want = oracle.naive_entity_vectors(view, arrays, oracle_config(config))
    for e in range(view.entity_count):
        assert relative_error(got.data[e], np.array(want[e])) < 1e-10


@pytest.mark.parametrize("aggregator", ["concat", "average"])
def test_merge_record_places_isolated_rows_as_the_composition_does(aggregator):
    """On a view with isolated entities, the merge record's output and every
    gradient equal, bit for bit, the composition of the merge alone, a
    stack of its rows over the previous rows, and a gather by the view's
    ``merge`` index."""
    config = ModelConfig(dim=3, head_dim=3, heads=2, layers=1, aggregator=aggregator)
    view, params = sparse_view(8, config)
    rng = np.random.default_rng(9)
    entities, active = view.entity_count, view.edges.active.size
    heads = ad.parameter(rng.normal(size=(active, 6)))
    previous = ad.parameter(rng.normal(size=(entities, 3)))
    weights = rng.normal(size=(entities, 3))
    tensors = [heads, previous] + [t for name, t in params.items() if name.startswith("out_w.")]

    def composed():
        merged = aggregate(heads, ad.constant(np.zeros((active, 3))), view, params, config, 0)
        return fused_rows(fused_concat_rows(merged, previous), view.edges.merge)

    got, want = aggregate(heads, previous, view, params, config, 0), composed()
    assert np.array_equal(got.data, want.data)
    fused_grads = autodiff_gradients(lambda: probe(aggregate(heads, previous, view, params, config, 0), weights),
                                     tensors)[1]
    composed_grads = autodiff_gradients(lambda: probe(composed(), weights), tensors)[1]
    for g_fused, g_composed in zip(fused_grads, composed_grads, strict=True):
        assert np.array_equal(g_fused, g_composed)


@pytest.mark.parametrize("with_values", [True, False], ids=["values", "no-values"])
def test_view_fixed_index_forms_equal_their_scatter_sums(with_values):
    """On a view with an isolated entity, the forms that read an index the
    view fixes equal, bit for bit, the ``scatter_sum`` forms they replace,
    on random inputs: the pair scatter over its cached flat index, for
    (edges, heads) and for translational (edges,) weights; the products
    table's gradient as one ``bincount`` over both row sets; the query
    table's gradient gathered from the spread's diagonal blocks; and the
    merge's rows placed by the injective ``merge`` index."""
    config = ModelConfig(dim=4, head_dim=3, heads=3, layers=1, use_attributes=with_values)
    view, _ = sparse_view(5, config)
    rng = np.random.default_rng(6)
    kg, edges = view.kg, view.edges
    relations, heads = kg.num_relations, config.heads
    n_table = view.entity_count + (len(kg.value_tokens) if with_values else 0)
    assert (edges.source >= view.entity_count).any() == with_values
    mask, relation_of, at_source, at_query, pair, pair_flat, products_flat = model_module._layer_index(
        view, relations, n_table, config
    )
    n_pairs = edges.active.size * relations
    weights = rng.normal(size=(pair.size, heads))
    assert np.array_equal(ad.scatter_rows(pair_flat, weights, n_pairs), ad.scatter_sum(pair, weights, n_pairs))
    translational = ModelConfig(dim=4, head_dim=3, heads=3, layers=1, use_attributes=with_values,
                                attention="translational")
    *_, shared_flat, no_products = model_module._layer_index(view, relations, n_table, translational)
    assert no_products is None
    shared = rng.normal(size=pair.size)
    assert np.array_equal(ad.scatter_rows(shared_flat, shared[:, None], n_pairs)[:, 0],
                          ad.scatter_sum(pair, shared, n_pairs))
    rows = (n_table + relations) * relations
    g_raw = rng.normal(size=(pair.size, heads))
    want = ad.scatter_sum(at_query, g_raw, rows)
    want += ad.scatter_sum(at_source, g_raw, rows)
    assert np.array_equal(ad.scatter_rows(products_flat, np.concatenate([g_raw, g_raw]), rows), want)
    g_spread = rng.normal(size=(relations * heads, heads * config.head_dim))
    assert np.array_equal(model_module._diagonal_blocks(g_spread, heads),
                          ad.scatter_sum(relation_of, g_spread * mask, relations))
    stacked = edges.active.size + view.entity_count
    g = rng.normal(size=(view.entity_count, config.dim))
    assert np.array_equal(model_module._placed(g, edges.merge, stacked), ad.scatter_sum(edges.merge, g, stacked))


def fresh_encoding(kg, params, config) -> np.ndarray:
    """The graph's value table encoded through a layout built for this call."""
    if config.encoder == "bow":
        return encode_bow(kg.value_tokens, params["word"]).data
    return encode_lstm(kg.value_tokens, params["word"], *(params[f"lstm.{n}"] for n in ("w_in", "w_hid", "b"))).data


@pytest.mark.parametrize("encoder", ["bow", "lstm"])
def test_encoder_layout_is_built_once_per_view(monkeypatch, encoder):
    """Two encodings over one view build the encoder's layout once; a view
    over another graph builds its own, also when it is made after the
    first view is gone and may reuse its memory."""
    config = ModelConfig(dim=4, head_dim=4, heads=1, layers=1, encoder=encoder)
    layout_class = BowLayout if encoder == "bow" else LstmLayout
    built = []
    real_init = layout_class.__init__
    monkeypatch.setattr(layout_class, "__init__", lambda self, *args: built.append(self) or real_init(self, *args))
    kg, view, params = build(12, config, with_attributes=True)
    first = encode_value(view, params, config).data
    assert np.array_equal(encode_value(view, params, config).data, first)
    assert len(built) == 1
    del view
    for seed in range(13, 17):
        kg, view, params = build(seed, config, with_attributes=True)
        count = len(built)
        got = encode_value(view, params, config).data
        assert len(built) == count + 1
        assert np.array_equal(got, fresh_encoding(kg, params, config))
        del view


def test_zero_layers_returns_raw_embeddings():
    config = ModelConfig(dim=4, head_dim=4, heads=1, layers=0)
    kg, view, params = build(3, config)
    vecs = forward_all(view, params, config)
    for e in range(kg.num_entities):
        assert np.array_equal(vecs.data[e], params.entity.data[e])


def test_isolated_entity_keeps_raw_vector():
    kg = kg_from_name_triples([("a", "r", "b"), ("b", "r", "a"), ("a", "r", "c")])
    config = ModelConfig(dim=3, head_dim=3, heads=1, layers=2)
    params = init_params(3, 1, 0, 0, config, np.random.default_rng(4))
    view = GraphView.restricted(kg, kg.relation_triples, config.use_attributes)
    vecs = forward_all(view, params, config).data
    sink = kg.entities["c"]
    assert np.array_equal(vecs[sink], params.entity.data[sink])
    moved = kg.entities["a"]
    assert not np.array_equal(vecs[moved], params.entity.data[moved])


def test_forward_all_reads_the_given_value_table(monkeypatch):
    config = ModelConfig(dim=4, head_dim=4, heads=1, layers=1)
    kg, view, params = build(13, config, with_attributes=True)
    assert (view.edges.source >= kg.num_entities).any()  # an edge reads a value
    values = encode_value(view, params, config)
    want = forward_all(view, params, config).data

    def no_second_encoding(*args):
        raise AssertionError("forward_all encoded values although a table was given")

    monkeypatch.setattr(model_module, "encode_value", no_second_encoding)
    got = forward_all(view, params, config, values).data
    assert np.array_equal(got, want)


def test_attributes_off_ignores_attribute_triples():
    relation_triples = [("a", "r", "b"), ("b", "r", "a")]
    with_attr = kg_from_name_triples(relation_triples, [("a", "has", "red thing")])
    without = kg_from_name_triples(relation_triples)
    config_off = ModelConfig(dim=3, head_dim=3, heads=1, layers=2, use_attributes=False)
    params_a = init_params(2, 2, 2, 0, config_off, np.random.default_rng(5))
    params_b = init_params(2, 2, 2, 0, config_off, np.random.default_rng(5))
    vec_a = forward_all(GraphView.restricted(with_attr, with_attr.relation_triples, False), params_a, config_off)
    vec_b = forward_all(GraphView.restricted(without, without.relation_triples, False), params_b, config_off)
    top = with_attr.entities["a"]
    assert np.array_equal(vec_a.data[top], vec_b.data[top])
    config_on = ModelConfig(dim=3, head_dim=3, heads=1, layers=2)
    params_on = init_params(2, 2, 2, 0, config_on, np.random.default_rng(5))
    vec_on = forward_all(GraphView.restricted(with_attr, with_attr.relation_triples, True), params_on, config_on)
    assert not np.array_equal(vec_on.data[top], vec_a.data[top])


def test_forward_gradients_end_to_end():
    """Bilinear and translational attention and the average aggregator, each
    on a random graph and on the sparse graph."""
    configs = {
        "bilinear-concat": ModelConfig(dim=4, head_dim=3, heads=2, layers=2),
        "translational": ModelConfig(dim=4, head_dim=3, heads=2, layers=2, attention="translational"),
        "average": ModelConfig(dim=3, head_dim=3, heads=2, layers=2, aggregator="average"),
    }
    for (name, config), graph in itertools.product(configs.items(), ("random", "sparse")):
        if graph == "random":
            _, view, params = build(21, config, entities=4, triples=8, with_attributes=True)
        else:
            view, params = sparse_view(21, config)

        def forward():
            return total(forward_all(view, params, config))

        rng = np.random.default_rng(0)
        worst = check_gradients(forward, list(params.values()), step=1e-6, max_entries_per_param=6, rng=rng)
        assert worst < 1e-4, (name, graph)


@pytest.mark.parametrize("attention", ["bilinear", "translational"])
def test_layer_builds_no_per_edge_array_of_head_width(attention):
    """The relation half of a layer runs on per-relation tables, and the
    weighted sum reads the transformed source rows where they are: neither
    the layer's forward nor its backward allocates as much as one (edges,
    heads * head_dim) array at its peak, on a graph with many more edges
    than entities, whichever parts the plan runs: the plan's pick (all
    dense), the slot kernel alone (a size-rule bound of 0), and hub columns
    with slots (a bound of half a cell per edge: the entity rows, each read
    by more than 20 of the 10 segments' edges, are hub columns, and the
    value rows are not)."""
    config = ModelConfig(dim=4, head_dim=64, heads=2, layers=1, attention=attention)
    for cells in (ad.DENSE_CELLS_PER_ENTRY, 0, 0.5):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ad, "DENSE_CELLS_PER_ENTRY", cells)
            _, view, params = build(3, config, entities=10, relations=6, triples=800, with_attributes=True)
            plan = view.aggregation
        edges, width = view.edges.source.size, config.heads * config.head_dim
        assert edges >= 400
        assert plan.dense is (cells == ad.DENSE_CELLS_PER_ENTRY)
        assert (plan.hub_count == 0) is (cells == 0)
        if cells == 0.5:
            assert plan.hubs.tolist() == list(range(10)) and plan.slots
        values = encode_value(view, params, config)
        if plan.slots:
            plan.reverse  # the slot part's, built once per view, not per layer
        weights = np.random.default_rng(4).normal(size=(view.edges.active.size, width))
        peaks = []  # above what was held before each pass
        with ad.Tape() as tape:
            tracemalloc.start()
            try:
                _, outputs = model_module._layer_heads(params.entity, values, view, params, config, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
                root = probe(outputs, weights)
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                ad.backward(tape, root)
                peaks.append(tracemalloc.get_traced_memory()[1] - held)
            finally:
                tracemalloc.stop()
        assert params["head_w.0"].grad is not None
        assert max(peaks) < edges * width * 8, (cells, peaks, edges * width * 8)
