"""Negative sampling, loss functions against hand values and plain-numpy
references, optimizer steps, the training loop, and checkpoint bytes."""

from __future__ import annotations

import re
import time
from dataclasses import FrozenInstanceError, asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kane.autodiff as ad
import kane.training as training
from kane.errors import ConfigError, IntegrityError, SamplingError, TrainingError
from kane.kgdata import DatasetSplit, GraphView, id_tuples, known_triples, triple_rows
from kane.model import (
    AGGREGATORS, ATTENTION_FORMS, ENCODERS, NORMS, ModelConfig, encode_value, forward_all, init_params,
)
from kane.training import (
    CHECKPOINT_MAGIC,
    TrainConfig,
    TrainReport,
    _classification_batch_loss,
    _completion_batch_loss,
    _config_from_dict,
    bce_loss,
    corrupt,
    hinge_loss,
    load_checkpoint_bytes,
    make_train_config,
    save_checkpoint_bytes,
    sgd_step,
    train,
)

from helpers import (
    autodiff_gradients,
    check_gradients,
    checkpoint_header,
    composed_completion_loss,
    kg_from_name_triples,
    random_kg,
    reference_bce,
    reference_transe_hinge,
    relative_error,
    with_checkpoint_header,
)


# ---------------------------------------------------------------------------
# negative sampling


def _corrupt_all(kg, n, seed, rows=None, with_attributes=False):
    """``n`` corruptions of every row (default: all relation triples)."""
    if rows is None:
        rows = triple_rows(kg, kg.relation_triples, with_attributes)
    return rows, corrupt(rows, kg, known_triples(kg), np.random.default_rng(seed), n)


def _known_set(kg) -> set[tuple[int, int, int]]:
    """Every known triple of every split, as row tuples, built in plain Python."""
    ne = kg.num_entities
    return {tuple(t) for t in kg.relation_triples.tolist()} | {
        (h, r, ne + v) for h, r, v in kg.attribute_triples.tolist()
    }


class TestCorrupt:
    def test_two_entity_graph_enumerates_both_corruptions(self):
        kg = kg_from_name_triples([("e0", "r", "e1")])
        _, negs = _corrupt_all(kg, 200, 0)
        assert {(h, t) for h, _, t in negs.tolist()} == {(0, 0), (1, 1)}

    def test_never_returns_known_positive(self):
        draws = 0
        for seed in range(4):
            kg = random_kg(np.random.default_rng(seed), entities=7, triples=16,
                           attribute_relations=2, attribute_triples=6)
            known = _known_set(kg)
            # corrupt a training part only; the held-out triples stay known
            train = kg.relation_triples[: len(kg.relation_triples) // 2]
            rows = triple_rows(kg, train, with_attributes=True)
            _, negs = _corrupt_all(kg, 80, 100 + seed, rows)
            for pos, group in zip(rows.tolist(), negs.reshape(len(rows), 80, 3).tolist()):
                for cand in group:
                    draws += 1
                    assert tuple(cand) not in known
                    assert cand[1] == pos[1]
        assert draws >= 4000

    def test_deterministic_for_fixed_rng(self):
        kg = random_kg(np.random.default_rng(1), entities=6, triples=14,
                       attribute_relations=1, attribute_triples=4)
        _, a = _corrupt_all(kg, 25, 7, with_attributes=True)
        _, b = _corrupt_all(kg, 25, 7, with_attributes=True)
        assert np.array_equal(a, b)

    def test_returns_requested_count(self):
        kg = random_kg(np.random.default_rng(2), entities=6, triples=14)
        rows, negs = _corrupt_all(kg, 13, 0)
        assert negs.shape == (13 * len(rows), 3)
        groups = negs.reshape(len(rows), 13, 3)
        # each corruption keeps its positive's relation and one of its two ends
        assert (groups[:, :, 1] == rows[:, None, 1]).all()
        kept = (groups[:, :, 0] == rows[:, None, 0]) | (groups[:, :, 2] == rows[:, None, 2])
        assert kept.all()
        assert corrupt(rows[:0], kg, known_triples(kg), np.random.default_rng(0), 3).shape == (0, 3)

    def test_attribute_triples_swap_head_or_value(self):
        kg = kg_from_name_triples(
            [("a", "r", "b")],
            [("a", "color", "red"), ("b", "color", "green"), ("a", "size", "big")],
        )
        ne = kg.num_entities
        positive = triple_rows(kg, [], with_attributes=True)[:1]
        _, negs = _corrupt_all(kg, 300, 3, positive)
        known = _known_set(kg)
        for h, r, target in negs.tolist():
            assert (h, r, target) not in known
            assert r == positive[0, 1]
            assert ne <= target < ne + kg.num_values  # the target stays a value
            changed_head = h != positive[0, 0]
            changed_value = target != positive[0, 2]
            assert changed_head != changed_value  # exactly one slot replaced

    def test_valid_corruptions_drawn_uniformly(self):
        # positive (a, r, b) on four entities; (c, r, b) and (a, r, d) are
        # also known, so the valid corruptions are (b, r, b), (d, r, b),
        # (a, r, a) and (a, r, c): each has draw weight 1/2 * 1/4
        kg = kg_from_name_triples([("a", "r", "b"), ("c", "r", "b"), ("a", "r", "d")])
        a, b, c, d = (kg.entities.id_of(x) for x in "abcd")
        draws = 8000
        _, negs = _corrupt_all(kg, draws, 11, triple_rows(kg, kg.relation_triples[:1]))
        counts = {}
        for h, _, t in negs.tolist():
            counts[(h, t)] = counts.get((h, t), 0) + 1
        assert set(counts) == {(b, b), (d, b), (a, a), (a, c)}
        # binomial(8000, 1/4): standard deviation about 38.7; allow 5 of them
        sd = np.sqrt(draws * 0.25 * 0.75)
        for pair, count in counts.items():
            assert abs(count - draws / 4) <= 5 * sd, (pair, count)

    def test_saturated_graph_raises(self):
        kg = kg_from_name_triples(
            [("a", "r", "a"), ("a", "r", "b"), ("b", "r", "a"), ("b", "r", "b")]
        )
        with pytest.raises(SamplingError):
            _corrupt_all(kg, 1, 0)

    def test_single_entity_graph_raises(self):
        kg = kg_from_name_triples([("a", "r", "a")])
        with pytest.raises(SamplingError):
            _corrupt_all(kg, 1, 0)

    def test_single_value_attribute_graph_raises(self):
        kg = kg_from_name_triples([("a", "r", "b")], [("a", "color", "red")])
        with pytest.raises(SamplingError, match="2 values"):
            _corrupt_all(kg, 1, 0, with_attributes=True)
        # relation rows alone still corrupt
        assert _corrupt_all(kg, 2, 0)[1].shape == (2, 3)


# ---------------------------------------------------------------------------
# hinge loss


class TestHingeLoss:
    @staticmethod
    def _loss(pos, neg, margin, npp):
        return float(hinge_loss(np.array(pos + neg, dtype=float), len(pos), margin, npp)[0])

    def test_hand_values(self):
        assert self._loss([1.0], [3.0], 1.0, 1) == 0.0
        assert self._loss([2.0], [2.0], 1.0, 1) == 1.0
        assert self._loss([1.0, 2.0], [3.0, 2.0], 1.0, 1) == 1.0
        assert abs(self._loss([1.0], [0.5, 3.0], 1.0, 2) - 1.5) < 1e-15

    def test_negatives_grouped_per_positive(self):
        # wrong grouping would pair 10 with 10 and 0 with 0 giving loss 2
        assert self._loss([0.0, 10.0], [10.0, 0.0], 1.0, 1) == 11.0

    def test_count_mismatch_raises(self):
        with pytest.raises(ConfigError):
            self._loss([1.0, 2.0], [1.0, 2.0, 3.0], 1.0, 2)

    def test_gradients_exact_for_linear_regions(self):
        """Each positive gets +1 per active pair and each negative -1 if
        its pair is active; central differences agree away from the kinks."""
        dist = np.array([0.5, 2.0, 3.0, 0.7, 1.4, 4.0])
        loss, grad = hinge_loss(dist, 2, 1.0, 2)
        assert loss == ((0.5 - 0.7) + 1.0) + ((2.0 - 1.4) + 1.0)
        assert np.array_equal(grad, [1.0, 1.0, 0.0, -1.0, -1.0, 0.0])
        step = 1e-6
        numeric = [(hinge_loss(dist + step * e, 2, 1.0, 2)[0] - hinge_loss(dist - step * e, 2, 1.0, 2)[0])
                   / (2.0 * step) for e in np.eye(dist.size)]
        assert np.abs(grad - numeric).max() < 1e-9


# ---------------------------------------------------------------------------
# binary cross-entropy


class TestBceLoss:
    def test_uniform_scores_hand_value(self):
        scores = ad.constant(np.zeros((1, 2)))
        got = float(bce_loss(scores, [0], 2).data)
        assert abs(got - 2.0 * np.log(2.0)) < 1e-12
        scores = ad.constant(np.zeros((2, 3)))
        got = float(bce_loss(scores, [0, 1], 3).data)
        assert abs(got - 3.0 * np.log(2.0)) < 1e-12

    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            n, c = int(rng.integers(1, 6)), int(rng.integers(2, 5))
            raw = rng.standard_normal((n, c)) * 3.0
            labels = [int(rng.integers(c)) for _ in range(n)]
            got = float(bce_loss(ad.constant(raw), labels, c).data)
            assert abs(got - reference_bce(raw, labels)) < 1e-12

    def test_extreme_scores_are_exact_without_clipping(self):
        raw = np.array([[1000.0, -1000.0, 55.0]])
        got = float(bce_loss(ad.constant(raw), [0], 3).data)
        assert np.isfinite(got)
        assert abs(got - reference_bce(raw, [0])) < 1e-12

    @pytest.mark.parametrize("score", [1.0, -1.0, 35.0, -35.0, 1000.0, -1000.0])
    @pytest.mark.parametrize("label", [0, 1])
    def test_loss_and_gradient_exact_for_any_finite_score(self, score, label):
        """Per entry, the loss is softplus(s) - y s and the gradient
        (sigmoid(s) - y) / n, also beyond the +/-30 where scores were once
        clipped: a wrong-class score of 35 gets about 1 / n, not 0."""
        n = 2
        raw = np.array([[score, 0.0], [0.0, 0.0]])
        scores = ad.parameter(raw)
        with ad.Tape() as tape:
            loss = bce_loss(scores, [label, 0], 2)
            ad.backward(tape, loss)
        onehot = np.array([[label == 0, label == 1], [1, 0]], dtype=float)
        want = (np.logaddexp(0.0, raw) - onehot * raw).sum() / n
        assert np.isfinite(float(loss.data)) and abs(float(loss.data) - want) < 1e-12
        want_grad = (0.5 * (1.0 + np.tanh(raw / 2.0)) - onehot) / n
        assert np.abs(scores.grad - want_grad).max() < 1e-15
        if label == 1 and score == 35.0:
            assert abs(scores.grad[0, 0] - 1.0 / n) < 1e-15

    def test_bad_labels_raise(self):
        scores = ad.constant(np.zeros((2, 3)))
        with pytest.raises(ConfigError):
            bce_loss(scores, [0, 3], 3)
        with pytest.raises(ConfigError):
            bce_loss(scores, [0], 3)
        # class_count disagrees with the score width: no valid label is blamed
        with pytest.raises(ConfigError, match="3 score columns for 4 classes"):
            bce_loss(scores, [0, 1], 4)
        with pytest.raises(ConfigError, match="label -1 outside 0..2"):
            bce_loss(scores, [1, -1], 3)

    def test_gradients_match_finite_differences(self):
        scores = ad.parameter(np.random.default_rng(5).standard_normal((3, 4)), "scores")

        def forward():
            return bce_loss(scores, [0, 2, 3], 4)

        assert check_gradients(forward, [scores], step=1e-6) < 1e-8


def _completion_loss_setup(norm, values):
    """Positive and negative rows over 5 entities, 3 relations and, with
    ``values``, 3 value rows (targets 5-7), with entity and relation tables
    as parameters: (positives, negatives, ent, params, config, value table)."""
    rng = np.random.default_rng(21)
    positives = np.array([[0, 1, 2], [3, 0, 4], [1, 2, 6 if values else 0], [4, 2, 1]])
    # 3 negatives per positive; the last replaces the head, the others the target
    negatives = np.repeat(positives, 3, axis=0)
    negatives[0::3, 2] = rng.integers(0, 8 if values else 5, size=4)
    negatives[1::3, 2] = rng.integers(0, 8 if values else 5, size=4)
    negatives[2::3, 0] = rng.integers(0, 5, size=4)
    params = init_params(5, 3, 0, 0, ModelConfig(dim=4, head_dim=4, heads=1, layers=0,
                                                 use_attributes=False, norm=norm), rng)
    config = TrainConfig(model=ModelConfig(dim=4, norm=norm), margin=2.0, negatives=3)
    table = ad.parameter(rng.normal(size=(3, 4))) if values else None
    return positives, negatives, params.entity, params, config, table


@pytest.mark.parametrize("loss", ["completion", "bce"])
def test_each_loss_is_one_tape_record(loss):
    rng = np.random.default_rng(8)
    with ad.Tape() as tape:
        if loss == "completion":
            _completion_batch_loss(*_completion_loss_setup("l2", values=True))
        else:
            bce_loss(ad.parameter(rng.normal(size=(3, 4))), [0, 2, 3], 4)
    assert len(tape.records) == 1


@pytest.mark.parametrize("norm", ["l1", "l2"])
@pytest.mark.parametrize("values", [False, True])
def test_fused_completion_loss_matches_the_composition_bit_for_bit(norm, values):
    """The one-record loss and every gradient equal the op-by-op composition
    (``helpers.composed_completion_loss``) bit for bit, with and without
    a value table, and some distances exactly zero (l2's 0/0 guard)."""
    positives, negatives, ent, params, config, table = _completion_loss_setup(norm, values)
    negatives[0] = positives[0]  # with the next line, row 0 of both has a zero difference
    ent.data[2] = ent.data[0] + params.relation.data[1]
    tensors = list(params.values()) + ([table] if values else [])
    fused_loss, fused_grads = autodiff_gradients(
        lambda: _completion_batch_loss(positives, negatives, ent, params, config, table), tensors)
    composed_loss, composed_grads = autodiff_gradients(
        lambda: composed_completion_loss(positives, negatives, ent, params.relation, norm,
                                         config.margin, config.negatives, table), tensors)
    assert fused_loss == composed_loss
    for got, want in zip(fused_grads, composed_grads, strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("column, rows", [(0, 5), (1, 3), (2, 8)])
def test_completion_loss_refuses_an_index_out_of_range(column, rows):
    positives, negatives, ent, params, config, table = _completion_loss_setup("l1", values=True)
    negatives[-1, column] = rows
    with pytest.raises(IndexError, match=f"out of range for {rows} rows"):
        _completion_batch_loss(positives, negatives, ent, params, config, table)
    negatives[-1, column] = -1
    with pytest.raises(IndexError):
        _completion_batch_loss(positives, negatives, ent, params, config, table)


# ---------------------------------------------------------------------------
# degenerate translation mode equals the plain reference


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_translation_mode_batch_loss_matches_reference(norm):
    kg = random_kg(np.random.default_rng(6), entities=8, relations=2, triples=18)
    model = ModelConfig(dim=6, head_dim=6, heads=1, layers=0, use_attributes=False, norm=norm)
    config = TrainConfig(model=model, margin=1.0, negatives=3)
    params = init_params(kg.num_entities, kg.num_relations, 0, 0, model, np.random.default_rng(7))
    split = DatasetSplit(train=id_tuples(kg.relation_triples), valid=[], test=[])
    view = GraphView.restricted(kg, split.train, model.use_attributes)
    rng = np.random.default_rng(8)
    batch = triple_rows(kg, kg.relation_triples[:4])
    negs = corrupt(batch, kg, known_triples(kg), rng, config.negatives)

    finals = forward_all(view, params, model)
    got = float(_completion_batch_loss(batch, negs, finals, params, config).data)
    want = reference_transe_hinge(
        params.entity.data,
        params.relation.data,
        batch.tolist(),
        negs.reshape(len(batch), config.negatives, 3).tolist(),
        margin=config.margin,
        norm=norm,
    )
    assert abs(got - want) < 1e-10


def test_completion_loss_gradients_end_to_end():
    kg = random_kg(
        np.random.default_rng(9), entities=5, relations=2, triples=10,
        attribute_relations=1, attribute_triples=4,
    )
    model = ModelConfig(dim=4, head_dim=3, heads=2, layers=1)
    config = TrainConfig(model=model, margin=1.0, negatives=2)
    params = init_params(
        kg.num_entities, kg.num_relations, kg.vocab_size, 0, model, np.random.default_rng(10)
    )
    split = DatasetSplit(train=id_tuples(kg.relation_triples), valid=[], test=[])
    view = GraphView.restricted(kg, split.train, model.use_attributes)
    rows = triple_rows(kg, kg.relation_triples, with_attributes=True)
    batch = np.concatenate([rows[:2], rows[len(kg.relation_triples):][:1]])
    negs = corrupt(batch, kg, known_triples(kg), np.random.default_rng(11), 2)
    assert batch[2, 2] >= kg.num_entities  # the attribute row reads the value table

    def forward():
        values = encode_value(view, params, model)
        finals = forward_all(view, params, model, values)
        return _completion_batch_loss(batch, negs, finals, params, config, values)

    rng = np.random.default_rng(12)
    worst = check_gradients(forward, list(params.values()), step=1e-6,
                            max_entries_per_param=6, rng=rng)
    assert worst < 1e-4


def test_classification_loss_gradients_end_to_end():
    kg = random_kg(np.random.default_rng(13), entities=5, relations=2, triples=10)
    model = ModelConfig(dim=4, head_dim=4, heads=1, layers=1)
    params = init_params(kg.num_entities, kg.num_relations, 0, 2, model, np.random.default_rng(14))
    split = DatasetSplit(
        train=id_tuples(kg.relation_triples), valid=[], test=[],
        labels={0: 0, 1: 1, 2: 0, 3: 1, 4: 0}, class_names=["c0", "c1"],
        label_train=[0, 1, 2, 3, 4],
    )
    view = GraphView.restricted(kg, split.train, model.use_attributes)

    def forward():
        finals = forward_all(view, params, model)
        return _classification_batch_loss([0, 1, 3], finals, params, split)

    rng = np.random.default_rng(15)
    worst = check_gradients(forward, list(params.values()), step=1e-6,
                            max_entries_per_param=6, rng=rng)
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# optimizer


class TestSgdStep:
    def _tiny_params(self):
        model = ModelConfig(dim=1, head_dim=1, heads=1, layers=0)
        params = init_params(1, 1, 0, 0, model, np.random.default_rng(0))
        params.entity.data = np.array([[1.0]])
        params.relation.data = np.array([[0.5]])
        return params

    def test_hand_update(self):
        params = self._tiny_params()
        params.entity.grad = np.array([[2.0]])
        sgd_step(params, 0.1)
        assert params.entity.data[0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_missing_gradient_leaves_parameter_alone(self):
        params = self._tiny_params()
        params.entity.grad = np.array([[2.0]])
        sgd_step(params, 0.1)
        assert params.relation.data[0, 0] == 0.5

    def test_non_finite_gradient_names_parameter(self):
        params = self._tiny_params()
        params.relation.grad = np.array([[np.nan]])
        with pytest.raises(TrainingError, match="relation"):
            sgd_step(params, 0.1)

    def test_update_that_leaves_a_parameter_non_finite_names_it(self):
        params = self._tiny_params()
        params.relation.grad = np.array([[-1e308]])
        with np.errstate(over="ignore"):  # 10 * -1e308 overflows
            with pytest.raises(TrainingError, match="^update left parameter 'relation' non-finite$"):
                sgd_step(params, 10.0)


# ---------------------------------------------------------------------------
# train loop


def _toy_setup(seed=3, entities=8, triples=20):
    kg = random_kg(np.random.default_rng(seed), entities=entities, relations=2, triples=triples)
    split = DatasetSplit(train=id_tuples(kg.relation_triples), valid=[], test=[])
    return kg, split


def _toy_config(**overrides):
    model = ModelConfig(dim=8, head_dim=8, heads=1, layers=1)
    base = dict(model=model, learning_rate=0.01, batch_size=4, negatives=2,
                epochs=10, seed=1, val_every=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_zero_epochs_returns_untouched_init(self):
        kg, split = _toy_setup()
        config = _toy_config(epochs=0)
        params, report = train(kg, split, config)
        rng = np.random.default_rng(config.seed)
        want = init_params(kg.num_entities, kg.num_relations, kg.vocab_size, 0,
                           config.model, rng)
        for (name, got), (_, exp) in zip(params.named_parameters(), want.named_parameters()):
            assert np.array_equal(got.data, exp.data), name
        assert report.epoch_losses == [] and report.best_epoch is None

    def test_same_seed_is_bit_identical(self):
        kg, split = _toy_setup()
        p1, r1 = train(kg, split, _toy_config(epochs=3))
        p2, r2 = train(kg, split, _toy_config(epochs=3))
        assert r1.epoch_losses == r2.epoch_losses
        for (name, a), (_, b) in zip(p1.named_parameters(), p2.named_parameters()):
            assert np.array_equal(a.data, b.data), name
        p3, _ = train(kg, split, _toy_config(epochs=3, seed=2))
        assert not np.array_equal(p1.entity.data, p3.entity.data)

    def test_completion_loss_decreases(self):
        kg, split = _toy_setup()
        _, report = train(kg, split, _toy_config())
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_classification_trains_and_validates(self):
        kg, split = _toy_setup()
        split.labels = {e: e % 2 for e in range(kg.num_entities)}
        split.class_names = ["c0", "c1"]
        split.label_train = list(range(6))
        split.label_valid = [6, 7]
        config = _toy_config(task="classification", epochs=10, val_every=5, patience=20)
        _, report = train(kg, split, config)
        assert report.epoch_losses[-1] < report.epoch_losses[0]
        assert len(report.validation) == 2
        assert report.final_validation is not None
        assert 0.0 <= report.final_validation <= 1.0

    def test_early_stopping_on_flat_validation(self):
        kg, split = _toy_setup()
        split.labels = {e: e % 2 for e in range(kg.num_entities)}
        split.class_names = ["c0", "c1"]
        split.label_train = list(range(6))
        split.label_valid = [6, 7]
        config = _toy_config(task="classification", epochs=50, val_every=1,
                             patience=2, learning_rate=1e-12)
        _, report = train(kg, split, config)
        assert report.stopped_early_at == 3
        assert report.best_epoch == 1
        assert len(report.epoch_losses) == 3

    def test_classification_without_labels_raises(self):
        kg, split = _toy_setup()
        with pytest.raises(ConfigError):
            train(kg, split, _toy_config(task="classification", epochs=1))

    def test_step_shares_one_value_table(self, monkeypatch):
        kg = random_kg(np.random.default_rng(4), entities=6, relations=2, triples=12,
                       attribute_relations=1, attribute_triples=5)
        split = DatasetSplit(train=id_tuples(kg.relation_triples), valid=[], test=[])
        encoded, read = [], []
        real_encode, real_forward = training.encode_value, training.forward_all
        real_loss = training._completion_batch_loss

        def encode(*args):
            encoded.append(real_encode(*args))
            return encoded[-1]

        def forward(view, params, config, values=None):
            read.append(("forward", values))
            return real_forward(view, params, config, values)

        def loss(batch, negatives, finals, params, config, values=None):
            read.append(("loss", values))
            return real_loss(batch, negatives, finals, params, config, values)

        monkeypatch.setattr(training, "encode_value", encode)
        monkeypatch.setattr(training, "forward_all", forward)
        monkeypatch.setattr(training, "_completion_batch_loss", loss)
        train(kg, split, _toy_config(epochs=1))
        steps = -(-(len(kg.relation_triples) + len(kg.attribute_triples)) // 4)
        assert len(encoded) == steps
        for step, table in enumerate(encoded):
            assert table.shape == (kg.num_values, 8)
            assert read[2 * step] == ("forward", table) and read[2 * step + 1] == ("loss", table)

    @pytest.mark.parametrize("task", ["completion", "classification"])
    def test_step_neither_transposes_nor_stacks_a_parameter(self, task, monkeypatch):
        """Every transform is stored in the layout its product reads: no
        record of a training step transposes a parameter, and the only
        ``concat_rows`` input that may be a parameter is the entity table,
        under the isolated entities' previous rows. The head transforms and
        the concat merges are read as stored by the layers' and the
        merges' ``fused`` records, the classifier by a ``matmul``, and the
        LSTM encoder's weights by its one ``fused`` record."""
        kg = random_kg(np.random.default_rng(4), entities=6, relations=2, triples=12,
                       attribute_relations=1, attribute_triples=5)
        split = DatasetSplit(train=id_tuples(kg.relation_triples), valid=[], test=[])
        encoder = "bow"
        if task == "classification":
            split.labels, split.class_names, split.label_train = {e: e % 2 for e in range(6)}, ["c0", "c1"], list(range(6))
            encoder = "lstm"
        model = ModelConfig(dim=4, head_dim=3, heads=2, layers=2, encoder=encoder)
        tapes = []
        real_backward = ad.backward

        def backward(tape, root):
            tapes.append(tape)
            return real_backward(tape, root)

        monkeypatch.setattr(ad, "backward", backward)
        params, _ = train(kg, split, _toy_config(model=model, task=task, epochs=1, batch_size=64))
        (tape,) = tapes
        reads = {}  # op name -> names of the parameters it reads
        for t in tape.records:
            op = t._backward.__qualname__.split(".")[0]
            reads.setdefault(op, set()).update(p.name for p in t._parents if p.is_param)
        assert reads.get("transpose", set()) == set()
        assert reads.get("concat_rows", set()) <= {"entity"}
        layers = {name for name, _ in params.named_parameters() if name.startswith(("head_w", "out_w"))}
        assert len(layers) == 4 and layers <= reads["fused"]
        classifier = {"cls_w"} if task == "classification" else set()
        assert classifier <= reads.get("matmul", set())
        lstm = {name for name, _ in params.named_parameters() if name.startswith("lstm.w")}
        assert lstm == ({"lstm.w_in", "lstm.w_hid"} if encoder == "lstm" else set())
        assert lstm <= reads.get("fused", set())

    def test_one_aggregation_plan_per_view(self, monkeypatch):
        """A run's edges never change: one ``train`` call builds one view and
        its aggregation plan once, and the plan's reverse index at the first
        backward; validation reuses both. A forward outside a tape, as
        evaluation runs it, builds a plan but never its reverse index."""
        kg = random_kg(np.random.default_rng(5), entities=8, relations=2, triples=24,
                       attribute_relations=1, attribute_triples=6)
        triples = id_tuples(kg.relation_triples)
        split = DatasetSplit(train=triples[:20], valid=triples[20:], test=[])
        views, plans = [], []
        real_restricted, real_init = GraphView.restricted, ad.AggregationPlan.__init__

        def restricted(cls, *args, **kwargs):
            views.append(real_restricted(*args, **kwargs))
            return views[-1]

        def init(plan, index, offsets):
            plans.append(plan)
            real_init(plan, index, offsets)

        monkeypatch.setattr(GraphView, "restricted", classmethod(restricted))
        monkeypatch.setattr(ad.AggregationPlan, "__init__", init)
        config = _toy_config(model=ModelConfig(dim=4, head_dim=3, heads=2, layers=2), epochs=2, val_every=1)
        params, report = train(kg, split, config)
        assert len(report.validation) == 2
        assert len(views) == 1 and len(plans) == 1
        assert views[0].aggregation is plans[0] and "reverse" in plans[0].__dict__

        view = GraphView.restricted(kg, split.train)
        forward_all(view, params, config.model)
        assert len(plans) == 2 and view.aggregation is plans[1]
        assert "reverse" not in plans[1].__dict__

    def test_renormalize_keeps_entity_rows_unit_length(self):
        kg, split = _toy_setup()
        params, _ = train(kg, split, _toy_config(epochs=2, renormalize=True))
        norms = np.linalg.norm(params.entity.data, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)


@pytest.mark.parametrize(
    "overrides",
    [
        {"task": "ranking"},
        {"margin": 0.0},
        {"margin": float("nan")},
        {"margin": float("inf")},
        {"learning_rate": 0.0},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"batch_size": 0},
        {"negatives": 0},
        {"epochs": -1},
        {"val_every": -1},
        {"patience": 0},
    ],
)
def test_invalid_train_config_rejected(overrides):
    with pytest.raises(ConfigError):
        _toy_config(**overrides)


@pytest.mark.parametrize("build, message", [
    (lambda: ModelConfig(dim=8.5), "model.dim must be int, got 8.5"),
    (lambda: ModelConfig(heads="2"), "model.heads must be int, got '2'"),
    (lambda: ModelConfig(use_attributes="no"), "model.use_attributes must be bool, got 'no'"),
    (lambda: ModelConfig(layers=np.int64(1)), "model.layers must be int, got "),
    (lambda: TrainConfig(batch_size=2.5), "batch_size must be int, got 2.5"),
    (lambda: TrainConfig(epochs=True), "epochs must be int, got True"),
    (lambda: TrainConfig(model={}), "model must be ModelConfig, got {}"),
], ids=["float-dim", "str-heads", "str-attributes", "numpy-layers", "float-batch", "bool-epochs",
        "dict-model"])
def test_wrong_field_types_rejected_when_built(build, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        build()


def test_int_for_float_stored_as_float():
    config = TrainConfig(model=ModelConfig(leaky_slope=0), margin=2)
    assert type(config.model.leaky_slope) is float and type(config.margin) is float


def test_configs_are_immutable():
    config = TrainConfig()
    with pytest.raises(FrozenInstanceError):
        config.epochs = 3
    with pytest.raises(FrozenInstanceError):
        config.model.dim = 3


def test_report_csv_layout():
    report = TrainReport(
        epoch_losses=[0.5, 0.25],
        epoch_seconds=[0.125, 0.0625],
        validation=[(2, 0.75)],
    )
    assert report.to_csv() == (
        "epoch,loss,val_metric,seconds\n"
        "1,0.5,,0.125\n"
        "2,0.25,0.75,0.0625\n"
    )


# ---------------------------------------------------------------------------
# checkpoints


class TestCheckpoint:
    def _params_and_config(self):
        config = _toy_config(epochs=0)
        kg, split = _toy_setup()
        params, _ = train(kg, split, config)
        return params, config

    def test_round_trip_is_bit_exact(self):
        params, config = self._params_and_config()
        blob = save_checkpoint_bytes(params, config, bundle_checksum="abc123")
        loaded, config2, header = load_checkpoint_bytes(blob)
        assert config2 == config
        assert header["bundle_checksum"] == "abc123"
        got = dict(loaded.named_parameters())
        for name, tensor in params.named_parameters():
            assert np.array_equal(got[name].data, tensor.data), name
        again = save_checkpoint_bytes(loaded, config2, bundle_checksum=header["bundle_checksum"])
        assert again == blob

    def test_header_keys_of_older_writers_ignored(self):
        """Earlier writers also stored the generator state, graph counts and
        run facts in the header; header keys the loader does not read are
        ignored."""
        params, config = self._params_and_config()
        blob = save_checkpoint_bytes(params, config, bundle_checksum="abc123")
        header = checkpoint_header(blob)
        header.update(
            rng_state={"bit_generator": "PCG64", "state": {"state": 7, "inc": 9}},
            counts={"entities": 8, "relations": 2, "values": 0, "vocabulary": 0, "classes": 0},
            meta={"task": "completion", "epochs_trained": 0, "mode": "kane"},
        )
        loaded, config2, header2 = load_checkpoint_bytes(with_checkpoint_header(blob, header))
        assert config2 == config and header2["bundle_checksum"] == "abc123"
        got = dict(loaded.named_parameters())
        for name, tensor in params.named_parameters():
            assert got[name].data.tobytes() == tensor.data.tobytes(), name

    @pytest.mark.parametrize("name, value", [("entity", np.nan), ("relation", np.inf), ("entity", -np.inf)])
    def test_non_finite_array_rejected(self, name, value):
        params, config = self._params_and_config()
        dict(params.named_parameters())[name].data[1, 1] = value
        blob = save_checkpoint_bytes(params, config)
        with pytest.raises(IntegrityError, match=f"^<checkpoint>: checkpoint array '{name}' holds a non-finite value$"):
            load_checkpoint_bytes(blob)

    def test_bad_magic_rejected(self):
        params, config = self._params_and_config()
        blob = save_checkpoint_bytes(params, config)
        with pytest.raises(IntegrityError):
            load_checkpoint_bytes(b"NOTMAGIC" + blob[8:])

    def test_trailing_bytes_rejected(self):
        params, config = self._params_and_config()
        blob = save_checkpoint_bytes(params, config)
        with pytest.raises(IntegrityError):
            load_checkpoint_bytes(blob + b"\x00")

    def test_every_truncation_rejected(self):
        params, config = self._params_and_config()
        blob = save_checkpoint_bytes(params, config)
        for length in range(len(blob)):
            with pytest.raises(IntegrityError) as err:
                load_checkpoint_bytes(blob[:length])
            if length >= len(CHECKPOINT_MAGIC):
                assert "truncated" in str(err.value), length

    def test_corrupt_header_rejected(self):
        params, config = self._params_and_config()
        blob = bytearray(save_checkpoint_bytes(params, config))
        blob[20] = 0xFF  # invalid UTF-8 inside the JSON header
        with pytest.raises(IntegrityError):
            load_checkpoint_bytes(bytes(blob))

    @pytest.mark.parametrize("version", [1, 2, 4, None],
                             ids=["format-1", "format-2", "format-4", "no-version"])
    def test_other_format_versions_rejected(self, version):
        params, config = self._params_and_config()
        blob = save_checkpoint_bytes(params, config)
        header = checkpoint_header(blob)
        assert header["format_version"] == 3
        if version is None:
            del header["format_version"]
        else:
            header["format_version"] = version
        if version == 1:
            # format 1 stored one transform per head: the version, not a
            # name or shape mismatch, is what the loader reports
            for spec in header["arrays"]:
                spec["name"] = spec["name"].replace("head_w.0", "head_w.0.0")
        with pytest.raises(IntegrityError, match=f"unsupported checkpoint format_version {version!r}"):
            load_checkpoint_bytes(with_checkpoint_header(blob, header))

    def test_lstm_round_trip_reproduces_encodings(self):
        kg = random_kg(np.random.default_rng(5), entities=6, relations=2, triples=12,
                       attribute_relations=1, attribute_triples=5)
        split = DatasetSplit(train=id_tuples(kg.relation_triples), valid=[], test=[])
        model = ModelConfig(dim=5, head_dim=5, heads=1, layers=1, encoder="lstm")
        config = _toy_config(model=model, epochs=1)
        params, _ = train(kg, split, config)
        loaded, _, _ = load_checkpoint_bytes(save_checkpoint_bytes(params, config))
        assert "lstm.w_in" in loaded
        view = GraphView.restricted(kg, split.train, model.use_attributes)
        want = encode_value(view, params, model).data
        assert np.array_equal(encode_value(view, loaded, model).data, want)

    # one field may take an arbitrary value; the rest take valid ones
    _FIELDS = {
        "dim": st.integers(1, 3), "head_dim": st.integers(1, 3), "heads": st.integers(1, 2),
        "layers": st.integers(0, 2), "aggregator": st.sampled_from(AGGREGATORS),
        "encoder": st.sampled_from(ENCODERS), "attention": st.sampled_from(ATTENTION_FORMS),
        "norm": st.sampled_from(NORMS), "leaky_slope": st.floats(0.0, 0.99),
        "use_attributes": st.booleans(), "task": st.sampled_from(["completion", "classification"]),
        "margin": st.floats(0.01, 10.0), "learning_rate": st.floats(1e-6, 1.0),
        "batch_size": st.integers(1, 9), "negatives": st.integers(1, 9), "epochs": st.integers(0, 9),
        "seed": st.integers(0, 2**32), "val_every": st.integers(0, 9), "patience": st.integers(1, 9),
        "renormalize": st.booleans(),
    }
    _ANY_VALUE = st.one_of(
        st.none(), st.booleans(), st.integers(-2, 4), st.floats(), st.text(max_size=3),
        st.sampled_from(["no", "true", "bow", "lstm", "average", "l2", "classification"]),
        st.integers(0, 4).map(np.int64), st.floats(0.0, 4.0).map(np.float64),
    )

    @settings(max_examples=150, deadline=None)
    @given(st.fixed_dictionaries(_FIELDS), st.sampled_from([None, *_FIELDS]), _ANY_VALUE)
    @example({**asdict(TrainConfig()), **asdict(ModelConfig())}, "use_attributes", "no")
    def test_every_buildable_config_round_trips(self, values, odd, odd_value):
        if odd is not None:
            values = {**values, odd: odd_value}
        try:
            config = make_train_config(values)
        except ConfigError:
            return
        classes = 2 if config.task == "classification" else 0
        params = init_params(3, 2, 4, classes, config.model, np.random.default_rng(0))
        blob = save_checkpoint_bytes(params, config)
        _, loaded, _ = load_checkpoint_bytes(blob)
        assert loaded == config
        assert save_checkpoint_bytes(params, loaded) == blob

    def test_config_dict_round_trip(self):
        config = _toy_config(task="classification", renormalize=True, epochs=17)
        assert _config_from_dict(asdict(config)) == config

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c["model"].update(width=3), "unknown keys \\['width'\\]"),
        (lambda c: c.update(momentum=0.9), "unknown keys \\['momentum'\\]"),
        (lambda c: c["model"].pop("heads"), "lacks keys \\['heads'\\]"),
        (lambda c: c.pop("margin"), "lacks keys \\['margin'\\]"),
        (lambda c: c.update(model=[]), "model config is not an object"),
    ], ids=["unknown-model-key", "unknown-train-key", "no-model-key", "no-train-key", "model-list"])
    def test_config_keys_checked(self, edit, message):
        params, config = self._params_and_config()
        blob = save_checkpoint_bytes(params, config)
        header = checkpoint_header(blob)
        edit(header["config"])
        with pytest.raises(IntegrityError, match=message):
            load_checkpoint_bytes(with_checkpoint_header(blob, header))
        del header["config"]
        with pytest.raises(IntegrityError, match="no config"):
            load_checkpoint_bytes(with_checkpoint_header(blob, header))

    def test_header_without_arrays_rejected(self):
        params, config = self._params_and_config()
        blob = save_checkpoint_bytes(params, config)
        header = checkpoint_header(blob)
        del header["arrays"]
        with pytest.raises(IntegrityError, match="no arrays"):
            load_checkpoint_bytes(with_checkpoint_header(blob, header))

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c["model"].update(dim="x"), "model.dim must be int, got 'x'"),
        (lambda c: c["model"].update(use_attributes=1), "model.use_attributes must be bool"),
        (lambda c: c.update(epochs=2.0), "epochs must be int, got 2.0"),
        (lambda c: c.update(margin="1"), "margin must be float"),
        (lambda c: c["model"].update(norm="l3"), "norm must be one of"),
        (lambda c: c.update(learning_rate=-1), "learning_rate must be > 0"),
        (lambda c: c.update(margin=float("nan")), "margin must be > 0 and finite, got nan"),
        (lambda c: c.update(learning_rate=float("nan")), "learning_rate must be > 0 and finite"),
        (lambda c: c.update(seed=-1), "seed must be >= 0, got -1"),
    ], ids=["str-for-int", "int-for-bool", "float-for-int", "str-for-float", "bad-norm", "bad-rate",
            "nan-margin", "nan-rate", "negative-seed"])
    def test_config_values_type_checked_and_validated(self, edit, message):
        params, config = self._params_and_config()
        blob = save_checkpoint_bytes(params, config)
        header = checkpoint_header(blob)
        edit(header["config"])
        with pytest.raises(IntegrityError, match=message):
            load_checkpoint_bytes(with_checkpoint_header(blob, header))

    def test_config_accepts_int_for_float(self):
        params, config = self._params_and_config()
        blob = save_checkpoint_bytes(params, config)
        header = checkpoint_header(blob)
        header["config"]["margin"] = 2
        _, loaded, _ = load_checkpoint_bytes(with_checkpoint_header(blob, header))
        assert loaded.margin == 2.0 and type(loaded.margin) is float

    def test_array_shapes_checked_against_config(self):
        params, config = self._params_and_config()
        entities = params.entity.data.shape[0]
        params.entity.data = np.zeros((entities, config.model.dim + 1))
        with pytest.raises(IntegrityError, match=r"holds 'entity' of shape \(\d+, 9\) where its config implies"):
            load_checkpoint_bytes(save_checkpoint_bytes(params, config))
        params, config = self._params_and_config()
        params.relation.data = np.zeros((0, config.model.dim))
        with pytest.raises(IntegrityError, match="no relation rows"):
            load_checkpoint_bytes(save_checkpoint_bytes(params, config))
        # a config with one more layer implies arrays the checkpoint lacks
        params, config = self._params_and_config()
        blob = save_checkpoint_bytes(params, config)
        header = checkpoint_header(blob)
        header["config"]["model"]["layers"] += 1
        with pytest.raises(IntegrityError, match="holds 'out_w.0' of shape \\(8, 8\\) where its config implies 'head_w.1'"):
            load_checkpoint_bytes(with_checkpoint_header(blob, header))

    @pytest.mark.parametrize("drawn, saved, message", [
        (dict(task="classification"), dict(task="completion"), "holds 'cls_w' of shape (8, 2)"),
        ({}, dict(model=ModelConfig(dim=8, head_dim=8, heads=1, layers=1, use_attributes=False)),
         "holds 'word' of shape (4, 8)"),
    ], ids=["completion-with-classifier", "attributes-off-with-words"])
    def test_array_the_config_does_not_train_refused(self, drawn, saved, message):
        """A completion checkpoint holding a classifier head, or an
        attributes-off one holding a word table, is refused naming the
        array: a checkpoint holds exactly what its own config trains."""
        config = _toy_config(**drawn)
        params = init_params(8, 2, 4, 2 if config.task == "classification" else 0, config.model,
                             np.random.default_rng(0))
        blob = save_checkpoint_bytes(params, _toy_config(**saved))
        with pytest.raises(IntegrityError, match=re.escape(f"{message} where its config implies")):
            load_checkpoint_bytes(blob)

    def test_classification_checkpoint_without_head_refused(self):
        config = _toy_config(task="classification")
        params = init_params(8, 2, 0, 0, config.model, np.random.default_rng(0))
        with pytest.raises(IntegrityError, match="classification checkpoint has no classifier head"):
            load_checkpoint_bytes(save_checkpoint_bytes(params, config))

    def test_absurd_layer_count_refused_before_building_shapes(self):
        # every layer stores at least one array, so the header's array count
        # bounds the layers; 2**40 layers would otherwise build 2**41 shapes
        params, config = self._params_and_config()
        blob = save_checkpoint_bytes(params, config)
        header = checkpoint_header(blob)
        header["config"]["model"]["layers"] = 2**40
        arrays = len(header["arrays"])
        start = time.process_time()
        with pytest.raises(IntegrityError, match=f"has {2**40} layers, its header only {arrays} arrays"):
            load_checkpoint_bytes(with_checkpoint_header(blob, header))
        assert time.process_time() - start < 1.0

