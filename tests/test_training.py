"""Negative sampling, loss functions against hand values and plain-numpy
references, optimizer steps, the training loop, and checkpoint bytes."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

import kane.autodiff as ad
import kane.training as training
from kane.errors import ConfigError, IntegrityError, SamplingError, TrainingError
from kane.kgdata import DatasetSplit, GraphView, known_triples, triple_rows
from kane.model import ModelConfig, encode_value, forward_all, init_params
from kane.training import (
    CHECKPOINT_MAGIC,
    TrainConfig,
    TrainReport,
    _classification_batch_loss,
    _completion_batch_loss,
    _config_from_dict,
    _config_to_dict,
    bce_loss,
    corrupt,
    hinge_loss,
    load_checkpoint_bytes,
    save_checkpoint_bytes,
    sgd_step,
    train,
)

from helpers import (
    check_gradients,
    kg_from_name_triples,
    random_kg,
    reference_bce,
    reference_transe_hinge,
    relative_error,
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
    return {tuple(t) for t in kg.relation_triples} | {
        (a.head, a.relation, ne + a.value) for a in kg.attribute_triples
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
        return float(
            hinge_loss(
                ad.constant(np.array(pos, dtype=float)),
                ad.constant(np.array(neg, dtype=float)),
                margin,
                npp,
            ).data
        )

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
        pos = ad.parameter(np.array([0.5, 2.0]), "pos")
        neg = ad.parameter(np.array([3.0, 0.7, 1.4, 4.0]), "neg")

        def forward():
            return hinge_loss(pos, neg, 1.0, 2)

        assert check_gradients(forward, [pos, neg], step=1e-6) < 1e-9


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

    def test_extreme_scores_stay_finite_via_clipping(self):
        raw = np.array([[1000.0, -1000.0, 55.0]])
        got = float(bce_loss(ad.constant(raw), [0], 3).data)
        assert np.isfinite(got)
        assert abs(got - reference_bce(raw, [0])) < 1e-12

    def test_bad_labels_raise(self):
        scores = ad.constant(np.zeros((2, 3)))
        with pytest.raises(ConfigError):
            bce_loss(scores, [0, 3], 3)
        with pytest.raises(ConfigError):
            bce_loss(scores, [0], 3)
        with pytest.raises(ConfigError):
            bce_loss(scores, [0, 1], 4)  # class_count disagrees with score width

    def test_gradients_match_finite_differences(self):
        scores = ad.parameter(np.random.default_rng(5).standard_normal((3, 4)), "scores")

        def forward():
            return bce_loss(scores, [0, 2, 3], 4)

        assert check_gradients(forward, [scores], step=1e-6) < 1e-8


# ---------------------------------------------------------------------------
# degenerate translation mode equals the plain reference


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_translation_mode_batch_loss_matches_reference(norm):
    kg = random_kg(np.random.default_rng(6), entities=8, relations=2, triples=18)
    model = ModelConfig(dim=6, head_dim=6, heads=1, layers=0, use_attributes=False, norm=norm)
    config = TrainConfig(model=model, margin=1.0, negatives=3)
    params = init_params(kg.num_entities, kg.num_relations, 0, 0, model, np.random.default_rng(7))
    split = DatasetSplit(train=list(kg.relation_triples), valid=[], test=[])
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
    split = DatasetSplit(train=list(kg.relation_triples), valid=[], test=[])
    view = GraphView.restricted(kg, split.train, model.use_attributes)
    rows = triple_rows(kg, kg.relation_triples, with_attributes=True)
    batch = np.concatenate([rows[:2], rows[len(kg.relation_triples):][:1]])
    negs = corrupt(batch, kg, known_triples(kg), np.random.default_rng(11), 2)
    assert batch[2, 2] >= kg.num_entities  # the attribute row reads the value table

    def forward():
        values = encode_value(np.arange(kg.num_values), view, params, model)
        finals = forward_all(view, params, model, values)
        return _completion_batch_loss(batch, negs, finals, params, config, values)

    rng = np.random.default_rng(12)
    worst = check_gradients(forward, params.all_tensors(), step=1e-6,
                            max_entries_per_param=6, rng=rng)
    assert worst < 1e-4


def test_classification_loss_gradients_end_to_end():
    kg = random_kg(np.random.default_rng(13), entities=5, relations=2, triples=10)
    model = ModelConfig(dim=4, head_dim=4, heads=1, layers=1)
    params = init_params(kg.num_entities, kg.num_relations, 0, 2, model, np.random.default_rng(14))
    split = DatasetSplit(
        train=list(kg.relation_triples), valid=[], test=[],
        labels={0: 0, 1: 1, 2: 0, 3: 1, 4: 0}, class_count=2,
        label_train=[0, 1, 2, 3, 4],
    )
    view = GraphView.restricted(kg, split.train, model.use_attributes)

    def forward():
        finals = forward_all(view, params, model)
        return _classification_batch_loss([0, 1, 3], finals, params, split)

    rng = np.random.default_rng(15)
    worst = check_gradients(forward, params.all_tensors(), step=1e-6,
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


# ---------------------------------------------------------------------------
# train loop


def _toy_setup(seed=3, entities=8, triples=20):
    kg = random_kg(np.random.default_rng(seed), entities=entities, relations=2, triples=triples)
    split = DatasetSplit(train=list(kg.relation_triples), valid=[], test=[])
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
        split.class_count = 2
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
        split.class_count = 2
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
        split = DatasetSplit(train=list(kg.relation_triples), valid=[], test=[])
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
        {"learning_rate": 0.0},
        {"batch_size": 0},
        {"negatives": 0},
        {"epochs": -1},
        {"val_every": -1},
        {"patience": 0},
    ],
)
def test_invalid_train_config_rejected(overrides):
    with pytest.raises(ConfigError):
        _toy_config(**overrides).validate()


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
        blob = save_checkpoint_bytes(
            params, config,
            bundle_checksum="abc123",
            rng_state={"state": 7},
            counts={"entities": 8},
            meta={"note": "x"},
        )
        loaded, config2, header = load_checkpoint_bytes(blob)
        assert config2 == config
        assert header["bundle_checksum"] == "abc123"
        assert header["counts"] == {"entities": 8}
        assert header["meta"] == {"note": "x"}
        got = dict(loaded.named_parameters())
        for name, tensor in params.named_parameters():
            assert np.array_equal(got[name].data, tensor.data), name
        again = save_checkpoint_bytes(
            loaded, config2,
            bundle_checksum=header["bundle_checksum"],
            rng_state=header["rng_state"],
            counts=header["counts"],
            meta=header["meta"],
        )
        assert again == blob

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

    def test_lstm_round_trip_reproduces_encodings(self):
        kg = random_kg(np.random.default_rng(5), entities=6, relations=2, triples=12,
                       attribute_relations=1, attribute_triples=5)
        split = DatasetSplit(train=list(kg.relation_triples), valid=[], test=[])
        model = ModelConfig(dim=5, head_dim=5, heads=1, layers=1, encoder="lstm")
        config = _toy_config(model=model, epochs=1)
        params, _ = train(kg, split, config)
        loaded, _, _ = load_checkpoint_bytes(save_checkpoint_bytes(params, config))
        assert loaded.lstm is not None
        view = GraphView.restricted(kg, split.train, model.use_attributes)
        ids = np.arange(kg.num_values)
        want = encode_value(ids, view, params, model).data
        assert np.array_equal(encode_value(ids, view, loaded, model).data, want)

    def test_config_dict_round_trip(self):
        config = _toy_config(task="classification", renormalize=True, epochs=17)
        assert _config_from_dict(_config_to_dict(config)) == config

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
        header = _read_header(blob)
        edit(header["config"])
        with pytest.raises(IntegrityError, match=message):
            load_checkpoint_bytes(_with_header(blob, header))
        del header["config"]
        with pytest.raises(IntegrityError, match="no config"):
            load_checkpoint_bytes(_with_header(blob, header))

    def test_header_without_arrays_rejected(self):
        params, config = self._params_and_config()
        blob = save_checkpoint_bytes(params, config)
        header = _read_header(blob)
        del header["arrays"]
        with pytest.raises(IntegrityError, match="no arrays"):
            load_checkpoint_bytes(_with_header(blob, header))

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c["model"].update(dim="x"), "model.dim must be int, got 'x'"),
        (lambda c: c["model"].update(use_attributes=1), "model.use_attributes must be bool"),
        (lambda c: c.update(epochs=2.0), "epochs must be int, got 2.0"),
        (lambda c: c.update(margin="1"), "margin must be float"),
        (lambda c: c["model"].update(norm="l3"), "norm must be one of"),
        (lambda c: c.update(learning_rate=-1), "learning_rate must be > 0"),
    ], ids=["str-for-int", "int-for-bool", "float-for-int", "str-for-float", "bad-norm", "bad-rate"])
    def test_config_values_type_checked_and_validated(self, edit, message):
        params, config = self._params_and_config()
        blob = save_checkpoint_bytes(params, config)
        header = _read_header(blob)
        edit(header["config"])
        with pytest.raises(IntegrityError, match=message):
            load_checkpoint_bytes(_with_header(blob, header))

    def test_config_accepts_int_for_float(self):
        params, config = self._params_and_config()
        blob = save_checkpoint_bytes(params, config)
        header = _read_header(blob)
        header["config"]["margin"] = 2
        _, loaded, _ = load_checkpoint_bytes(_with_header(blob, header))
        assert loaded.margin == 2.0 and type(loaded.margin) is float

    def test_array_shapes_checked_against_config(self):
        params, config = self._params_and_config()
        entities = params.entity.data.shape[0]
        params.entity.data = np.zeros((entities, config.model.dim + 1))
        with pytest.raises(IntegrityError, match="'entity' has shape"):
            load_checkpoint_bytes(save_checkpoint_bytes(params, config))
        params, config = self._params_and_config()
        params.relation.data = np.zeros((0, config.model.dim))
        with pytest.raises(IntegrityError, match="no relation rows"):
            load_checkpoint_bytes(save_checkpoint_bytes(params, config))
        # a config with one more layer implies arrays the checkpoint lacks
        params, config = self._params_and_config()
        blob = save_checkpoint_bytes(params, config)
        header = _read_header(blob)
        header["config"]["model"]["layers"] += 1
        with pytest.raises(IntegrityError, match="do not match"):
            load_checkpoint_bytes(_with_header(blob, header))


def _read_header(blob: bytes) -> dict:
    (length,) = struct.unpack_from("<Q", blob, len(CHECKPOINT_MAGIC))
    start = len(CHECKPOINT_MAGIC) + 8
    return json.loads(blob[start:start + length])


def _with_header(blob: bytes, header: dict) -> bytes:
    """``blob`` with its JSON header replaced and the arrays kept."""
    (length,) = struct.unpack_from("<Q", blob, len(CHECKPOINT_MAGIC))
    head = json.dumps(header).encode("utf-8")
    arrays = blob[len(CHECKPOINT_MAGIC) + 8 + length:]
    return CHECKPOINT_MAGIC + struct.pack("<Q", len(head)) + head + arrays
