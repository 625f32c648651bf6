"""Negative sampling, loss functions against hand values and plain-numpy
references, optimizer steps, the training loop, and checkpoint bytes."""

from __future__ import annotations

import re
import time
import tracemalloc
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kane.autodiff as ad
import kane.training as training
from kane.errors import ConfigError, IntegrityError, SamplingError, TrainingError
from kane.kgdata import (
    DatasetSplit, GraphView, KnownAnswers, generate_synthetic_kg, id_tuples, known_triples, pair_keys,
    triple_rows,
)
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
    UNPARSEABLE_JSON,
    autodiff_gradients,
    check_gradients,
    checkpoint_header,
    composed_classification_loss,
    composed_completion_loss,
    contains_by_lookup,
    edge_case_graph,
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

    @pytest.mark.parametrize("entities", [50, 500])
    def test_same_negatives_as_the_lookup_based_filter(self, entities, monkeypatch):
        """The sampler's known-triple test gives the same booleans as the
        lookup-based reference, so the draws and the negatives are the same
        bytes, on the synthetic 50- and 500-entity graphs at seeds 0-4."""
        for seed in range(5):
            kg, split = generate_synthetic_kg(seed, entities=entities)
            rows = triple_rows(kg, split.train, with_attributes=True)
            known = known_triples(kg)
            got = corrupt(rows, kg, known, np.random.default_rng(seed), 10)
            with monkeypatch.context() as m:
                m.setattr(KnownAnswers, "contains", contains_by_lookup)
                want = corrupt(rows, kg, known, np.random.default_rng(seed), 10)
            assert got.tobytes() == want.tobytes()

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
        assert negs.dtype == np.int32  # an epoch's negatives are held whole; ids are below 2**31
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
        a, b, c, d = (kg.entities[x] for x in "abcd")
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
        got = float(bce_loss(np.zeros((1, 2)), [0], 2)[0])
        assert abs(got - 2.0 * np.log(2.0)) < 1e-12
        got = float(bce_loss(np.zeros((2, 3)), [0, 1], 3)[0])
        assert abs(got - 3.0 * np.log(2.0)) < 1e-12

    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            n, c = int(rng.integers(1, 6)), int(rng.integers(2, 5))
            raw = rng.standard_normal((n, c)) * 3.0
            labels = [int(rng.integers(c)) for _ in range(n)]
            got = float(bce_loss(raw, labels, c)[0])
            assert abs(got - reference_bce(raw, labels)) < 1e-12

    def test_extreme_scores_are_exact_without_clipping(self):
        raw = np.array([[1000.0, -1000.0, 55.0]])
        got = float(bce_loss(raw, [0], 3)[0])
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
        loss, grad = bce_loss(raw, [label, 0], 2)
        onehot = np.array([[label == 0, label == 1], [1, 0]], dtype=float)
        want = (np.logaddexp(0.0, raw) - onehot * raw).sum() / n
        assert np.isfinite(loss) and abs(loss - want) < 1e-12
        want_grad = (0.5 * (1.0 + np.tanh(raw / 2.0)) - onehot) / n
        assert np.abs(grad - want_grad).max() < 1e-15
        if label == 1 and score == 35.0:
            assert abs(grad[0, 0] - 1.0 / n) < 1e-15

    def test_bad_labels_raise(self):
        scores = np.zeros((2, 3))
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
        scores = np.random.default_rng(5).standard_normal((3, 4))
        _, grad = bce_loss(scores, [0, 2, 3], 4)
        step = 1e-6
        numeric = np.zeros_like(scores)
        for idx in np.ndindex(scores.shape):
            up, down = scores.copy(), scores.copy()
            up[idx] += step
            down[idx] -= step
            numeric[idx] = (bce_loss(up, [0, 2, 3], 4)[0] - bce_loss(down, [0, 2, 3], 4)[0]) / (2.0 * step)
        assert relative_error(grad, numeric) < 1e-8


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


def _large_completion_loss_setup(norm, values, positive_count=200):
    """The tuple of ``_completion_loss_setup`` at dim 64: ``positive_count``
    positives with 10 negatives each (2,200 rows by default) over 50
    entities, 5 relations and, with ``values``, 10 value rows (targets
    50-59). The margin holds every (positive, negative) pair inside it, so
    every row is live: 2,200 rows run nine forward blocks and two column
    blocks of the backward. Row 0 is (0, 1, 2), and no row reads entity 49
    or value row 9."""
    rng = np.random.default_rng(24)
    dim, n_ent, n_rel, n_val, per = 64, 50, 5, 10, 10
    targets = np.r_[0:n_ent - 1, n_ent:n_ent + n_val - 1] if values else np.arange(n_ent - 1)
    positives = np.column_stack([rng.integers(n_ent - 1, size=positive_count),
                                 rng.integers(n_rel, size=positive_count),
                                 rng.choice(targets, size=positive_count)])
    positives[0] = [0, 1, 2]
    negatives = np.repeat(positives, per, axis=0)
    negatives[:, 2] = rng.choice(targets, size=len(negatives))
    model = ModelConfig(dim=dim, head_dim=4, heads=1, layers=0, use_attributes=False, norm=norm)
    params = init_params(n_ent, n_rel, 0, 0, model, rng)
    config = TrainConfig(model=ModelConfig(dim=dim, norm=norm), margin=1e4, negatives=per)
    table = ad.parameter(rng.normal(size=(n_val, dim))) if values else None
    return positives, negatives, params.entity, params, config, table


@pytest.mark.parametrize("loss", ["completion", "bce"])
def test_each_loss_is_one_tape_record(loss):
    with ad.Tape() as tape:
        if loss == "completion":
            _completion_batch_loss(*_completion_loss_setup("l2", values=True))
        else:
            _classification_batch_loss(*_classification_loss_setup())
    assert len(tape.records) == 1


def _classification_loss_setup(bias_scale: float = 1.0):
    """A batch over 5 entities and 3 classes that reads entity 3 twice:
    (batch, entity table, ``ModelParams`` with the classifier, split)."""
    rng = np.random.default_rng(22)
    params = init_params(5, 2, 0, 3, ModelConfig(dim=4, head_dim=4, heads=1, layers=0), rng)
    params["cls_b"].data = rng.normal(size=3) * bias_scale
    split = DatasetSplit([], [], [], labels=np.array([2, 0, 1, 1, 0]), class_names=["x", "y", "z"])
    return [3, 0, 4, 3], params.entity, params, split


@pytest.mark.parametrize("bias_scale", [1.0, 40.0])
def test_fused_classification_loss_matches_the_composition_bit_for_bit(bias_scale):
    """The one-record classification loss and every gradient equal the
    op-by-op composition (``helpers.composed_classification_loss``) bit for
    bit, with an entity read twice in the batch, also with scores far out
    in both tails of the sigmoid."""
    batch, ent, params, split = _classification_loss_setup(bias_scale)
    tensors = [ent, params["cls_w"], params["cls_b"]]
    fused_loss, fused_grads = autodiff_gradients(lambda: _classification_batch_loss(batch, ent, params, split),
                                                 tensors)
    composed_loss, composed_grads = autodiff_gradients(
        lambda: composed_classification_loss(batch, ent, params["cls_w"], params["cls_b"],
                                             split.labels[batch], split.class_count), tensors)
    assert fused_loss == composed_loss
    for got, want in zip(fused_grads, composed_grads, strict=True):
        assert np.array_equal(got, want)


def _fused_and_composed(positives, negatives, ent, params, config, table):
    """(loss, gradients) of the one-record loss, then of the composition."""
    tensors = list(params.values()) + ([] if table is None else [table])
    fused = autodiff_gradients(
        lambda: _completion_batch_loss(positives, negatives, ent, params, config, table), tensors)
    composed = autodiff_gradients(
        lambda: composed_completion_loss(positives, negatives, ent, params.relation, config.model.norm,
                                         config.margin, config.negatives, table), tensors)
    return fused, composed


@pytest.mark.parametrize("norm", ["l1", "l2"])
@pytest.mark.parametrize("values", [False, True])
@pytest.mark.parametrize("large, margin, chunk", [(False, None, None), (True, None, None), (True, 1.0, None),
                                                  (True, 1.0, 7)],
                         ids=["False", "True", "partly-live", "partly-live-chunks"])
def test_fused_completion_loss_matches_the_composition_bit_for_bit(norm, values, large, margin, chunk,
                                                                   monkeypatch):
    """The one-record loss and every gradient equal the op-by-op composition
    (``helpers.composed_completion_loss``) bit for bit, with and without
    a value table, and some distances exactly zero (l2's 0/0 guard); also
    on 2,200 live rows, across several forward blocks and column blocks,
    and on the same rows at margin 1.0, where only some are live (76% for
    l1 and 88% for l2 with a value table), so the backward moves the live
    rows' directions to the front of the kept array before its column
    blocks; and so again in row chunks (and forward blocks) of 7 rows,
    where over a hundred chunks read rows that lie past them, each before
    any chunk overwrites it."""
    if chunk is not None:
        monkeypatch.setattr(training, "_LOSS_ROWS", chunk)
    setup = _large_completion_loss_setup if large else _completion_loss_setup
    positives, negatives, ent, params, config, table = setup(norm, values)
    negatives[0] = positives[0]  # with the next line, row 0 of both has a zero difference
    ent.data[2] = ent.data[0] + params.relation.data[1]
    if margin is not None:
        config = replace(config, margin=margin)
        full = ent.data if table is None else np.concatenate([ent.data, table.data])
        rows = np.concatenate([positives, negatives])
        diff = full[rows[:, 0]] + params.relation.data[rows[:, 1]] - full[rows[:, 2]]
        dist = np.abs(diff).sum(axis=1) if norm == "l1" else np.sqrt((diff * diff).sum(axis=1))
        live = hinge_loss(dist, len(positives), margin, config.negatives)[1] != 0.0
        assert 0.5 < live.mean() < 1.0, live.mean()
        if chunk is not None:
            live = np.flatnonzero(live)
            assert (live[::chunk] > np.arange(0, len(live), chunk)).sum() > 100
    (fused_loss, fused_grads), (composed_loss, composed_grads) = _fused_and_composed(
        positives, negatives, ent, params, config, table)
    assert fused_loss == composed_loss
    for got, want in zip(fused_grads, composed_grads, strict=True):
        assert np.array_equal(got, want)
    # buffers with spare rows, filled with NaN: nothing reads past the batch's rows
    work = np.full((2, len(positives) + len(negatives) + 3, ent.shape[1]), np.nan)
    work_loss, work_grads = autodiff_gradients(
        lambda: _completion_batch_loss(positives, negatives, ent, params, config, table, work),
        list(params.values()) + ([table] if values else []))
    assert work_loss == fused_loss
    for got, want in zip(work_grads, fused_grads, strict=True):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("norm", ["l1", "l2"])
@pytest.mark.parametrize("values", [False, True])
def test_completion_loss_with_every_negative_past_the_margin_has_positive_zero_gradients(norm, values):
    """No row carries gradient when every positive sits at distance zero
    and every negative clears the margin: every gradient is float64 +0.0,
    byte for byte the composition's."""
    positives, negatives, ent, params, config, table = _completion_loss_setup(norm, values)
    rel = params.relation.data
    # each positive's h + r is its t: 3 + 0 -> 4, 4 + 2 -> 1, 1 + 2 -> 6 (or 0), 0 + 1 -> 2
    ent.data[4] = ent.data[3] + rel[0]
    ent.data[1] = ent.data[4] + rel[2]
    (table.data if values else ent.data)[1 if values else 0] = ent.data[1] + rel[2]
    ent.data[2] = ent.data[0] + rel[1]
    negatives[negatives[:, 2] == positives.repeat(3, axis=0)[:, 2], 2] = 3  # no negative is its positive
    config = replace(config, margin=0.5)
    full = ent.data if table is None else np.concatenate([ent.data, table.data])
    diff = full[negatives[:, 0]] + rel[negatives[:, 1]] - full[negatives[:, 2]]
    dist = np.abs(diff).sum(axis=1) if norm == "l1" else np.sqrt((diff * diff).sum(axis=1))
    assert dist.min() > config.margin
    (fused_loss, fused_grads), (composed_loss, composed_grads) = _fused_and_composed(
        positives, negatives, ent, params, config, table)
    assert fused_loss == composed_loss == 0.0
    for got, want in zip(fused_grads, composed_grads, strict=True):
        assert got.dtype == np.float64 and not got.any() and not np.signbit(got).any()
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("norm", ["l1", "l2"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("large, values", [(False, True), (True, False), (True, True)])
def test_completion_loss_passes_a_dead_row_non_finite_distance_on_as_the_composition_does(norm, bad, large,
                                                                                          values):
    """A negative whose distance is not finite has no hinge gradient, but
    its backward still runs: l2's inf * 0 and both norms' NaN reach the
    same gradient entries as in the composition, bit for bit, also when the
    row lies in the last forward block and the entry in the last column
    block."""
    if large:
        positives, negatives, ent, params, config, table = _large_completion_loss_setup(norm, values)
        # entity 49 or value row 9, which no other row reads
        negatives[-1] = [0, 1, 59 if values else 49]
        (table.data[9] if values else ent.data[49])[-1] = bad
    else:
        positives, negatives, ent, params, config, table = _completion_loss_setup(norm, values)
        negatives[0] = [0, 1, 7]  # value row 2, which no positive reads
        table.data[2, 0] = bad
    with np.errstate(invalid="ignore"):  # as in training: inf * 0 is NaN
        (fused_loss, fused_grads), (composed_loss, composed_grads) = _fused_and_composed(
            positives, negatives, ent, params, config, table)
    assert np.isfinite(fused_loss) and fused_loss == composed_loss
    assert any(np.isnan(g).any() for g in composed_grads) == (norm == "l2" or bad != np.inf)
    for got, want in zip(fused_grads, composed_grads, strict=True):
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert got.tobytes() == want.tobytes()


def test_completion_loss_forward_holds_two_row_buffers():
    """The forward gathers h, r and t straight into its two block buffers
    and keeps only l1's int8 signs: on 2,200 rows at dim 64 its peak
    stays below 2.5 float64 (rows, dim) arrays, and below half of one when
    the buffers are given."""
    rng = np.random.default_rng(23)
    dim, n_ent, n_rel, n_val, per = 64, 50, 5, 10, 10
    model = ModelConfig(dim=dim, head_dim=4, heads=1, layers=0, use_attributes=False)
    config = TrainConfig(model=model, negatives=per)
    params = init_params(n_ent, n_rel, 0, 0, model, rng)
    values = ad.parameter(rng.normal(size=(n_val, dim)))
    positives = np.column_stack([rng.integers(n, size=200) for n in (n_ent, n_rel, n_ent + n_val)])
    negatives = np.repeat(positives, per, axis=0)
    negatives[:, 2] = rng.integers(n_ent + n_val, size=len(negatives))
    rows = len(positives) + len(negatives)
    assert rows >= 2000
    for work, bound in ((None, 2.5), (np.empty((2, rows, dim)), 0.5)):
        with ad.Tape():
            tracemalloc.start()
            try:
                _completion_batch_loss(positives, negatives, params.entity, params, config, values, work)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < bound * rows * dim * 8, (peak, rows * dim * 8)


def test_completion_loss_peak_grows_by_its_int8_signs():
    """Forward and backward at 2,200 and 4,400 rows at dim 64: the peak
    grows by less than 0.3 of a float64 (added rows, dim) array. l1's int8
    signs grow with the rows, an eighth of such an array, and so do the
    per-row index and distance vectors; every row is live, so the backward
    reads the signs in place. The block buffers, and the backward's column
    blocks with their flat scatter indexes, keep their size."""
    peaks = []
    for positive_count in (200, 400):
        positives, negatives, ent, params, config, table = _large_completion_loss_setup("l1", True,
                                                                                        positive_count)
        with ad.Tape() as tape:
            tracemalloc.start()
            try:
                ad.backward(tape, _completion_batch_loss(positives, negatives, ent, params, config, table))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    added = 200 * (1 + config.negatives) * ent.shape[1] * 8
    assert peaks[1] - peaks[0] < 0.3 * added, (peaks, added)


def test_l2_completion_loss_peak_grows_by_its_difference_alone():
    """l2 forward and backward at 2,200 and 4,400 rows at dim 64, margin
    1.0, where most but not all rows are live: the peak grows by less than
    1.5 float64 (added rows, dim) arrays. The kept difference is one such
    array; the backward moves the live rows to its front instead of
    gathering them into a second one, which read 2.0 here."""
    peaks = []
    for positive_count in (200, 400):
        positives, negatives, ent, params, config, table = _large_completion_loss_setup("l2", True,
                                                                                        positive_count)
        config = replace(config, margin=1.0)
        with ad.Tape() as tape:
            tracemalloc.start()
            try:
                ad.backward(tape, _completion_batch_loss(positives, negatives, ent, params, config, table))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    added = 200 * (1 + config.negatives) * ent.shape[1] * 8
    assert peaks[1] - peaks[0] < 1.5 * added, (peaks, added)


@pytest.mark.parametrize("norm", ["l1", "l2"])
@pytest.mark.parametrize("positive_count", [300, 4000])
def test_completion_loss_matches_the_composition_with_non_finite_and_signed_zero_differences(norm,
                                                                                           positive_count):
    """Bit for bit the composition's loss and gradients when one row's
    difference holds NaN in one column block and +inf and -inf in another,
    and another row's holds -0.0 and +0.0: l1's int8 signs hold no NaN, and
    the row takes ``np.sign`` of its difference again. All rows are live:
    3,300 rows run five column blocks 13 wide, the last ending at dim 64,
    and 44,000 rows run blocks one column wide."""
    positives, negatives, ent, params, config, table = _large_completion_loss_setup(norm, True,
                                                                                    positive_count)
    rel = params.relation.data
    # row 0 is (0, 1, 2): (-0 + -0) - (+0) is -0.0 in columns 0-7, (-0 + -0) - (-0) is +0.0 in 8-15
    ent.data[0, :16] = rel[1, :16] = -0.0
    ent.data[2, :8], ent.data[2, 8:16] = 0.0, -0.0
    zeros = (ent.data[0] + rel[1] - ent.data[2])[:16]
    assert not zeros.any() and np.signbit(zeros[:8]).all() and not np.signbit(zeros[8:]).any()
    # value row 9, which no other row reads: differences NaN in column 3, +inf and -inf in 40 and 41
    negatives[-1] = [0, 1, 59]
    table.data[9, [3, 40, 41]] = [np.nan, -np.inf, np.inf]
    with np.errstate(invalid="ignore"):  # as in training: inf * 0 is NaN
        (fused_loss, fused_grads), (composed_loss, composed_grads) = _fused_and_composed(
            positives, negatives, ent, params, config, table)
    assert np.isfinite(fused_loss) and fused_loss == composed_loss
    assert np.isnan(composed_grads[-1][9, 3])
    for got, want in zip(fused_grads, composed_grads, strict=True):
        assert got.tobytes() == want.tobytes()


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
        labels=np.array([0, 1, 0, 1, 0]), class_names=["c0", "c1"],
        label_train=np.arange(5),
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


def _record_parents(monkeypatch) -> list[tuple]:
    """Replace ``ad.fused`` by a wrapper that appends each record it makes,
    with that record's parents, to the returned list, which keeps both."""
    made, real_fused = [], ad.fused

    def fused(data, parents, backward):
        out = real_fused(data, parents, backward)
        made.append((out, tuple(parents)))
        return out

    monkeypatch.setattr(ad, "fused", fused)
    return made


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

    @pytest.mark.parametrize("task", ["classification", "completion"])
    def test_same_seed_is_bit_identical_with_the_lstm(self, task):
        """The LSTM encoder's stacked products over all steps' rows give the
        same bits run after run, for both tasks' losses."""
        kg = random_kg(np.random.default_rng(4), entities=12, relations=2, triples=30,
                       attribute_relations=2, attribute_triples=16, max_tokens=5)
        split = DatasetSplit(train=id_tuples(kg.relation_triples), valid=[], test=[])
        split.labels = np.arange(kg.num_entities) % 2
        split.class_names = ["c0", "c1"]
        split.label_train = np.arange(8)
        model = ModelConfig(dim=32, head_dim=32, heads=1, layers=1, encoder="lstm")
        config = _toy_config(model=model, task=task, epochs=3)
        p1, r1 = train(kg, split, config)
        p2, r2 = train(kg, split, config)
        assert "lstm.w_hid" in p1
        assert r1.epoch_losses == r2.epoch_losses
        for (name, a), (_, b) in zip(p1.named_parameters(), p2.named_parameters()):
            assert np.array_equal(a.data, b.data), name

    def test_completion_draws_each_epochs_negatives_in_one_call(self, monkeypatch):
        """A completion run calls ``corrupt`` once per epoch, over all its
        positives, and each batch's negatives are that draw's rows of the
        batch's positives: ``negatives`` per positive, grouped by positive,
        each with its positive's relation and one of its ends, and none a
        known triple. The positive count is no multiple of the batch size,
        so each epoch's last batch is partial."""
        kg = random_kg(np.random.default_rng(8), entities=10, relations=2, triples=21,
                       attribute_relations=1, attribute_triples=6)
        split = DatasetSplit(train=id_tuples(kg.relation_triples), valid=[], test=[])
        positives = triple_rows(kg, split.train, True)
        config = _toy_config(epochs=3, batch_size=4, negatives=3)
        assert len(positives) % config.batch_size and (positives[:, 2] >= kg.num_entities).any()
        draws, batches = [], []
        real_corrupt, real_loss = training.corrupt, training._completion_batch_loss

        def counting_corrupt(rows, *args):
            draws.append((rows.copy(), real_corrupt(rows, *args)))
            return draws[-1][1]

        def recording_loss(chunk, negs, *args):
            batches.append((len(draws), chunk.copy(), negs.copy()))
            return real_loss(chunk, negs, *args)

        monkeypatch.setattr(training, "corrupt", counting_corrupt)
        monkeypatch.setattr(training, "_completion_batch_loss", recording_loss)
        train(kg, split, config)
        assert len(draws) == config.epochs
        known = known_triples(kg)
        n = config.negatives
        for epoch, (rows, negs) in enumerate(draws, start=1):
            assert sorted(map(tuple, rows)) == sorted(map(tuple, positives))
            mine = [(chunk, got) for seen, chunk, got in batches if seen == epoch]
            assert len(mine) == -(-len(positives) // config.batch_size)
            assert len(mine[-1][0]) == len(positives) % config.batch_size
            assert np.array_equal(np.concatenate([chunk for chunk, _ in mine]), rows)
            assert np.array_equal(np.concatenate([got for _, got in mine]), negs)
            for chunk, got in mine:
                assert got.shape == (len(chunk) * n, 3)
                own = np.repeat(chunk, n, axis=0)
                assert np.array_equal(got[:, 1], own[:, 1])
                assert ((got[:, 0] == own[:, 0]) | (got[:, 2] == own[:, 2])).all()
                assert not known.contains(pair_keys(got[:, 0], got[:, 1]), got[:, 2]).any()

    def test_classification_draws_no_negatives(self, monkeypatch):
        kg, split = _toy_setup()
        split.labels = np.arange(kg.num_entities) % 2
        split.class_names = ["c0", "c1"]
        split.label_train = np.arange(6)
        calls = []
        monkeypatch.setattr(training, "corrupt", lambda *args: calls.append(args))
        train(kg, split, _toy_config(task="classification", epochs=2))
        assert calls == []

    def test_completion_loss_decreases(self):
        kg, split = _toy_setup()
        _, report = train(kg, split, _toy_config())
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_classification_trains_and_validates(self):
        kg, split = _toy_setup()
        split.labels = np.arange(kg.num_entities) % 2
        split.class_names = ["c0", "c1"]
        split.label_train = np.arange(6)
        split.label_valid = np.array([6, 7])
        config = _toy_config(task="classification", epochs=10, val_every=5, patience=20)
        _, report = train(kg, split, config)
        assert report.epoch_losses[-1] < report.epoch_losses[0]
        assert len(report.validation) == 2
        assert report.final_validation is not None
        assert 0.0 <= report.final_validation <= 1.0

    def test_classification_refuses_an_unlabeled_training_entity(self):
        kg, split = _toy_setup()
        split.labels = np.arange(kg.num_entities) % 2
        split.labels[3] = -1
        split.class_names = ["c0", "c1"]
        split.label_train = np.arange(6)
        with pytest.raises(ConfigError, match="^entity 3 has no label$"):
            train(kg, split, _toy_config(task="classification"))

    def test_early_stopping_on_flat_validation(self):
        kg, split = _toy_setup()
        split.labels = np.arange(kg.num_entities) % 2
        split.class_names = ["c0", "c1"]
        split.label_train = np.arange(6)
        split.label_valid = np.array([6, 7])
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

        def loss(batch, negatives, finals, params, config, values=None, work=None):
            read.append(("loss", values))
            return real_loss(batch, negatives, finals, params, config, values, work)

        monkeypatch.setattr(training, "encode_value", encode)
        monkeypatch.setattr(training, "forward_all", forward)
        monkeypatch.setattr(training, "_completion_batch_loss", loss)
        train(kg, split, _toy_config(epochs=1))
        steps = -(-(len(kg.relation_triples) + len(kg.attribute_triples)) // 4)
        assert len(encoded) == steps
        for step, table in enumerate(encoded):
            assert table.shape == (kg.num_values, 8)
            assert read[2 * step] == ("forward", table) and read[2 * step + 1] == ("loss", table)

    @pytest.mark.parametrize("case", ["bow", "attributes-off-isolated", "translational", "lstm-classification"])
    def test_step_tape_holds_fused_records_alone(self, case, monkeypatch):
        """Every record of a training step is a ``fused`` record: per layer
        the attention layer and the merge, which also places any isolated
        entities' rows, then the loss, plus the encoder when attributes are
        on: 2 * layers + 1 + 1 = 6 at the default two layers. The head
        transforms, the concat merges, the classifier and the LSTM weights
        are read as stored by those records."""
        model = ModelConfig(dim=4, head_dim=3, heads=2, layers=2,
                            use_attributes=case != "attributes-off-isolated",
                            attention="translational" if case == "translational" else "bilinear",
                            encoder="lstm" if case == "lstm-classification" else "bow")
        task = "classification" if case == "lstm-classification" else "completion"
        if case == "attributes-off-isolated":
            kg = edge_case_graph()  # d and e own no edge
        else:
            kg = random_kg(np.random.default_rng(4), entities=6, relations=2, triples=12,
                           attribute_relations=1, attribute_triples=5)
        split = DatasetSplit(train=id_tuples(kg.relation_triples), valid=[], test=[])
        if task == "classification":
            split.labels, split.class_names, split.label_train = np.arange(6) % 2, ["c0", "c1"], np.arange(6)
        view = GraphView.restricted(kg, split.train, model.use_attributes)
        assert (view.edges.active.size < kg.num_entities) == (case == "attributes-off-isolated")
        tapes = []
        real_backward = ad.backward

        def backward(tape, root):
            tapes.append(tape)
            return real_backward(tape, root)

        monkeypatch.setattr(ad, "backward", backward)
        made = _record_parents(monkeypatch)
        params, _ = train(kg, split, _toy_config(model=model, task=task, epochs=1, batch_size=64))
        parents_of = {id(out): parents for out, parents in made}
        (tape,) = tapes
        assert {t._backward.__qualname__ for t in tape.records} == {"fused.<locals>.back"}
        assert len(tape.records) == 2 * model.layers + 1 + model.use_attributes
        read = {p.name for t in tape.records for p in parents_of[id(t)] if p.is_param}
        stored = {name for name, _ in params.named_parameters()
                  if name.startswith(("head_w", "out_w", "cls_", "lstm.w"))}
        assert len(stored) == 4 + 2 * (task == "classification") + 2 * (model.encoder == "lstm")
        assert stored <= read

    @pytest.mark.parametrize("attention", ["bilinear", "translational"])
    @pytest.mark.parametrize("use_attributes", [True, False])
    def test_no_record_lists_a_parent_twice(self, attention, use_attributes, monkeypatch):
        """One epoch on the seed-0 graph: every tape record hands each of its
        parents one gradient, so none lists a tensor twice, for both
        attention forms with and without the value table."""
        kg, split = generate_synthetic_kg(0)
        made = _record_parents(monkeypatch)
        config = TrainConfig(model=ModelConfig(attention=attention, use_attributes=use_attributes),
                             epochs=1, val_every=0)
        train(kg, split, config)
        steps = -(-len(split.train) // config.batch_size)
        assert len(made) >= steps * (5 + use_attributes)
        for _, parents in made:
            assert len({id(p) for p in parents}) == len(parents), [p.name for p in parents]

    @pytest.mark.parametrize("entities, triples, dense", [(8, 24, True), (30, 34, False)])
    def test_one_aggregation_plan_per_view(self, monkeypatch, entities, triples, dense):
        """A run's edges never change: one ``train`` call builds one view and
        its aggregation plan once, and validation reuses both. A plan that
        runs slots (30 entities, one or two edges each: 29 matrix cells per
        edge; the rows read twice or more are hub columns, and 14 of the 36
        edges run in slots) builds its reverse index at the first backward;
        one that runs all dense (8 entities, 4.3 cells per edge) never
        builds it. A forward outside a tape, as evaluation runs it, builds a
        plan but never its reverse index."""
        kg = random_kg(np.random.default_rng(5), entities=entities, relations=2, triples=triples,
                       attribute_relations=1, attribute_triples=6)
        rows = id_tuples(kg.relation_triples)
        split = DatasetSplit(train=rows[:triples - 4], valid=rows[triples - 4:], test=[])
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
        assert views[0].aggregation is plans[0] and plans[0].dense is dense
        assert ("reverse" in plans[0].__dict__) is not dense

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

    @pytest.mark.parametrize("kind", sorted(UNPARSEABLE_JSON))
    def test_header_the_parser_cannot_read_is_an_integrity_error(self, kind):
        """A header nested past the recursion limit, or holding an integer
        past Python's digit limit, is refused naming the file."""
        params, config = self._params_and_config()
        blob = with_checkpoint_header(save_checkpoint_bytes(params, config), UNPARSEABLE_JSON[kind].encode())
        with pytest.raises(IntegrityError, match="^run/model.ckpt: corrupt checkpoint header: "):
            load_checkpoint_bytes(blob, "run/model.ckpt")

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

