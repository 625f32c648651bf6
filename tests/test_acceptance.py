"""Acceptance suite: one test per shipped guarantee, each printing a single
PASS/FAIL line with the measured numbers.

Covered guarantees: finite-difference gradient correctness for every
autodiff op, every fused record of the model and both losses, attention-weight normalization, exact
agreement of the ranking code with a brute-force oracle, filtered-rank
dominance, encoder invariance properties, the degenerate translation mode
matching a plain reference, learning on the bundled synthetic benchmark
with shipped defaults, byte-identical reruns, and bit-exact serialization
round-trips.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

import kane.autodiff as ad
import kane.oracle as oracle
from kane.cli import format_embedding_export, main
from kane.encoders import bow_encode, lstm_encode
from kane.evaluation import (
    build_filter_index,
    evaluate_classification,
    evaluate_completion,
    rank_head,
    rank_relation,
    rank_tail,
)
from kane.kgdata import (
    DatasetSplit,
    GraphView,
    bundle_from_json,
    bundle_to_json,
    generate_synthetic_kg,
    id_tuples,
    known_triples,
    triple_rows,
)
import kane.model as model_module
from kane.model import ModelConfig, ModelParams, forward_all, init_params
from kane.training import (
    TrainConfig,
    _classification_batch_loss,
    _completion_batch_loss,
    bce_loss,
    corrupt,
    load_checkpoint_bytes,
    save_checkpoint_bytes,
)
from kane.training import train as train_model

from helpers import (
    check_gradients,
    edge_case_graph,
    layer_tensors,
    parse_embedding_export,
    probe,
    quantized_ranking_setups,
    random_kg,
    reference_transe_hinge,
    total,
)


def _report(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


# ---------------------------------------------------------------------------
# 1. gradient suite


def _op_gradient_cases(rng: np.random.Generator):
    """One (name, params, forward) triple per differentiable op and per fused
    record of the model."""
    cases = []

    def case(name, params, forward):
        cases.append((name, params, forward))

    def v(n=5):
        return ad.parameter(rng.normal(size=n))

    def m(r=4, c=3):
        return ad.parameter(rng.normal(size=(r, c)))

    m3, m4 = m(4, 3), m(3, 2)
    case("matmul", [m3, m4], lambda: total(ad.matmul(m3, m4)))
    m7 = m()
    case("rows", [m7], lambda: total(ad.rows(m7, [0, 2, 2, 1])))
    v3 = v(6)
    case("rows_vector", [v3], lambda: total(ad.rows(v3, [1, 4, 1, 0])))
    # unsorted, repeated indices; row 1 of the result is never hit
    m8 = m(5, 3)
    probe43 = rng.normal(size=(4, 3))
    case("scatter_rows", [m8], lambda: probe(ad.scatter_rows(m8, [3, 0, 3, 2, 0], 4), probe43))
    m9, v9 = m(4, 3), v(3)
    case("add_rowvec", [m9, v9], lambda: total(ad.add_rowvec(m9, v9)))
    # the one-record LSTM: lengths 3, 1, 4 and 2 end at four different
    # steps, and the length-1 sequence runs step 0 alone, with no hidden path
    word, w_in, w_hid, bias = m(6, 3), m(3, 12), m(3, 12), v(12)
    probe_lstm = rng.normal(size=(4, 3))
    sequences = [[1, 4, 1], [5], [2, 0, 3, 3], [4, 2]]
    case("lstm_encode", [word, w_in, w_hid, bias],
         lambda: probe(lstm_encode(sequences, word, w_in, w_hid, bias), probe_lstm))
    m15, m16 = m(2, 3), m(3, 3)
    probe53 = rng.normal(size=(5, 3))
    case("concat_rows", [m15, m16], lambda: probe(ad.concat_rows([m15, m16]), probe53))

    # one attention layer record over a graph with isolated entities, a
    # one-edge segment, a source read twice by one segment and a value read
    # by two; without attributes the entity vectors are the only source rows
    kg = edge_case_graph()

    def layer_case(name, config, use_attributes):
        view = GraphView.restricted(kg, kg.relation_triples, use_attributes)
        inputs, rel, values, params = layer_tensors(rng, view, config, use_attributes)
        weights = rng.normal(size=(view.edges.active.size, config.heads * config.head_dim))
        tensors = [inputs, params.relation, params["head_w.0"]] + ([] if values is None else [values])
        if config.attention == "translational":
            tensors.append(rel)
        case(name, tensors, lambda: probe(
            model_module._layer_heads(inputs, rel, values, view, params, config, 0)[1], weights))

    layer_case("layer_bilinear", ModelConfig(dim=4, head_dim=3, heads=2), True)
    layer_case("layer_bilinear_no_values", ModelConfig(dim=4, head_dim=3, heads=3), False)
    layer_case("layer_bilinear_relu", ModelConfig(dim=4, head_dim=2, heads=1, leaky_slope=0.0), True)
    for norm in ("l1", "l2"):
        translational = ModelConfig(dim=4, head_dim=3, heads=2, attention="translational", norm=norm)
        layer_case(f"layer_translational_{norm}", translational, True)
        layer_case(f"layer_translational_{norm}_no_values", translational, False)
    # the merge and its leaky ReLU, one record for either aggregator
    for aggregator, head_dim in (("concat", 3), ("average", 4)):
        config = ModelConfig(dim=4, head_dim=head_dim, heads=2, aggregator=aggregator)
        params = init_params(3, 2, 0, 0, config, rng)
        heads = ad.parameter(rng.normal(size=(5, 2 * head_dim)))
        tensors = [heads] + [t for name, t in params.items() if name.startswith("out_w.")]
        weights = rng.normal(size=(5, 4))
        case(f"aggregate_{aggregator}", tensors,
             lambda heads=heads, params=params, config=config, weights=weights:
             probe(model_module.aggregate(heads, params, config, 0), weights))

    def tanh_times(t, k):
        """tanh(t) * k as one fused record; k is a constant parent."""
        val = np.tanh(t.data)
        return ad.fused(val * k.data, (t, k), lambda grad: (grad * k.data * (1.0 - val * val), grad * val))

    m23, k23 = m(), ad.constant(rng.normal(size=(4, 3)))
    case("fused_constant_parent", [m23], lambda: total(tanh_times(m23, k23)))
    return cases


def _loss_gradient_cases(rng: np.random.Generator):
    cases = []
    scores = ad.parameter(rng.normal(size=(3, 4)))
    labels = [int(rng.integers(4)) for _ in range(3)]
    cases.append(("bce_loss", [scores], lambda: bce_loss(scores, labels, 4)))
    # scores beyond +/-30, right and wrong class alike: the gradient stays exact
    wide = ad.parameter(rng.choice([-1.0, 1.0], size=(3, 4)) * rng.uniform(31.0, 45.0, size=(3, 4)))
    cases.append(("bce_loss_wide_scores", [wide], lambda: bce_loss(wide, labels, 4)))
    return cases


def _end_to_end_case(seed: int, task: str):
    kg = random_kg(
        np.random.default_rng(seed), entities=4, relations=2, triples=8,
        attribute_relations=1, attribute_triples=3,
    )
    model = ModelConfig(dim=4, head_dim=3, heads=2, layers=2)
    config = TrainConfig(model=model, negatives=2)
    class_count = 2 if task == "classification" else 0
    params = init_params(
        kg.num_entities, kg.num_relations, kg.vocab_size, class_count,
        model, np.random.default_rng(seed + 50),
    )
    split = DatasetSplit(
        train=id_tuples(kg.relation_triples), valid=[], test=[],
        labels={e: e % 2 for e in range(4)}, class_names=["c0", "c1"],
        label_train=[0, 1, 2, 3],
    )
    view = GraphView.restricted(kg, split.train, model.use_attributes)
    if task == "completion":
        batch = triple_rows(kg, kg.relation_triples[:2])
        negs = corrupt(batch, kg, known_triples(kg), np.random.default_rng(seed + 80), 2)

        def forward():
            finals = forward_all(view, params, model)
            return _completion_batch_loss(batch, negs, finals, params, config)
    else:

        def forward():
            finals = forward_all(view, params, model)
            return _classification_batch_loss([0, 1, 3], finals, params, split)

    return forward, list(params.values())


def _completion_loss_case(seed: int, norm: str, with_values: bool):
    """The fused completion loss on parameter tables: 5 entities, 3
    relations and, with ``with_values``, 3 value rows as targets 5-7."""
    rng = np.random.default_rng(seed + 20)
    ent = ad.parameter(rng.normal(size=(5, 4)))
    params = ModelParams({"entity": ent, "relation": ad.parameter(rng.normal(size=(3, 4)))})
    values = ad.parameter(rng.normal(size=(3, 4))) if with_values else None
    targets = 8 if with_values else 5
    positives = np.stack([rng.integers(0, 5, size=3), rng.integers(0, 3, size=3),
                          rng.integers(0, targets, size=3)], axis=1)
    negatives = np.repeat(positives, 2, axis=0)
    negatives[:, 2] = rng.integers(0, targets, size=6)
    config = TrainConfig(model=ModelConfig(dim=4, norm=norm), margin=3.0, negatives=2)
    tensors = list(params.values()) + ([values] if with_values else [])
    return lambda: _completion_batch_loss(positives, negatives, ent, params, config, values), tensors


def test_gradient_suite():
    start = time.perf_counter()
    op_cases = 0
    worst_op = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for name, params, forward in _op_gradient_cases(rng) + _loss_gradient_cases(rng):
            err = check_gradients(forward, params, step=1e-6)
            assert err < 1e-5, f"{name} (seed {seed}): relative error {err}"
            worst_op = max(worst_op, err)
            op_cases += 1

    e2e_cases = 0
    worst_e2e = 0.0
    probe_rng = np.random.default_rng(1000)
    for seed in (0, 1, 2):
        for task in ("completion", "classification"):
            forward, tensors = _end_to_end_case(seed, task)
            err = check_gradients(forward, tensors, step=1e-6,
                                  max_entries_per_param=4, rng=probe_rng)
            assert err < 1e-4, f"end-to-end {task} (seed {seed}): relative error {err}"
            worst_e2e = max(worst_e2e, err)
            e2e_cases += 1
        for norm in ("l1", "l2"):
            for with_values in (False, True):
                forward, tensors = _completion_loss_case(seed, norm, with_values)
                err = check_gradients(forward, tensors, step=1e-6)
                assert err < 1e-4, f"completion loss {norm}, values {with_values} (seed {seed}): relative error {err}"
                worst_e2e = max(worst_e2e, err)
                e2e_cases += 1

    elapsed = time.perf_counter() - start
    total = op_cases + e2e_cases
    ok = total >= 100 and worst_op < 1e-5 and worst_e2e < 1e-4 and elapsed < 30.0
    _report(ok, "gradient suite",
            f"{total} randomized cases, worst op error {worst_op:.2e} (< 1e-5), "
            f"worst end-to-end error {worst_e2e:.2e} (< 1e-4), {elapsed:.1f}s (< 30s)")
    assert total >= 100
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 2. attention normalization


def test_attention_normalization():
    rng = np.random.default_rng(2024)
    checks = 0
    worst_sum_gap = 0.0
    while checks < 1000:
        heads = int(rng.integers(1, 4))
        layers = int(rng.integers(1, 3))
        aggregator = ("concat", "average")[int(rng.integers(2))]
        dim = int(rng.integers(3, 7))
        config = ModelConfig(
            dim=dim,
            head_dim=dim if aggregator == "average" else int(rng.integers(2, 6)),
            heads=heads,
            layers=layers,
            aggregator=aggregator,
            attention=("bilinear", "translational")[int(rng.integers(2))],
            norm=("l1", "l2")[int(rng.integers(2))],
            leaky_slope=float(rng.uniform(0.0, 0.5)),
        )
        with_attrs = bool(rng.integers(2))
        kg = random_kg(
            rng,
            entities=int(rng.integers(4, 11)),
            relations=int(rng.integers(1, 4)),
            triples=int(rng.integers(8, 20)),
            attribute_relations=2 if with_attrs else 0,
            attribute_triples=8 if with_attrs else 0,
        )
        view = GraphView.restricted(kg, kg.relation_triples, config.use_attributes)
        neighbors = oracle.neighbor_lists(view)
        params = init_params(
            kg.num_entities, kg.num_relations, kg.vocab_size, 0, config, rng
        )
        layer = int(rng.integers(layers))
        head = int(rng.integers(heads))
        # the whole-graph layer forward_all runs, on the raw embedding table
        weights, _ = model_module._layer_heads(
            params.entity,
            ad.rows(params.relation, view.edges.relation),
            model_module.encode_value(view, params, config),
            view, params, config, layer,
        )
        # bilinear heads have a weight column each; translational heads share one
        column = weights.data[:, head] if config.attention == "bilinear" else weights.data
        for e in range(kg.num_entities):
            w = column[view.edges.owner == e]
            assert w.shape == (len(neighbors[e]),)
            worst_sum_gap = max(worst_sum_gap, abs(float(w.sum()) - 1.0))
            assert (w >= 0.0).all(), "negative attention weight"
            checks += 1
    ok = worst_sum_gap < 1e-9
    _report(ok, "attention normalization",
            f"{checks} random entities/configs, worst |sum - 1| = {worst_sum_gap:.2e} (< 1e-9), "
            f"all weights non-negative")
    assert ok


# ---------------------------------------------------------------------------
# 3 + 4. ranking oracle equivalence and filter dominance


def test_ranking_matches_brute_force_oracle():
    start = time.perf_counter()
    queries = 0
    ties_seen = 0
    for kg, ent, rel in quantized_ranking_setups():
        filt = build_filter_index(kg)
        vectors = [list(map(float, r)) for r in ent]
        relations = [list(map(float, r)) for r in rel]
        known = id_tuples(kg.relation_triples)
        for trip in kg.relation_triples:
            tup = h, r, t = tuple(trip.tolist())
            target = ent[h] + rel[r]
            dist = np.abs(ent - target).sum(axis=1)
            if (dist == dist[t]).sum() > 1:
                ties_seen += 1
            for setting in ("raw", "filter"):
                for mine, ref in (
                    (rank_tail, oracle.naive_rank_tail),
                    (rank_head, oracle.naive_rank_head),
                    (rank_relation, oracle.naive_rank_relation),
                ):
                    got = mine(trip, ent, rel, "l1", filt, setting)
                    want = ref(tup, vectors, relations, known, "l1", setting)
                    assert got == want, f"{mine.__name__} {setting} {tup}: {got} != {want}"
                    queries += 1
    elapsed = time.perf_counter() - start
    ok = queries >= 500 and ties_seen > 0 and elapsed < 60.0
    _report(ok, "ranking oracle equivalence",
            f"{queries} queries over 10 random graphs agree exactly with brute force "
            f"({ties_seen} tied-distance queries included), {elapsed:.1f}s (< 60s)")
    assert ok


def test_filtered_rank_never_exceeds_raw():
    queries = 0
    for kg, ent, rel in quantized_ranking_setups():
        filt = build_filter_index(kg)
        for trip in kg.relation_triples:
            for fn in (rank_tail, rank_head, rank_relation):
                raw = fn(trip, ent, rel, "l1", filt, "raw")
                filtered = fn(trip, ent, rel, "l1", filt, "filter")
                assert filtered <= raw, f"{fn.__name__}: filtered {filtered} > raw {raw}"
                queries += 1
    _report(True, "filter dominance", f"filtered rank <= raw rank on all {queries} queries")


# ---------------------------------------------------------------------------
# 5. encoder properties


def test_encoder_properties():
    rng = np.random.default_rng(5)
    table = ad.parameter(rng.standard_normal((30, 8)), "word")
    bow_checked = 0
    for _ in range(1000):
        k = int(rng.integers(1, 11))
        tokens = [int(rng.integers(30)) for _ in range(k)]
        shuffled = list(tokens)
        rng.shuffle(shuffled)
        assert np.array_equal(
            bow_encode([tokens], table).data[0], bow_encode([shuffled], table).data[0]
        ), f"bag-of-words differs across orderings of {tokens}"
        bow_checked += 1

    lstm_table = ad.parameter(rng.standard_normal((12, 6)), "word")
    lstm = init_params(1, 1, 1, 0, ModelConfig(dim=6, head_dim=6, heads=1, layers=0, encoder="lstm"), rng)
    weights = [lstm[name] for name in ("lstm.w_in", "lstm.w_hid", "lstm.b")]
    pairs = 1000
    differing = 0
    for _ in range(pairs):
        length = int(rng.integers(2, 9))
        tokens = [int(rng.integers(12)) for _ in range(length)]
        i, j = sorted(rng.choice(length, size=2, replace=False))
        while tokens[i] == tokens[j]:
            tokens[j] = int(rng.integers(12))
        swapped = list(tokens)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        a = lstm_encode([tokens], lstm_table, *weights).data[0]
        b = lstm_encode([swapped], lstm_table, *weights).data[0]
        if not np.array_equal(a, b):
            differing += 1
    ok = differing >= 0.99 * pairs
    _report(ok, "encoder properties",
            f"bag-of-words bit-exact on {bow_checked} shuffled multisets; "
            f"LSTM distinguishes {differing}/{pairs} order swaps (>= {int(0.99 * pairs)})")
    assert ok


# ---------------------------------------------------------------------------
# 6. degenerate translation mode


def test_translation_degeneracy_matches_reference():
    kg = random_kg(np.random.default_rng(7), entities=10, relations=3, triples=30)
    split = DatasetSplit(train=id_tuples(kg.relation_triples), valid=[], test=[])
    known = known_triples(kg)
    worst = 0.0
    for batch_idx in range(50):
        norm = "l1" if batch_idx % 2 == 0 else "l2"
        margin = 1.0 + 0.5 * (batch_idx % 3)
        model = ModelConfig(
            dim=6, head_dim=6, heads=1, layers=0, use_attributes=False, norm=norm
        )
        config = TrainConfig(model=model, margin=margin, negatives=3)
        params = init_params(
            kg.num_entities, kg.num_relations, 0, 0, model,
            np.random.default_rng(100 + batch_idx),
        )
        view = GraphView.restricted(kg, split.train, False)
        rng = np.random.default_rng(200 + batch_idx)
        picks = rng.permutation(len(split.train))[:4]
        batch = triple_rows(kg, split.train)[picks]
        negs = corrupt(batch, kg, known, rng, config.negatives)
        finals = forward_all(view, params, model)
        got = float(
            _completion_batch_loss(batch, negs, finals, params, config).data
        )
        want = reference_transe_hinge(
            params.entity.data,
            params.relation.data,
            batch.tolist(),
            negs.reshape(len(batch), config.negatives, 3).tolist(),
            margin=margin,
            norm=norm,
        )
        worst = max(worst, abs(got - want))
    ok = worst < 1e-10
    _report(ok, "translation degeneracy",
            f"50 fixed batches, worst |batch loss - plain reference| = {worst:.2e} (< 1e-10)")
    assert ok


# ---------------------------------------------------------------------------
# 7. learning sanity on the bundled synthetic benchmark


def test_learning_sanity_with_shipped_defaults():
    start = time.perf_counter()
    kg, split = generate_synthetic_kg(0)

    completion_cfg = TrainConfig()
    assert completion_cfg.epochs <= 200
    params, _ = train_model(kg, split, completion_cfg)
    reports = evaluate_completion(kg, split, params, completion_cfg.model)
    hits = reports["entity_prediction"].hits_filtered

    classify_cfg = TrainConfig(task="classification")
    cls_params, _ = train_model(kg, split, classify_cfg)
    acc_on = evaluate_classification(kg, split, cls_params, classify_cfg.model)["accuracy"]

    off_cfg = TrainConfig(
        model=ModelConfig(use_attributes=False), task="classification"
    )
    off_params, _ = train_model(kg, split, off_cfg)
    acc_off = evaluate_classification(kg, split, off_params, off_cfg.model)["accuracy"]

    elapsed = time.perf_counter() - start
    gain = acc_on - acc_off
    ok = hits >= 0.6 and acc_on >= 0.8 and gain >= 0.05 and elapsed < 300.0
    threads = "/".join(
        os.environ.get(var, "unset")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    )
    _report(ok, "learning sanity",
            f"filtered entity hits@10 {hits:.3f} (>= 0.6, random 0.2), "
            f"classification accuracy {acc_on:.3f} (>= 0.8, random 0.2), "
            f"attribute gain {gain:+.3f} (>= 0.05), {elapsed:.0f}s (< 300s), "
            f"BLAS threads {threads} (OpenBLAS/OMP/MKL)")
    assert hits >= 0.6
    assert acc_on >= 0.8
    assert gain >= 0.05
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 8. determinism


SMALL_ARGS = [
    "--set", "entities=20", "--set", "relations=3", "--set", "clusters=3",
    "--set", "attribute_relations=2",
]
SMALL_TRAIN_ARGS = [
    "--set", "dim=8", "--set", "head_dim=8", "--set", "heads=1",
    "--set", "layers=1", "--set", "epochs=5", "--set", "val_every=0",
    "--set", "negatives=2", "--set", "batch_size=4",
]


def _pipeline_artifacts(root):
    gen = root / "gen"
    prep = root / "prep"
    run = root / "run"
    assert main(["gen-synth", "--out", str(gen), "--seed", "0", *SMALL_ARGS]) == 0
    assert main([
        "prepare", "--relations", str(gen / "relations.tsv"),
        "--attributes", str(gen / "attributes.tsv"),
        "--labels", str(gen / "labels.tsv"),
        "--out", str(prep), "--seed", "0",
    ]) == 0
    bundle = prep / "bundle.json"
    assert main(["train", "--bundle", str(bundle), "--out", str(run),
                 *SMALL_TRAIN_ARGS]) == 0
    assert main(["eval-completion", "--bundle", str(bundle),
                 "--checkpoint", str(run / "model.ckpt"), "--out", str(run)]) == 0
    assert main(["export", "--bundle", str(bundle),
                 "--checkpoint", str(run / "model.ckpt"), "--propagated",
                 "--out", str(run)]) == 0
    artifacts = {}
    for rel in ("gen/relations.tsv", "gen/attributes.tsv", "gen/labels.tsv",
                "prep/bundle.json", "run/model.ckpt", "run/completion_report.txt",
                "run/completion_metrics.tsv", "run/embeddings.tsv"):
        artifacts[rel] = (root / rel).read_bytes()
    log = (root / "run" / "train_log.csv").read_text().split("\n")
    artifacts["run/train_log.csv (minus seconds)"] = "\n".join(
        line.rsplit(",", 1)[0] for line in log
    ).encode()
    return artifacts


def test_determinism_byte_identical_artifacts(tmp_path, capsys):
    a = _pipeline_artifacts(tmp_path / "a")
    b = _pipeline_artifacts(tmp_path / "b")
    capsys.readouterr()  # swallow the pipeline chatter
    assert set(a) == set(b)
    mismatched = [name for name in a if a[name] != b[name]]
    ok = not mismatched
    _report(ok, "determinism",
            f"{len(a)} artifacts byte-identical across two same-seed runs "
            f"(training-log wall-clock column excluded)"
            + (f"; MISMATCH: {mismatched}" if mismatched else ""))
    assert ok


# ---------------------------------------------------------------------------
# 9. serialization round-trips


def test_serialization_round_trips(tmp_path):
    kg, split = generate_synthetic_kg(3, entities=20, relations=3, clusters=3)

    doc = bundle_to_json(kg, split)
    kg2, split2, checksum = bundle_from_json(doc)
    doc2 = bundle_to_json(kg2, split2)
    assert doc2 == doc, "dataset bundle round-trip changed bytes"

    model = ModelConfig(dim=8, head_dim=8, heads=1, layers=1)
    config = TrainConfig(model=model, task="classification", epochs=0)
    params = init_params(
        kg.num_entities, kg.num_relations, kg.vocab_size, split.class_count,
        model, np.random.default_rng(11),
    )
    blob = save_checkpoint_bytes(params, config, bundle_checksum=checksum)
    loaded, config2, header = load_checkpoint_bytes(blob)
    blob2 = save_checkpoint_bytes(loaded, config2, bundle_checksum=header["bundle_checksum"])
    assert blob2 == blob, "checkpoint round-trip changed bytes"
    for (name, t1), (_, t2) in zip(params.named_parameters(), loaded.named_parameters()):
        assert np.array_equal(t1.data, t2.data), f"checkpoint array {name} changed"

    matrix = np.random.default_rng(12).standard_normal((kg.num_entities, 8))
    matrix[0, 0] = 1e-300  # subnormal-adjacent values survive too
    text = format_embedding_export(list(kg.entities.names), matrix)
    names, matrix2 = parse_embedding_export(text)
    text2 = format_embedding_export(names, matrix2)
    assert names == list(kg.entities.names)
    assert np.array_equal(matrix2, matrix), "embedding export changed values"
    assert text2 == text, "embedding export round-trip changed bytes"

    _report(True, "serialization round-trips",
            "bundle JSON, checkpoint bytes, and embedding export all bit-exact")
