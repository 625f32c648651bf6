"""End-to-end command-line behavior on small datasets in temp directories:
config precedence, the full pipeline, integrity refusals, and export
round-trips. Commands run in-process through ``kane.cli.main``."""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from kane.cli import (
    DEFAULTS,
    format_embedding_export,
    main,
    merge_config,
    parse_config_file,
)
from kane.errors import ConfigError, IntegrityError
from kane.evaluation import entity_matrix
from kane.kgdata import GraphView, bundle_checksum, bundle_from_json, generate_synthetic_kg
from kane.model import ModelConfig
from kane.training import TrainConfig, load_checkpoint_bytes, make_train_config

from helpers import parse_embedding_export


SMALL_GEN = [
    "--set", "entities=20", "--set", "relations=3", "--set", "clusters=3",
    "--set", "attribute_relations=2",
]
SMALL_TRAIN = [
    "--set", "dim=8", "--set", "head_dim=8", "--set", "heads=1",
    "--set", "layers=1", "--set", "epochs=3", "--set", "val_every=0",
    "--set", "negatives=2", "--set", "batch_size=4",
]


def run(argv: list[str]) -> int:
    return main(argv)


def gen_and_prepare(tmp_path: Path, seed: int = 0) -> Path:
    gen = tmp_path / "gen"
    prep = tmp_path / "prep"
    assert run(["gen-synth", "--out", str(gen), "--seed", str(seed), *SMALL_GEN]) == 0
    assert run([
        "prepare",
        "--relations", str(gen / "relations.tsv"),
        "--attributes", str(gen / "attributes.tsv"),
        "--labels", str(gen / "labels.tsv"),
        "--out", str(prep), "--seed", str(seed),
    ]) == 0
    return prep / "bundle.json"


# ---------------------------------------------------------------------------
# configuration handling


class TestConfig:
    def test_precedence_defaults_file_set_seed(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "\n"
            "learning_rate = 0.01\n"
            "seed = 5\n"
            "renormalize = true\n"
        )
        args = argparse.Namespace(
            config=str(cfg_file), set=["learning_rate=0.02"], seed=7
        )
        cfg = merge_config(args)
        assert cfg["learning_rate"] == 0.02  # --set beats the file
        assert cfg["seed"] == 7  # --seed beats the file
        assert cfg["renormalize"] is True  # file beats defaults
        assert cfg["margin"] == DEFAULTS["margin"]  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("learning_rat = 0.01\n")
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_config_file(str(cfg_file))

    def test_bad_values_rejected(self, tmp_path):
        bad_bool = tmp_path / "a.cfg"
        bad_bool.write_text("renormalize = yep\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(bad_bool))
        bad_int = tmp_path / "b.cfg"
        bad_int.write_text("epochs = many\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(bad_int))
        no_equals = tmp_path / "c.cfg"
        no_equals.write_text("epochs 3\n")
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_file(str(no_equals))

    def test_set_without_equals_rejected(self):
        args = argparse.Namespace(config=None, set=["epochs3"], seed=None)
        with pytest.raises(ConfigError, match="--set expects key=value"):
            merge_config(args)

    def test_defaults_are_the_dataclass_and_generator_defaults(self):
        model, train = ModelConfig(), TrainConfig()
        want = {f.name: getattr(model, f.name) for f in dataclasses.fields(model)}
        want.update(
            (f.name, getattr(train, f.name)) for f in dataclasses.fields(train) if f.name != "model"
        )
        generator = inspect.signature(generate_synthetic_kg).parameters
        want.update((k, p.default) for k, p in generator.items() if k != "seed")
        assert list(DEFAULTS) == list(want)
        for key, value in want.items():
            assert type(DEFAULTS[key]) is type(value) and DEFAULTS[key] == value, key
        assert make_train_config(dict(DEFAULTS)) == TrainConfig()

    @pytest.mark.parametrize("key", ["margin", "learning_rate"])
    def test_nan_set_value_exits_with_one_line_error(self, tmp_path, capsys, key):
        bundle = gen_and_prepare(tmp_path)
        capsys.readouterr()
        code = run(["train", "--bundle", str(bundle), "--out", str(tmp_path / "run"),
                    *SMALL_TRAIN, "--set", f"{key}=nan"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {key} must be > 0 and finite") and err.count("\n") == 1
        assert not (tmp_path / "run" / "model.ckpt").exists()

    @pytest.mark.parametrize("form", [["--seed", "-1"], ["--set", "seed=-1"]], ids=["flag", "set"])
    @pytest.mark.parametrize("command", ["gen-synth", "prepare", "train"])
    def test_negative_seed_exits_with_one_line_error(self, tmp_path, capsys, command, form):
        bundle = gen_and_prepare(tmp_path)
        gen = tmp_path / "gen"
        inputs = {
            "gen-synth": SMALL_GEN,
            "prepare": ["--relations", str(gen / "relations.tsv"),
                        "--attributes", str(gen / "attributes.tsv")],
            "train": ["--bundle", str(bundle), *SMALL_TRAIN],
        }[command]
        out = tmp_path / "out"
        capsys.readouterr()
        code = run([command, "--out", str(out), *inputs, *form])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("setting, message", [
        ("valid_fraction=nan", "valid_fraction must be in [0, 1], got nan"),
        ("test_fraction=inf", "test_fraction must be in [0, 1], got inf"),
        ("valid_fraction=-1", "valid_fraction must be in [0, 1], got -1.0"),
        ("valid_fraction=1.5", "valid_fraction must be in [0, 1], got 1.5"),
        ("test_fraction=0.95", "valid_fraction + test_fraction must be at most 1, got 0.1 + 0.95"),
    ], ids=["nan", "inf", "negative", "above-one", "sum-above-one"])
    @pytest.mark.parametrize("command", ["gen-synth", "prepare"])
    def test_bad_split_fraction_exits_with_one_line_error(self, tmp_path, capsys, command, setting, message):
        gen = tmp_path / "gen"
        assert run(["gen-synth", "--out", str(gen), *SMALL_GEN]) == 0
        inputs = {
            "gen-synth": SMALL_GEN,
            "prepare": ["--relations", str(gen / "relations.tsv"),
                        "--attributes", str(gen / "attributes.tsv")],
        }[command]
        out = tmp_path / "out"
        capsys.readouterr()
        code = run([command, "--out", str(out), *inputs, "--set", setting])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unknown_set_key_exits_nonzero(self, tmp_path, capsys):
        code = run(["gen-synth", "--out", str(tmp_path), "--set", "entties=9"])
        assert code == 1
        assert "unknown configuration key" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# full pipeline


class TestPipeline:
    def test_gen_prepare_train_eval_export(self, tmp_path, capsys):
        bundle = gen_and_prepare(tmp_path)
        run_c = tmp_path / "run_c"
        run_k = tmp_path / "run_k"

        assert run(["train", "--bundle", str(bundle), "--out", str(run_c),
                    *SMALL_TRAIN, "--set", "task=completion"]) == 0
        assert (run_c / "model.ckpt").exists()
        log = (run_c / "train_log.csv").read_text().strip().split("\n")
        assert log[0] == "epoch,loss,val_metric,seconds"
        assert len(log) == 1 + 3  # three epochs requested

        assert run(["eval-completion", "--bundle", str(bundle),
                    "--checkpoint", str(run_c / "model.ckpt"), "--out", str(run_c)]) == 0
        report = (run_c / "completion_report.txt").read_text()
        assert "entity_prediction" in report
        tsv = (run_c / "completion_metrics.tsv").read_text().strip().split("\n")
        assert tsv[0] == "task\tsetting\tmetric\tvalue"
        assert len(tsv) == 9

        assert run(["train", "--bundle", str(bundle), "--out", str(run_k),
                    *SMALL_TRAIN, "--set", "task=classification"]) == 0
        assert run(["eval-classify", "--bundle", str(bundle),
                    "--checkpoint", str(run_k / "model.ckpt"), "--out", str(run_k)]) == 0
        assert "accuracy" in (run_k / "classification_report.txt").read_text()
        assert (run_k / "classification_metrics.tsv").exists()

        assert run(["export", "--bundle", str(bundle),
                    "--checkpoint", str(run_c / "model.ckpt"),
                    "--propagated", "--out", str(run_c)]) == 0
        names, matrix = parse_embedding_export((run_c / "embeddings.tsv").read_text())

        kg, split, _ = bundle_from_json(bundle.read_text())
        params, config, _ = load_checkpoint_bytes((run_c / "model.ckpt").read_bytes())
        view = GraphView.restricted(kg, split.train, config.model.use_attributes)
        want = entity_matrix(view, params, config.model)
        assert names == list(kg.entities.names)
        assert np.array_equal(matrix, want)  # 17-digit text round-trip is exact

    def test_train_twice_is_byte_identical(self, tmp_path):
        bundle = gen_and_prepare(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        argv = ["train", "--bundle", str(bundle), *SMALL_TRAIN]
        assert run([*argv, "--out", str(out_a)]) == 0
        assert run([*argv, "--out", str(out_b)]) == 0
        assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()
        # the training log matches except for the wall-clock seconds column
        log_a = (out_a / "train_log.csv").read_text().split("\n")
        log_b = (out_b / "train_log.csv").read_text().split("\n")
        assert [l.rsplit(",", 1)[0] for l in log_a] == [l.rsplit(",", 1)[0] for l in log_b]

    def test_export_raw_table_and_custom_name(self, tmp_path):
        bundle = gen_and_prepare(tmp_path)
        out = tmp_path / "run"
        assert run(["train", "--bundle", str(bundle), "--out", str(out), *SMALL_TRAIN]) == 0
        assert run(["export", "--bundle", str(bundle),
                    "--checkpoint", str(out / "model.ckpt"),
                    "--name", "raw.tsv", "--out", str(out)]) == 0
        names, matrix = parse_embedding_export((out / "raw.tsv").read_text())
        params, _, _ = load_checkpoint_bytes((out / "model.ckpt").read_bytes())
        assert np.array_equal(matrix, params.entity.data)

    def test_out_dir_environment_variable(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("KANE_OUT_DIR", str(target))
        assert run(["gen-synth", "--seed", "0", *SMALL_GEN]) == 0
        assert (target / "relations.tsv").exists()


# ---------------------------------------------------------------------------
# failure modes


class TestFailures:
    def test_malformed_tsv_names_source_and_line(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        assert run(["gen-synth", "--out", str(gen), "--seed", "0", *SMALL_GEN]) == 0
        bad = gen / "relations.tsv"
        lines = bad.read_text().split("\n")
        lines[2] = "only_two\tfields"
        bad.write_text("\n".join(lines))
        code = run(["prepare", "--relations", str(bad), "--out", str(tmp_path / "p")])
        assert code == 1
        err = capsys.readouterr().err
        assert "relations.tsv:3" in err

    def test_checkpoint_bundle_checksum_mismatch_refused(self, tmp_path, capsys):
        bundle_a = gen_and_prepare(tmp_path / "a", seed=0)
        bundle_b = gen_and_prepare(tmp_path / "b", seed=1)
        out = tmp_path / "run"
        assert run(["train", "--bundle", str(bundle_a), "--out", str(out), *SMALL_TRAIN]) == 0
        code = run(["eval-completion", "--bundle", str(bundle_b),
                    "--checkpoint", str(out / "model.ckpt"), "--out", str(out)])
        assert code == 1
        assert "different bundle" in capsys.readouterr().err

    def test_truncated_checkpoint_refused(self, tmp_path, capsys):
        bundle = gen_and_prepare(tmp_path)
        out = tmp_path / "run"
        assert run(["train", "--bundle", str(bundle), "--out", str(out), *SMALL_TRAIN]) == 0
        ckpt = out / "model.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-5])
        capsys.readouterr()
        code = run(["eval-completion", "--bundle", str(bundle),
                    "--checkpoint", str(ckpt), "--out", str(out)])
        assert code == 1
        assert "error: checkpoint truncated" in capsys.readouterr().err

    def test_missing_bundle_file_exits_nonzero(self, tmp_path, capsys):
        code = run(["train", "--bundle", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("split"), "bundle data lacks split"),
        (lambda d: d["split"]["test"].__setitem__(0, 99999), "split test entry 0 is out of range"),
        (lambda d: d["relation_triples"][d["split"]["train"][0]].__setitem__(2, -1), "out of range"),
        (lambda d: d["relation_triples"][d["split"]["valid"][0]].__setitem__(2, 9999), "out of range"),
    ], ids=["no-split", "test-index", "train-tail", "valid-tail"])
    def test_malformed_bundle_is_one_error_line(self, tmp_path, capsys, edit, message):
        bundle = gen_and_prepare(tmp_path)
        doc = json.loads(bundle.read_text())
        edit(doc["data"])
        doc["checksum"] = bundle_checksum(doc["data"])
        bundle.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run(["train", "--bundle", str(bundle), "--out", str(tmp_path / "o"),
                    *SMALL_TRAIN, "--set", "epochs=1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bundle}: ") and message in err
        assert err.count("\n") == 1

    def test_directory_as_bundle_is_one_error_line(self, tmp_path, capsys):
        assert run(["train", "--bundle", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err and err.count("\n") == 1

    def test_non_utf8_bundle_is_one_error_line(self, tmp_path, capsys):
        bundle = gen_and_prepare(tmp_path)
        raw = bundle.read_bytes()
        bundle.write_bytes(raw[:40] + b"\xff" + raw[40:])
        capsys.readouterr()
        assert run(["train", "--bundle", str(bundle), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {bundle}:1: not UTF-8 text (invalid start byte)\n"

    def test_non_utf8_tsv_names_file_and_line(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        assert run(["gen-synth", "--out", str(gen), "--seed", "0", *SMALL_GEN]) == 0
        rel = gen / "relations.tsv"
        lines = rel.read_bytes().split(b"\n")
        lines[2] = b"caf\xe9\tr\tx"
        rel.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert run(["prepare", "--relations", str(rel), "--out", str(tmp_path / "p")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {rel}:3: not UTF-8 text") and err.count("\n") == 1

    def test_tampered_bundle_refused(self, tmp_path, capsys):
        bundle = gen_and_prepare(tmp_path)
        doc = json.loads(bundle.read_text())
        triple = doc["data"]["relation_triples"][0]
        triple[2] = (triple[2] + 1) % len(doc["data"]["entities"])
        bundle.write_text(json.dumps(doc))
        code = run(["train", "--bundle", str(bundle), "--out", str(tmp_path / "o"),
                    *SMALL_TRAIN])
        assert code == 1
        assert "checksum" in capsys.readouterr().err.lower()


# ---------------------------------------------------------------------------
# embedding export text format


class TestExportFormat:
    def test_round_trip_preserves_exact_values(self):
        rng = np.random.default_rng(0)
        names = ["alpha", "beta gamma", "x"]
        matrix = rng.standard_normal((3, 4)) * np.array([1e-12, 1.0, 1e9, -3.5])
        text = format_embedding_export(names, matrix)
        got_names, got = parse_embedding_export(text)
        assert got_names == names
        assert np.array_equal(got, matrix)

    def test_header_mismatch_rejected(self):
        text = "#2 2\nname\t1.0 2.0\n"
        with pytest.raises(IntegrityError):
            parse_embedding_export(text)

    def test_missing_header_rejected(self):
        with pytest.raises(IntegrityError):
            parse_embedding_export("name\t1.0 2.0\n")
