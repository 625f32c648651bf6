"""End-to-end command-line behavior on small datasets in temp directories:
config precedence, the full pipeline, integrity refusals, and export
round-trips. Commands run in-process through ``kane.cli.main``."""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import subprocess
import sys
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
from kane.kgdata import (
    DatasetSplit, GraphView, bundle_from_json, bundle_to_json, generate_synthetic_kg,
)
from kane.model import ModelConfig
from kane.training import (
    TrainConfig, load_checkpoint_bytes, make_train_config, save_checkpoint_bytes,
)

from helpers import (
    UNPARSEABLE_JSON, edited_bundle, kg_from_name_triples, pack_ids, parse_embedding_export, unpack_ids,
    with_checkpoint_header,
)


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


@pytest.fixture(scope="module")
def trained(tmp_path_factory) -> tuple[Path, bytes]:
    """A 20-entity bundle and the bytes of a checkpoint trained on it."""
    tmp = tmp_path_factory.mktemp("trained")
    bundle = gen_and_prepare(tmp)
    assert run(["train", "--bundle", str(bundle), "--out", str(tmp / "run"), *SMALL_TRAIN]) == 0
    return bundle, (tmp / "run" / "model.ckpt").read_bytes()


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

    def test_a_config_too_large_for_memory_exits_with_one_line_error(self, tmp_path, capsys):
        """An entity table the allocator refuses ends in one error line that
        names the command, not in a traceback. At 20 entities, dim 10**13
        asks for 1.42 PiB, past any 47-bit address space, so no overcommit
        setting grants it and NumPy refuses it at once."""
        bundle = gen_and_prepare(tmp_path)
        capsys.readouterr()
        code = run(["train", "--bundle", str(bundle), "--out", str(tmp_path / "run"),
                    *SMALL_TRAIN, "--set", "dim=10000000000000"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: train: out of memory: ") and err.count("\n") == 1
        assert "1.42 PiB" in err and "Traceback" not in err
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
        # a classification checkpoint's embeddings also rank triples
        assert run(["eval-completion", "--bundle", str(bundle),
                    "--checkpoint", str(run_k / "model.ckpt"), "--out", str(run_k)]) == 0

        assert run(["export", "--bundle", str(bundle),
                    "--checkpoint", str(run_c / "model.ckpt"),
                    "--propagated", "--out", str(run_c)]) == 0
        names, matrix = parse_embedding_export((run_c / "embeddings.tsv").read_text())

        kg, split, _ = bundle_from_json(bundle.read_text())
        params, config, _ = load_checkpoint_bytes((run_c / "model.ckpt").read_bytes())
        view = GraphView.restricted(kg, split.train, config.model.use_attributes)
        want = entity_matrix(view, params, config.model)
        assert names == list(kg.entities)
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
        assert capsys.readouterr().err.startswith(f"error: {ckpt}: checkpoint truncated: ")

    @pytest.mark.parametrize("command", ["eval-completion", "eval-classify", "export"])
    @pytest.mark.parametrize("edit, message", [
        ({"entity": lambda rows: rows[:-5]}, "'entity' of shape (15, 8)"),
        ({"entity": lambda rows: np.vstack([rows, rows[:5]])}, "'entity' of shape (25, 8)"),
        ({"word": lambda rows: rows[:3]}, "'word' of shape (3, 8)"),
        ({}, "checkpoint truncated: "),
    ], ids=["fewer-entities", "more-entities", "fewer-words", "truncated"])
    def test_checkpoint_that_does_not_fit_the_bundle_is_one_error_line(
        self, trained, tmp_path, capsys, command, edit, message
    ):
        """A checkpoint whose tables differ from the bundle's counts, with
        the right bundle checksum, or a truncated one, is refused before
        any output is written, in one line naming the file."""
        bundle, blob = trained
        params, config, header = load_checkpoint_bytes(blob)
        named = dict(params.named_parameters())
        for name, change in edit.items():
            named[name].data = change(named[name].data)
        ckpt = tmp_path / "edited.ckpt"
        if edit:
            ckpt.write_bytes(save_checkpoint_bytes(params, config, bundle_checksum=header["bundle_checksum"]))
        else:
            ckpt.write_bytes(blob[:-5])
        out = tmp_path / "out"
        capsys.readouterr()
        code = run([command, "--bundle", str(bundle), "--checkpoint", str(ckpt), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: ") and message in err and err.count("\n") == 1
        assert not out.exists() or not any(out.iterdir())

    def test_eval_classify_refuses_a_completion_checkpoint(self, trained, tmp_path, capsys):
        """A completion run holds no classifier head, so there is nothing to
        score: one line naming the file, and no output."""
        bundle, blob = trained
        ckpt = tmp_path / "completion.ckpt"
        ckpt.write_bytes(blob)
        out = tmp_path / "out"
        capsys.readouterr()
        code = run(["eval-classify", "--bundle", str(bundle), "--checkpoint", str(ckpt), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: a completion checkpoint has no classifier head")
        assert err.count("\n") == 1
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("setting, message", [
        ("learning_rate=1e308", "update left parameter 'entity' non-finite"),
        ("margin=1e308", "non-finite loss"),
    ])
    def test_diverging_run_is_one_error_line_and_no_checkpoint(self, trained, tmp_path, capsys, setting, message):
        """A step whose loss or update overflows stops the run with the step
        named, in one line and with no NumPy warning (which this suite turns
        into an error), and writes no checkpoint."""
        bundle, _ = trained
        out = tmp_path / "run"
        capsys.readouterr()
        code = run(["train", "--bundle", str(bundle), "--out", str(out), *SMALL_TRAIN,
                    "--set", "epochs=1", "--set", "batch_size=100000", "--set", setting])
        assert code == 1
        assert capsys.readouterr().err == f"error: epoch 1, batch at 0: {message}\n"
        assert not (out / "model.ckpt").exists()

    @pytest.mark.parametrize("command", ["eval-completion", "eval-classify", "export"])
    def test_checkpoint_whose_vectors_overflow_is_one_error_line(self, tmp_path, capsys, command):
        """One classification epoch at a learning rate of 1e308 leaves every
        parameter finite but huge, so propagation overflows: each command
        that reads the propagated vectors refuses the checkpoint in one line
        naming it, with no NumPy warning and no output."""
        bundle = gen_and_prepare(tmp_path)
        run_dir = tmp_path / "run"
        assert run(["train", "--bundle", str(bundle), "--out", str(run_dir), *SMALL_TRAIN,
                    "--set", "task=classification", "--set", "epochs=1", "--set", "batch_size=100000",
                    "--set", "learning_rate=1e308"]) == 0
        ckpt = run_dir / "model.ckpt"
        out = tmp_path / "out"
        capsys.readouterr()
        extra = ["--propagated"] if command == "export" else []
        code = run([command, "--bundle", str(bundle), "--checkpoint", str(ckpt), "--out", str(out), *extra])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {ckpt}: propagated entity vectors are not finite; refusing to use it\n")
        assert not out.exists() or not any(out.iterdir())

    def test_validation_on_overflowing_vectors_stops_the_run(self, tmp_path, capsys):
        """The same overflow met by in-training validation is a training
        failure naming the epoch, and no checkpoint is written."""
        bundle = gen_and_prepare(tmp_path)
        out = tmp_path / "run"
        capsys.readouterr()
        code = run(["train", "--bundle", str(bundle), "--out", str(out), *SMALL_TRAIN,
                    "--set", "task=classification", "--set", "epochs=1", "--set", "val_every=1",
                    "--set", "batch_size=100000", "--set", "learning_rate=1e308"])
        assert code == 1
        assert capsys.readouterr().err == "error: epoch 1, validation: propagated entity vectors are not finite\n"
        assert not (out / "model.ckpt").exists()

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
        bundle.write_text(edited_bundle(bundle.read_text(), edit))
        capsys.readouterr()
        code = run(["train", "--bundle", str(bundle), "--out", str(tmp_path / "o"),
                    *SMALL_TRAIN, "--set", "epochs=1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bundle}: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("artifact", ["bundle", "checkpoint"])
    @pytest.mark.parametrize("kind", sorted(UNPARSEABLE_JSON))
    def test_json_the_parser_cannot_read_is_one_error_line(self, trained, tmp_path, capsys, artifact, kind):
        """A bundle, or a checkpoint header, nested past the recursion limit
        or holding an integer past Python's digit limit: one line naming the
        file, and no traceback."""
        bundle, blob = trained
        ckpt = tmp_path / "model.ckpt"
        if artifact == "bundle":
            bundle = tmp_path / "bundle.json"
            bundle.write_text(UNPARSEABLE_JSON[kind])
            ckpt.write_bytes(blob)
            named, message = bundle, "bundle JSON cannot be parsed: "
        else:
            ckpt.write_bytes(with_checkpoint_header(blob, UNPARSEABLE_JSON[kind].encode()))
            named, message = ckpt, "corrupt checkpoint header: "
        capsys.readouterr()
        code = run(["eval-completion", "--bundle", str(bundle), "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}: {message}") and err.count("\n") == 1
        assert "Traceback" not in err

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
        rows = unpack_ids(doc["data"]["relation_triples"], 3)
        rows[0][2] = (rows[0][2] + 1) % len(doc["data"]["entities"])
        doc["data"]["relation_triples"] = pack_ids(rows)
        bundle.write_text(json.dumps(doc))
        code = run(["train", "--bundle", str(bundle), "--out", str(tmp_path / "o"),
                    *SMALL_TRAIN])
        assert code == 1
        assert "checksum" in capsys.readouterr().err.lower()

    def test_retired_v1_bundle_is_one_error_line(self, tmp_path, capsys):
        bundle = tmp_path / "bundle.json"
        bundle.write_text('{"checksum":"0","data":{},"format":"kane-bundle-v1"}\n')
        assert run(["train", "--bundle", str(bundle), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: {bundle}: bundle is in the retired kane-bundle-v1 format; "
            "re-run `kane prepare` to write a kane-bundle-v2 bundle\n"
        )


def _tiny_bundle(tmp_path: Path, parts: tuple[slice, slice, slice], labels: np.ndarray | None = None,
                 label_parts: tuple[list, list, list] = ([], [], [])) -> Path:
    """A three-triple bundle whose split parts take the given slices of the
    triples, with ``labels`` (one class) over the given label parts."""
    kg = kg_from_name_triples([("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")])
    triples = [tuple(t) for t in kg.relation_triples.tolist()]
    split = DatasetSplit(*(triples[part] for part in parts))
    if labels is not None:
        split.labels, split.class_names = labels, ["c0"]
        split.label_train, split.label_valid, split.label_test = (np.array(p, dtype=np.int64) for p in label_parts)
    path = tmp_path / "tiny.json"
    path.write_text(bundle_to_json(kg, split))
    return path


ALL, NONE = slice(None), slice(0)
LABELS = np.zeros(3, dtype=np.int64)


class TestBundleLacks:
    """A bundle without what a command needs: one error line naming it."""

    @pytest.mark.parametrize("parts, labels, label_parts, task, message", [
        ((NONE, NONE, ALL), None, ([], [], []), "completion", "no training triples"),
        ((ALL, NONE, NONE), None, ([], [], []), "classification", "classification training needs labels"),
        ((ALL, NONE, NONE), LABELS, ([], [], [0, 1, 2]), "classification", "no labeled training entities"),
    ], ids=["no-train-triples", "no-labels", "no-labeled-train"])
    def test_train(self, tmp_path, capsys, parts, labels, label_parts, task, message):
        bundle = _tiny_bundle(tmp_path, parts, labels, label_parts)
        code = run(["train", "--bundle", str(bundle), "--out", str(tmp_path / "o"),
                    *SMALL_TRAIN, "--set", f"task={task}"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bundle}: {message}\n"
        assert not (tmp_path / "o" / "model.ckpt").exists()

    @pytest.mark.parametrize("command, task, labels, message", [
        ("eval-completion", "completion", None, "no evaluation triples"),
        ("eval-classify", "classification", LABELS, "no entities to classify"),
    ], ids=["no-test-triples", "no-labeled-test"])
    def test_eval(self, tmp_path, capsys, command, task, labels, message):
        bundle = _tiny_bundle(tmp_path, (ALL, NONE, NONE), labels, ([0, 1, 2], [], []))
        run_dir = tmp_path / "run"
        assert run(["train", "--bundle", str(bundle), "--out", str(run_dir), *SMALL_TRAIN,
                    "--set", f"task={task}"]) == 0
        capsys.readouterr()
        code = run([command, "--bundle", str(bundle), "--checkpoint", str(run_dir / "model.ckpt"),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bundle}: {message}\n"


# counts the argparse parsers built during each of two `main` calls in a
# fresh interpreter, where no earlier call has built one
_COUNT_PARSERS = """
import argparse, sys
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
from kane.cli import main
counts = []
for out in sys.argv[1:]:
    assert main(["gen-synth", "--out", out, "--set", "entities=6", "--set", "clusters=2"]) == 0
    counts.append(len(built))
print(counts)
"""


def test_main_builds_its_parser_at_the_first_call_only(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", _COUNT_PARSERS, str(tmp_path / "a"), str(tmp_path / "b")],
                          capture_output=True, text=True, env=env, check=True)
    # the command's parser and its six subcommands' parsers, all in the first call
    assert done.stdout.splitlines()[-1] == "[7, 7]"


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
