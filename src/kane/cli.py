"""Command-line interface.

Commands::

    kane gen-synth        write a synthetic benchmark as TSV files
    kane prepare          parse TSV files into a dataset bundle
    kane train            train a model from a bundle, write a checkpoint
    kane eval-completion  link-prediction metrics for a checkpoint
    kane eval-classify    classification accuracy for a checkpoint
    kane export           dump entity embeddings as text

Configuration is a flat ``key = value`` file (``#`` comments); precedence
is command-line flags over the file over built-in defaults. Every value
can also be set with ``--set key=value``. The output directory defaults
to ``$KANE_OUT_DIR`` or the current directory. All file writes are atomic
(temp file + rename), and every command is deterministic for a fixed seed
(the one exception is the wall-clock seconds column of the training log).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import os
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DatasetError, IntegrityError, KaneError, ParseError
from .kgdata import (
    DatasetSplit, GraphView, KnowledgeGraph, bundle_from_json, bundle_to_json,
    generate_synthetic_kg, kg_statistics, parse_attribute_triples, parse_labels,
    parse_relation_triples, relations_to_tsv, attributes_to_tsv, labels_to_tsv,
    split_labeled_entities, split_relation_triples,
)
from .model import ModelConfig, is_translation_mode, parameter_shapes
from .evaluation import (
    completion_report_text, completion_report_tsv, classification_report_text,
    classification_report_tsv, entity_matrix, evaluate_classification,
    evaluate_completion,
)
from .training import (
    TRAIN_KEYS, TrainConfig, check_layout, classifier_classes, load_checkpoint_bytes,
    make_train_config, save_checkpoint_bytes, train,
)

OUT_DIR_ENV = "KANE_OUT_DIR"

# synthetic generator and split keys: the generator's keyword defaults
_GENERATOR_DEFAULTS = {
    name: p.default
    for name, p in inspect.signature(generate_synthetic_kg).parameters.items()
    if p.default is not inspect.Parameter.empty
}

# every configuration key with its default; the value's type sets how a
# key's text is parsed
DEFAULTS: dict[str, object] = {
    **{f.name: f.default for f in fields(ModelConfig)},
    **{f.name: f.default for f in fields(TrainConfig) if f.name in TRAIN_KEYS},
    **_GENERATOR_DEFAULTS,
}


def _coerce(key: str, value: str) -> object:
    if key not in DEFAULTS:
        raise ConfigError(f"unknown configuration key {key!r}")
    default = DEFAULTS[key]
    if isinstance(default, bool):
        low = value.strip().lower()
        if low in ("true", "false"):
            return low == "true"
        raise ConfigError(f"{key} expects true or false, got {value!r}")
    try:
        if isinstance(default, int):
            return int(value)
        if isinstance(default, float):
            return float(value)
    except ValueError as e:
        raise ConfigError(f"bad value for {key}: {value!r} ({e})") from e
    return value.strip()


def _read_text(path: str) -> str:
    """A UTF-8 input file's text; bytes that are not UTF-8 raise a
    ``ParseError`` naming the file and the line."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(path, raw.count(b"\n", 0, e.start) + 1, f"not UTF-8 text ({e.reason})") from e


def parse_config_file(path: str) -> dict[str, object]:
    """Flat ``key = value`` file; unknown keys are errors."""
    out: dict[str, object] = {}
    text = _read_text(path)
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        out[key.strip()] = _coerce(key.strip(), value.strip())
    return out


def merge_config(args: argparse.Namespace) -> dict[str, object]:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        cfg[key.strip()] = _coerce(key.strip(), value.strip())
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    # every command seeds a NumPy generator, which refuses a negative seed
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
    return cfg


def out_dir(args: argparse.Namespace) -> Path:
    path = getattr(args, "out", None) or os.environ.get(OUT_DIR_ENV) or "."
    d = Path(path)
    d.mkdir(parents=True, exist_ok=True)
    return d


def write_atomic(path: Path, data: str | bytes) -> None:
    mode = "wb" if isinstance(data, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, mode, encoding=None if isinstance(data, bytes) else "utf-8") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _print_stats(kg: KnowledgeGraph) -> None:
    stats = kg_statistics(kg)
    width = max(len(k) for k in stats)
    for key, value in stats.items():
        print(f"{key.replace('_', ' '):<{width + 2}}{value}")


# ---------------------------------------------------------------------------
# commands

def cmd_gen_synth(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    kg, split = generate_synthetic_kg(cfg["seed"], **{k: cfg[k] for k in _GENERATOR_DEFAULTS})
    d = out_dir(args)
    write_atomic(d / "relations.tsv", relations_to_tsv(kg))
    write_atomic(d / "attributes.tsv", attributes_to_tsv(kg))
    write_atomic(d / "labels.tsv", labels_to_tsv(kg, split.labels, split.class_names))
    print(f"wrote synthetic dataset to {d}")
    _print_stats(kg)
    return 0


def cmd_prepare(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    rng = np.random.default_rng(int(cfg["seed"]))
    kg = KnowledgeGraph()
    parse_relation_triples(_read_text(args.relations), kg, args.relations)
    if args.attributes:
        parse_attribute_triples(_read_text(args.attributes), kg, args.attributes)
    labels = None
    class_names: list[str] = []
    if args.labels:
        labels, class_names = parse_labels(_read_text(args.labels), kg, args.labels)
    if kg.dropped_relation_duplicates or kg.dropped_attribute_duplicates:
        print(
            f"warning: dropped {kg.dropped_relation_duplicates} duplicate relation "
            f"and {kg.dropped_attribute_duplicates} duplicate attribute triples",
            file=sys.stderr,
        )

    train_t, valid_t, test_t = split_relation_triples(
        kg.relation_triples, rng, float(cfg["valid_fraction"]), float(cfg["test_fraction"])
    )
    split = DatasetSplit(train=train_t, valid=valid_t, test=test_t)
    if labels is not None:
        split.labels = labels
        split.class_names = class_names
        split.label_train, split.label_valid, split.label_test = split_labeled_entities(
            labels, split.class_count, rng
        )
    d = out_dir(args)
    doc = bundle_to_json(kg, split)
    write_atomic(d / "bundle.json", doc)
    print(f"wrote {d / 'bundle.json'}")
    _print_stats(kg)
    print(f"split  train {len(train_t)}  valid {len(valid_t)}  test {len(test_t)}")
    return 0


def _load_bundle_file(path: str):
    return bundle_from_json(_read_text(path), path)


def cmd_train(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    kg, split, checksum = _load_bundle_file(args.bundle)
    config = make_train_config(cfg)
    params, report = _computed(args.bundle, None, train, kg, split, config)
    blob = save_checkpoint_bytes(params, config, bundle_checksum=checksum)
    d = out_dir(args)
    write_atomic(d / "model.ckpt", blob)
    write_atomic(d / "train_log.csv", report.to_csv())
    mode = "transe-mode" if is_translation_mode(config.model) else "kane"
    print(f"wrote {d / 'model.ckpt'} ({mode}, task={config.task})")
    if report.epoch_losses:
        print(f"epochs {len(report.epoch_losses)}  final mean loss {report.epoch_losses[-1]:.6f}")
    if report.final_validation is not None:
        print(f"best validation {report.final_validation:.4f} at epoch {report.best_epoch}")
    if report.stopped_early_at is not None:
        print(f"stopped early at epoch {report.stopped_early_at}")
    return 0


def _load_checkpoint_for(bundle_path: str, checkpoint_path: str):
    """The bundle and a checkpoint trained on it, whose tables fit it."""
    kg, split, checksum = _load_bundle_file(bundle_path)
    params, config, header = load_checkpoint_bytes(Path(checkpoint_path).read_bytes(), checkpoint_path)
    stored = header.get("bundle_checksum", "")
    if stored != checksum:
        raise IntegrityError(
            f"{checkpoint_path}: checkpoint was trained on a different bundle "
            f"(checkpoint {stored or '<none>'}, bundle {checksum}); refusing to evaluate"
        )
    class_count = classifier_classes(config, split.class_count)
    expected = parameter_shapes(config.model, kg.num_entities, kg.num_relations, kg.vocab_size, class_count)
    try:
        check_layout([(name, t.shape) for name, t in params.items()], expected, "the bundle")
    except IntegrityError as err:
        raise IntegrityError(f"{checkpoint_path}: {err}; refusing to evaluate") from err
    return kg, split, params, config, header


def _computed(bundle_path: str, checkpoint_path: str | None, compute, *args):
    """``compute(*args)`` on a bundle's graph and split and, given
    ``checkpoint_path``, a checkpoint's parameters. An error about what the
    bundle lacks names the bundle; vectors or scores that are not finite
    fail naming the checkpoint."""
    try:
        return compute(*args)
    except DatasetError as err:
        raise DatasetError(f"{bundle_path}: {err}") from err
    except IntegrityError as err:
        if checkpoint_path is None:
            raise
        raise IntegrityError(f"{checkpoint_path}: {err}; refusing to use it") from err


def cmd_eval_completion(args: argparse.Namespace) -> int:
    kg, split, params, config, _ = _load_checkpoint_for(args.bundle, args.checkpoint)
    reports = _computed(args.bundle, args.checkpoint, evaluate_completion, kg, split, params, config.model)
    text = completion_report_text(reports, config.model)
    d = out_dir(args)
    write_atomic(d / "completion_report.txt", text)
    write_atomic(d / "completion_metrics.tsv", completion_report_tsv(reports, config.model))
    print(text, end="")
    return 0


def cmd_eval_classify(args: argparse.Namespace) -> int:
    kg, split, params, config, _ = _load_checkpoint_for(args.bundle, args.checkpoint)
    if config.task != "classification":
        raise IntegrityError(f"{args.checkpoint}: a {config.task} checkpoint has no classifier head")
    result = _computed(args.bundle, args.checkpoint, evaluate_classification, kg, split, params, config.model)
    text = classification_report_text(result, config.model)
    d = out_dir(args)
    write_atomic(d / "classification_report.txt", text)
    write_atomic(d / "classification_metrics.tsv", classification_report_tsv(result, config.model))
    print(text, end="")
    return 0


def format_embedding_export(names: list[str], matrix: np.ndarray) -> str:
    """``#<entities> <dim>`` header, then ``name<TAB>v1 v2 ...`` per entity.

    Values use 17 significant digits, enough for float64 round-trips.
    """
    lines = [f"#{matrix.shape[0]} {matrix.shape[1]}"]
    for name, row_vals in zip(names, matrix):
        lines.append(name + "\t" + " ".join(f"{x:.17g}" for x in row_vals))
    return "\n".join(lines) + "\n"


def cmd_export(args: argparse.Namespace) -> int:
    kg, split, params, config, _ = _load_checkpoint_for(args.bundle, args.checkpoint)
    if args.propagated:
        view = GraphView.restricted(kg, split.train, config.model.use_attributes)
        matrix = _computed(args.bundle, args.checkpoint, entity_matrix, view, params, config.model)
    else:
        matrix = params.entity.data
    d = out_dir(args)
    path = d / (args.name or "embeddings.tsv")
    write_atomic(path, format_embedding_export(list(kg.entities), matrix))
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one configuration value (repeatable)")
    p.add_argument("--seed", type=int, help="random seed (overrides config)")
    p.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or .)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kane",
        description="attention-based knowledge graph embeddings over relation and attribute triples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="write a synthetic benchmark dataset")
    _add_common(p)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("prepare", help="parse TSV files into a dataset bundle")
    p.add_argument("--relations", required=True, help="relation triples TSV")
    p.add_argument("--attributes", help="attribute triples TSV")
    p.add_argument("--labels", help="entity labels TSV")
    _add_common(p)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model from a bundle")
    p.add_argument("--bundle", required=True, help="dataset bundle from 'prepare'")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-completion", help="link-prediction metrics")
    p.add_argument("--bundle", required=True)
    p.add_argument("--checkpoint", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_eval_completion)

    p = sub.add_parser("eval-classify", help="entity-classification accuracy")
    p.add_argument("--bundle", required=True)
    p.add_argument("--checkpoint", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_eval_classify)

    p = sub.add_parser("export", help="dump entity embeddings as text")
    p.add_argument("--bundle", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--propagated", action="store_true",
                   help="export propagated vectors instead of the raw table")
    p.add_argument("--name", help="output file name (default embeddings.tsv)")
    _add_common(p)
    p.set_defaults(func=cmd_export)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built at its first call and reused by every
    later one in the process. Each subcommand binds its ``cmd_*`` function
    at that build, so replacing ``kane.cli.cmd_*`` afterwards does not reach
    ``main``."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (KaneError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # a config too large for the machine, refused by the allocator
        print(f"error: {args.command}: out of memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
