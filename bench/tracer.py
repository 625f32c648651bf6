"""Span tracing for the kane benchmark, installed from outside the package.

``Tracer.install`` replaces public functions of the ``kane`` modules with
wrappers that record one span per call: name, start, end (both
``perf_counter_ns``) and the index of the enclosing span. Each function is
replaced under the name its caller looks up at call time, so for example
``forward_all`` is wrapped both as ``kane.training.forward_all`` and as
``kane.evaluation.forward_all``. ``uninstall`` puts the originals back.

Spans stay in memory; ``per_layer_metrics`` and ``self_time_table`` turn
them into the numbers the benchmark reports. A span's layer is the part of
its name before the first dot.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict

# (module, attribute, span name). The module is the one whose global the
# caller reads, not necessarily the one that defines the function.
WRAPPED = [
    ("cli", "main", "cli.main"),
    ("cli", "write_atomic", "cli.write_atomic"),
    ("cli", "generate_synthetic_kg", "kgdata.generate"),
    ("cli", "relations_to_tsv", "kgdata.to_tsv"),
    ("cli", "attributes_to_tsv", "kgdata.to_tsv"),
    ("cli", "labels_to_tsv", "kgdata.to_tsv"),
    ("cli", "parse_relation_triples", "kgdata.parse"),
    ("cli", "parse_attribute_triples", "kgdata.parse"),
    ("cli", "parse_labels", "kgdata.parse"),
    ("cli", "split_relation_triples", "kgdata.split"),
    ("cli", "split_labeled_entities", "kgdata.split"),
    ("cli", "bundle_to_json", "kgdata.bundle_write"),
    ("cli", "bundle_from_json", "kgdata.bundle_load"),
    ("cli", "train", "training.train"),
    ("cli", "save_checkpoint_bytes", "training.ckpt_save"),
    ("cli", "load_checkpoint_bytes", "training.ckpt_load"),
    ("cli", "evaluate_completion", "evaluation.evaluate_completion"),
    ("cli", "completion_report_text", "evaluation.report"),
    ("cli", "completion_report_tsv", "evaluation.report"),
    ("training", "init_params", "model.init_params"),
    ("training", "corrupt", "training.corrupt"),
    ("training", "forward_all", "model.forward_all"),
    ("training", "encode_value", "model.encode_value"),
    ("training", "sgd_step", "training.sgd_step"),
    ("model", "encode_value", "model.encode_value"),
    ("model", "aggregate", "model.aggregate"),
    ("model", "bow_encode", "encoders.encode"),
    ("model", "lstm_encode", "encoders.encode"),
    ("autodiff", "backward", "autodiff.backward"),
    # _validation_metric imports these from kane.evaluation at call time,
    # so validation inside train is caught by the same wrappers.
    ("evaluation", "forward_all", "model.forward_all"),
    ("evaluation", "entity_matrix", "evaluation.entity_matrix"),
    ("evaluation", "build_filter_index", "evaluation.build_filter_index"),
    ("evaluation", "hits_fraction_for_triples", "evaluation.hits_fraction"),
    ("evaluation", "rank_tail", "evaluation.rank"),
    ("evaluation", "rank_head", "evaluation.rank"),
    ("evaluation", "rank_relation", "evaluation.rank"),
    ("kgdata", "GraphView.restricted", "kgdata.graph_view"),
]

# Per-layer metrics and their units, in report order (as in BENCHMARK.json).
PER_LAYER = {
    "training.step_ms.p50": "ms",
    "training.step_ms.p90": "ms",
    "training.sample_s": "s",
    "training.sample_calls": "count",
    "training.loss_s": "s",
    "training.sgd_s": "s",
    "training.validate_s": "s",
    "training.ckpt_save_s": "s",
    "training.ckpt_load_s": "s",
    "model.forward_s": "s",
    "model.forward_calls": "count",
    "model.aggregate_s": "s",
    "model.value_cache_hit_ratio": "ratio",
    "encoders.encode_s": "s",
    "encoders.encode_calls": "count",
    "autodiff.tape_records_per_step": "count",
    "autodiff.backward_s": "s",
    "evaluation.propagate_s": "s",
    "evaluation.filter_index_s": "s",
    "evaluation.rank_s": "s",
    "evaluation.rank_calls": "count",
    "evaluation.rank_ms.p50": "ms",
    "evaluation.rank_ms.p99": "ms",
    "kgdata.generate_s": "s",
    "kgdata.bundle_write_s": "s",
    "kgdata.bundle_load_s": "s",
    "cli.write_s": "s",
}

NAME, START, END, PARENT = range(4)
_NS = 1e-9


class Tracer:
    """Records spans for calls into ``kane`` while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.value_cache_hits = 0
        self.tape_records: list[int] = []  # len(tape.records) seen by each backward
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][END] = time.perf_counter_ns()

    @contextlib.contextmanager
    def root(self, name: str):
        """A span opened by the benchmark itself around calls into kane."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _count_cache_hit(self, args, kwargs) -> None:
        # encode_value(value_id, view, params, config, cache=None)
        cache = args[4] if len(args) > 4 else kwargs.get("cache")
        if cache is not None and args[0] in cache:
            self.value_cache_hits += 1

    def _count_tape(self, args, kwargs) -> None:
        tape = args[0] if args else kwargs["tape"]
        self.tape_records.append(len(tape.records))

    # -- install / uninstall -------------------------------------------------

    def install(self, entries: list[tuple[str, str, str]] = WRAPPED) -> None:
        """Wrap each (module, attribute, span name) entry; ``A.b`` names an attribute of a class."""
        hooks = {"model.encode_value": self._count_cache_hit, "autodiff.backward": self._count_tape}
        for module_name, attr, name in entries:
            owner = importlib.import_module(f"kane.{module_name}")
            *path, attr = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if path else getattr(owner, attr)
            self._restore.append((owner, attr, original))
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(self._wrap(original.__func__, name)))
            else:
                setattr(owner, attr, self._wrap(original, name, hooks.get(name)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# analysis


def _children(spans: list[list]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(i)
    return kids


def self_times_ns(spans: list[list]) -> list[int]:
    """Span duration minus the time its direct children cover.

    Calls are single-threaded and properly nested, so children never
    overlap and the self times of all spans under a root sum to the
    root's duration exactly.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def training_steps(spans: list[list]) -> list[tuple[int, int, int]]:
    """(start_ns, end_ns, self_ns) of every training step.

    A step starts at its first direct child of ``training.train`` that
    begins a batch (``training.corrupt`` for completion,
    ``model.forward_all`` for classification) and ends when its
    ``training.sgd_step`` returns. Its self time is the step minus the
    direct children of ``train`` inside it: batch assembly and the loss.
    """
    kids = _children(spans)
    steps = []
    for i, s in enumerate(spans):
        if s[NAME] != "training.train":
            continue
        start = None
        covered = 0
        for k in kids[i]:
            child = spans[k]
            if start is None:
                if child[NAME] not in ("training.corrupt", "model.forward_all"):
                    continue
                start = child[START]
            covered += child[END] - child[START]
            if child[NAME] == "training.sgd_step":
                steps.append((start, child[END], child[END] - start - covered))
                start = None
                covered = 0
    return steps


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the single value for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.spans
    total: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    own = self_times_ns(spans)
    self_by_name: dict[str, int] = defaultdict(int)
    for s, mine in zip(spans, own):
        total[s[NAME]] += s[END] - s[START]
        calls[s[NAME]] += 1
        self_by_name[s[NAME]] += mine
    validate = sum(
        s[END] - s[START] for s in spans
        if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "training.train"
        and s[NAME].startswith("evaluation.")
    )
    steps = training_steps(spans)
    step_ms = [(end - start) / 1e6 for start, end, _ in steps]
    rank_ms = [(s[END] - s[START]) / 1e6 for s in spans if s[NAME] == "evaluation.rank"]
    encode_calls = calls["model.encode_value"]
    return {
        "training.step_ms.p50": statistics.median(step_ms),
        "training.step_ms.p90": _percentile(step_ms, 90),
        "training.sample_s": total["training.corrupt"] * _NS,
        "training.sample_calls": calls["training.corrupt"],
        "training.loss_s": sum(mine for _, _, mine in steps) * _NS,
        "training.sgd_s": total["training.sgd_step"] * _NS,
        "training.validate_s": validate * _NS,
        "training.ckpt_save_s": total["training.ckpt_save"] * _NS,
        "training.ckpt_load_s": total["training.ckpt_load"] * _NS,
        "model.forward_s": self_by_name["model.forward_all"] * _NS,
        "model.forward_calls": calls["model.forward_all"],
        "model.aggregate_s": total["model.aggregate"] * _NS,
        "model.value_cache_hit_ratio": tracer.value_cache_hits / encode_calls if encode_calls else 0.0,
        "encoders.encode_s": total["encoders.encode"] * _NS,
        "encoders.encode_calls": calls["encoders.encode"],
        "autodiff.tape_records_per_step": int(statistics.median(tracer.tape_records)),
        "autodiff.backward_s": total["autodiff.backward"] * _NS,
        "evaluation.propagate_s": total["evaluation.entity_matrix"] * _NS,
        "evaluation.filter_index_s": total["evaluation.build_filter_index"] * _NS,
        "evaluation.rank_s": total["evaluation.rank"] * _NS,
        "evaluation.rank_calls": calls["evaluation.rank"],
        "evaluation.rank_ms.p50": statistics.median(rank_ms),
        "evaluation.rank_ms.p99": _percentile(rank_ms, 99),
        "kgdata.generate_s": total["kgdata.generate"] * _NS,
        "kgdata.bundle_write_s": total["kgdata.bundle_write"] * _NS,
        "kgdata.bundle_load_s": total["kgdata.bundle_load"] * _NS,
        "cli.write_s": total["cli.write_atomic"] * _NS,
    }


def self_time_table(spans: list[list]) -> dict:
    """Self time by layer and by span name; the layer sums equal the root total."""
    own = self_times_ns(spans)
    roots = [i for i, s in enumerate(spans) if s[PARENT] < 0]
    root_ns = sum(spans[i][END] - spans[i][START] for i in roots)
    by_name: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])  # calls, total, self
    by_layer: dict[str, int] = defaultdict(int)
    for s, mine in zip(spans, own):
        row = by_name[s[NAME]]
        row[0] += 1
        row[1] += s[END] - s[START]
        row[2] += mine
        by_layer[s[NAME].split(".", 1)[0]] += mine
    return {
        "root_s": root_ns * _NS,
        "self_sum_matches_root": sum(by_layer.values()) == root_ns,
        "layers": {
            layer: {"self_s": ns * _NS, "share": ns / root_ns}
            for layer, ns in sorted(by_layer.items(), key=lambda kv: -kv[1])
        },
        "spans": {
            name: {"calls": c, "total_s": t * _NS, "self_s": m * _NS, "self_share": m / root_ns}
            for name, (c, t, m) in sorted(by_name.items(), key=lambda kv: -kv[1][2])
        },
    }

