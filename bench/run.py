"""kane benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload train-50 --seed 0 --seconds 15 --trace 0

The run drives the user path in-process through ``kane.cli.main``:
``train`` followed by ``eval-completion``, repeated while the next
repetition still fits in ``--seconds``. Set-up (``gen-synth`` and
``prepare``) runs in fresh interpreters, see ``make_data.py``. Inputs come
from ``--seed`` alone. BLAS is pinned to one thread before NumPy is
imported.

Times are CPU times scaled to a nominal machine speed by the yardstick of
``yardstick.py``, whose units run interleaved with the program.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
repetition untraced and one traced (spans around public functions of each
``kane`` module, see ``tracer.py``) and reports the per-layer metrics, the
self-time table and the tracing overhead.

Outputs are checked against ``kane.oracle``; a failed check marks the run
incorrect and its operations (training steps and ranking queries) failed.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A fuller report, with
the environment record, goes to ``.kanebench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from tracer import PER_LAYER, Tracer, per_layer_metrics, self_time_table

if TYPE_CHECKING:
    from yardstick import Yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".kanebench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HASH_SEED = "0"
SETUP_REPEATS = 7
SETUP_UNITS = 10  # yardstick units before and after each set-up child
ORACLE_TOLERANCE = 1e-9
TIE_TOLERANCE = 1e-9

END_TO_END = {
    "setup_s": "s",
    "train_examples_per_s": "1/s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and reported, but not bounded: both are exact for a seed yet move
# by tens of percent from one seed to the next on the 50-entity graphs.
QUALITY = {"final_loss": "loss", "valid_metric": "ratio"}


@dataclass(frozen=True)
class Workload:
    name: str
    entities: int
    clusters: int
    train: tuple[str, ...]  # --set overrides for `kane train`
    evals: int = 1  # eval-completion calls per repetition
    oracle_vectors: bool = False  # compare propagated vectors with the oracle
    rank_sample: int | None = None  # None: every test triple, and the CLI report


# The rationale for each workload is in bench/README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-50", 50, 5, ("epochs=2", "val_every=2"), evals=30, oracle_vectors=True),
        Workload(
            "train-500", 500, 5,
            # the hinge loss is summed over the batch, so the rate scales with it
            ("epochs=1", "val_every=1", "batch_size=512", f"learning_rate={0.0005 * 8 / 512!r}"),
            evals=10, rank_sample=12,
        ),
        Workload(
            "classify-lstm-50", 50, 10,
            ("task=classification", "encoder=lstm", "epochs=10", "val_every=5"),
            evals=30,
        ),
    )
}


@dataclass
class Rep:
    """One repetition: `kane train`, then `kane eval-completion` (timed)."""

    train_s: float = math.nan  # wall-clock
    train_cpu_ns: int = 0  # CPU time, yardstick units excluded
    eval_s: list[float] = field(default_factory=list)
    eval_cpu_ns: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    validation: list[float] = field(default_factory=list)
    # (completion_metrics.tsv, completion_report.txt) per eval-completion call
    reports: list[tuple[str, str]] = field(default_factory=list)
    out: Path | None = None
    errors: list[str] = field(default_factory=list)
    steps: int = 0  # sgd_step calls seen


@dataclass
class Check:
    name: str
    ok: bool
    detail: str
    kind: str  # "train" or "eval": which operations fail with it


# ---------------------------------------------------------------------------
# driving the CLI


def cli(argv: list) -> tuple[int, float, str]:
    """``kane.cli.main`` in-process: (exit code, wall-clock seconds, output)."""
    import kane.cli

    buf = io.StringIO()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = kane.cli.main([str(a) for a in argv])
    except SystemExit as e:  # argparse rejected the arguments
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:  # a crash is a failed operation, not a benchmark crash
        rc = -1
        buf.write(traceback.format_exc())
    return rc, time.perf_counter() - t, buf.getvalue()


def timed(stick: Yardstick | None, argv: list) -> tuple[int, float, int, str]:
    """``cli`` plus its CPU time without yardstick units, then a yardstick tick."""
    units_ns = stick.unit_ns if stick else 0
    t = time.process_time_ns()
    rc, wall, out = cli(argv)
    cpu_ns = time.process_time_ns() - t - ((stick.unit_ns - units_ns) if stick else 0)
    if stick:
        stick.tick()
    return rc, wall, cpu_ns, out


@contextlib.contextmanager
def after_each_step(fn):
    """Call ``fn`` after every return of ``kane.training.sgd_step``."""
    import kane.training

    original = kane.training.sgd_step

    def step(*args, **kwargs):
        out = original(*args, **kwargs)
        fn()
        return out

    kane.training.sgd_step = step
    try:
        yield
    finally:
        kane.training.sgd_step = original


def set_up(wl: Workload, seed: int, base: Path) -> tuple[Path, list[str]]:
    """gen-synth + prepare in-process into a fresh directory: (bundle, errors)."""
    d = Path(tempfile.mkdtemp(dir=base, prefix="data-"))
    results = [
        cli(["gen-synth", "--out", d, "--seed", seed,
             "--set", f"entities={wl.entities}", "--set", f"clusters={wl.clusters}"]),
        cli(["prepare", "--relations", d / "relations.tsv", "--attributes", d / "attributes.tsv",
             "--labels", d / "labels.tsv", "--out", d, "--seed", seed]),
    ]
    return d / "bundle.json", [out for rc, _, out in results if rc != 0]


def set_up_child(wl: Workload, seed: int, base: Path, stick: Yardstick) -> tuple[float, Path, list[str]]:
    """``make_data.py`` in a fresh interpreter: (its CPU seconds, bundle, errors)."""
    d = Path(tempfile.mkdtemp(dir=base, prefix="data-"))
    argv = [sys.executable, BENCH / "make_data.py", d, seed, wl.entities, wl.clusters]
    stick.run(SETUP_UNITS)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([str(a) for a in argv], capture_output=True, text=True, timeout=120)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    stick.run(SETUP_UNITS)
    seconds = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    errors = [] if proc.returncode == 0 else [f"make_data.py exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    return seconds, d / "bundle.json", errors


def run_rep(wl: Workload, seed: int, bundle: Path, base: Path, stick: Yardstick | None = None) -> Rep:
    """One repetition; with a yardstick, its units run after every training step and command."""
    rep = Rep(out=Path(tempfile.mkdtemp(dir=base, prefix="run-")))
    sets = [a for kv in wl.train for a in ("--set", kv)]

    def stepped():
        rep.steps += 1
        if stick:
            stick.tick()

    with after_each_step(stepped):
        rc, rep.train_s, rep.train_cpu_ns, out = timed(
            stick, ["train", "--bundle", bundle, "--out", rep.out, "--seed", seed, *sets])
    if rc != 0:
        rep.errors.append(f"kane train exited {rc}: {out.strip()[-300:]}")
        return rep
    for row in (rep.out / "train_log.csv").read_text().splitlines()[1:]:
        _, loss, val, _ = row.split(",")
        rep.losses.append(float(loss))
        if val:
            rep.validation.append(float(val))
    for _ in range(wl.evals):
        rc, dt, cpu_ns, out = timed(stick, ["eval-completion", "--bundle", bundle,
                                            "--checkpoint", rep.out / "model.ckpt", "--out", rep.out])
        if rc != 0:
            rep.errors.append(f"kane eval-completion exited {rc}: {out.strip()[-300:]}")
            return rep
        rep.eval_s.append(dt)
        rep.eval_cpu_ns.append(cpu_ns)
        rep.reports.append(tuple(
            (rep.out / name).read_text() for name in ("completion_metrics.tsv", "completion_report.txt")))
    return rep


def run_reps(wl: Workload, seed: int, bundle: Path, base: Path, seconds: float, stick: Yardstick) -> list[Rep]:
    """Repeat while the next repetition, at the mean length so far, still fits."""
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        reps.append(run_rep(wl, seed, bundle, base, stick))
        elapsed = time.perf_counter() - start
        if reps[-1].errors or elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


# ---------------------------------------------------------------------------
# workload facts and operation counts


@dataclass
class Facts:
    epochs: int
    val_every: int
    batch_size: int
    steps_per_epoch: int
    examples: int  # positive examples per epoch
    test_triples: int


def workload_facts(wl: Workload, bundle: Path) -> Facts:
    from kane.cli import build_parser, merge_config
    from kane.kgdata import bundle_from_json

    cfg = merge_config(build_parser().parse_args(
        ["train", "--bundle", str(bundle), *[a for kv in wl.train for a in ("--set", kv)]]
    ))
    kg, split, _ = bundle_from_json(bundle.read_text(encoding="utf-8"))
    if cfg["task"] == "completion":
        examples = len(split.train) + (len(kg.attribute_triples) if cfg["use_attributes"] else 0)
    else:
        examples = len(split.label_train)
    return Facts(
        epochs=int(cfg["epochs"]),
        val_every=int(cfg["val_every"]),
        batch_size=int(cfg["batch_size"]),
        steps_per_epoch=math.ceil(examples / int(cfg["batch_size"])),
        examples=examples,
        test_triples=len(split.test),
    )


def operations(wl: Workload, facts: Facts, reps: list[Rep]) -> tuple[int, int]:
    """(training steps, ranking queries) attempted over all repetitions."""
    steps = facts.epochs * facts.steps_per_epoch * len(reps)
    queries = 3 * facts.test_triples * wl.evals * len(reps)
    return steps, queries


# ---------------------------------------------------------------------------
# correctness checks (never inside a timed region)


def check_outputs(facts: Facts, reps: list[Rep]) -> list[Check]:
    """Commands succeeded; losses finite and identical across repetitions
    (traced and untraced alike); ranking reports identical and complete."""
    errors = [e for r in reps for e in r.errors]
    checks = [Check("commands succeed", not errors, "; ".join(errors) or "all exit 0", "train")]
    if errors:
        return checks
    first = reps[0]
    checks.append(Check(
        "training log complete and finite",
        len(first.losses) == facts.epochs and all(math.isfinite(x) for x in first.losses),
        f"{len(first.losses)} epochs, final loss {first.losses[-1]!r}", "train",
    ))
    if facts.epochs > 1:
        checks.append(Check(
            "training lowers the loss", first.losses[-1] < first.losses[0],
            f"epoch 1 {first.losses[0]!r}, epoch {facts.epochs} {first.losses[-1]!r}", "train",
        ))
    checks.append(Check(
        "loss trajectory identical across repetitions",
        all(r.losses == first.losses for r in reps),
        f"{len(reps)} repetitions", "train",
    ))
    reports = [t for r in reps for t in r.reports]
    queries = {task: int(n) for task, n in re.findall(r"^(\w+) \((\d+) queries", reports[0][1], re.M)}
    checks.append(Check(
        "ranking report identical across calls",
        all(t == reports[0] for t in reports), f"{len(reports)} eval-completion calls", "eval",
    ))
    checks.append(Check(
        "ranking report covers every test triple",
        queries == {"entity_prediction": 2 * facts.test_triples,
                    "relation_prediction": facts.test_triples},
        f"{facts.test_triples} test triples", "eval",
    ))
    return checks


def _parse_report(tsv: str) -> dict[tuple[str, str, str], float]:
    """completion_metrics.tsv -> {(task, setting, metric): value}."""
    out = {}
    for line in tsv.splitlines()[1:]:
        task, setting, metric, value = line.split("\t")
        if task != "meta":
            out[(task, setting, metric)] = float(value)
    return out


def check_program(wl: Workload, seed: int, bundle: Path, rep: Rep) -> list[Check]:
    """Program results against kane.oracle: propagated vectors, and ranks."""
    from kane import oracle
    from kane.evaluation import build_filter_index, entity_matrix, rank_head, rank_relation, rank_tail
    from kane.kgdata import GraphView, bundle_from_json
    from kane.training import load_checkpoint_bytes

    kg, split, _ = bundle_from_json(bundle.read_text(encoding="utf-8"))
    params, config, _ = load_checkpoint_bytes((rep.out / "model.ckpt").read_bytes())
    model = config.model
    view = GraphView.restricted(kg, split.train, model.use_attributes)
    ent = entity_matrix(view, params, model)
    checks = []
    if wl.oracle_vectors:
        ref = oracle.naive_entity_vectors(
            view, oracle.params_to_lists(params.named_parameters()), asdict(model)
        )
        err = max(abs(a - b) for row, ref_row in zip(ent.tolist(), ref) for a, b in zip(row, ref_row))
        checks.append(Check(
            "propagated vectors match oracle", err <= ORACLE_TOLERANCE,
            f"max abs difference {err:.3g} (tolerance {ORACLE_TOLERANCE:g})", "train",
        ))

    vectors, relations = ent.tolist(), params.relation.data.tolist()
    known = [tuple(t) for t in kg.relation_triples]
    filt = build_filter_index(kg)
    kinds = {
        "tail": (rank_tail, oracle.naive_rank_tail),
        "head": (rank_head, oracle.naive_rank_head),
        "relation": (rank_relation, oracle.naive_rank_relation),
    }
    if wl.rank_sample is None:
        triples = split.test
    else:
        triples = random.Random(seed).sample(split.test, min(wl.rank_sample, len(split.test)))
    ranks: dict[tuple[str, str], list[int]] = {}
    bad, tied = [], 0
    for trip in triples:
        for kind, (ours, naive) in kinds.items():
            for setting in ("raw", "filter"):
                got = ours(trip, ent, params.relation.data, model.norm, filt, setting)
                want = naive(tuple(trip), vectors, relations, known, model.norm, setting)
                task = "relation_prediction" if kind == "relation" else "entity_prediction"
                ranks.setdefault((task, setting), []).append(got)
                if got == want:
                    continue
                if abs(got - want) <= _tied_candidates(kind, tuple(trip), vectors, relations, model.norm):
                    tied += 1
                else:
                    bad.append(f"{kind} {setting} {tuple(trip)}: {got} != oracle {want}")
    checks.append(Check(
        "ranks match oracle ranks", not bad,
        "; ".join(bad[:3]) or f"{len(triples)} test triples x 3 queries x 2 settings, "
        f"{tied} differ only within candidates tied to {TIE_TOLERANCE:g}", "eval",
    ))
    if wl.rank_sample is None:
        # the CLI report aggregates exactly these ranks
        reported = _parse_report(rep.reports[0][0])
        bad = []
        for (task, setting), rs in ranks.items():
            k = 1 if task == "relation_prediction" else 10
            expect = {"mean_rank": sum(rs) / len(rs), f"hits_at_{k}": sum(r <= k for r in rs) / len(rs)}
            for metric, value in expect.items():
                if reported.get((task, setting, metric)) != value:
                    bad.append(f"{task} {setting} {metric}: {reported.get((task, setting, metric))} != {value}")
        checks.append(Check(
            "ranking report aggregates the checked ranks", not bad,
            "; ".join(bad) or "mean rank and hits, raw and filtered", "eval",
        ))
    return checks


def _tied_candidates(kind: str, trip: tuple, vectors: list, relations: list, norm: str) -> int:
    """Candidates whose oracle distance is within TIE_TOLERANCE of the answer's.

    A rank counts strictly better candidates, so on such near-ties the
    program's and the oracle's summation orders may round either way.
    """
    from kane.oracle import naive_distance

    h, r, t = trip
    if kind == "tail":
        answer, dist = t, [naive_distance(vectors[h], relations[r], v, norm) for v in vectors]
    elif kind == "head":
        answer, dist = h, [naive_distance(v, relations[r], vectors[t], norm) for v in vectors]
    else:
        answer, dist = r, [naive_distance(vectors[h], rv, vectors[t], norm) for rv in relations]
    return sum(1 for i, d in enumerate(dist) if i != answer and abs(d - dist[answer]) <= TIE_TOLERANCE)


# ---------------------------------------------------------------------------
# environment record


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
    }


def _loadavg() -> str:
    return Path("/proc/loadavg").read_text().strip()


def _peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


# ---------------------------------------------------------------------------
# the two kinds of run


def untraced_run(wl: Workload, seed: int, base: Path, seconds: float) -> dict:
    from yardstick import Yardstick  # imports NumPy, so only after main pins its threads

    stick = Yardstick()
    setups = [set_up_child(wl, seed, base, stick) for _ in range(SETUP_REPEATS)]
    setup_errors = [e for _, _, errs in setups for e in errs]
    bundle = setups[-1][1]
    if setup_errors:
        return {"checks": [Check("set-up succeeds", False, "; ".join(setup_errors), "train")],
                "reps": [], "facts": None}
    facts = workload_facts(wl, bundle)
    reps = run_reps(wl, seed, bundle, base, seconds, stick)
    same = all(b.read_bytes() == bundle.read_bytes() for _, b, _ in setups)
    checks = [Check("set-up is deterministic", same, f"{SETUP_REPEATS} bundles", "train")]
    checks += check_outputs(facts, reps)
    steps = facts.epochs * facts.steps_per_epoch
    checks.append(Check(
        "every training step ran", all(r.steps == steps for r in reps),
        f"{steps} sgd_step calls per train call", "train",
    ))
    if all(c.ok for c in checks):
        checks += check_program(wl, seed, bundle, reps[-1])
    metrics = {}
    if all(c.ok for c in checks):
        scale = stick.factor * 1e-9  # CPU ns -> seconds at the yardstick's nominal speed
        evals = [ns for r in reps for ns in r.eval_cpu_ns]
        metrics = {
            "setup_s": statistics.median(s for s, _, _ in setups) * stick.factor,
            "train_examples_per_s": facts.examples * facts.epochs * len(reps)
            / (sum(r.train_cpu_ns for r in reps) * scale),
            "eval_s": sum(evals) * scale / len(evals),
            "peak_rss_mb": _peak_rss_mb(),
        }
    return {"checks": checks, "reps": reps, "facts": facts, "yardstick": stick.record(),
            "setup_cpu_s": [s for s, _, _ in setups],
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
            "quality": _quality(reps)}


def _quality(reps: list[Rep]) -> dict:
    """Last epoch's mean loss and last validation value, from train_log.csv."""
    values = {}
    if reps and reps[0].losses:
        values["final_loss"] = reps[0].losses[-1]
    if reps and reps[0].validation:
        values["valid_metric"] = reps[0].validation[-1]
    return {k: {"value": v, "unit": QUALITY[k]} for k, v in values.items()}


def traced_run(wl: Workload, seed: int, base: Path) -> dict:
    bundle, setup_errors = set_up(wl, seed, base)
    if setup_errors:
        return {"checks": [Check("set-up succeeds", False, "; ".join(setup_errors), "train")],
                "reps": [], "facts": None}
    facts = workload_facts(wl, bundle)
    untraced = run_rep(wl, seed, bundle, base)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root("bench.run"):
            traced_bundle, setup_errors = set_up(wl, seed, base)
            traced = run_rep(wl, seed, traced_bundle, base) if not setup_errors else None
    finally:
        tracer.uninstall()
    if setup_errors:
        return {"checks": [Check("traced set-up succeeds", False, "; ".join(setup_errors), "train")],
                "reps": [untraced], "facts": facts}
    reps = [untraced, traced]
    checks = check_outputs(facts, reps)  # includes: final loss traced == untraced
    if all(c.ok for c in checks):
        checks += check_program(wl, seed, traced_bundle, traced)
    table = self_time_table(tracer.spans)
    checks.append(Check(
        "span self times sum to the traced total", table["self_sum_matches_root"],
        f"root {table['root_s']:.6f} s", "train",
    ))
    metrics = per_layer_metrics(tracer) if all(c.ok for c in checks) else {}
    untraced_s = untraced.train_s + sum(untraced.eval_s)
    traced_s = traced.train_s + sum(traced.eval_s)
    return {
        "checks": checks, "reps": reps, "facts": facts, "spans": tracer.spans, "table": table,
        "quality": _quality([traced]),
        "tracing_overhead": {"untraced_s": untraced_s, "traced_s": traced_s,
                             "overhead_s": traced_s - untraced_s,
                             "overhead_share": (traced_s - untraced_s) / untraced_s},
        "metrics": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in metrics.items()},
    }


# ---------------------------------------------------------------------------
# reporting


def summarize(wl: Workload, result: dict) -> tuple[bool, int, int]:
    """(correct, attempted, failed); a failed check fails its kind of operation."""
    checks, reps, facts = result["checks"], result["reps"], result["facts"]
    correct = all(c.ok for c in checks)
    if facts is None:  # set-up failed before anything could be counted
        return False, 1, 1
    steps, queries = operations(wl, facts, reps)
    failed = steps * any(not c.ok and c.kind == "train" for c in checks)
    failed += queries * any(not c.ok for c in checks)
    return correct, steps + queries, failed


def print_report(args, env: dict, result: dict, report_path: Path) -> None:
    print(f"kane benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}")
    print(f"environment  python {env['python']}  numpy {env['numpy']}  "
          f"blas {env['blas']['name']} {env['blas']['version']}  nproc {env['nproc']}  "
          + "  ".join(f"{k}={v}" for k, v in env["threads"].items())
          + f"  PYTHONHASHSEED={env['pythonhashseed']}")
    print(f"loadavg  start {env['loadavg_start']}  end {env['loadavg_end']}")
    for c in result["checks"]:
        print(f"check [{'ok' if c.ok else 'FAILED'}] {c.name}: {c.detail}")
    for name, m in result.get("metrics", {}).items():
        print(f"metric  {name} = {m['value']!r} {m['unit']}")
    for name, m in result.get("quality", {}).items():
        print(f"quality  {name} = {m['value']!r} {m['unit']}")
    if "yardstick" in result:
        y = result["yardstick"]
        print(f"yardstick  {y['units']} units  {y['unit_ms']:.4f} ms per unit  factor {y['factor']:.4f}")
    if "table" in result:
        table = result["table"]
        print(f"self time by layer (total {table['root_s']:.3f} s, "
              f"sum matches total: {table['self_sum_matches_root']})")
        for layer, row in table["layers"].items():
            print(f"  {layer:<12}{row['self_s']:10.3f} s  {100 * row['share']:6.2f} %")
        o = result["tracing_overhead"]
        print(f"tracing overhead  {o['overhead_s']:.3f} s ({100 * o['overhead_share']:.2f} %) "
              f"traced {o['traced_s']:.3f} s vs untraced {o['untraced_s']:.3f} s")
    print(f"report  {report_path.relative_to(ROOT)}")


def write_report(path: Path, args, env: dict, result: dict, summary: tuple) -> None:
    correct, attempted, failed = summary
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "correct": correct, "attempted": attempted, "failed": failed,
        "checks": [asdict(c) for c in result["checks"]],
        "metrics": result.get("metrics", {}),
        "quality": result.get("quality", {}),
        "repetitions": [
            {"train_s": r.train_s, "train_cpu_s": r.train_cpu_ns * 1e-9, "eval_s": r.eval_s,
             "eval_cpu_s": [ns * 1e-9 for ns in r.eval_cpu_ns], "steps": r.steps,
             "losses": r.losses, "validation": r.validation, "errors": r.errors}
            for r in result["reps"]
        ],
    }
    for key in ("yardstick", "setup_cpu_s"):
        if key in result:
            doc[key] = result[key]
    if "table" in result:
        doc["self_time"] = result["table"]
        doc["tracing_overhead"] = result["tracing_overhead"]
        with gzip.open(path.with_suffix(".spans.json.gz"), "wt", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": result["spans"]}, f)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing, and so the layout of every dict and set keyed by
        # strings, is randomised per interpreter and moved run-to-run times
        # by several percent; a fixed seed takes that out. exec keeps the PID.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, __file__, *(sys.argv[1:] if argv is None else argv)])
    for var in THREAD_VARS:  # before anything imports NumPy
        os.environ[var] = "1"
    if not (SRC / "kane" / "__init__.py").is_file():
        print(f"error: no kane sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kane.cli  # noqa: F401

    if Path(sys.modules["kane"].__file__).resolve().parent != SRC / "kane":
        print("error: kane was imported from outside this checkout", file=sys.stderr)
        return 2
    env = environment()
    wl = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(dir=WORK, prefix="work-"))
    try:
        if args.trace:
            result = traced_run(wl, args.seed, base)
        else:
            result = untraced_run(wl, args.seed, base, args.seconds)
    finally:
        shutil.rmtree(base)
    env["loadavg_end"] = _loadavg()
    summary = summarize(wl, result)
    correct, attempted, failed = summary
    report_path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    write_report(report_path, args, env, result, summary)
    print_report(args, env, result, report_path)
    metrics = result.get("metrics", {}) if correct else {}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
