"""earlkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {corpus,stream,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of an earlkit checkout; earlkit is imported from ``src``.
Inputs are generated from the seed and written under ``.perfbench_work/``.

--trace 0 measures the end-to-end metrics with no tracing:
  setup_s             median set-up time of fresh processes (import,
                      loaders, warm-up pass; see setup_child.py), rescaled
                      to a machine on which the reference task takes 1 ms
  peak_rss_mb         peak resident memory of the measuring process; for
                      cli, the largest of the child processes
  throughput_per_ref  corpus: annotation items through parse, validate and
                      serialize; stream: events; cli: invocations; per
                      duration of the reference task.  Median over complete
                      passes (cycles of the command rotation for cli).
  latency_p50_ref     median time per document (corpus), per decision
                      (stream) or per invocation (cli), over the duration of
                      the reference task
  latency_tail_ref    the same at p99 for corpus and stream (hundreds of
                      samples beyond it) and at p90 for cli (at least 200
                      invocations run, so at least twenty lie beyond it)
The reference task (see workloads.py) is a fixed piece of pure-Python work
that does not call earlkit; it is timed every 20 ms of busy time and each
operation is divided by the latest timing (for setup_s, by timings taken
just before each process starts).  This cancels the drift in the machine's
own speed, which on a shared 2-core Xeon VM moved wall times by up to 2x
between runs.  The wall-clock figures (setup_wall_s, items_per_s,
decision_p99_us, cli_p90_ms, ...) are printed on the report lines.

--trace 1 alternates untraced and traced passes (at most four of each) and
reports the per-layer metrics derived from the spans (see spans.py), plus
trace.overhead_ratio: the median untraced pass rate over the median traced
one, minus one.

The lines before the last one are a report: the metrics above, the same in
wall-clock units (setup_wall_s, items_per_s, decision_p99_us, cli_p90_ms,
...), fail_ratio with its base count, the inputs' sha256, the Python
version, nproc, the traffic facts of the inputs and, with --trace 1, every
per-layer metric.  The last line is one JSON object with the keys correct,
attempted, failed and metrics.  A copy of everything goes to
``.perfbench_work/results/`` for compare.py.  The exit code is 0 when every
output was correct, 1 when a check failed and 2 when the run could not
start.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import spans
import workloads

WORK_DIR = ".perfbench_work"
SETUP_RUNS = 7
#: setup_s is given for a machine on which the reference task takes 1 ms.
REFERENCE_NOMINAL_NS = 1_000_000
STARTUP_RUNS = 7
TRACED_PASSES = 4

E2E = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_ref", "1/ref"),
    ("latency_p50_ref", "ref"),
    ("latency_tail_ref", "ref"),
)
#: Per-layer metrics of the final line, with units.  Each is measured on every
#: workload; a count of a layer the workload never calls is 0.  Per-call
#: times exist only where a layer does work, so they are on the report line.
PER_LAYER = (
    ("earl_xml.parse_document.calls", "count"),
    ("earl_xml.parse_document.warnings", "count"),
    ("earl_xml.serialize_document.calls", "count"),
    ("earl_xml.serialize_document.bytes_out", "bytes"),
    ("model.validate_annotation.calls", "count"),
    ("model.validate_annotation.error_ratio", "ratio"),
    ("markers.tag_lexical.calls", "count"),
    ("markers.tag_lexical.tokens", "count"),
    ("markers.tag_lexical.hit_ratio", "ratio"),
    ("markers.classify_voice.calls", "count"),
    ("markers.classify_movement.calls", "count"),
    ("fusion.update_temporal.calls", "count"),
    ("fusion.fill_missing.calls", "count"),
    ("fusion.fill_missing.kept_ratio", "ratio"),
    ("fusion.fuse_instant.calls", "count"),
    ("fusion.fuse_instant.items_per_call", "count"),
    ("fusion.to_complex_emotion.calls", "count"),
    ("fusion.to_complex_emotion.no_signal_ratio", "ratio"),
    ("needs.decide_access.calls", "count"),
    ("needs.decide_access.deny_ratio", "ratio"),
    ("cli.interp_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.exit_mismatch", "count"),
    ("trace.overhead_ratio", "ratio"),
)
#: Report names: (throughput, p50, tail) per workload.
REPORT_NAMES = {
    "corpus": ("items_per_s", "document_p50_ms", "document_p99_ms"),
    "stream": ("events_per_s", "decision_p50_us", "decision_p99_us"),
    "cli": ("invocations_per_s", "cli_p50_ms", "cli_p90_ms"),
}


def quantile(sorted_values: list, q: float):
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def setup_seconds(name: str, seed: int, env: dict) -> tuple[list[float], list[float]]:
    """Wall-clock set-up times of fresh processes, and the same rescaled to a
    machine on which the reference task takes REFERENCE_NOMINAL_NS."""
    wall, rescaled = [], []
    for _ in range(SETUP_RUNS):
        ref = statistics.median(workloads.reference_ns() for _ in range(3))
        proc = subprocess.run(
            [sys.executable, "perfbench/setup_child.py", name, str(seed)],
            env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        seconds = float(proc.stdout.split()[-1])
        wall.append(seconds)
        rescaled.append(seconds * REFERENCE_NOMINAL_NS / ref)
    return wall, rescaled


def startup_spans(tracer, env: dict) -> None:
    """Spans for a bare interpreter and for a fresh ``import earlkit.cli``."""
    for i in range(STARTUP_RUNS):
        for span, code in (("cli.interp", "pass"), ("cli.import", "import earlkit.cli")):
            start = perf_counter_ns()
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, timeout=120)
            stop = perf_counter_ns()
            if proc.returncode != 0:
                raise RuntimeError(f"{code!r} failed: {proc.stderr.decode()[-500:]}")
            tracer.record(span, start, stop, ref=i)


def latency_report(w, win, scale: float, unit: str) -> tuple[dict, dict]:
    lat, lat_ref = sorted(win.latencies_ns), sorted(win.latencies_ref)
    rate_name, p50_name, tail_name = REPORT_NAMES[w.name]
    n = len(lat)
    beyond = f"{n - math.ceil(w.tail * n)} beyond"
    passes = f"median of {len(win.rates)} complete passes"
    e2e = {
        "throughput_per_ref": statistics.median(win.rates_ref),
        "latency_p50_ref": quantile(lat_ref, 0.5),
        "latency_tail_ref": quantile(lat_ref, w.tail),
    }
    report = {
        rate_name: (statistics.median(win.rates), "1/s", passes),
        p50_name: (quantile(lat, 0.5) / scale, unit, f"n={n}"),
        tail_name: (quantile(lat, w.tail) / scale, unit, f"n={n}, {beyond}"),
        "reference_ms": (statistics.median(win.references_ns) / 1e6, "ms",
                         f"median of {len(win.references_ns)} timings of the reference task"),
        "throughput_per_ref": (e2e["throughput_per_ref"], "1/ref", passes),
        "latency_p50_ref": (e2e["latency_p50_ref"], "ref", f"n={n}"),
        "latency_tail_ref": (e2e["latency_tail_ref"], "ref", f"p{round(w.tail * 100)}, n={n}, {beyond}"),
    }
    return e2e, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "stream", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "earlkit" / "__init__.py").is_file():
        print("perfbench: src/earlkit not found; run from the root of an earlkit checkout",
              file=sys.stderr)
        return 2
    if not (root / "tests" / "golden").is_dir():
        print("perfbench: tests/golden not found; run from the root of an earlkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    w = workloads.WORKLOADS[args.workload](args.seed)
    w.prepare(work.relative_to(root))
    env = workloads.child_env()

    report: dict[str, tuple] = {}
    metrics: dict[str, float] = {}
    try:
        if not args.trace:
            wall, rescaled = setup_seconds(w.name, args.seed, env)
            metrics["setup_s"] = statistics.median(rescaled)
            report["setup_wall_s"] = (statistics.median(wall), "s",
                                      f"median of {len(wall)} fresh processes")
            report["setup_s"] = (metrics["setup_s"], "s", "the same at the reference speed")
        import earlkit

        w.load(earlkit, work)
    except (RuntimeError, subprocess.TimeoutExpired, ImportError) as exc:
        print(f"perfbench: could not set up {w.name}: {exc}", file=sys.stderr)
        return 2

    layers = spans.layers(earlkit)
    tally = workloads.Tally()
    gc.collect()
    gc.freeze()
    workloads.window(w, layers, tally)  # warm-up pass, checked in full
    if not args.trace:
        win = workloads.window(w, layers, tally, seconds=args.seconds, min_ops=w.min_ops)
        usage = resource.getrusage(
            resource.RUSAGE_CHILDREN if w.name == "cli" else resource.RUSAGE_SELF)
        metrics["peak_rss_mb"] = usage.ru_maxrss / 1024
        report["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB",
                                 "largest child" if w.name == "cli" else "this process")
        scale, unit = (1e3, "us") if w.name == "stream" else (1e6, "ms")
        e2e, lat_report = latency_report(w, win, scale, unit)
        metrics.update(e2e)
        report.update(lat_report)
        final = {name: metrics[name] for name, _ in E2E}
        units = dict(E2E)
    else:
        # Untraced and traced passes alternate, so that drift in the
        # machine's speed falls on both alike.  At most TRACED_PASSES pairs
        # run, which bounds the memory the spans take.
        tracer = spans.Tracer()
        traced_layers = tracer.traced_layers(layers)
        plain, traced = [], []
        deadline = perf_counter() + args.seconds
        while perf_counter() < deadline and len(traced) < TRACED_PASSES:
            plain += workloads.window(w, layers, tally).rates_ref
            traced += workloads.window(w, traced_layers, tally, tracer).rates_ref
        try:
            startup_spans(tracer, env)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        metrics = spans.layer_metrics(tracer.spans)
        metrics["trace.overhead_ratio"] = (
            statistics.median(plain) / statistics.median(traced) - 1)
        tracer.write(work / "trace.tsv")
        final = {name: metrics.get(name, 0) for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
        report["layers"] = (metrics, "", f"{len(tracer.spans)} spans in "
                            f"{(work / 'trace.tsv').relative_to(root).as_posix()}")
    report["fail_ratio"] = (tally.failed / tally.attempted, "ratio",
                            f"{tally.failed} of {tally.attempted} {w.ops} failed")

    header = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs_sha256": w.digest, "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    print(" ".join(f"{k}={v}" for k, v in header.items()))
    for name, (value, unit, note) in report.items():
        if name == "layers":
            print(f"layers {json.dumps(value, sort_keys=True)}  ({note})")
        else:
            print(f"{name} {value!r} {unit}  ({note})".replace("  ()", ""))
    print(f"traffic {json.dumps(w.facts, sort_keys=True)}")
    for message in tally.messages:
        print(f"FAILED {message}")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in final.items()},
    }
    results = root / WORK_DIR / "results"
    results.mkdir(exist_ok=True)
    saved = dict(header, report={k: v[0] for k, v in report.items()}, traffic=w.facts,
                 failures=tally.messages, **result)
    out = results / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
