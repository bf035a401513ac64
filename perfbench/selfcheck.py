"""Check the benchmark itself: its oracles must catch wrong outputs.

    python3 perfbench/selfcheck.py

Run from the root of an earlkit checkout.  It replays small seeded pools
through the same ops and checks a measuring run uses, four times:

  * with earlkit as it is: no operation may fail;
  * with ``decide_access`` flipping every 7th verdict: the stream run must fail;
  * with ``serialize_document`` corrupting its output: the corpus and stream
    runs must fail;
  * with cli results whose exit code or output is wrong: the cli checks must
    fail.

It also checks that BENCHMARK.json names exactly the metrics run.py emits,
and that run.py, started in a directory holding only BENCHMARK.json and the
benchmark's own files, exits non-zero without printing a result.  Exit code
0 means every check held.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import earlkit  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PLAIN = spans.layers(earlkit)


def flipped_verdicts(layers):
    calls = [0]

    def decide_access(*args, **kwargs):
        decision = PLAIN.decide_access(*args, **kwargs)
        calls[0] += 1
        if calls[0] % 7:
            return decision
        verdict = "allow" if decision.verdict == "deny" else "deny"
        return dataclasses.replace(decision, verdict=verdict)

    layers.decide_access = decide_access
    return layers


def corrupted_serialization(layers):
    def serialize_document(doc):
        data = PLAIN.serialize_document(doc)
        return data.replace(b'category="', b'category="x', 1)

    layers.serialize_document = serialize_document
    return layers


def failures(name: str, seed: int, fault=None) -> list[str]:
    """Failure messages of one checked pass over a small pool."""
    w = workloads.WORKLOADS[name](seed, small=True)
    work = ROOT / run.WORK_DIR / "selfcheck" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    w.prepare(work.relative_to(ROOT))
    w.load(earlkit, work)
    layers = spans.layers(earlkit)
    if fault is not None:
        layers = fault(layers)
    tally = workloads.Tally()
    workloads.window(w, layers, tally)
    return tally.messages if tally.failed else []


def _drop_first_error(err: bytes) -> bytes:
    lines = err.splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if b": error " in line)
    return b"".join(lines[:first] + lines[first + 1:])


#: For each cli command, a wrong version of (stdout, stderr).
CORRUPT = {
    "decide": lambda out, err: (
        out.replace(b"allow", b"deny", 1) if out.startswith(b"allow")
        else out.replace(b"deny", b"allow", 1), err),
    "fuse": lambda out, err: (out.replace(b'probability="0.', b'probability="0.9', 1), err),
    "validate": lambda out, err: (out, _drop_first_error(err)),
    "stats": lambda out, err: (out.replace(b'"files_scanned": ', b'"files_scanned": 1', 1), err),
    "annotate": lambda out, err: (out.replace(b"joy", b"jay", 1), err),
}


def cli_failures(seed: int) -> dict[str, bool]:
    """For each cli command, whether a wrong exit code and a corrupted
    stdout are both caught."""
    w = workloads.Cli(seed)
    work = ROOT / run.WORK_DIR / "selfcheck" / "cli"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    w.prepare(work.relative_to(ROOT))
    caught = {}
    for command in w.pool:
        _, _, _, proc = w.op(None, command, None)
        if w.check(command, proc) is not None:
            caught[command[0]] = False  # the real output must pass
            continue
        wrong_exit = subprocess.CompletedProcess(
            proc.args, proc.returncode ^ 1, proc.stdout, proc.stderr)
        stdout, stderr = CORRUPT[command[0]](proc.stdout, proc.stderr)
        corrupted = subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)
        caught[command[0]] = (w.check(command, wrong_exit) is not None
                              and w.check(command, corrupted) is not None)
    return caught


def benchmark_json_matches() -> bool:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    return e2e == list(run.E2E) and per_layer == list(run.PER_LAYER)


def bare_directory_refused() -> bool:
    bare = ROOT / run.WORK_DIR / "selfcheck" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    return proc.returncode != 0 and '"correct"' not in proc.stdout


def main() -> int:
    results = {
        "corpus, earlkit as is: no failure": not failures("corpus", 11),
        "stream, earlkit as is: no failure": not failures("stream", 11),
        "stream, flipped verdicts caught": any(
            "verdict" in m for m in failures("stream", 11, flipped_verdicts)),
        "corpus, corrupted serialization caught": any(
            "serialized" in m for m in failures("corpus", 11, corrupted_serialization)),
        "stream, corrupted serialization caught": any(
            "rendered" in m for m in failures("stream", 11, corrupted_serialization)),
        "BENCHMARK.json names the metrics run.py emits": benchmark_json_matches(),
        "run refused without the program": bare_directory_refused(),
    }
    for command, caught in cli_failures(11).items():
        results[f"cli {command}: wrong exit code and output caught"] = caught
    for name, ok in results.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    shutil.rmtree(ROOT / run.WORK_DIR / "selfcheck", ignore_errors=True)
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
