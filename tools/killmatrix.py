"""Kill matrix over every earlkit module: which tests fail on each mutant?

    python3 tools/killmatrix.py OUT.json

It takes its modules, their test files (``TESTS``), the mutants and the
reviewed equivalents from ``tools/mutants.py``, and runs pytest with that
tool's options, but without ``-x``: each mutant runs every test of its
module's files under ``--junitxml``, and the report names every test that
fails or errors.  OUT.json maps each module to the ids of the tests run on
the unmutated tree (``tests``) and to its mutants, each with the tests that
kill it in pytest's ``tests/test_x.py::TestY::test_z[p]`` form (``killers``;
a run that writes no report is named by its cause).  It is rewritten after
each module, and a line per mutant goes to stderr.  Over all seven modules it
takes more than an hour, so it is not part of the test suite.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

from mutants import _SKIP, EQUIVALENT, ROOT, TESTS, mutants, run_pytest


def outcomes(report: str, files: list[str]):
    """(test id, whether it failed or errored) for each test case of a ``--junitxml`` report.

    The report names a test by its dotted path and classes (``classname``) and
    its name; ``files``, the test files run, tells the path from the classes.
    """
    dotted = {file.removesuffix(".py").replace("/", "."): file for file in files}
    for case in ET.fromstring(report).iter("testcase"):
        failed = case.find("failure") is not None or case.find("error") is not None
        classname, name = case.get("classname"), case.get("name")
        module = next((m for m in dotted if classname == m or classname.startswith(m + ".")), None)
        if module is None:  # a file that failed to collect, or pytest's own error
            yield dotted.get(name, f"{classname}.{name}".lstrip(".")), failed
            continue
        classes = classname[len(module) + 1 :].split(".") if classname != module else []
        yield "::".join([dotted[module], *classes, name]), failed


def killers(report: str, files: list[str]) -> list[str]:
    """The ids of the tests that fail or error in a ``--junitxml`` report, in its order."""
    return list(dict.fromkeys(test for test, failed in outcomes(report, files) if failed))


def run_tests(copy: Path, tests: list[str], timeout: float | None) -> tuple[list[str], list[str]]:
    """(every test id, the ids that fail or error); a run without a report gives its cause."""
    report = copy / "report.xml"
    report.unlink(missing_ok=True)
    done = run_pytest(copy, tests, timeout, f"--junitxml={report}")
    if done is None:
        return [], [f"timeout after {timeout:.0f} s"]
    if not report.exists():
        return [], [f"pytest exit {done.returncode}"]
    text = report.read_text(encoding="utf-8")
    return list(dict.fromkeys(test for test, _ in outcomes(text, tests))), killers(text, tests)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    out = Path(sys.argv[1]).resolve()
    matrix = {}
    with tempfile.TemporaryDirectory(prefix="earlkit-killmatrix-") as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        for module, tests in TESTS.items():
            started = time.monotonic()
            every, failing = run_tests(copy, tests, None)
            if failing or not every:
                print(f"{module}: the unmutated tree fails: {failing}", file=sys.stderr)
                return 2
            timeout = max(60.0, 5 * (time.monotonic() - started))
            source = (copy / module).read_text(encoding="utf-8")
            rows = []
            for function, line, old, new, context, mutated in mutants(source):
                (copy / module).write_text(mutated, encoding="utf-8")
                _, failing = run_tests(copy, tests, timeout)
                rows.append({
                    "function": function, "line": line, "old": old, "new": new,
                    "context": context, "equivalent": (function, context, new) in EQUIVALENT,
                    "killers": failing,
                })
                print(f"{module} {function}:{line} {old} -> {new} ({context}) "
                      f"{len(failing)} killers", file=sys.stderr, flush=True)
            (copy / module).write_text(source, encoding="utf-8")
            matrix[module] = {"tests": every, "mutants": rows}
            out.write_text(json.dumps(matrix, indent=1) + "\n", encoding="utf-8")
            print(f"{module}: {len(rows)} mutants, {len(every)} tests, "
                  f"{time.monotonic() - started:.0f} s", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
