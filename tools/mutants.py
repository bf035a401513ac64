"""Mutation run over one earlkit module: does some test fail on each small change?

    python3 tools/mutants.py src/earlkit/needs.py

Each mutant swaps one token of the module (see ``SWAPS``): a comparison,
``+``/``-``, ``*``/``/``, ``and``/``or``, ``True``/``False`` or
``0.0``/``1.0``, or it drops a ``not`` (``not in`` reads ``in``, ``is not``
``is``).  A swap that does not compile is skipped.  ``runs`` copies the tree
to a scratch directory once, checks that the unmutated copy passes, then
writes each mutant in turn into the copy and runs pytest over the module's
test files (see ``TESTS``, which lists every module; any other is a usage
error), with a fixed Hypothesis seed, no example database left from the run
before and a ``--junitxml`` report, whose failing and erroring tests are the
mutant's killers.  A run that times out is run once more before the timeout
counts as a kill.  This tool runs ``pytest -x`` and prints one line per
mutant, with its first killer:

    function:line old -> new (context) killed-by TEST | survived

It exits 0 only when every survivor is listed in ``EQUIVALENT`` as reviewed:
a mutant that no input can tell from the original.  Any other survivor is a
test gap, and the exit code is 1.  It takes minutes, so it is not part of
the test suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_STREAM_TESTS = [
    "tests/test_needs.py", "tests/test_fusion.py", "tests/test_cli.py", "tests/test_acceptance.py",
]
_DOCUMENT_TESTS = [
    "tests/test_model.py", "tests/test_earl_xml.py", "tests/test_records.py",
    "tests/test_acceptance.py",
]
#: The test files run against each module's mutants.
TESTS = {
    "src/earlkit/needs.py": _STREAM_TESTS,
    "src/earlkit/fusion.py": _STREAM_TESTS,
    "src/earlkit/cli.py": _STREAM_TESTS,
    "src/earlkit/model.py": _DOCUMENT_TESTS,
    "src/earlkit/earl_xml.py": _DOCUMENT_TESTS,
    "src/earlkit/markers.py": [
        "tests/test_markers.py", "tests/test_records.py", "tests/test_acceptance.py",
    ],
    "src/earlkit/errors.py": [
        "tests/test_cli.py", "tests/test_markers.py", "tests/test_needs.py", "tests/test_fusion.py",
    ],
}
SWAPS = {
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
    "+": "-", "-": "+", "+=": "-=", "-=": "+=", "*": "/", "/": "*",
    "and": "or", "or": "and", "True": "False", "False": "True", "0.0": "1.0", "1.0": "0.0",
    "not": "",
}
#: Reviewed survivors, by (function, context, new token): why no input tells them apart.
EQUIVALENT = {
    ("_dominant", "category < dominant", "<="):
        "reached only on equal scores of two categories, and dict keys are never equal",
    ("_dominant", "score > second", ">="):
        "on equal scores the runner-up score is set to the value it already has",
    ("TemporalState.__init__", "previous < source", "<="):
        "dict keys are unique, so two adjacent sources are never equal",
    ("_check_annotation", "descriptors and not", "or"):
        "a fast-path guard: the loop it skips emits only for a name in the intersection",
    ("_check_annotation", "dimensions and appraisals", "or"):
        "a fast-path guard: the loop it skips emits only for a name both kinds hold",
    ("_check_annotation", "appraisals and not", "or"):
        "a fast-path guard: the loop it skips emits only for a name both kinds hold",
    ("_annotation", "value - value", "+"):
        "a finite ASCII number without '_' that float() reads also matches _DOUBLE",
    ("_expat_parse", "= True def", "False"):
        "every text handler joins its chunks, so only the number of calls changes",
    ("_escaped_attr", ") <= _MEMO_VALUE_CHARS", "<"):
        "only whether a 128-character value is memoised changes, not its escape",
    ("_emotion_markup", ") + len", "-"):
        "a fast-path guard that holds only where the original does: _check_names runs more",
    ("load_profile", "= False def", "True"):
        "expat reports text only inside the root, after start_element has set it",
}
#: pytest's options for every run, with ``-x`` or without.
PYTEST_ARGS = (
    "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "--hypothesis-profile=mutants",
)
_SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_work",
)


def functions(tree: ast.Module) -> list[tuple[int, int, str]]:
    """(first line, last line, qualified name) of every def and class, decorators included."""
    spans = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                spans.append((first, child.end_lineno, name))
                walk(child, name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return spans


def mutants(source: str):
    """(function, line, old, new, context, mutated source) for each swap that compiles."""
    lines = source.splitlines(keepends=True)
    spans = functions(ast.parse(source))
    tokens = [
        t for t in tokenize.generate_tokens(iter(lines).__next__)
        if t.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT, tokenize.INDENT,
                          tokenize.DEDENT)
    ]
    for i, tok in enumerate(tokens):
        new = SWAPS.get(tok.string)
        if new is None or tok.type not in (tokenize.OP, tokenize.NAME, tokenize.NUMBER):
            continue
        (row, col), (_, end) = tok.start, tok.end
        text = lines[row - 1]
        mutated = "".join(lines[: row - 1] + [text[:col] + new + text[end:]] + lines[row:])
        try:
            compile(mutated, "<mutant>", "exec")
        except SyntaxError:
            continue
        inside = [(first, name) for first, last, name in spans if first <= row <= last]
        function = max(inside)[1] if inside else "<module>"
        context = " ".join(t.string for t in tokens[max(i - 1, 0) : i + 2])
        yield function, row, tok.string, new, context, mutated


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


def run_tests(copy: Path, tests: list[str], timeout: float | None, *options: str):
    """(every test id, the ids that fail or error) of a pytest run over ``tests`` in the copy.

    It gives None when the run times out, and the exit code as the failing id
    when a run fails with no test failing, or writes no report.
    """
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    report = copy / "report.xml"
    report.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", *options, *PYTEST_ARGS, f"--junitxml={report}", *tests]
    try:
        done = subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    text = report.read_text(encoding="utf-8") if report.exists() else "<testsuites />"
    failing = killers(text, tests)
    if done.returncode and not failing:
        failing = [f"pytest exit {done.returncode}"]
    return list(dict.fromkeys(test for test, _ in outcomes(text, tests))), failing


def runs(module: str, *options: str):
    """Run pytest with ``options`` over ``module``'s test files, unmutated and then per mutant.

    It first yields the ids of the tests the unmutated tree runs, and exits 2
    if any fails.  Then it yields ``((function, line, old, new, context),
    killers)`` for each mutant, in the order of ``mutants``.
    """
    tests = TESTS[module]
    source = (ROOT / module).read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory(prefix="earlkit-mutants-") as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        started = time.monotonic()
        every, failing = run_tests(copy, tests, None, *options)
        if failing or not every:
            print(f"{module}: the unmutated tree fails: {failing}", file=sys.stderr)
            raise SystemExit(2)
        timeout = max(60.0, 5 * (time.monotonic() - started))
        yield every
        for function, line, old, new, context, mutated in mutants(source):
            (copy / module).write_text(mutated, encoding="utf-8")
            # A stall that does not repeat is not the mutant's doing: run it again.
            done = run_tests(copy, tests, timeout, *options) or run_tests(
                copy, tests, timeout, *options
            )
            yield (function, line, old, new, context), (
                done[1] if done else [f"timeout after {timeout:.0f} s"]
            )


def module_arg(doc: str) -> str:
    """The one argument, a module of ``TESTS``; any other is a usage error (exit 2)."""
    parser = argparse.ArgumentParser(description=doc.split("\n", 1)[0])
    parser.add_argument("module", help="the module to mutate, e.g. src/earlkit/needs.py")
    module = Path(os.path.relpath(Path(parser.parse_args().module).resolve(), ROOT)).as_posix()
    if module not in TESTS:
        parser.error(f"{module} is not one of {', '.join(TESTS)}")
    return module


def main() -> int:
    module = module_arg(__doc__)
    started = time.monotonic()
    run = runs(module, "-x")
    next(run)
    rows = []
    for (function, line, old, new, context), killed in run:
        reason = EQUIVALENT.get((function, context, new))
        verdict = f"killed-by {killed[0]}" if killed else "survived"
        if not killed and reason:
            verdict += f" (equivalent: {reason})"
        print(f"{function}:{line} {old} -> {new} ({context}) {verdict}", flush=True)
        rows.append((killed, reason))
    survived = [reason for killed, reason in rows if not killed]
    gaps = sum(1 for reason in survived if not reason)
    print(
        f"{module}: {len(rows)} mutants, {len(rows) - len(survived)} killed, "
        f"{len(survived) - gaps} equivalent, {gaps} unexplained, "
        f"{time.monotonic() - started:.0f} s"
    )
    return 1 if gaps else 0


if __name__ == "__main__":
    sys.exit(main())
