"""Mutation run over one earlkit module: does some test fail on each small change?

    python3 tools/mutants.py src/earlkit/needs.py

Each mutant swaps one token of the module (see ``SWAPS``): a comparison,
``+``/``-``, ``*``/``/``, ``and``/``or``, ``True``/``False`` or
``0.0``/``1.0``, or it drops a ``not`` (``not in`` reads ``in``, ``is not``
``is``).  A swap that does not compile is skipped.  The tree is
copied to a scratch directory once, and each mutant in turn is written into
the copy and run under ``pytest -x`` over the module's test files (see
``TESTS``, which lists every module; any other is a usage error), with a fixed
Hypothesis seed and no example database left from the run before.  One line
per mutant:

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
#: pytest's options for every mutant run, ``tools/killmatrix.py``'s too.
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


def run_pytest(copy: Path, tests: list[str], timeout: float | None, *options: str):
    """pytest's finished run over ``tests`` in the copy, or None when it times out."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", *options, *PYTEST_ARGS, *tests]
    try:
        return subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None


def run_tests(copy: Path, tests: list[str], timeout: float | None) -> str | None:
    """The first failing test's id, or None when every test passes."""
    done = run_pytest(copy, tests, timeout, "-x")
    if done is None:
        return f"timeout after {timeout:.0f} s"
    if done.returncode == 0:
        return None
    for line in done.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            kind, test = line.split()[:2]
            return test if kind == "FAILED" else f"{test} (error)"
    return f"pytest exit {done.returncode}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("module", help="the module to mutate, e.g. src/earlkit/needs.py")
    args = parser.parse_args()
    relative = Path(os.path.relpath(Path(args.module).resolve(), ROOT))
    tests = TESTS.get(relative.as_posix())
    if tests is None:
        parser.error(f"{args.module} is not one of {', '.join(TESTS)}")
    source = (ROOT / relative).read_text(encoding="utf-8")
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="earlkit-mutants-") as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        baseline = run_tests(copy, tests, None)
        if baseline is not None:
            print(f"the unmutated tree fails: {baseline}", file=sys.stderr)
            return 2
        timeout = max(60.0, 5 * (time.monotonic() - started))
        rows = []
        for function, line, old, new, context, mutated in mutants(source):
            (copy / relative).write_text(mutated, encoding="utf-8")
            killer = run_tests(copy, tests, timeout)
            reason = EQUIVALENT.get((function, context, new))
            verdict = f"killed-by {killer}" if killer else "survived"
            if not killer and reason:
                verdict += f" (equivalent: {reason})"
            print(f"{function}:{line} {old} -> {new} ({context}) {verdict}", flush=True)
            rows.append((killer, reason))
    survived = [reason for killer, reason in rows if not killer]
    gaps = sum(1 for reason in survived if not reason)
    print(
        f"{relative}: {len(rows)} mutants, {len(rows) - len(survived)} killed, "
        f"{len(survived) - gaps} equivalent, {gaps} unexplained, "
        f"{time.monotonic() - started:.0f} s"
    )
    return 1 if gaps else 0


if __name__ == "__main__":
    sys.exit(main())
