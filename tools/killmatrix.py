"""Kill matrix of one earlkit module: which tests fail on each mutant?

    python3 tools/killmatrix.py src/earlkit/needs.py > needs.json

It runs the loop of ``tools/mutants.py`` (``runs``) without ``-x``: each
mutant runs every test of the module's test files, and the ``--junitxml``
report names every test that fails or errors.  The JSON on stdout maps the
module to the ids of the tests run on the unmutated tree (``tests``) and to
its mutants, each with the tests that kill it in pytest's
``tests/test_x.py::TestY::test_z[p]`` form (``killers``; a file that fails to
collect is named by its path, a run without a failing test by its cause).  A
line per mutant goes to stderr.  A module takes from minutes to most of an
hour, so it is not part of the test suite.
"""

from __future__ import annotations

import json
import sys
import time

from mutants import EQUIVALENT, module_arg, runs


def main() -> int:
    module = module_arg(__doc__)
    started = time.monotonic()
    run = runs(module)
    tests, rows = next(run), []
    for (function, line, old, new, context), killers in run:
        rows.append({
            "function": function, "line": line, "old": old, "new": new, "context": context,
            "equivalent": (function, context, new) in EQUIVALENT, "killers": killers,
        })
        print(f"{function}:{line} {old} -> {new} ({context}) {len(killers)} killers",
              file=sys.stderr, flush=True)
    print(json.dumps({module: {"tests": tests, "mutants": rows}}, indent=1))
    print(f"{module}: {len(rows)} mutants, {len(tests)} tests, "
          f"{time.monotonic() - started:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
