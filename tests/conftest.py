import os
from pathlib import Path

# ``pythonpath`` in pyproject.toml puts ``src`` on this process's path only;
# the tests that start a child interpreter need it on the child's path too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    outcome = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {name}: {outcome}", flush=True)
