"""Time one fresh-process set-up of a workload and print it in seconds.

Set-up is importing earlkit, loading the workload's config, policy and
profile files through earlkit's public loaders, and one warm-up pass over a
small input set.  Generating that input set is not counted.  run.py starts
this script several times per run, after it has written the input files:

    PYTHONPATH=src python3 perfbench/setup_child.py WORKLOAD SEED
"""

import sys
import time

start = time.perf_counter()
import earlkit  # noqa: E402  (the import is what is being timed)

if sys.argv[1] == "cli":
    import earlkit.cli  # noqa: E402
imported = time.perf_counter()

from pathlib import Path  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
work = Path(run.WORK_DIR) / name
w = workloads.WORKLOADS[name](seed, small=True)
tally = workloads.Tally()

resumed = time.perf_counter()
w.load(earlkit, work)
if name == "cli":
    w.warm_up(earlkit.cli, work)
else:
    outcomes = []
    layers = w.plain
    w.begin_pass(layers)
    for item in w.pool:
        outcomes.append(w.op(layers, item, None)[3])
done = time.perf_counter()

if name != "cli":
    for item, outcome in zip(w.pool, outcomes):
        tally.record(w.check(item, outcome))
if tally.failed:
    print(f"setup warm-up failed: {tally.messages}", file=sys.stderr)
    sys.exit(1)
print(repr((imported - start) + (done - resumed)))
