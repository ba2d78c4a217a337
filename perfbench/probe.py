"""Time one set-up of a workload in this fresh interpreter.

Set-up is the import of cyclolog, the construction of the workload's
contexts and one warm-up op.  The warm-up input is generated before the
clock starts.  Prints the seconds it took.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys
import time

import harness

workload, seed = sys.argv[1], int(sys.argv[2])
warm, _ = harness.generate(workload, seed, 0)
harness.use_source()
start = time.perf_counter()
ops = harness.Ops(workload, in_process=True)
out = ops.prepare(warm)()
elapsed = time.perf_counter() - start
if not ops.check(warm, out):
    sys.exit(f"error: warm-up op failed its check: {harness.Ops.render(out)[:200]}")
print(repr(elapsed))
