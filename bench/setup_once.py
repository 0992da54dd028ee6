"""One set-up in a fresh interpreter: import `cap`, then build one workload's inputs.

    python3 bench/setup_once.py <workload> <seed> <size>

Prints `ready` once the inputs are built. run.py times this process from its
start until that line, so every set-up sample pays the interpreter's start,
every import `cap` makes and the input generation. `cap` is imported before
any module of the benchmark, so an import that `cap` adds shows in the time
even when the benchmark would load the same module later.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import cap.conformance  # noqa: E402  (every module the workloads call, before the benchmark's own imports)
import cap.generators  # noqa: E402
import cap.program  # noqa: E402
import workloads  # noqa: E402

name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
workloads.WORKLOADS[name](workloads.load_cap(), seed, size)
print("ready", flush=True)
