"""Cold iteration, run in a fresh interpreter from the repository root.

    python3 perfbench/cold.py <workload> <inputs dir> <output dir>

Imports zenon, builds the workload from its generated inputs (which does
no numerical work) and times its first iteration, so that the time holds
everything a fresh process pays on its first call, BLAS thread start-up
included.  Prints {"seconds": ..., "failed": {op: message}} as its last
line; run.py checks the outputs.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, "src")

import workloads  # noqa: E402

name, inputs, out = sys.argv[1:]
workload = workloads.WORKLOADS[name](Path(inputs))
start = time.perf_counter()
failed = workload.run(Path(out))
seconds = time.perf_counter() - start
print(json.dumps({"seconds": seconds, "failed": failed}))
