"""Set-up probe, run in a fresh interpreter from the repository root.

    python3 perfbench/probe.py scenario:<path> ... matrix:<path> ...

Imports zenon.cli and loads (and so validates) each input the way a CLI
invocation does.  run.py times the whole process from outside; that time
is the set-up every `zenon` invocation pays before it does any work.
"""

import sys

sys.path.insert(0, "src")

import zenon.cli  # noqa: E402
from zenon.linalg import is_hermitian  # noqa: E402

for spec in sys.argv[1:]:
    kind, path = spec.split(":", 1)
    if kind == "scenario":
        zenon.cli.load_scenario(path)
    elif not is_hermitian(zenon.cli.load_matrix_file(path)):
        sys.exit(f"{path} is not Hermitian")
