"""Record the reference outputs the benchmark's correctness gate compares against.

    python3 bench/make_reference.py [workload ...]

Runs one pass of each named workload (default: all) at every seed in
``seeds(name)`` and updates its entry in ``bench/reference.json``.
Re-record only at a commit whose outputs are trusted; a change that claims a
speed-up must leave this file alone.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run  # sets the BLAS thread variables before numpy loads
import workloads as W

# dyadic_field's outputs do not depend on the seed, and a pass takes about 6 s.
SEEDS = {"dyadic_field": range(16)}


def seeds(name: str) -> range:
    return SEEDS.get(name, range(64))


def dumps(obj, depth: int = 4, pad: int = 0) -> str:
    """JSON with the top ``depth`` levels of objects indented, the rest on one line."""
    if depth == 0 or not isinstance(obj, dict) or not obj:
        return json.dumps(obj, sort_keys=True)
    rows = [f'{" " * (pad + 1)}{json.dumps(k)}: {dumps(v, depth - 1, pad + 1)}'
            for k, v in sorted(obj.items())]
    return "{\n" + ",\n".join(rows) + "\n" + " " * pad + "}"


def main(names) -> int:
    cli_main = run.import_program()
    ref = {"workloads": {}}
    if W.REFERENCE_FILE.is_file():
        ref = json.loads(W.REFERENCE_FILE.read_text())
    out = run.OUT / f"reference-{os.getpid()}"
    for name in names or W.NAMES:
        per_seed = {}
        for seed in seeds(name):
            wl = W.make(name, run.ROOT, out, seed)
            W.prepare(wl, out)
            t0 = time.perf_counter()
            outcome = W.run_pass(cli_main, wl, out)
            ops, errors = W.read_ops(wl, out, outcome)
            if errors:
                raise SystemExit(f"{name} seed {seed}: {errors}")
            per_seed[seed] = ops
            print(f"{name} seed {seed}: {len(ops)} ops in {time.perf_counter() - t0:.2f} s",
                  file=sys.stderr)
        ref["workloads"][name] = W.build_reference(per_seed)
    shutil.rmtree(out, ignore_errors=True)
    W.REFERENCE_FILE.write_text(dumps(ref) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
