#!/usr/bin/env python3
"""Check that the benchmark's count metrics repeat exactly.

    python3 perfbench/repeat_check.py

Runs every workload traced, for one second, twice with seed 1 and once
with seed 2.  ``machine.configs.*`` and ``machine.store_cut.share`` must be
identical between the two runs with the same seed, and also under the
second seed, except on check-mutants, whose mutants come from the seed.
Exits 1 when a count differs where it must not.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNTS = ("machine.configs.accepted", "machine.configs.rejected",
          "machine.store_cut.share")
SEEDS = (1, 2)
SECONDS = "1"
SEED_DEPENDENT = {"check-mutants"}


def counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=HERE.parent)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{out.stderr}")
    return {k: result["metrics"][k]["value"] for k in COUNTS}


def main() -> int:
    seed, other = SEEDS
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import WORKLOADS
    ok = True
    for workload in WORKLOADS:
        first = counts(workload, seed)
        again = counts(workload, seed)
        second = counts(workload, other)
        same_seed = first == again
        other_seed = first == second or workload in SEED_DEPENDENT
        ok &= same_seed and other_seed
        print(f"{workload}: seed {seed} twice {'equal' if same_seed else 'DIFFER'}, "
              f"seed {other} {'equal' if first == second else 'differs'}"
              f"{'' if other_seed else ' (NOT ALLOWED)'}")
        for key in COUNTS:
            print(f"  {key}: {first[key]} {again[key]} {second[key]}")
    print("counts repeat" if ok else "COUNTS DO NOT REPEAT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
