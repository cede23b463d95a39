"""Write ``references/<workload>.json`` from the program in ``src/``.

    python3 perfbench/make_references.py [WORKLOAD ...]

Runs one untraced pass of each workload for the default and the held-out
seed and stores the seed-independent digest parts once and the per-seed
parts (payload sha256, BER tables) per seed. Regenerate only when a change
is meant to alter outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
from run import BENCH_DIR, Bench
from workloads import WORKLOADS


def main(names: list[str]) -> int:
    for name in names or sorted(WORKLOADS):
        ref = {"ops": {}, "seeds": {}}
        for seed in checks.STORED_SEEDS:
            work = BENCH_DIR / ".work" / f"references-{name}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                bench = Bench(WORKLOADS[name], seed, work, reference=None)
                results = [bench.run_op(op) for op in WORKLOADS[name].ops]
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if bench.failures:
                print("\n".join(bench.failures), file=sys.stderr)
                return 1
            per_seed = {}
            for op, res in zip(WORKLOADS[name].ops, results):
                shared, per_seed[op.name] = checks.reference_entry(res.digest)
                if ref["ops"].setdefault(op.name, shared) != shared:
                    print(f"{name}/{op.name}: seed-independent output differs "
                          f"between seeds", file=sys.stderr)
                    return 1
            ref["seeds"][str(seed)] = per_seed
        path = BENCH_DIR / "references" / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(BENCH_DIR.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
