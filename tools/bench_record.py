"""Record one benchmark run as ``BENCH_<date>_<label>.json``.

    python3 tools/bench_record.py --workload ber --seed 1234 --seconds 50 --label after

Runs ``perfbench/run.py --workload W --seed S --seconds T`` from the root of
the checkout this file sits in and writes, at that root, the run's
``environment`` line, the per-operation and setup medians with their
quartiles, and the final JSON line (metrics, attempted, failed). The date is
the UTC date of the run. The benchmark's own output is echoed unchanged.
"""

from __future__ import annotations

import argparse
import datetime
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# "  op fig7: n=6 median=4.1700 s q1=4.1000 q3=4.2500" and "  setup: ..."
_STAT = re.compile(r"^\s+(?:op (?P<op>\S+)|setup): n=(?P<n>\d+) median=(?P<median>\S+) s "
                   r"q1=(?P<q1>\S+) q3=(?P<q3>\S+)$")


def parse(output: str) -> dict:
    """The environment, per-op and setup statistics and the result of one
    ``perfbench/run.py`` report; raises ValueError when a part is missing."""
    lines = output.strip().splitlines()
    env = [json.loads(line.split(" ", 1)[1]) for line in lines
           if line.startswith("environment ")]
    if len(env) != 1:
        raise ValueError("expected one environment line in the benchmark output")
    ops, setup = {}, None
    for line in lines:
        m = _STAT.match(line)
        if m:
            stats = {"n": int(m["n"]), "median_s": float(m["median"]),
                     "q1_s": float(m["q1"]), "q3_s": float(m["q3"])}
            if m["op"] is None:
                setup = stats
            else:
                ops[m["op"]] = stats
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise ValueError("the last line of the benchmark output is not JSON") from exc
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("the benchmark's JSON line has no metrics")
    return {"environment": env[0], "ops": ops, "setup": setup, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        print("--label may hold only letters, digits, '_', '.' and '-'", file=sys.stderr)
        return 2

    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", f"{args.seconds:g}"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"benchmark exited with code {proc.returncode}; nothing written",
              file=sys.stderr)
        return proc.returncode
    try:
        record = parse(proc.stdout)
    except ValueError as exc:
        print(f"unreadable benchmark output: {exc}", file=sys.stderr)
        return 1
    date = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d")
    record = {"command": " ".join(cmd[1:]), "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds, "label": args.label,
              "date": date, **record}
    path = ROOT / f"BENCH_{date}_{args.label}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
