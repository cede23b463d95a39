"""Search random laws and grids for walks that leave their points' descents.

    PYTHONPATH=src python3 tools/walk_search.py --cases 150 > new.json
    PYTHONPATH=../old/src python3 tools/walk_search.py --cases 150 > old.json
    PYTHONPATH=src python3 tools/walk_search.py --cases 400 --points 60 \\
        --laws onesided iid --orders shuffled

Each case draws, from seed (SEED, case), a one-sided, i.d., double-sided or
distinct law table with random dimensions and power, and a grid of POINTS
real parts on [-0.2, 2.5] times the law's power, sorted, reversed or
shuffled, at one Im s drawn log-uniformly from 1e-7 to 1e-1 of that power.
The grid is evaluated as one array, which is one walk, and each point on its
own, which is one descent. A point is off when the two differ by more than
1e-6 relative. The script prints one JSON object: the totals, and per case
its label, the points off (null when the walk raised) and the points whose
own descent raised. The package is the one ``PYTHONPATH`` finds, so the same
script searches any tree, and two trees' outputs diff case by case.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from mimospectra.errors import BranchTrackingError, ConfigError
from mimospectra.rmt import laws

LAWS = ("onesided", "iid", "double", "distinct")
ORDERS = ("sorted", "reversed", "shuffled")


def _law(rng, name: str):
    """(table, power) of a random law called ``name``."""
    k, l = int(rng.integers(1, 9)), int(rng.integers(2, 6))
    m, n, p = (int(round(10 ** rng.uniform(lo, hi)))
               for lo, hi in ((1.7, 3.3), (1.7, 3.3), (1.0, 2.6)))
    power = 10 ** rng.uniform(-3.0, 0.0)
    if name == "onesided":
        return laws.onesided_table(laws.OneSidedParams(power, k, m, n, p)), power
    if name == "iid":
        return laws.iid_table(power, k / m, k / n), power
    if name == "double":
        params = laws.DoubleSidedParams(k, l, m, n, p, power, power * 10 ** rng.uniform(-1.5, 0.0))
        return laws.double_sided_table(params), power
    return laws.distinct_table(k, l, m, n, p, power), power


def _g(table, s):
    """The law at s, or None when its evaluation raises."""
    try:
        return laws._eval_implicit(table, s)
    except (BranchTrackingError, ConfigError):
        return None


def search(cases: int, seed: int = 0, points: int = 60, law_names=LAWS,
           orders=ORDERS) -> dict:
    """The summary of ``cases`` random cases, as ``main`` prints it."""
    per_case = []
    for case in range(cases):
        rng = np.random.default_rng([seed, case])
        name, order = law_names[rng.integers(len(law_names))], orders[rng.integers(len(orders))]
        table, power = _law(rng, name)
        x = np.linspace(-0.2 * power, 2.5 * power, points)
        x = {"sorted": x, "reversed": x[::-1], "shuffled": rng.permutation(x)}[order]
        s = x + 1j * power * 10 ** rng.uniform(-7.0, -1.0)
        walk = _g(table, s)
        own = [_g(table, complex(sc)) for sc in s]
        ok = [i for i, g in enumerate(own) if g is not None]
        off = None if walk is None else int(sum(
            abs(walk[i] - own[i]) > 1e-6 * abs(own[i]) for i in ok))
        per_case.append([f"{name}/{order}", off, points - len(ok)])
    walked = [off for _, off, _ in per_case if off is not None]
    return {
        "cases": cases,
        "walk_raises": cases - len(walked),
        "raises_with_every_descent_ok": sum(off is None and not bad for _, off, bad in per_case),
        "cases_off": sum(off > 0 for off in walked),
        "points_off": sum(walked),
        "descent_raises": sum(bad for _, _, bad in per_case),
        "per_case": per_case,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", type=int, default=150)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--points", type=int, default=60, help="grid points per case")
    parser.add_argument("--laws", nargs="+", choices=LAWS, default=list(LAWS))
    parser.add_argument("--orders", nargs="+", choices=ORDERS, default=list(ORDERS))
    args = parser.parse_args(argv)
    result = search(args.cases, args.seed, args.points, args.laws, args.orders)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
