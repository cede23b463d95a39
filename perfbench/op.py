"""Child-process entry for one benchmark operation.

    python3 perfbench/op.py laws SEED OUT_JSON
    python3 perfbench/op.py --trace SPANS_JSON cli run --config ... --seed ...
    python3 perfbench/op.py --trace SPANS_JSON laws SEED OUT_JSON

``laws`` is the library operation of the analytics workload: density
recovery for the double-sided, one-sided and i.d. laws at the fig3 operating
point, as in the README's library example, then a batch of cold single-point
evaluations like the ``stieltjes`` subcommand makes (points drawn from SEED).
With ``--trace`` the operation runs with spans recorded and writes them to
SPANS_JSON when it ends. Untraced CLI operations do not come through here:
the benchmark runs ``python3 -m mimospectra.cli`` directly.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from pathlib import Path

DENSITY_EPS = 1e-4
COLD_POINTS = 8
COLD_IM = 1e-3
# fig3 operating point: M=400, K=5, L=4, N=1000, P=200, -10/-16 dB
M, K, L, N, P = 400, 5, 4, 1000, 200
P_SIGNAL, P_INTERFERENCE = 10.0 ** -1.0, 10.0 ** -1.6


def laws(seed: int, out_path: Path) -> int:
    import numpy as np
    from mimospectra import rmt
    from mimospectra.channel import SystemParams

    system = SystemParams(num_antennas=M, users_per_cell=K, num_cells=L,
                          block_length=N, aoa_counts=(P,), signal_power=P_SIGNAL,
                          interference_power=P_INTERFERENCE, noise_enabled=False,
                          scenario="identical_aoas")
    double = rmt.DoubleSidedParams.from_system(system)
    signal = rmt.OneSidedParams.signal(system)
    alpha, gamma = K / M, K / N
    # law -> (G(s), residual(s, G)); looked up through the rmt namespace at
    # call time so a traced run sees the calls
    table = {
        "double_sided": (lambda s: rmt.stieltjes_double_sided(s, double),
                         lambda s, g: rmt.double_sided_residual(s, g, double)),
        "one_sided": (lambda s: rmt.stieltjes_onesided(s, signal),
                      lambda s, g: rmt.onesided_residual(s, g, signal)),
        "iid": (lambda s: rmt.stieltjes_iid_limit(s, P_SIGNAL, alpha, gamma),
                lambda s, g: rmt.iid_limit_residual(s, g, P_SIGNAL, alpha, gamma)),
    }
    xs = np.linspace(0.002, 0.25, 400)
    rng = np.random.default_rng(seed)
    out = {"grid": [float(xs[0]), float(xs[-1]), len(xs)], "eps": DENSITY_EPS,
           "gamma": gamma, "laws": {}}
    for name, (g_fn, residual) in table.items():
        density = rmt.density_from_stieltjes(g_fn, xs, eps=DENSITY_EPS)
        cold = []
        for x in rng.uniform(xs[0], xs[-1], COLD_POINTS):
            s = complex(x, COLD_IM)
            g = complex(g_fn(s))
            cold.append([s.real, s.imag, g.real, g.imag, float(residual(s, g))])
        out["laws"][name] = {"mass": float(np.trapezoid(density, xs)),
                             "min": float(density.min()),
                             "peak": float(density.max()), "cold": cold}
    out_path.write_text(json.dumps(out))
    return 0


def _dispatch(argv: list[str]) -> int:
    if argv[0] == "laws":
        return laws(int(argv[1]), Path(argv[2]))
    from mimospectra import cli
    return cli.main(argv[1:])


def main(argv: list[str]) -> int:
    if argv[0] != "--trace":
        return _dispatch(argv)
    spans_path, argv = Path(argv[1]), argv[2:]
    t0 = time.perf_counter()
    import mimospectra.cli  # noqa: F401  (timed: the CLI's import cost)
    import_s = time.perf_counter() - t0

    from tracer import Tracer, count_warnings
    tracer = Tracer(run_id=" ".join(argv))
    tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            return _dispatch(argv)
    finally:
        spans_path.write_text(json.dumps({
            "import_s": import_s, "spans": tracer.spans, "counts": tracer.counts,
            "warnings": count_warnings([str(w.message) for w in caught])}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
