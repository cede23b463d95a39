"""Span tracing from outside the program.

``Tracer.install`` rebinds each traced function at every binding its callers
actually look up: a ``from``-imported name in ``sim``, the ``rmt`` package
namespace the CLI uses, and the ``rmt.support`` module globals the support
scans' lambdas read. Patching only the defining module would record nothing.

Spans are kept in memory as ``[name, start, end, parent, run_id, points]``
records and written by the caller when the operation ends. ``aggregate``
turns the spans of a pass into per-name calls, busy time (time inside the
outermost span of that name) and self time (span time minus the time of its
direct child spans).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

import numpy as np

_SIM, _EST, _CH, _CLI = ("mimospectra.sim", "mimospectra.estimation",
                         "mimospectra.channel", "mimospectra.cli")
_RMT, _SUP, _LAWS = "mimospectra.rmt", "mimospectra.rmt.support", "mimospectra.rmt.laws"

# span name -> bindings (module, attribute); "Class.method" patches a method
SPANS = {
    "channel.realize_channel": [(_CH, "realize_channel"), (_SIM, "realize_channel")],
    # sim's direct symbol and noise draws; the draws inside realize_channel
    # stay part of that span
    "channel.crandn": [(_SIM, "crandn")],
    "rmt.support_onesided": [(_RMT, "support_onesided"), (_SUP, "support_onesided")],
    "rmt.support_double_sided": [(_RMT, "support_double_sided"),
                                 (_SUP, "support_double_sided")],
    "rmt.support_iid": [(_RMT, "support_iid"), (_SUP, "support_iid")],
    "rmt.support_distinct": [(_RMT, "support_distinct"), (_SUP, "support_distinct")],
    "rmt.stieltjes": [(m, f) for m in (_RMT, _LAWS)
                      for f in ("mp_stieltjes", "stieltjes_onesided",
                                "stieltjes_iid_limit", "stieltjes_double_sided")],
    "rmt.density_from_stieltjes": [(_RMT, "density_from_stieltjes"),
                                   (_LAWS, "density_from_stieltjes")],
    "estimation.estimate_subspace_channel": [(_EST, "estimate_subspace_channel"),
                                             (_SIM, "estimate_subspace_channel")],
    "estimation.pilot_based_detect": [(_EST, "pilot_based_detect"),
                                      (_SIM, "pilot_based_detect")],
    "estimation.mf_detect": [(_EST, "mf_detect"), (_SIM, "mf_detect")],
    "estimation.data_block": [(_EST, "PilotLayout.data_block")],
    "estimation.count_bit_errors": [(_EST, "count_bit_errors"),
                                    (_SIM, "count_bit_errors")],
    "sim.trial_rng": [(_SIM, "trial_rng")],
    "sim.eigen": [(_SIM, "run_eigen_experiment"), (_SIM, "run_saturation_experiment")],
    "sim.ber": [(_SIM, "run_ber_experiment"), (_SIM, "run_short_coherence_ber"),
                (_SIM, "run_distinct_aoa_ber")],
    "cli.load_config": [(_CLI, "load_config")],
    "cli.run_preset": [(_CLI, "run_preset")],
}

# called once per support-grid point: counted, not timed
COUNTS = {
    "rmt.inverse_coeffs": [(_SUP, f) for f in (
        "onesided_inverse_coeffs", "double_inverse_coeffs", "iid_inverse_coeffs",
        "distinct_inverse_coeffs")],
}

# warning counters, matched on the warning text
WARNINGS = {
    "rmt.support.warnings": ("x-grid too narrow", "could not attach"),
    "estimation.degenerate_warnings": ("degenerate singular values",),
}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts = {name: 0 for name in COUNTS}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            points = int(np.size(args[0])) if name == "rmt.stieltjes" else 0
            with self._lock:
                idx = len(self.spans)
                self.spans.append([name, time.perf_counter(), 0.0,
                                   stack[-1] if stack else -1, self.run_id, points])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                self.spans[idx][2] = time.perf_counter()
        return wrapper

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Rebind every traced function; one wrapper per original function."""
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for name, bindings in table.items():
                wrapped = {}
                for module, attr in bindings:
                    owner, attr_name = _resolve(module, attr)
                    fn = getattr(owner, attr_name)
                    if id(fn) not in wrapped:
                        wrapped[id(fn)] = make(name, fn)
                    setattr(owner, attr_name, wrapped[id(fn)])


def count_warnings(messages) -> dict[str, int]:
    return {name: sum(any(key in m for key in keys) for m in messages)
            for name, keys in WARNINGS.items()}


def aggregate(ops: list[list[list]]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s, self_s and points, summed over the span
    lists of several operations (parents index into their own list)."""
    out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "points": 0}
           for name in SPANS}
    for spans in ops:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _, points) in enumerate(spans):
            rec = out[name]
            rec["calls"] += 1
            rec["points"] += points
            rec["self_s"] += (end - start) - child_time[i]
            # busy time counts only the outermost span of a name
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                rec["busy_s"] += end - start
    return out
