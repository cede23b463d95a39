"""The benchmark's traced bindings against the package.

``perfbench/tracer.py`` rebinds named functions at the module attributes
their callers look up. A binding that no longer resolves crashes every traced
operation, and one the package stops calling leaves an expected span empty;
these tests catch both without a benchmark run. The benchmark files are only
read, never changed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from mimospectra import cli

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")

BINDINGS = sorted({b for table in (tracer.SPANS, tracer.COUNTS)
                   for bindings in table.values() for b in bindings})


@pytest.mark.parametrize("module,attr", BINDINGS)
def test_traced_binding_resolves(module, attr):
    owner, name = tracer._resolve(module, attr)
    assert callable(getattr(owner, name))


def _tiny(config: dict, **shrink) -> dict:
    return dict(config, ratios_db=config["ratios_db"][:1], bits_target=1, **shrink)


def test_ber_workload_spans_record_calls(tmp_path):
    """Every expected span of the ber workload sees a call when small copies
    of its two configs run through the CLI."""
    bindings = [b for table in (tracer.SPANS, tracer.COUNTS)
                for bs in table.values() for b in bs]
    saved = [(owner, name, getattr(owner, name))
             for owner, name in (tracer._resolve(m, a) for m, a in bindings)]
    t = tracer.Tracer("contract")
    try:
        t.install()
        configs = [_tiny(workloads.BER_WIDE, num_antennas=40, aoa_counts=[20],
                         m_values=[40]),
                   _tiny(workloads.BER_SHORT, num_antennas=40, n_values=[30])]
        for i, config in enumerate(configs):
            path = tmp_path / f"op{i}.json"
            path.write_text(json.dumps(config))
            cfg = cli.load_config(None, str(path), "paper", {"seed": 7})
            cli.run_preset(cfg, tmp_path / f"out{i}")
    finally:
        for owner, name, fn in reversed(saved):
            setattr(owner, name, fn)
    called = {span[0] for span in t.spans} | {n for n, c in t.counts.items() if c}
    missing = set(workloads.WORKLOADS["ber"].expected_spans) - called
    assert not missing


CLI_OPS = [(name, op) for name, w in sorted(workloads.WORKLOADS.items())
           for op in w.ops if op.is_cli]


@pytest.mark.parametrize("seed", [1234, 7])
@pytest.mark.parametrize("workload,op", CLI_OPS,
                         ids=[f"{name}-{op.name}" for name, op in CLI_OPS])
def test_workload_config_parses(workload, op, seed):
    """A config check stricter than the benchmark's generated configs would
    turn its operations into failed ones."""
    cfg = cli.parse_config(dict(op.config, seed=seed))
    assert cfg["seed"] == seed and cfg["kind"] == op.config["kind"]


@pytest.mark.parametrize("scale", ["paper", "desk"])
@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_preset_parses(preset, scale):
    cfg = cli.load_config(preset, None, scale, {})
    assert cfg["label"] == preset
