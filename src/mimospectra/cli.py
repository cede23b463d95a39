"""Experiment runner CLI.

Subcommands:

* ``run``       -- execute a named preset (or explicit JSON config) and write
                  a result envelope plus plot-data CSVs.
* ``support``   -- evaluate a support-boundary solver for a params file.
* ``stieltjes`` -- evaluate one law at one complex point.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import json
import math
import os
import sys
import time
import typing
from pathlib import Path

import numpy as np

from . import __version__, rmt, sim
from .channel import SystemParams
from .errors import ConfigError, NumericalError


def _key_types(target, optional: bool) -> dict:
    """Key types of the annotated arguments of a function or dataclass; one
    with a default is optional (an absent key takes the target's default) or,
    with ``optional=False``, not accepted."""
    hints = typing.get_type_hints(target)
    return {name: hints[name] if p.default is p.empty else (hints[name], None)
            for name, p in inspect.signature(target).parameters.items()
            if name in hints and (optional or p.default is p.empty)}


_SYSTEM_TYPES = _key_types(SystemParams, optional=True)
_DB_KEYS = {"signal_power_db", "interference_power_db"}
_POWERS = ("signal_power", "interference_power")
_COMMON_TYPES = {"kind": str, "label": (str, None), "seed": (int, 1234),
                 **{k: t for k, t in _SYSTEM_TYPES.items() if k not in _POWERS}}
# linear or dB powers, for the kinds that take them; a BER kind sets p_signal
# from snr_db and p_interference from each ratios_db point instead
_POWER_TYPES = {**{k: _SYSTEM_TYPES[k] for k in _POWERS},
                **dict.fromkeys(_DB_KEYS, (float, None))}
_JSON_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string"}


def _as_type(val, t, where: str):
    """``val`` as type ``t``, or a ConfigError naming ``where``: a bool is not
    a number, an int is also a float, a float is finite, a list type (a
    sweep) is a non-empty JSON list of its element type and a tuple type a
    possibly empty one."""
    elem, origin = typing.get_args(t)[:1], typing.get_origin(t)
    if elem and isinstance(val, list) and (val or origin is tuple):
        return origin(_as_type(v, elem[0], f"{where}[{i}]") for i, v in enumerate(val))
    if not elem and isinstance(val, bool) == (t is bool) and isinstance(
            val, (int, float) if t is float else t):
        try:
            if t is not float or math.isfinite(val):
                return float(val) if t is float else val
        except OverflowError:
            pass
    name = (f"{'non-empty ' if origin is list else ''}list of {_JSON_NAMES[elem[0]]}s"
            if elem else _JSON_NAMES[t])
    raise ConfigError(f"{where}={val!r}; expected {name}")


def _linear(x_db: float, where: str, times: float = 1.0) -> float:
    """times * 10^(x_db / 10), or a ConfigError naming ``where`` when that
    overflows a float."""
    try:
        out = times * sim.db_to_linear(x_db)
    except OverflowError:
        out = math.inf
    if math.isinf(out):
        raise ConfigError(f"{where}={x_db!r} dB overflows a float")
    return out


def _checked(raw: dict, types: dict, where: str) -> dict:
    """``raw`` with its values converted to their key types and defaults filled
    in.  ``types`` maps a key to T (required), (T, default) or (T, None)
    (optional, no default)."""
    unknown = set(raw) - set(types)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    out = {key: _as_type(val, types[key][0] if isinstance(types[key], tuple) else types[key],
                         f"{where}.{key}") for key, val in raw.items()}
    for key, spec in types.items():
        if not isinstance(spec, tuple) and key not in out:
            raise ConfigError(f"{where}.{key} is required but missing")
        if isinstance(spec, tuple) and spec[1] is not None:
            out.setdefault(key, spec[1])
    return out


def _preset_table() -> dict[str, dict]:
    """Paper-scale preset configs; desk scale halves M and the AoA counts."""
    base = dict(scenario="identical_aoas", num_antennas=400, users_per_cell=5,
                num_cells=4, block_length=1000, aoa_counts=[200],
                signal_power_db=-10.0, interference_power_db=-16.0,
                noise_enabled=False, spacing_ratio=2.0)
    ratios = [-12.0, -10.5, -9.0, -7.5, -6.0, -4.5, -3.0, -1.5, 0.0]
    table = {
        "fig1": dict(base, kind="support_plot", modes=["onesided", "iid"]),
        "fig2": dict(base, kind="support_plot", modes=["double", "iid"]),
        "fig3": dict(base, kind="eigen", trials=20),
        "fig4": dict(base, kind="saturation", num_aoas=100, m_physical=600,
                     trials=500),
        "fig5": dict(base, kind="eigen", scenario="distinct_aoas",
                     aoa_counts=[200, 200, 200, 200], trials=20),
        "fig6": dict(base, kind="eigen", scenario="distinct_aoas",
                     aoa_counts=[200, 200, 200, 20], trials=20),
        "fig7": dict(kind="ber", scenario="identical_aoas", num_antennas=400,
                     users_per_cell=5, num_cells=4, block_length=400,
                     aoa_counts=[200], noise_enabled=True, spacing_ratio=0.5,
                     snr_db=-5.0, ratios_db=ratios, bits_target=200_000,
                     m_values=[200, 400, 600]),
        "fig8": dict(kind="ber_distinct", scenario="distinct_aoas", num_antennas=400,
                     users_per_cell=5, num_cells=4, block_length=400,
                     aoa_counts=[100, 100, 100, 100], noise_enabled=True,
                     spacing_ratio=0.5, snr_db=-5.0, ratios_db=ratios,
                     bits_target=200_000, p4_values=[10, 20, 50, 100]),
        "fig9": dict(kind="ber_short", scenario="iid", num_antennas=400,
                     users_per_cell=15, num_cells=4, block_length=120,
                     noise_enabled=True, spacing_ratio=0.5, snr_db=0.0,
                     ratios_db=ratios, bits_target=200_000, n_values=[30, 60, 120]),
        "intro-ratio": dict(kind="ber_aoa", scenario="identical_aoas",
                            num_antennas=200, users_per_cell=5, num_cells=2,
                            block_length=400, aoa_counts=[100], noise_enabled=True,
                            spacing_ratio=0.5, snr_db=0.0, ratios_db=ratios,
                            bits_target=200_000, p_values=[25, 50, 100],
                            include_iid=True),
    }
    table["intro-saturation"] = dict(table["fig7"])
    for name, cfg in table.items():
        cfg["label"] = name
    return table


PRESETS = _preset_table()


def _desk_scale(cfg: dict) -> dict:
    """The preset with each key of the floors table halved (each element of a
    list), but not below its floor."""
    k = cfg.get("users_per_cell", 1)  # an AoA count keeps one AoA per user of a cell
    floors = dict(num_antennas=1, m_physical=1, m_values=1, aoa_counts=k, num_aoas=k,
                  p_values=k, p4_values=k, trials=2, bits_target=10_000)
    out = dict(cfg)
    for key in floors.keys() & cfg.keys():
        val, floor = cfg[key], floors[key]
        out[key] = ([max(floor, v // 2) for v in val] if isinstance(val, list)
                    else max(floor, val // 2))
    return out


def _load_json_object(path: str, what: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} file {path} holds a {type(raw).__name__}, not a JSON object")
    return raw


def parse_config(raw: dict) -> dict:
    """Check a raw config against its kind's key types and fill defaults."""
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError(f"config.kind={kind!r}; expected one of {sorted(KINDS)}")
    for power in _POWERS:
        if power in raw and f"{power}_db" in raw:
            raise ConfigError(f"config gives both {power} and {power}_db; expected one")
    cfg = {k[:-3] if k in _DB_KEYS else k: _linear(v, f"config.{k}") if k in _DB_KEYS else v
           for k, v in _checked(raw, {**_COMMON_TYPES, **KINDS[kind][0]}, "config").items()}
    if cfg["seed"] < 0:
        raise ConfigError(f"config.seed={cfg['seed']!r}; expected a non-negative integer")
    cfg.setdefault("label", kind)
    # the label names the output files inside --out
    if cfg["label"] in ("", ".", "..") or any(c in (os.sep, os.altsep) for c in cfg["label"]):
        raise ConfigError(f"config.label={cfg['label']!r}; expected a file name other "
                          "than '', '.' and '..', without a path separator")
    if "snr_db" in cfg:  # the BER kinds: p_signal = 10^(SNR/10) against unit noise
        cfg["signal_power"] = cfg["interference_power"] = _linear(cfg["snr_db"],
                                                                  "config.snr_db")
        for i, ratio_db in enumerate(cfg["ratios_db"]):  # p_interference of each point
            _linear(ratio_db, f"config.ratios_db[{i}]", cfg["signal_power"])
    # build SystemParams early so dimension errors surface as config errors
    cfg["_system"] = SystemParams(**{k: cfg[k] for k in _SYSTEM_TYPES if k in cfg})
    return cfg


def load_config(preset: str | None, config_path: str | None, scale: str,
                overrides: dict) -> dict:
    """The checked config of a preset, a config file and ``--set`` overrides,
    each layer over the ones before it."""
    if preset is None and config_path is None:
        raise ConfigError("either --preset or --config is required")
    if preset is None and scale == "desk":
        raise ConfigError("--scale desk halves a preset; it needs --preset")
    layers = []
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
        layers.append(_desk_scale(PRESETS[preset]) if scale == "desk" else PRESETS[preset])
    if config_path is not None:
        layers.append(_load_json_object(config_path, "config"))
    layers.append(overrides)
    raw: dict = {}
    for layer in layers:
        for power in _POWERS:  # a layer that gives a power replaces both its forms
            if power in layer or f"{power}_db" in layer:
                raw.pop(power, None)
                raw.pop(f"{power}_db", None)
        raw.update(layer)
    return parse_config(raw)


# ---------------------------------------------------------------------------
# payload builders
# ---------------------------------------------------------------------------

def _support_payload(sup: rmt.SpectralSupport):
    return [[lo, hi] for lo, hi in sup.intervals]


def _eigen_payload(samples: list[np.ndarray], supports: dict) -> dict:
    payload = {
        "samples_per_trial": [s.tolist() for s in samples],
        "supports": {name: _support_payload(sup) for name, sup in supports.items()},
    }
    for sup in supports.values():
        if sup.truncation is not None:
            payload["truncation"] = sup.truncation
    return payload


def _ber_payload(results: dict[str, list[sim.BerPoint]]) -> dict:
    return {scheme: [dataclasses.asdict(p) for p in points]
            for scheme, points in results.items()}


def _run_eigen(cfg: dict, params: SystemParams) -> dict:
    samples = sim.run_eigen_experiment(params, cfg["trials"], cfg["seed"], terms=cfg["terms"])
    return {"eigen": _eigen_payload(samples, sim.overlays(params, cfg["terms"]))}


def _run_saturation(cfg: dict, params: SystemParams) -> dict:
    phys, iid = sim.run_saturation_experiment(cfg["num_aoas"], cfg["m_physical"], params,
                                              cfg["trials"], cfg["seed"])
    return {"saturation": {"physical": _eigen_payload(phys, {}),
                           "iid": _eigen_payload(iid, {})}}


# support_plot mode -> the sim.law_support names it writes; a run without
# interference leaves every interference law out and refuses the joint law
_SUPPORT_MODES = {"onesided": ("one_sided_signal", "one_sided_interference"),
                  "double": ("double_sided",), "iid": ("iid_signal", "iid_interference")}


def _run_support_plot(cfg: dict, params: SystemParams) -> dict:
    for mode in cfg["modes"]:
        if mode not in _SUPPORT_MODES:
            raise ConfigError(f"unknown support mode {mode!r}")
    if "double" in cfg["modes"] and not sim.has_interference(params):
        raise ConfigError("support mode 'double' needs an interfering cell: "
                          "num_cells >= 2 and interference_power > 0")
    out = {}
    for mode in cfg["modes"]:
        for name in _SUPPORT_MODES[mode]:
            if name.endswith("_interference") and not sim.has_interference(params):
                continue
            sup = sim.law_support(params, name)
            out[name.replace("one_sided", "onesided")] = _support_payload(sup)
            if sup.truncation is not None:
                out["truncation_flags"] = sup.truncation["flags"]
    return {"supports": out}


def _ber_runner(family):
    """Runner for a BER kind: one ``sim.run_ber_sweep`` over the labelled
    SystemParams variants that ``family(cfg, params)`` builds."""
    def run(cfg: dict, params: SystemParams) -> dict:
        results = sim.run_ber_sweep(family(cfg, params), cfg["ratios_db"],
                                    cfg["bits_target"], cfg["seed"])
        return {"ber": {label: _ber_payload(res) for label, res in results.items()}}
    return run


def _iid(params: SystemParams) -> dict[str, SystemParams]:
    """The i.d. reference family of a BER sweep (an i.d. run is its own)."""
    return {"iid": dataclasses.replace(params, scenario="iid", aoa_counts=())}


def _aoa_family(cfg: dict, params: SystemParams) -> dict[str, SystemParams]:
    """ber_aoa family: the shared AoA count set to each P, and the i.d. reference."""
    if params.scenario == "iid":
        raise ConfigError("AoA-count sweep (p_values) needs AoAs; scenario 'iid' has none")
    return {**{f"P={c}": dataclasses.replace(params, aoa_counts=(c,) * params.num_cells)
               for c in cfg["p_values"]},
            **(_iid(params) if cfg["include_iid"] else {})}


_BER_TYPES = {"ratios_db": list[float], "snr_db": float, "bits_target": int,
              "noise_enabled": (bool, True)}

# kind -> (types of its own keys, runner(cfg, params) -> payload)
KINDS = {
    "eigen": ({**_POWER_TYPES, "trials": (int, 20), "terms": (str, "all"),
               "noise_enabled": (bool, False)}, _run_eigen),
    "saturation": ({**_POWER_TYPES, "trials": int, "num_aoas": int, "m_physical": int},
                   _run_saturation),
    "ber": ({**_BER_TYPES, "m_values": (list[int], None)}, _ber_runner(lambda cfg, p: {
        **{f"M={m}": dataclasses.replace(p, num_antennas=m)
           for m in cfg.get("m_values", [p.num_antennas])},
        **(_iid(p) if p.scenario != "iid" else {})})),
    "ber_aoa": ({**_BER_TYPES, "p_values": list[int], "include_iid": (bool, True)},
                _ber_runner(_aoa_family)),
    "ber_distinct": ({**_BER_TYPES, "p4_values": list[int]}, _ber_runner(lambda cfg, p: {
        f"P4={p4}": q for p4, q in sim.distinct_aoa_variants(p, cfg["p4_values"]).items()})),
    "ber_short": ({**_BER_TYPES, "n_values": list[int]}, _ber_runner(lambda cfg, p: {
        f"N={n}": q for n, q in sim.short_coherence_variants(p, cfg["n_values"]).items()})),
    "support_plot": ({**_POWER_TYPES, "modes": list[str]}, _run_support_plot),
}


# ---------------------------------------------------------------------------
# envelopes and plot data
# ---------------------------------------------------------------------------

def config_hash(cfg: dict) -> str:
    clean = {k: v for k, v in cfg.items() if not k.startswith("_")}
    return hashlib.sha256(json.dumps(clean, sort_keys=True).encode()).hexdigest()[:16]


def run_preset(cfg: dict, out_dir: Path) -> Path:
    """Run the configured experiment, write envelope + CSVs, return the
    envelope path.  Every check that can refuse the run or its output runs
    before the output directory is created; a failed write removes the
    files and directories this call made and is a ConfigError."""
    out_dir = Path(out_dir)
    if out_dir.exists() and not out_dir.is_dir():
        raise ConfigError(f"output path {out_dir} exists and is not a directory")
    t0 = time.perf_counter()
    payload = KINDS[cfg["kind"]][1](cfg, cfg["_system"])
    envelope = {
        "config": {k: v for k, v in cfg.items() if not k.startswith("_")},
        "config_hash": config_hash(cfg),
        "library_version": __version__,
        "seed": cfg["seed"],
        "wall_clock_s": round(time.perf_counter() - t0, 3),
        "payload": payload,
    }
    env_name = f"{cfg['label']}_result.json"
    files = {env_name: json.dumps(envelope, indent=1, sort_keys=True),
             **plot_data(envelope)}
    missing = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    written: list[Path] = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out_dir / name).write_text(text)
            written.append(out_dir / name)
    except OSError as exc:
        for path in written:
            path.unlink(missing_ok=True)
        for d in missing:  # deepest first
            with contextlib.suppress(OSError):
                d.rmdir()
        raise ConfigError(f"cannot write output to {out_dir}: {exc}") from exc
    return out_dir / env_name


_EIGEN_BINS = 60  # histogram bins of every eigen CSV


def _csv_header(envelope: dict) -> str:
    return f"# config_hash={envelope['config_hash']} seed={envelope['seed']}\n"


def _eigen_csv(eigen: dict, envelope: dict) -> str:
    pooled = np.concatenate([np.asarray(t) for t in eigen["samples_per_trial"]])
    if pooled.size == 0:
        raise ConfigError("no data: eigen payload holds no samples")
    # the data's own range, widened about its middle where a bin would be
    # under 4 float spacings of the data (a lone eigenvalue near 1e15, say,
    # whose bins numpy cannot split) or under pooled.size smallest normal
    # floats (subnormal bins come out of order, and count / width overflows)
    lo, hi = pooled.min(), pooled.max()
    floor = _EIGEN_BINS * max(4 * np.spacing(max(-lo, hi)), pooled.size * np.finfo(float).tiny)
    pad = max(floor - (hi - lo), 0.0) / 2
    density, edges = np.histogram(pooled, bins=_EIGEN_BINS, density=True,
                                  range=(lo - pad, hi + pad))
    centers = 0.5 * (edges[:-1] + edges[1:])
    supports = [(sname, iv) for sname, ivs in eigen.get("supports", {}).items()
                if ivs for iv in ivs]
    lines = [_csv_header(envelope)]
    cols = ["bin_center", "density"]
    for j, (sname, _) in enumerate(supports):
        cols += [f"support_lo_{j}_{sname}", f"support_hi_{j}_{sname}"]
    lines.append(",".join(cols) + "\n")
    for i, (c, d) in enumerate(zip(centers, density)):
        row = [repr(float(c)), repr(float(d))]
        for _, (lo, hi) in supports:
            row += ([repr(float(lo)), repr(float(hi))] if i == 0 else ["", ""])
        lines.append(",".join(row) + "\n")
    return "".join(lines)


def _ber_csv(ber: dict, envelope: dict) -> str:
    lines = [_csv_header(envelope),
             "family,scheme,ratio_db_or_snr,ber,ci_lo,ci_hi,bits\n"]
    for family, schemes in ber.items():
        for scheme, points in schemes.items():
            for p in sorted(points, key=lambda q: q["sweep_value"]):
                lines.append(",".join([
                    family, scheme, repr(float(p["sweep_value"])),
                    repr(float(p["ber"])), repr(float(p["ci_lo"])),
                    repr(float(p["ci_hi"])), str(int(p["bits"])),
                ]) + "\n")
    return "".join(lines)


def _support_csv(supports: dict, envelope: dict) -> str:
    lines = [_csv_header(envelope), "law,interval_index,lo,hi\n"]
    lines += [f"{name},{j},{lo!r},{hi!r}\n" for name, ivs in supports.items()
              if name != "truncation_flags" for j, (lo, hi) in enumerate(ivs)]
    return "".join(lines)


def plot_data(envelope: dict) -> dict[str, str]:
    """Plot-ready CSVs, file name -> text, for whatever the envelope payload
    holds."""
    payload = envelope.get("payload") or {}
    if not payload:
        raise ConfigError("no data: envelope payload is empty")
    label = envelope["config"]["label"]
    files = {}
    if "eigen" in payload:
        files[f"{label}_eigen_hist.csv"] = _eigen_csv(payload["eigen"], envelope)
        supports = payload["eigen"].get("supports") or {}
        if any(v for v in supports.values()):
            files[f"{label}_supports.csv"] = _support_csv(supports, envelope)
    if "saturation" in payload:
        for name in ("physical", "iid"):
            files[f"{label}_{name}_hist.csv"] = _eigen_csv(payload["saturation"][name],
                                                           envelope)
    if "ber" in payload:
        files[f"{label}_ber.csv"] = _ber_csv(payload["ber"], envelope)
    if "supports" in payload:
        files[f"{label}_supports.csv"] = _support_csv(payload["supports"], envelope)
    if not files:
        raise ConfigError("no data: payload holds no recognized sections")
    return files


# ---------------------------------------------------------------------------
# law/support parameter files
# ---------------------------------------------------------------------------

# law -> (rmt parameter class, or None for a file of keyword arguments; its
# evaluator; its support scan), as rmt names looked up at each call
_LAWS = {
    "mp": (None, "mp_stieltjes", None),
    "onesided": ("OneSidedParams", "stieltjes_onesided", "support_onesided"),
    "iid": (None, "stieltjes_iid_limit", None),
    "double": ("DoubleSidedParams", "stieltjes_double_sided", "support_double_sided"),
    "distinct": (None, None, "support_distinct"),
}
# law-parameter files: the required arguments of the class or function each feeds
_LAW_TYPES = {law: _key_types(getattr(rmt, cls or evaluator or scan), optional=False)
              for law, (cls, evaluator, scan) in _LAWS.items()}


def _call_law(law: str, role: int, path: str, *lead):
    """Call the law's evaluator (role 1) or support scan (role 2) with
    ``lead`` and the checked contents of the params file at ``path``."""
    cls, fn = _LAWS[law][0], getattr(rmt, _LAWS[law][role])
    kwargs = _checked(_load_json_object(path, "params"), _LAW_TYPES[law], f"{law} params")
    return fn(*lead, getattr(rmt, cls)(**kwargs)) if cls else fn(*lead, **kwargs)


def cmd_stieltjes(args) -> int:
    for flag, val in (("--s-re", args.s_re), ("--s-im", args.s_im)):
        if not math.isfinite(val):
            raise ConfigError(f"{flag}={val!r}; expected a finite number")
    s = complex(args.s_re, args.s_im)
    g = complex(_call_law(args.law, 1, args.params, s))
    print(json.dumps({"law": args.law, "s": [s.real, s.imag], "G": [g.real, g.imag]}))
    return 0


def cmd_support(args) -> int:
    sup = _call_law(args.mode, 2, args.params)
    out = {"mode": args.mode, "intervals": _support_payload(sup)}
    if sup.truncation is not None:
        out["truncation_flags"] = sup.truncation["flags"]
    print(json.dumps(out))
    return 0


def cmd_run(args) -> int:
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        try:
            overrides[key] = json.loads(val)
        except ValueError:
            overrides[key] = val
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = load_config(args.preset, args.config, args.scale, overrides)
    env_path = run_preset(cfg, Path(args.out))
    print(env_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimospectra",
        description="Eigenvalue-spectrum and BER experiments for the "
                    "finite-AoA massive-MIMO subspace estimator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment preset")
    p_run.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p_run.add_argument("--config", default=None, help="JSON config file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--scale", choices=("desk", "paper"), default="paper")
    p_run.add_argument("--out", default="results")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (JSON-parsed value)")
    p_run.set_defaults(func=cmd_run)

    p_sup = sub.add_parser("support", help="support-boundary solver")
    p_sup.add_argument("--mode", required=True,
                       choices=[law for law, fns in _LAWS.items() if fns[2]])
    p_sup.add_argument("--params", required=True, help="JSON params file")
    p_sup.set_defaults(func=cmd_support)

    p_st = sub.add_parser("stieltjes", help="evaluate one law at one point")
    p_st.add_argument("--law", required=True,
                      choices=[law for law, fns in _LAWS.items() if fns[1]])
    p_st.add_argument("--s-re", type=float, required=True, dest="s_re")
    p_st.add_argument("--s-im", type=float, required=True, dest="s_im")
    p_st.add_argument("--params", required=True, help="JSON params file")
    p_st.set_defaults(func=cmd_stieltjes)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
