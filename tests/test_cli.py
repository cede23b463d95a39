"""Config parsing, presets, envelopes, plot-data CSVs, and exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from mimospectra import cli, estimation, rmt, sim
from mimospectra.channel import SCENARIOS, SystemParams
from mimospectra.errors import ConfigError, NumericalError


class TestParseConfig:
    def test_fig3_preset_values(self):
        cfg = cli.parse_config(dict(cli.PRESETS["fig3"]))
        sysp = cfg["_system"]
        assert sysp.num_antennas == 400
        assert sysp.aoa_counts == (200, 200, 200, 200)  # broadcast per cell
        assert sysp.block_length == 1000
        assert sysp.users_per_cell == 5 and sysp.num_cells == 4
        assert sysp.signal_power == pytest.approx(10 ** -1.0)
        assert sysp.interference_power == pytest.approx(10 ** -1.6)
        assert sysp.spacing_ratio == 2.0 and not sysp.noise_enabled

    def test_later_layer_replaces_both_power_forms(self, tmp_path):
        """A layer that gives a power in either form replaces both forms from
        the layers before it: fig3's dB powers, a config file, --set."""
        cfg = cli.load_config("fig3", None, "desk", {"signal_power": 0.5})
        assert cfg["_system"].signal_power == 0.5
        assert cfg["_system"].interference_power == sim.db_to_linear(-16.0)
        path = tmp_path / "layer.json"
        path.write_text(json.dumps({"signal_power": 0.5, "interference_power": 0.01}))
        cfg = cli.load_config("fig3", str(path), "desk", {"signal_power_db": -3.0})
        assert cfg["_system"].signal_power == sim.db_to_linear(-3.0)
        assert cfg["_system"].interference_power == 0.01

    def test_fig7_preset_values(self):
        cfg = cli.parse_config(dict(cli.PRESETS["fig7"]))
        assert cfg["m_values"] == [200, 400, 600]
        assert cfg["snr_db"] == -5.0
        assert cfg["_system"].spacing_ratio == 0.5
        assert cfg["_system"].block_length == 400
        assert cfg["_system"].aoa_counts == (200, 200, 200, 200)

    def test_k_above_p_names_keys(self):
        raw = dict(cli.PRESETS["fig3"], aoa_counts=[4])
        with pytest.raises(ConfigError, match="users_per_cell.*AoA"):
            cli.parse_config(raw)

    def test_unknown_key_rejected(self):
        raw = dict(cli.PRESETS["fig3"], hovercraft=3)
        with pytest.raises(ConfigError, match="hovercraft"):
            cli.parse_config(raw)

    def test_db_suffix_conversion(self):
        raw = dict(cli.PRESETS["fig3"])
        raw["signal_power_db"] = -3.0
        cfg = cli.parse_config(raw)
        assert cfg["_system"].signal_power == pytest.approx(10 ** -0.3)

    def test_round_trip(self):
        cfg = cli.parse_config(dict(cli.PRESETS["fig3"]))
        clean = {k: v for k, v in cfg.items() if not k.startswith("_")}
        again = cli.parse_config(json.loads(json.dumps(clean)))
        assert {k: v for k, v in again.items() if not k.startswith("_")} == clean

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="kind"):
            cli.parse_config({"num_antennas": 8})


def _tiny_eigen_cfg():
    return {
        "kind": "eigen", "label": "tiny", "scenario": "identical_aoas",
        "num_antennas": 64, "users_per_cell": 4, "num_cells": 2,
        "block_length": 128, "aoa_counts": [32], "signal_power_db": -10.0,
        "interference_power_db": -16.0, "noise_enabled": False,
        "spacing_ratio": 2.0, "trials": 4, "seed": 9,
    }


class TestRunPreset:
    def test_eigen_outputs(self, tmp_path):
        cfg = cli.parse_config(_tiny_eigen_cfg())
        env_path = cli.run_preset(cfg, tmp_path)
        env = json.loads(env_path.read_text())
        assert env["seed"] == 9
        assert env["config_hash"] == cli.config_hash(cfg)
        hist = tmp_path / "tiny_eigen_hist.csv"
        assert hist.exists()
        text = hist.read_text()
        assert text.startswith(f"# config_hash={env['config_hash']} seed=9")
        rows = [r.split(",") for r in text.splitlines()[2:]]
        centers = np.array([float(r[0]) for r in rows])
        density = np.array([float(r[1]) for r in rows])
        width = centers[1] - centers[0]
        assert abs(density.sum() * width - 1.0) < 1e-6

    def test_payload_byte_identical_across_runs(self, tmp_path):
        cfg = cli.parse_config(_tiny_eigen_cfg())
        p1 = cli.run_preset(cfg, tmp_path / "a")
        p2 = cli.run_preset(cfg, tmp_path / "b")
        e1, e2 = json.loads(p1.read_text()), json.loads(p2.read_text())
        assert json.dumps(e1["payload"], sort_keys=True) == \
               json.dumps(e2["payload"], sort_keys=True)
        csv1 = (tmp_path / "a" / "tiny_eigen_hist.csv").read_bytes()
        csv2 = (tmp_path / "b" / "tiny_eigen_hist.csv").read_bytes()
        assert csv1 == csv2

    def test_ber_short_family_tables(self, tmp_path):
        raw = {
            "kind": "ber_short", "label": "tiny9", "scenario": "iid",
            "num_antennas": 48, "users_per_cell": 6, "num_cells": 2,
            "block_length": 120, "noise_enabled": True, "snr_db": 0.0,
            "ratios_db": [-9.0], "bits_target": 4000,
            "n_values": [30, 60, 120], "seed": 3,
        }
        cfg = cli.parse_config(raw)
        env = json.loads(cli.run_preset(cfg, tmp_path).read_text())
        ber = env["payload"]["ber"]
        assert set(ber) == {"N=30", "N=60", "N=120"}
        for fam in ber.values():
            assert set(fam) == {"subspace", "pilot"}
        csv_text = (tmp_path / "tiny9_ber.csv").read_text()
        assert "family,scheme,ratio_db_or_snr,ber,ci_lo,ci_hi,bits" in csv_text
        assert csv_text.count("subspace") == 3

    def test_support_plot_payload(self, tmp_path):
        raw = dict(cli.PRESETS["fig1"])
        raw.update(label="sup", seed=1)
        cfg = cli.parse_config(cli._desk_scale(raw))
        env = json.loads(cli.run_preset(cfg, tmp_path).read_text())
        sups = env["payload"]["supports"]
        assert "onesided_signal" in sups and "iid_signal" in sups
        assert (tmp_path / "sup_supports.csv").exists()

    def test_empty_payload_rejected(self):
        with pytest.raises(ConfigError, match="no data"):
            cli.plot_data({"payload": {}, "config_hash": "x", "seed": 0,
                           "config": {"label": "x"}})

    def test_failure_leaves_no_partial_files(self, tmp_path, monkeypatch):
        cfg = cli.parse_config(_tiny_eigen_cfg())

        def boom(envelope):
            raise ConfigError("synthetic failure")

        monkeypatch.setattr(cli, "plot_data", boom)
        with pytest.raises(ConfigError):
            cli.run_preset(cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestMainEntry:
    def test_run_desk_preset(self, tmp_path, capsys):
        rc = cli.main(["run", "--preset", "fig3", "--scale", "desk",
                       "--seed", "5", "--out", str(tmp_path),
                       "--set", "trials=2", "--set", "num_antennas=64",
                       "--set", "aoa_counts=[32]", "--set", "block_length=128",
                       "--set", "users_per_cell=4", "--set", "num_cells=2"])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("fig3_result.json")

    def test_stieltjes_command(self, tmp_path, capsys):
        params = tmp_path / "mp.json"
        params.write_text(json.dumps({"ratio": 0.5}))
        rc = cli.main(["stieltjes", "--law", "mp", "--s-re", "1.0",
                       "--s-im", "0.5", "--params", str(params)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        g = complex(*payload["G"])
        assert abs(g - rmt.mp_stieltjes(1.0 + 0.5j, 0.5)) < 1e-12

    def test_support_command(self, tmp_path, capsys):
        params = tmp_path / "one.json"
        params.write_text(json.dumps({"scale": 0.1, "inner_dim": 5,
                                      "m": 400, "n": 1000, "p": 200}))
        rc = cli.main(["support", "--mode", "onesided", "--params", str(params)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        (lo, hi), = payload["intervals"]
        assert 0.06 < lo < hi < 0.15

    def test_config_error_exit_code(self, tmp_path, capsys):
        params = tmp_path / "bad.json"
        params.write_text(json.dumps({"ratio": 0.5, "bogus": 1}))
        rc = cli.main(["stieltjes", "--law", "mp", "--s-re", "1.0",
                       "--s-im", "0.5", "--params", str(params)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_negative_seed_flag_exit_code(self, tmp_path, capsys):
        rc = cli.main(["run", "--preset", "fig3", "--seed", "-1",
                       "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error") and "seed" in err
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("seed", [1.5, "7", True])
    def test_non_integer_seed_in_config_exit_code(self, tmp_path, capsys, seed):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(_tiny_eigen_cfg(), seed=seed)))
        rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error") and "seed" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_missing_file_exit_code(self, capsys):
        rc = cli.main(["support", "--mode", "onesided", "--params", "/nope.json"])
        assert rc == 2

    def test_numerical_error_exit_code(self, tmp_path, capsys, monkeypatch):
        params = tmp_path / "mp.json"
        params.write_text(json.dumps({"ratio": 0.5}))

        def boom(*a, **kw):
            raise NumericalError("synthetic")

        monkeypatch.setattr(rmt, "mp_stieltjes", boom)
        rc = cli.main(["stieltjes", "--law", "mp", "--s-re", "1.0",
                       "--s-im", "0.5", "--params", str(params)])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_desk_halves_antenna_and_aoa_counts(preset):
    """Desk scale halves every antenna and AoA count of a preset (each
    element of a sweep), an AoA count down to one AoA per user of a cell;
    it once left the fig8 and intro-ratio AoA sweeps at paper size."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fig6 and fig8 warn that K << P fails
        paper = cli.load_config(preset, None, "paper", {})
        desk = cli.load_config(preset, None, "desk", {})
    k = paper["users_per_cell"]
    floors = dict(num_antennas=1, m_physical=1, m_values=1, aoa_counts=k, num_aoas=k,
                  p_values=k, p4_values=k)
    for key, floor in floors.items():
        if key in paper:
            half = [max(floor, v // 2) for v in np.atleast_1d(paper[key])]
            assert list(np.atleast_1d(desk[key])) == half, key


@pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "existing-dir"])
@pytest.mark.parametrize("preset,override", [("fig1", 'modes=["bogus"]'),
                                             ("fig3", 'terms="bogus"')])
def test_runner_config_error_creates_no_directory(preset, override, existing, tmp_path,
                                                  capsys):
    """A config error that only the runner sees leaves the output path as
    it found it."""
    out = tmp_path / "a" / "out"
    if existing:
        out.mkdir(parents=True)
        (out / "keep.txt").write_text("kept")
    rc = cli.main(["run", "--preset", preset, "--scale", "desk", "--set", override,
                   "--out", str(out)])
    err = capsys.readouterr().err.strip()
    assert rc == 2
    assert err.startswith("config error") and "bogus" in err
    assert len(err.splitlines()) == 1
    if existing:
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
        assert (out / "keep.txt").read_text() == "kept"
    else:
        assert not (tmp_path / "a").exists()


def test_empty_payload_creates_no_directory(tmp_path, capsys):
    """A run whose output the CSV writer refuses (no nonzero eigenvalue:
    the selected interference term has zero power) creates no directory."""
    cfg = dict(kind="eigen", scenario="identical_aoas", num_antennas=32, users_per_cell=2,
               num_cells=2, block_length=64, aoa_counts=[16], signal_power=0.1,
               interference_power=0.0, noise_enabled=False, terms="interference",
               trials=2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "a" / "out"
    rc = cli.main(["run", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err.strip()
    assert rc == 2
    assert err == "config error: no data: eigen payload holds no samples"
    assert not (tmp_path / "a").exists()


def test_out_naming_a_file_is_refused_before_the_run(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(sim, "run_eigen_experiment", boom)
    out = tmp_path / "out"
    out.write_text("kept")
    rc = cli.main(["run", "--preset", "fig3", "--scale", "desk", "--out", str(out)])
    err = capsys.readouterr().err.strip()
    assert rc == 2
    assert err.startswith("config error") and str(out) in err and "not a directory" in err
    assert len(err.splitlines()) == 1
    assert out.read_text() == "kept"


@pytest.mark.parametrize("blocked", ["parent-is-file", "csv-is-directory"])
def test_write_error_is_one_line_and_leaves_no_partial_output(blocked, tmp_path, capsys):
    """An OSError while writing exits 2 with one line and removes what the
    run wrote: under a regular file nothing can be made, and a directory in
    the place of the histogram CSV fails the write after the envelope."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_tiny_eigen_cfg()))
    if blocked == "parent-is-file":
        (tmp_path / "file").write_text("kept")
        out = tmp_path / "file" / "out"
    else:
        out = tmp_path / "out"
        (out / "tiny_eigen_hist.csv").mkdir(parents=True)
    rc = cli.main(["run", "--config", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert rc == 2 and not captured.out
    assert err.startswith("config error: cannot write output") and str(out) in err
    assert len(err.splitlines()) == 1
    if blocked == "parent-is-file":
        assert (tmp_path / "file").read_text() == "kept"
    else:
        assert [p.name for p in out.iterdir()] == ["tiny_eigen_hist.csv"]


# one tiny config per kind; payload_pins.json holds the payloads recorded
# for them, so a refactor that moves any output value fails here
_PIN_BER = dict(num_antennas=16, users_per_cell=2, num_cells=2, block_length=24,
                noise_enabled=True, spacing_ratio=0.5, snr_db=0.0,
                ratios_db=[-6.0, 0.0], bits_target=400, seed=5)
_PIN_SPECTRA = dict(scenario="identical_aoas", num_antennas=32, users_per_cell=2,
                    num_cells=2, block_length=64, aoa_counts=[16],
                    signal_power_db=-10.0, interference_power_db=-16.0,
                    noise_enabled=False, spacing_ratio=2.0, seed=5)
PIN_CONFIGS = {
    "eigen": dict(_PIN_SPECTRA, kind="eigen", trials=2),
    "saturation": dict(_PIN_SPECTRA, kind="saturation", num_aoas=8, m_physical=24,
                       trials=2),
    "support_plot": dict(_PIN_SPECTRA, kind="support_plot",
                         modes=["onesided", "double", "iid"]),
    "ber": dict(_PIN_BER, kind="ber", scenario="identical_aoas", aoa_counts=[8],
                m_values=[12, 16]),
    "ber_aoa": dict(_PIN_BER, kind="ber_aoa", scenario="identical_aoas",
                    aoa_counts=[8], p_values=[4, 8], include_iid=True),
    "ber_distinct": dict(_PIN_BER, kind="ber_distinct", scenario="distinct_aoas",
                         aoa_counts=[8, 8], p4_values=[2, 8]),
    "ber_short": dict(_PIN_BER, kind="ber_short", scenario="iid", block_length=16,
                      n_values=[8, 16]),
}
PAYLOAD_PINS = json.loads((Path(__file__).parent / "payload_pins.json").read_text())


def _pin_rel(path: tuple) -> float:
    """Relative tolerance for one payload leaf, by where it sits."""
    if "samples_per_trial" in path:
        return 1e-9
    if path[-1] in ("ci_lo", "ci_hi"):
        return 1e-12
    if path[-1] in ("ber", "bits", "sweep_value"):
        return 0.0
    return 1e-6  # support intervals and truncation ratios


def _assert_payload_matches(got, want, path=()):
    if isinstance(want, dict):
        assert set(got) == set(want), path
        for key in want:
            _assert_payload_matches(got[key], want[key], path + (key,))
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_payload_matches(g, w, path + (i,))
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=_pin_rel(path), abs=0.0), path
    else:
        assert got == want, path


def _run_payload(raw: dict, tmp_path) -> dict:
    cfg = cli.parse_config(dict(raw, label="pin"))
    return json.loads(cli.run_preset(cfg, tmp_path).read_text())["payload"]


@pytest.mark.parametrize("kind", sorted(PIN_CONFIGS))
def test_payload_pinned_per_kind(kind, tmp_path):
    assert set(PIN_CONFIGS) == set(cli.KINDS)
    _assert_payload_matches(_run_payload(PIN_CONFIGS[kind], tmp_path),
                            PAYLOAD_PINS[kind])


# the analytic overlays of each scenario, term selector and support_plot mode;
# overlay_pins.json holds each case's payload, the order of the law column of
# its supports CSV (the envelope's keys are sorted, so only the CSV shows it)
# and its "could not attach" warnings
_PIN_EIGEN = dict(_PIN_SPECTRA, kind="eigen", trials=2)
_PIN_NO_DB = {k: v for k, v in _PIN_SPECTRA.items() if k != "interference_power_db"}
OVERLAY_PIN_CONFIGS = {
    "eigen-iid": dict(_PIN_EIGEN, scenario="iid", aoa_counts=[]),
    "eigen-distinct-equal": dict(_PIN_EIGEN, scenario="distinct_aoas", num_cells=3,
                                 aoa_counts=[16, 12, 12]),
    "eigen-distinct-unequal": dict(_PIN_EIGEN, scenario="distinct_aoas", num_cells=3,
                                   aoa_counts=[16, 16, 10]),
    "eigen-terms-signal": dict(_PIN_EIGEN, terms="signal"),
    "eigen-terms-interference": dict(_PIN_EIGEN, terms="interference"),
    "eigen-one-cell": dict(_PIN_EIGEN, num_cells=1),
    "eigen-noise": dict(_PIN_EIGEN, noise_enabled=True),
    "support_plot-iid-double-onesided": dict(_PIN_SPECTRA, kind="support_plot",
                                             modes=["iid", "double", "onesided"]),
    "support_plot-no-interference": dict(_PIN_NO_DB, kind="support_plot",
                                         interference_power=0.0, modes=["iid"]),
}
OVERLAY_PINS = json.loads((Path(__file__).parent / "overlay_pins.json").read_text())


def _overlay_run(raw: dict, tmp_path) -> dict:
    """Payload, supports-CSV law order and overlay warnings of one run."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        payload = _run_payload(raw, tmp_path)
    csv = tmp_path / "pin_supports.csv"
    rows = csv.read_text().splitlines()[2:] if csv.exists() else []
    return {"payload": payload,
            "law_order": list(dict.fromkeys(row.split(",")[0] for row in rows)),
            "warnings": [str(w.message) for w in caught
                         if "could not attach" in str(w.message)]}


@pytest.mark.parametrize("case", sorted(OVERLAY_PIN_CONFIGS))
def test_overlays_pinned(case, tmp_path):
    got, want = _overlay_run(OVERLAY_PIN_CONFIGS[case], tmp_path), OVERLAY_PINS[case]
    _assert_payload_matches(got["payload"], want["payload"])
    assert got["law_order"] == want["law_order"]
    assert got["warnings"] == want["warnings"]


def test_support_plot_intervals_equal_eigen_overlays(tmp_path):
    eigen = _run_payload(_PIN_EIGEN, tmp_path / "eigen")["eigen"]["supports"]
    plot = _run_payload(dict(_PIN_SPECTRA, kind="support_plot",
                             modes=["onesided", "double"]), tmp_path / "plot")["supports"]
    assert plot["onesided_signal"] == eigen["one_sided_signal"]
    assert plot["onesided_interference"] == eigen["one_sided_interference"]
    assert plot["double_sided"] == eigen["double_sided"]


@pytest.mark.parametrize("base", [dict(_PIN_NO_DB, interference_power=0.0),
                                  dict(_PIN_SPECTRA, num_cells=1)], ids=["no-power", "one-cell"])
def test_support_plot_onesided_without_interference_writes_signal_alone(base, tmp_path):
    full = _run_payload(dict(_PIN_SPECTRA, kind="support_plot", modes=["onesided"]),
                        tmp_path / "full")["supports"]
    plot = _run_payload(dict(base, kind="support_plot", modes=["onesided"]),
                        tmp_path / "plot")["supports"]
    assert plot == {"onesided_signal": full["onesided_signal"]}


# the one family that a ber config on the i.d. channel writes; these rows,
# written with a byte-identical "iid" family beside them until that duplicate
# sweep was dropped, must not move
_BER_IID_ROWS = {
    "pilot": [{"ber": 0.025, "bits": 440, "ci_hi": 0.04281818181818182,
               "ci_lo": 0.007181818181818185, "sweep_value": -6.0},
              {"ber": 0.2636363636363636, "bits": 440, "ci_hi": 0.3291045440343867,
               "ci_lo": 0.19816818323834048, "sweep_value": 0.0}],
    "subspace": [{"ber": 0.011363636363636364, "bits": 440, "ci_hi": 0.025450145940750055,
                  "ci_lo": 0.0, "sweep_value": -6.0},
                 {"ber": 0.30227272727272725, "bits": 440, "ci_hi": 0.36511182390942076,
                  "ci_lo": 0.23943363063603376, "sweep_value": 0.0}],
}


def test_ber_on_iid_scenario_sweeps_once(tmp_path):
    """The i.d. channel is its own i.d. reference: no second family."""
    got = _run_payload(dict(_PIN_BER, kind="ber", scenario="iid"), tmp_path)["ber"]
    assert list(got) == ["M=16"]
    assert got["M=16"] == _BER_IID_ROWS


def test_ber_short_honours_config_noise(tmp_path):
    raw = dict(PIN_CONFIGS["ber_short"], noise_enabled=False)
    got = _run_payload(raw, tmp_path)["ber"]
    for n in raw["n_values"]:
        params = SystemParams(num_antennas=16, users_per_cell=2, num_cells=2,
                              block_length=n, signal_power=1.0,
                              interference_power=1.0, noise_enabled=False,
                              scenario="iid")
        want = sim.run_ber_experiment(params, raw["ratios_db"], raw["bits_target"], 5)
        assert got[f"N={n}"] == json.loads(json.dumps(cli._ber_payload(want)))
    assert got != PAYLOAD_PINS["ber_short"]["ber"]


_DISTINCT_LAW = dict(num_users=5, num_cells=4, num_antennas=400, block_length=1000,
                     num_aoas=200, p_interference=0.025)
_DOUBLE_LAW = dict(num_users=5, num_cells=4, num_antennas=400, block_length=1000,
                   num_aoas=200, p_signal=0.1, p_interference=0.025)

# (offending key, argv builder, file contents): "run" cases write the file as
# --config and append --set overrides; the rest pass it as --params. Each one
# used to end in a traceback or run on a misread value.
BAD_INPUTS = {
    # --set overrides on a valid config
    "set-int-string": ("num_antennas", ["--set", "num_antennas=abc"], PIN_CONFIGS["eigen"]),
    "set-list-scalar": ("ratios_db", ["--set", "ratios_db=3"], PIN_CONFIGS["ber"]),
    "set-db-string": ("signal_power_db", ["--set", "signal_power_db=abc"],
                      PIN_CONFIGS["eigen"]),
    "set-db-nan": ("signal_power_db", ["--set", "signal_power_db=NaN"], PIN_CONFIGS["eigen"]),
    "set-trials-string": ("trials", ["--set", "trials=abc"], PIN_CONFIGS["eigen"]),
    "set-counts-scalar": ("aoa_counts", ["--set", "aoa_counts=16"], PIN_CONFIGS["eigen"]),
    "set-bits-string": ("bits_target", ["--set", "bits_target=abc"], PIN_CONFIGS["ber"]),
    "set-snr-string": ("snr_db", ["--set", "snr_db=abc"], PIN_CONFIGS["ber"]),
    "set-m-values-scalar": ("m_values", ["--set", "m_values=12"], PIN_CONFIGS["ber"]),
    "set-n-values-scalar": ("n_values", ["--set", "n_values=8"], PIN_CONFIGS["ber_short"]),
    "set-p4-values-scalar": ("p4_values", ["--set", "p4_values=2"],
                             PIN_CONFIGS["ber_distinct"]),
    "set-noise-string": ("noise_enabled", ["--set", 'noise_enabled="no"'],
                         PIN_CONFIGS["eigen"]),
    "set-int-fraction": ("num_antennas", ["--set", "num_antennas=32.7"],
                         PIN_CONFIGS["eigen"]),
    "set-n-values-fraction": ("n_values", ["--set", "n_values=[8.5]"],
                              PIN_CONFIGS["ber_short"]),
    # a BER kind takes its powers from snr_db and ratios_db, and sweeps
    # no empty list
    "set-ber-signal-power": ("signal_power", ["--set", "signal_power=0.5"],
                             PIN_CONFIGS["ber"]),
    "set-ber-signal-power-db": ("signal_power_db", ["--set", "signal_power_db=0"],
                                PIN_CONFIGS["ber"]),
    "set-ber-interference-power": ("interference_power",
                                   ["--set", "interference_power=0.1"], PIN_CONFIGS["ber"]),
    "set-ber-interference-power-db": ("interference_power_db",
                                      ["--set", "interference_power_db=3"],
                                      PIN_CONFIGS["ber_short"]),
    "set-m-values-empty": ("m_values", ["--set", "m_values=[]"], PIN_CONFIGS["ber"]),
    "set-ratios-empty": ("ratios_db", ["--set", "ratios_db=[]"], PIN_CONFIGS["ber_aoa"]),
    "set-modes-empty": ("modes", ["--set", "modes=[]"], PIN_CONFIGS["support_plot"]),
    # whole --config files
    "config-missing-num-aoas": ("num_aoas", [], {k: v for k, v in PIN_CONFIGS["saturation"].items()
                                                 if k != "num_aoas"}),
    "config-p-values-scalar": ("p_values", [], dict(PIN_CONFIGS["ber_aoa"], p_values=4)),
    # the i.d. channel has no AoAs, so every P of the sweep would run the same
    "config-ber-aoa-iid": ("scenario", [], dict(PIN_CONFIGS["ber_aoa"], scenario="iid")),
    # the joint law needs an interfering cell: one cell wrote a one-cell
    # "double-sided" law, and no interference power ended with a message
    # that named no key
    "config-double-one-cell": ("num_cells", [], dict(PIN_CONFIGS["support_plot"], num_cells=1)),
    "set-double-no-interference": ("interference_power", ["--set", "interference_power=0"],
                                   PIN_CONFIGS["support_plot"]),
    # a law outside the scenario's overlays: the identical-AoA joint and
    # one-sided interference laws were written for distinct AoAs, and the
    # one-sided laws for an i.d. run that kept its AoA counts
    "config-double-distinct": ("scenario", [], dict(PIN_CONFIGS["support_plot"],
                                                    scenario="distinct_aoas",
                                                    aoa_counts=[16, 8], modes=["double"])),
    "config-onesided-distinct": ("scenario", [], dict(PIN_CONFIGS["support_plot"],
                                                      scenario="distinct_aoas",
                                                      aoa_counts=[16, 8], modes=["onesided"])),
    "set-onesided-iid-with-aoas": ("scenario", ["--set", "scenario=iid"],
                                   dict(PIN_CONFIGS["support_plot"], modes=["onesided"])),
    "config-users-list": ("users_per_cell", [], dict(PIN_CONFIGS["eigen"], users_per_cell=[2])),
    # law-parameter files
    "support-double-power-string": ("p_signal", ["support", "--mode", "double"],
                                    dict(_DOUBLE_LAW, p_signal="x")),
    "support-distinct-fraction": ("num_aoas", ["support", "--mode", "distinct"],
                                  dict(_DISTINCT_LAW, num_aoas=200.5)),
    "stieltjes-onesided-string": ("scale", ["stieltjes", "--law", "onesided"],
                                  dict(scale="x", inner_dim=5, m=400, n=1000, p=200)),
    "stieltjes-iid-string": ("p_s", ["stieltjes", "--law", "iid"],
                             dict(p_s="x", alpha=0.0125, gamma=0.005)),
    # finite numbers whose dB conversion or law table overflows a float
    "set-db-overflow": ("signal_power_db", ["--set", "signal_power_db=4000"],
                        PIN_CONFIGS["eigen"]),
    "set-snr-overflow": ("snr_db", ["--set", "snr_db=4000"], PIN_CONFIGS["ber"]),
    "set-ratios-overflow": ("ratios_db[1]", ["--set", "ratios_db=[0, 4000]"],
                            PIN_CONFIGS["ber"]),
    "support-double-power-overflow": ("p_signal=1e+300", ["support", "--mode", "double"],
                                      dict(_DOUBLE_LAW, p_signal=1e300)),
    "stieltjes-double-power-overflow": ("p_signal=1e+300", ["stieltjes", "--law", "double"],
                                        dict(_DOUBLE_LAW, p_signal=1e300)),
    "support-distinct-power-overflow": ("p_interference=1e+300",
                                        ["support", "--mode", "distinct"],
                                        dict(_DISTINCT_LAW, p_interference=1e300)),
    # the table is finite, its coefficients at the anchor point are not
    "stieltjes-onesided-scale-overflow": ("overflow", ["stieltjes", "--law", "onesided"],
                                          dict(scale=1e300, inner_dim=5, m=400, n=1000,
                                               p=200)),
    "stieltjes-mp-ratio-subnormal": ("ratio", ["stieltjes", "--law", "mp"],
                                     dict(ratio=1e-320)),
    # a label names files inside --out: "../x" wrote beside it and "" wrote
    # "_result.json"
    "set-label-parent": ("label", ["--set", "label=../escaped"], PIN_CONFIGS["eigen"]),
    "set-label-empty": ("label", ["--set", 'label=""'], PIN_CONFIGS["eigen"]),
    "set-label-dot": ("label", ["--set", "label=."], PIN_CONFIGS["eigen"]),
    "set-label-dotdot": ("label", ["--set", "label=.."], PIN_CONFIGS["eigen"]),
    # a NUL ended in "embedded null byte" from write_text, after --out was made
    "set-label-nul": ("label", ["--set", 'label="a\\u0000b"'], PIN_CONFIGS["eigen"]),
    "config-label-nul": ("label", [], dict(PIN_CONFIGS["eigen"], label="a\0b")),
    # the one-sided and joint laws read the first AoA count: on the i.d.
    # channel without counts, the fig1 and fig2 modes ended in an IndexError
    "set-onesided-iid-no-aoas": ("scenario", ["--set", "scenario=iid", "--set", "aoa_counts=[]"],
                                 dict(PIN_CONFIGS["support_plot"], modes=["onesided", "iid"])),
    "set-double-iid-no-aoas": ("scenario", ["--set", "scenario=iid", "--set", "aoa_counts=[]"],
                               dict(PIN_CONFIGS["support_plot"], modes=["double", "iid"])),
    # desk scale halves only a preset: with --config alone it ran at paper scale
    "config-desk-scale": ("--preset", ["--scale", "desk"], PIN_CONFIGS["eigen"]),
    # non-positive dimensions ended with a table overflow or a grid that
    # "did not resolve the bulk"
    "support-distinct-no-antennas": ("num_antennas", ["support", "--mode", "distinct"],
                                     dict(_DISTINCT_LAW, num_antennas=0)),
    "support-distinct-no-block": ("block_length", ["support", "--mode", "distinct"],
                                  dict(_DISTINCT_LAW, block_length=0, num_aoas=0)),
    "support-distinct-no-users": ("num_users", ["support", "--mode", "distinct"],
                                  dict(_DISTINCT_LAW, num_users=0)),
    "support-distinct-negative-users": ("num_users", ["support", "--mode", "distinct"],
                                        dict(_DISTINCT_LAW, num_users=-5)),
    "support-distinct-no-aoas": ("num_aoas", ["support", "--mode", "distinct"],
                                 dict(_DISTINCT_LAW, num_aoas=0)),
}


def _both_power_forms() -> dict:
    """One layer (a config file, or the --set list over a config without
    powers) that gives a power in both forms, in either key order."""
    base = {k: v for k, v in PIN_CONFIGS["eigen"].items() if not k.endswith("power_db")}
    cases = {}
    for power in ("signal_power", "interference_power"):
        for pair in ([(power, 0.5), (f"{power}_db", -10.0)],
                     [(f"{power}_db", -10.0), (power, 0.5)]):
            name = f"both-{pair[0][0]}-first"
            cases[f"config-{name}"] = (f"{power}_db", [], dict(base, **dict(pair)))
            cases[f"set-{name}"] = (f"{power}_db", [arg for key, val in pair
                                                    for arg in ("--set", f"{key}={val}")],
                                    base)
    return cases


BAD_INPUTS.update(_both_power_forms())

# a non-finite point s, for each law of the stieltjes subcommand
_STIELTJES_LAWS = {"mp": dict(ratio=0.5), "onesided": dict(scale=0.1, inner_dim=5, m=400,
                                                           n=1000, p=200),
                   "iid": dict(p_s=0.1, alpha=0.0125, gamma=0.005), "double": _DOUBLE_LAW}
BAD_INPUTS.update({
    f"stieltjes-{law}-{flag[4:]}-{val}": (flag, ["stieltjes", "--law", law, flag, val], params)
    for law, params in _STIELTJES_LAWS.items() for flag in ("--s-re", "--s-im")
    for val in ("nan", "inf")})


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_one_line_config_error(case, tmp_path, capsys):
    key, argv, contents = BAD_INPUTS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(contents))
    out = tmp_path / "out"
    if argv[:1] in (["support"], ["stieltjes"]):
        argv = argv + ["--params", str(path)]
        if argv[0] == "stieltjes":  # a point given in the case comes later and wins
            argv[1:1] = ["--s-re", "0.05", "--s-im", "0.01"]
    else:
        argv = ["run", "--config", str(path), "--out", str(out)] + argv
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    err = captured.err.strip()
    assert err.startswith("config error") and key in err
    assert len(err.splitlines()) == 1
    assert not out.exists() and not captured.out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["input.json"]


# (exit code, argv, params) of law inputs whose roots cannot be taken: a
# companion matrix that overflows a float, and a point with no root in G left.
# Each used to end in a traceback from the root solver.
UNSOLVABLE_LAWS = {
    "support-onesided-companion-overflow": (
        2, ["support", "--mode", "onesided"],
        dict(scale=1e-300, inner_dim=200, m=2, n=3, p=100_000)),
    "stieltjes-onesided-companion-overflow": (
        2, ["stieltjes", "--law", "onesided", "--s-re", "0.05", "--s-im", "0.001"],
        dict(scale=1e-300, inner_dim=10_000_000, m=3, n=2, p=100_000)),
    "stieltjes-double-no-root": (
        3, ["stieltjes", "--law", "double", "--s-re", "-1", "--s-im", "0.001"],
        dict(num_users=1, num_cells=1, num_antennas=3, block_length=5, num_aoas=10_000_000,
             p_signal=1e-12, p_interference=1e-300)),
    # the failure printed its candidate roots as a numpy array over two lines
    "stieltjes-onesided-ambiguous-branch": (
        3, ["stieltjes", "--law", "onesided", "--s-re", "0", "--s-im", "1e-300"],
        dict(scale=0.1, inner_dim=5, m=400, n=1000, p=200)),
}


@pytest.mark.parametrize("case", sorted(UNSOLVABLE_LAWS))
def test_unsolvable_law_is_one_line(case, tmp_path, capsys):
    code, argv, params = UNSOLVABLE_LAWS[case]
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    rc = cli.main(argv + ["--params", str(path)])
    captured = capsys.readouterr()
    assert rc == code and not captured.out
    err = captured.err.strip()
    assert err.startswith({2: "config error", 3: "numerical failure"}[code])
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["params.json"]


# Inputs for the generated property below.  Each starts from a valid input
# (a pinned config of each kind, a params file of each law) and gives up to
# three keys of the CLI's key tables a value of the key's type, a boundary
# value or a value of a wrong type: dimensions up to 64, at most 3 trials and
# 4,000 bits; law files hold only scalars, so their integers may be large.
_LAW_BASES = dict(_STIELTJES_LAWS, distinct=_DISTINCT_LAW)
_KEY_VALUES = {"trials": st.integers(-1, 3), "bits_target": st.integers(-1, 4_000),
               "seed": st.sampled_from([-1, 0, 7, 2 ** 70]),
               "label": st.sampled_from(["run", "", ".", "..", "a/b"]),
               "scenario": st.sampled_from(SCENARIOS + ("bogus",)),
               "terms": st.sampled_from(["all", "signal", "interference", "bogus"]),
               "modes": st.sampled_from(sorted(cli._SUPPORT_MODES) + ["bogus"])}
_TYPE_VALUES = {
    int: st.integers(-1, 64), bool: st.booleans(), str: st.sampled_from(["", "bogus"]),
    float: st.floats(-30.0, 30.0) | st.sampled_from([
        0.0, -1.0, 0.5, 2.0, 1e-12, 1e12, 1e-300, 1e300, 5e-324, -300.0, 300.0,
        math.nan, math.inf])}
_LAW_INTS = st.integers(-1, 64) | st.sampled_from([10 ** 5, 10 ** 7])
_WRONG_TYPES = st.sampled_from([None, "x", True, 1.5, [], {}, [[1]]])
_POINTS = st.sampled_from([0.05, 0.001, 0.0, -1.0, -0.01, 1e-300, 1e300, math.inf])


def _value(key, t, ints=_TYPE_VALUES[int]):
    """A value of type ``t`` (a list of 0-3 for a list type) for ``key``, or
    one of a wrong type."""
    t = t[0] if isinstance(t, tuple) else t
    elem = typing.get_args(t)[:1]
    if elem:
        right = st.lists(_value(key, elem[0], ints), max_size=3)
    else:
        right = _KEY_VALUES.get(key, ints if t is int else _TYPE_VALUES[t])
    return right | _WRONG_TYPES


@st.composite
def _changed(draw, base: dict, types: dict, ints=_TYPE_VALUES[int]):
    """``base`` with up to three of the keys of ``types`` set to drawn values."""
    out = dict(base)
    for key in draw(st.lists(st.sampled_from(sorted(types)), max_size=3, unique=True)):
        out[key] = draw(_value(key, types[key], ints))
        if key in cli._POWERS:  # in place of the base's dB form
            out.pop(f"{key}_db", None)
    return out


@st.composite
def _cli_input(draw):
    """(argv without its input file, that file's contents) for a run config
    of any kind, or a support or stieltjes params file of any law."""
    command = draw(st.sampled_from(["run", "support", "stieltjes"]))
    if command == "run":
        kind = draw(st.sampled_from(sorted(cli.KINDS)))
        types = {k: t for k, t in {**cli._COMMON_TYPES, **cli.KINDS[kind][0]}.items()
                 if k != "kind"}
        return ["run"], draw(_changed(PIN_CONFIGS[kind], types))
    role, flag = (2, "--mode") if command == "support" else (1, "--law")
    law = draw(st.sampled_from([law for law, fns in cli._LAWS.items() if fns[role]]))
    argv = [command, flag, law]
    if command == "stieltjes":
        argv += [f"--s-re={draw(_POINTS)!r}", f"--s-im={draw(_POINTS)!r}"]
    return argv, draw(_changed(_LAW_BASES[law], cli._LAW_TYPES[law], _LAW_INTS))


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(case=_cli_input())
def test_generated_input_ends_in_an_exit_code(case, tmp_path):
    """Any input drawn from the key tables ends in exit 0, 2 or 3, never in an
    exception, and a refusal or a numerical failure is one stderr line."""
    argv, contents = case
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    path = work / "input.json"
    path.write_text(json.dumps(contents))
    argv = argv + (["--config", str(path), "--out", str(work / "out")] if argv == ["run"]
                   else ["--params", str(path)])
    err = io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("ignore")
        rc = cli.main(argv)
    event(f"{argv[0]} exit {rc}")
    assert rc in (0, 2, 3), (argv, contents)
    if rc:
        assert len(err.getvalue().strip().splitlines()) == 1, (argv, contents, err.getvalue())


def test_lone_eigenvalue_below_float_resolution_is_binned(tmp_path):
    """One eigenvalue near 1.9e14 spans fewer than 60 float spacings, which
    numpy's histogram refuses to split into 60 bins; the run used to end in
    that ValueError's traceback."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "kind": "eigen", "scenario": "iid", "num_antennas": 1, "users_per_cell": 1,
        "num_cells": 1, "block_length": 1, "signal_power_db": 140.0, "trials": 1}))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the i.d. law has no support to attach here
        rc = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 0
    env = json.loads((tmp_path / "out" / "eigen_result.json").read_text())
    (lam,), = env["payload"]["eigen"]["samples_per_trial"]
    centers, density = np.loadtxt(tmp_path / "out" / "eigen_eigen_hist.csv",
                                  delimiter=",", skiprows=2).T
    width = centers[1] - centers[0]
    assert len(centers) == 60 and np.all(np.diff(centers) > 0)
    assert density.sum() * width == pytest.approx(1.0)
    assert centers[0] - width / 2 <= lam <= centers[-1] + width / 2


def test_subnormal_eigenvalues_are_binned(tmp_path):
    """Eigenvalues a few hundred subnormal spacings apart: numpy's histogram
    of them, and of a range padded by float spacings alone, has bin edges out
    of order; the run used to end in that ValueError's traceback."""
    config = tmp_path / "config.json"
    spectra = {k: v for k, v in PIN_CONFIGS["saturation"].items() if "power" not in k}
    config.write_text(json.dumps(dict(spectra, signal_power=5e-324, interference_power=0.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 0
    env = json.loads((tmp_path / "out" / "saturation_result.json").read_text())
    lam = np.concatenate(env["payload"]["saturation"]["physical"]["samples_per_trial"])
    assert 0 < lam.max() < np.finfo(float).tiny
    centers, density = np.loadtxt(tmp_path / "out" / "saturation_physical_hist.csv",
                                  delimiter=",", skiprows=2).T
    width = centers[1] - centers[0]
    assert len(centers) == 60 and np.all(np.diff(centers) > 0)
    assert np.isfinite(density).all() and density.sum() * width == pytest.approx(1.0)


def test_subnormal_bins_hold_finite_densities(tmp_path):
    """Two eigenvalues near 1e-320, binned over their own range, make bins a
    subnormal width wide, and count / width overflowed: the CSV's first row
    read ``8.854e-321,inf``."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "kind": "eigen", "scenario": "iid", "num_antennas": 1, "users_per_cell": 1,
        "num_cells": 1, "block_length": 1, "signal_power": 1e-320, "trials": 2}))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 0
    centers, density = np.loadtxt(tmp_path / "out" / "eigen_eigen_hist.csv",
                                  delimiter=",", skiprows=2).T
    width = centers[1] - centers[0]
    assert len(density) == 60 and np.isfinite(density).all()
    assert density.sum() * width == pytest.approx(1.0)


def test_overflowing_overlay_is_skipped_with_a_warning(tmp_path):
    """An eigen run whose joint law table overflows keeps its samples and
    drops that overlay with a warning, as any overlay that cannot be built."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(PIN_CONFIGS["eigen"]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                       "--set", "signal_power=1e200"])
    assert rc == 0
    eigen = json.loads((tmp_path / "out" / "eigen_result.json").read_text())["payload"]["eigen"]
    assert eigen["samples_per_trial"] and "double_sided" not in eigen["supports"]
    assert any(str(w.message).startswith("could not attach double_sided support: "
                                         "double_sided_parts(") for w in caught)


# a small eigen run (its Monte Carlo samples differ in the last digits with
# the BLAS thread count unless the trials fix it) and a small BER run
_THREAD_CONFIGS = {
    "eigen": dict(kind="eigen", scenario="identical_aoas", num_antennas=300,
                  users_per_cell=5, num_cells=4, block_length=500, aoa_counts=[100],
                  signal_power_db=-10.0, interference_power_db=-16.0,
                  noise_enabled=False, spacing_ratio=2.0, trials=4),
    "ber": dict(kind="ber", scenario="identical_aoas", num_antennas=100,
                users_per_cell=5, num_cells=4, block_length=200, aoa_counts=[50],
                noise_enabled=True, spacing_ratio=0.5, snr_db=-5.0,
                ratios_db=[-6.0, 0.0], bits_target=4000, m_values=[100]),
}


def _pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.parametrize("kind", sorted(_THREAD_CONFIGS))
def test_payload_bytes_invariant_to_thread_settings(kind, tmp_path):
    """The README promise: identical config and seed give identical bytes,
    whatever OPENBLAS_NUM_THREADS says and however many CPUs the trials
    run on (the one-CPU run needs ``os.sched_setaffinity``)."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(_THREAD_CONFIGS[kind], label="t")))
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    runs = [("blas1", {"OPENBLAS_NUM_THREADS": "1"}, None),
            ("blas2", {"OPENBLAS_NUM_THREADS": "2"}, None)]
    if hasattr(os, "sched_setaffinity"):
        runs.append(("cpu1", {}, _pin_to_one_cpu))
    outputs = {}
    for name, extra, preexec in runs:
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "mimospectra.cli", "run", "--config", str(config),
             "--seed", "1234", "--out", str(out)],
            env={**base, **extra}, capture_output=True, text=True, timeout=300,
            preexec_fn=preexec)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads((out / "t_result.json").read_text())["payload"]
        outputs[name] = [json.dumps(payload, sort_keys=True).encode()] + [
            path.read_bytes() for path in sorted(out.glob("*.csv"))]
    assert all(output == outputs["blas1"] for output in outputs.values())


# modules that no run uses: scipy's (the solver uses numpy's bundled
# OpenBLAS), numpy's (numpy.ma is imported by np.unique) and the thread pool's
UNUSED_MODULES = ("scipy", "scipy.linalg", "numpy.ma", "numpy.polynomial",
                  "concurrent.futures")


def test_import_leaves_scipy_linalg_unloaded(tmp_path):
    """Start-up and memory cost: none of UNUSED_MODULES is loaded by the CLI
    and the laws on import, by a support_plot run (support scans) or by a
    whole BER run, which solves its eigenpairs with the LAPACKE_zheevr of
    numpy's bundled OpenBLAS and builds its DFT pilot in numpy; on Linux,
    scipy's own OpenBLAS (in ``scipy.libs``) is not mapped either."""
    configs = []
    for kind in ("support_plot", "ber"):
        configs.append(tmp_path / f"{kind}.json")
        configs[-1].write_text(json.dumps(dict(PIN_CONFIGS[kind], label=kind)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, mimospectra.cli, mimospectra.rmt\n"
            f"unused = {UNUSED_MODULES!r}\n"
            "print('loaded', 0, [m for m in unused if m in sys.modules])\n"
            "for config in sys.argv[1:]:\n"
            "    rc = mimospectra.cli.main(['run', '--config', config, '--out', config + '.out'])\n"
            "    print('loaded', rc, [m for m in unused if m in sys.modules])\n"
            "if sys.platform.startswith('linux'):\n"
            "    with open('/proc/self/maps') as maps:\n"
            "        print('mapped', [line for line in maps if 'scipy.libs' in line])")
    proc = subprocess.run([sys.executable, "-c", code, *map(str, configs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("loaded")]
    assert lines == ["loaded 0 []"] * 3
    if sys.platform.startswith("linux"):
        assert [line for line in proc.stdout.splitlines()
                if line.startswith("mapped")] == ["mapped []"]
    for kind in ("support_plot", "ber"):
        assert (tmp_path / f"{kind}.json.out" / f"{kind}_result.json").exists()


def test_numpy_alone_gives_the_pinned_payloads(tmp_path):
    """A numpy without its bundled OpenBLAS and an install without scipy:
    every kind runs on numpy's own products and ``np.linalg.eigh``, and its
    payload matches payload_pins.json under the pins' tolerances."""
    configs = tmp_path / "configs.json"
    configs.write_text(json.dumps(PIN_CONFIGS))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import json, sys\n"
            "from pathlib import Path\n"
            "sys.modules['scipy'] = None\n"
            "from mimospectra import cli, estimation\n"
            "estimation.bundled_openblas = lambda: None\n"
            "assert estimation.bundled_openblas() is None\n"
            "payloads = {}\n"
            "for kind, raw in json.loads(Path(sys.argv[1]).read_text()).items():\n"
            "    cfg = cli.parse_config(dict(raw, label=kind))\n"
            "    env = cli.run_preset(cfg, Path(sys.argv[2]) / kind)\n"
            "    payloads[kind] = json.loads(env.read_text())['payload']\n"
            "loaded = [m for m, mod in sys.modules.items()\n"
            "          if m.split('.')[0] == 'scipy' and mod is not None]\n"
            "print(json.dumps({'loaded': loaded, 'payloads': payloads}))")
    proc = subprocess.run([sys.executable, "-c", code, str(configs), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] == []
    assert set(result["payloads"]) == set(PIN_CONFIGS)
    for kind, payload in result["payloads"].items():
        _assert_payload_matches(payload, PAYLOAD_PINS[kind], (kind,))


def test_failed_eigensolve_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    """A LAPACK failure in the subspace solve is a numerical failure, not a
    traceback."""
    openblas = estimation.bundled_openblas()._replace(
        scipy_LAPACKE_zheevr64_=lambda *args: 1)
    monkeypatch.setattr(estimation, "bundled_openblas", lambda: openblas)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(PIN_CONFIGS["ber"]))
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(config), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out and not out.exists()
    err = captured.err.strip()
    assert err == "numerical failure: Hermitian eigensolver failed: LAPACKE_zheevr info=1"
