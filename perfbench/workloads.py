"""Workload definitions: the configs and operations each workload runs.

The benchmark owns its configs. They are written out as complete JSON files
and handed to ``mimospectra run --config ... --seed ...``, so the program
only ever sees the generated inputs and a later change to the CLI presets
does not change what is measured.

An operation is one fresh process: either one CLI preset run or the
``laws`` library operation in ``op.py``. One pass of a workload runs each of
its operations once.
"""

from __future__ import annotations

from dataclasses import dataclass

RATIOS_DB = [-12.0, -10.5, -9.0, -7.5, -6.0, -4.5, -3.0, -1.5, 0.0]

# the paper-scale eigen/support operating point (fig1-fig6 presets)
PAPER_BASE = dict(scenario="identical_aoas", num_antennas=400, users_per_cell=5,
                  num_cells=4, block_length=1000, aoa_counts=[200],
                  signal_power_db=-10.0, interference_power_db=-16.0,
                  noise_enabled=False, spacing_ratio=2.0)

# fig7 at desk scale (M and P halved) restricted to the M=200 family; the
# CLI adds the i.d. reference family. 4 blocks of 200x400 per ratio point.
BER_WIDE = dict(kind="ber", label="fig7", scenario="identical_aoas",
                num_antennas=200, users_per_cell=5, num_cells=4,
                block_length=400, aoa_counts=[100], noise_enabled=True,
                spacing_ratio=0.5, snr_db=-5.0, ratios_db=RATIOS_DB,
                bits_target=4 * 2 * 5 * 395, m_values=[200])

# fig9 at desk scale: i.d., K=15, L=4, M=200, N in {30, 60, 120};
# 36 + 12 + 6 blocks per ratio point
BER_SHORT = dict(kind="ber_short", label="fig9", scenario="iid", num_antennas=200,
                 users_per_cell=15, num_cells=4, block_length=120,
                 noise_enabled=True, spacing_ratio=0.5, snr_db=0.0,
                 ratios_db=RATIOS_DB, bits_target=16_000, n_values=[30, 60, 120])


@dataclass(frozen=True)
class Op:
    """One operation: a CLI run of ``config`` or the ``laws`` library op."""

    name: str
    config: dict | None = None

    @property
    def is_cli(self) -> bool:
        return self.config is not None


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    # spans that must record at least one call in a traced pass
    expected_spans: tuple[str, ...]


_CLI_SPANS = ("cli.load_config", "cli.run_preset")

WORKLOADS = {
    # no BER: support scans, implicit laws and the Monte Carlo eigen path
    "spectra": Workload(
        (Op("fig1", dict(PAPER_BASE, kind="support_plot", label="fig1",
                         modes=["onesided", "iid"])),
         Op("fig2", dict(PAPER_BASE, kind="support_plot", label="fig2",
                         modes=["double", "iid"])),
         Op("fig3", dict(PAPER_BASE, kind="eigen", label="fig3", trials=20)),
         Op("fig4", dict(PAPER_BASE, kind="saturation", label="fig4", num_aoas=100,
                         m_physical=600, trials=500)),
         Op("fig5", dict(PAPER_BASE, kind="eigen", label="fig5",
                         scenario="distinct_aoas", aoa_counts=[200, 200, 200, 200],
                         trials=20)),
         Op("laws")),
        _CLI_SPANS + ("sim.eigen", "sim.trial_rng", "channel.realize_channel",
                      "channel.crandn", "rmt.support_onesided",
                      "rmt.support_double_sided", "rmt.support_iid",
                      "rmt.support_distinct", "rmt.inverse_coeffs", "rmt.stieltjes",
                      "rmt.density_from_stieltjes")),
    # BER sweeps on wide (N > M) and short (N < M) blocks
    "ber": Workload(
        (Op("fig7", BER_WIDE), Op("fig9", BER_SHORT)),
        _CLI_SPANS + (
            "sim.ber", "sim.trial_rng", "channel.realize_channel", "channel.crandn",
            "estimation.estimate_subspace_channel", "estimation.pilot_based_detect",
            "estimation.mf_detect", "estimation.data_block",
            "estimation.count_bit_errors")),
}
