"""Output checks: reduce each operation's output to a digest and compare it
with the stored reference digests in ``references/<workload>.json``.

Seed-independent parts (support intervals, eigenvalue sample counts, bit
counts, law densities) are compared on every seed. BER values are compared
point by point against the reference 95% CI on the stored seeds; on any
other seed each family's mean BER must lie within six combined standard
errors of the stored default seed's. Whether the payload sha256 matches the
reference is recorded but is not a check.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

SUPPORT_RTOL = 1e-6
MASS_RTOL = 1e-6
RESIDUAL_MAX = 1e-6
DOUBLE_MASS_TOL = 0.02      # the double-sided law has no zero atom
NONZERO_MASS_RTOL = 0.10    # one-sided / i.d.: mass left after the zero atom
BER_Z = 6.0
DEFAULT_SEED = 1234
HELD_OUT_SEED = 7
STORED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)


def _supports_of(payload: dict) -> dict:
    raw = payload.get("supports") or payload.get("eigen", {}).get("supports") or {}
    return {name: ivs for name, ivs in raw.items()
            if name != "truncation_flags" and ivs is not None}


def _eigen_count(eigen: dict) -> int:
    return sum(len(t) for t in eigen["samples_per_trial"])


def digest_cli(out_dir: Path) -> dict:
    """Digest of one CLI run from its envelope; CSVs must exist beside it."""
    (env_path,) = out_dir.glob("*_result.json")
    payload = json.loads(env_path.read_text())["payload"]
    if not list(out_dir.glob("*.csv")):
        raise ValueError("run wrote no CSV")
    out = {"supports": _supports_of(payload),
           "payload_sha256": hashlib.sha256(
               json.dumps(payload, sort_keys=True).encode()).hexdigest()}
    if "eigen" in payload:
        out["eigen_counts"] = {"eigen": _eigen_count(payload["eigen"])}
    if "saturation" in payload:
        out["eigen_counts"] = {k: _eigen_count(v) for k, v in payload["saturation"].items()}
    if "ber" in payload:
        out["ber"] = {f"{fam}/{scheme}": [[p["sweep_value"], p["ber"], p["ci_lo"],
                                           p["ci_hi"], p["bits"]] for p in points]
                      for fam, schemes in payload["ber"].items()
                      for scheme, points in schemes.items()}
    return out


def digest_laws(out_json: Path) -> dict:
    return json.loads(out_json.read_text())


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(b), 1e-300)


def _check_supports(got: dict, ref: dict) -> list[str]:
    if sorted(got) != sorted(ref):
        return [f"support laws {sorted(got)} != reference {sorted(ref)}"]
    bad = []
    for name, ivs in ref.items():
        flat_got = [v for iv in got[name] for v in iv]
        flat_ref = [v for iv in ivs for v in iv]
        if len(flat_got) != len(flat_ref) or not all(
                _close(a, b, SUPPORT_RTOL) for a, b in zip(flat_got, flat_ref)):
            bad.append(f"support {name} {got[name]} != reference {ivs}")
    return bad


def _family_mean(points: list) -> tuple[float, float, int]:
    """Mean BER over a family's points, its standard error, total bits."""
    bers = [p[1] for p in points]
    ses = [(p[3] - p[1]) / 1.96 for p in points]
    return (sum(bers) / len(bers), math.sqrt(sum(s * s for s in ses)) / len(ses),
            sum(p[4] for p in points))


def _check_ber(got: dict, ref: dict, exact_seed: bool) -> list[str]:
    if sorted(got) != sorted(ref):
        return [f"BER families {sorted(got)} != reference {sorted(ref)}"]
    bad = []
    for fam, ref_points in ref.items():
        points = got[fam]
        if [p[0] for p in points] != [p[0] for p in ref_points]:
            bad.append(f"{fam}: sweep values differ from reference")
            continue
        for p, r in zip(points, ref_points):
            if p[4] != r[4]:
                bad.append(f"{fam} @ {p[0]}: {p[4]} bits != reference {r[4]}")
            if not (0.0 <= p[2] <= p[1] <= p[3] and p[1] <= 1.0):
                bad.append(f"{fam} @ {p[0]}: BER {p[1]} outside its CI [{p[2]}, {p[3]}]")
            if exact_seed and not r[2] - 1e-12 <= p[1] <= r[3] + 1e-12:
                bad.append(f"{fam} @ {p[0]}: BER {p[1]} outside reference CI "
                           f"[{r[2]}, {r[3]}]")
        if not exact_seed:
            mean, se, bits = _family_mean(points)
            ref_mean, ref_se, _ = _family_mean(ref_points)
            tol = BER_Z * math.hypot(se, ref_se) + 10.0 / bits
            if abs(mean - ref_mean) > tol:
                bad.append(f"{fam}: mean BER {mean:.6g} differs from reference "
                           f"{ref_mean:.6g} by more than {tol:.3g}")
    return bad


def _atom_tail(mass: float, lo: float, hi: float, eps: float) -> float:
    """Mass of a zero atom's Lorentzian smear Im(-mass/(x+i eps))/pi on [lo, hi]."""
    return mass / math.pi * (math.atan(hi / eps) - math.atan(lo / eps))


def _check_laws(got: dict, ref: dict) -> list[str]:
    bad = []
    lo, hi, _ = got["grid"]
    for name, law in got["laws"].items():
        if law["min"] < 0.0:
            bad.append(f"{name}: negative density {law['min']}")
        if not _close(law["mass"], ref["laws"][name]["mass"], MASS_RTOL):
            bad.append(f"{name}: density mass {law['mass']} != reference "
                       f"{ref['laws'][name]['mass']}")
        if name == "double_sided":
            if abs(law["mass"] - 1.0) > DOUBLE_MASS_TOL:
                bad.append(f"{name}: density mass {law['mass']} is not 1")
        else:
            nonzero = law["mass"] - _atom_tail(1.0 - got["gamma"], lo, hi, got["eps"])
            if abs(nonzero - got["gamma"]) > NONZERO_MASS_RTOL * got["gamma"]:
                bad.append(f"{name}: bulk mass {nonzero} is not {got['gamma']}")
        for s_re, s_im, g_re, g_im, residual in law["cold"]:
            if g_im <= 0.0 or residual > RESIDUAL_MAX:
                bad.append(f"{name} at s={s_re}+{s_im}j: G={g_re}+{g_im}j, "
                           f"residual {residual}")
    return bad


def check(op_name: str, digest: dict, reference: dict, seed: int
          ) -> tuple[list[str], bool | None]:
    """Failures for one operation's digest, and whether its payload sha256
    matches the stored one (None when the seed has no stored reference)."""
    shared = reference["ops"][op_name]
    if "laws" in digest:
        return _check_laws(digest, shared), None
    bad = _check_supports(digest["supports"], shared["supports"])
    if digest.get("eigen_counts") != shared.get("eigen_counts"):
        bad.append(f"eigen sample counts {digest.get('eigen_counts')} != reference "
                   f"{shared.get('eigen_counts')}")
    per_seed = reference["seeds"].get(str(seed), {}).get(op_name)
    if "ber" in digest:
        exact = per_seed is not None
        ref_ber = (per_seed or reference["seeds"][str(DEFAULT_SEED)][op_name])["ber"]
        bad += _check_ber(digest["ber"], ref_ber, exact)
    sha_match = None if per_seed is None else (
        digest["payload_sha256"] == per_seed["payload_sha256"])
    return bad, sha_match


def reference_entry(digest: dict) -> tuple[dict, dict]:
    """Split a digest into its seed-independent and per-seed reference parts."""
    if "laws" in digest:
        return {"laws": {k: {"mass": v["mass"]} for k, v in digest["laws"].items()}}, {}
    shared = {"supports": digest["supports"]}
    if "eigen_counts" in digest:
        shared["eigen_counts"] = digest["eigen_counts"]
    per_seed = {"payload_sha256": digest["payload_sha256"]}
    if "ber" in digest:
        per_seed["ber"] = digest["ber"]
    return shared, per_seed
