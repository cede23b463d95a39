"""tools/payload_digest.py: digests of preset outputs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("payload_digest",
                                               ROOT / "tools" / "payload_digest.py")
payload_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(payload_digest)


def test_two_runs_give_identical_digests():
    first = payload_digest.digest(["fig1"], "desk", 1234)
    assert set(first) == {"fig1/fig1_result.json", "fig1/fig1_supports.csv",
                          "fig1/warnings"}
    assert payload_digest.digest(["fig1"], "desk", 1234) == first
