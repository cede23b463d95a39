"""Digest the outputs of CLI presets, to check that a change keeps them.

    PYTHONPATH=src python3 tools/payload_digest.py --scale desk --seed 1234 > new.json
    PYTHONPATH=../old/src python3 tools/payload_digest.py --scale desk --seed 1234 > old.json
    diff old.json new.json

Runs each named preset (all of them by default) in-process through
``mimospectra.cli.main`` and prints one JSON object that maps
``<preset>/<file>`` to the sha256 of each file the run wrote: the result
envelope without its ``wall_clock_s``, each CSV as written. The key
``<preset>/warnings`` holds the sha256 of the run's warning texts, one a
line. The package is the one ``PYTHONPATH`` finds, so the same script
digests any tree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

from mimospectra import cli


def _sha256(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def digest(presets, scale: str, seed: int) -> dict[str, str]:
    """``<preset>/<file>`` -> sha256 for each preset run; raises
    RuntimeError when a run exits nonzero."""
    out = {}
    for preset in presets:
        with tempfile.TemporaryDirectory() as tmp, \
                warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            rc = cli.main(["run", "--preset", preset, "--scale", scale,
                           "--seed", str(seed), "--out", tmp])
            if rc != 0:
                raise RuntimeError(f"preset {preset} exited with code {rc}")
            for path in sorted(Path(tmp).iterdir()):
                text = path.read_text()
                if path.name.endswith("_result.json"):
                    envelope = json.loads(text)
                    del envelope["wall_clock_s"]
                    text = json.dumps(envelope, indent=1, sort_keys=True)
                out[f"{preset}/{path.name}"] = _sha256(text)
        out[f"{preset}/warnings"] = _sha256("\n".join(str(w.message) for w in caught))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("presets", nargs="*", help="presets to run (default: all)")
    parser.add_argument("--scale", choices=("desk", "paper"), default="desk")
    parser.add_argument("--seed", type=int, default=1234)
    args = parser.parse_args(argv)
    try:
        result = digest(args.presets or sorted(cli.PRESETS), args.scale, args.seed)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
