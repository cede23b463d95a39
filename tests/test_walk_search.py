"""tools/walk_search.py: random walks against their points' descents."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("walk_search", ROOT / "tools" / "walk_search.py")
walk_search = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(walk_search)


def test_three_cases_summarise_their_rows():
    got = walk_search.search(3, seed=0, points=20)
    rows = got.pop("per_case")
    assert [label.split("/")[0] in walk_search.LAWS for label, _, _ in rows] == [True] * 3
    walked = [off for _, off, _ in rows if off is not None]
    assert got == {
        "cases": 3,
        "walk_raises": 3 - len(walked),
        "raises_with_every_descent_ok": sum(off is None and not bad for _, off, bad in rows),
        "cases_off": sum(off > 0 for off in walked),
        "points_off": sum(walked),
        "descent_raises": sum(bad for _, _, bad in rows),
    }
