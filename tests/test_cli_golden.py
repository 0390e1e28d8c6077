"""CLI tables against stored output, every command in every format, and
the printout of scripts/reproduce_tables.py.

csv, pretty and the script's printout (its run times stripped) must match
the files under tests/golden/ byte for byte.  json is compared after
parsing: the structure and every non-float value exactly, floats to 1e-6
relative, because the trailing digits of the convergence errors are
roundoff of the saddle solve (see README).
"""

import functools
import json
import math
import re
import runpy
import sys
from pathlib import Path

import pytest

from stabmix.cli import emit, parse_args, run

GOLDEN = Path(__file__).parent / "golden"
REPRODUCE = Path(__file__).parent.parent / "scripts" / "reproduce_tables.py"

RUNS = {
    "stability-p1": ["stability", "--problem", "1"],
    "stability-p2": ["stability", "--problem", "2"],
    "convergence-p1": ["convergence", "--problem", "1"],
    "infsup-p1": ["infsup", "--problem", "1"],
    "infsup-p1-drop-bubbles": ["infsup", "--problem", "1", "--drop-bubbles"],
}
NODES = ["--nodes", "5,9"]


@functools.lru_cache(maxsize=None)
def _report(name):
    return run(parse_args(RUNS[name] + NODES))


def _stdout(name, fmt):
    """What `stabmix <run> --nodes 5,9 --format fmt` prints."""
    spec = parse_args(RUNS[name] + NODES + ["--format", fmt])
    return emit(_report(name), spec)


def _assert_close(got, want, path="$"):
    assert type(got) is type(want), f"{path}: {got!r} vs {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{path}: keys differ"
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and math.isfinite(want):
        assert got == pytest.approx(want, rel=1e-6, abs=0.0), path
    else:
        assert got == want, path


@pytest.mark.parametrize("fmt", ["csv", "pretty"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_text_tables_match_golden(name, fmt):
    want = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert _stdout(name, fmt) == want


@pytest.mark.parametrize("name", sorted(RUNS))
def test_json_matches_golden(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    _assert_close(json.loads(_stdout(name, "json")), want)


def test_reproduce_tables_match_golden(monkeypatch, capsys):
    """Both problems' stability and convergence tables, both inf-sup pairs
    and the classical lambda_min lines on 5 and 9 nodes."""
    monkeypatch.setattr(sys, "argv", [str(REPRODUCE), "--meshes", "5,9"])
    runpy.run_path(str(REPRODUCE), run_name="__main__")
    printed = re.sub(r" \(\d+s\)$", "", capsys.readouterr().out, flags=re.M)
    assert printed == (GOLDEN / "reproduce-5-9.txt").read_text(encoding="utf-8")
