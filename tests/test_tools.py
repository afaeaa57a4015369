"""tools/output_hashes.py prints one digest per benchmark workload and seed.
Every bit-identity claim rests on those lines, and the tool imports
bench/workloads.py, so a change there could break it unseen."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_hashes.py"
LINE = re.compile(r"(\w+) seed=5 items=2 sha256=[0-9a-f]{64}")


def test_output_hashes_are_the_same_in_fresh_processes(tmp_path):
    runs = [subprocess.run([sys.executable, str(TOOL), "--items", "2", "--seeds", "5"],
                           cwd=tmp_path, capture_output=True, text=True, timeout=300,
                           check=True).stdout.splitlines() for _ in range(2)]
    names = [m.group(1) for m in map(LINE.fullmatch, runs[0]) if m is not None]
    assert names == ["grid_sweep", "rectify_roundtrip", "geodesic_flow"], runs[0]
    assert runs[1] == runs[0]


AB = TOOL.parent / "ab_items.py"


def test_ab_items_runs_one_tree_against_itself(tmp_path):
    """An A/A run pairs the same items on both sides: every item passes its
    checks and the tool prints both totals and the two ratios."""
    tree = str(TOOL.parents[1])
    out = subprocess.run([sys.executable, str(AB), tree, tree, "--workload", "rectify_roundtrip",
                          "--items", "2", "--seed", "5"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "workload=rectify_roundtrip items=2 seed=5"
    assert all(re.fullmatch(f"{side}: .* total [0-9.]+ s, 0 of 2 items failed", line)
               for side, line in zip("AB", lines[1:3], strict=True)), lines
    assert re.fullmatch(r"total-time ratio A/B: [0-9.]+", lines[3])
    assert re.fullmatch(r"median per-item speed-up \(t_A / t_B\): [0-9.]+", lines[4])
