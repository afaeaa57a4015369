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
