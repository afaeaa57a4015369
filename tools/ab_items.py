"""Paired timing of two source trees on the same benchmark items.

    python3 tools/ab_items.py A B --workload grid_sweep --items 300 [--seed 5]

A and B are checkouts of projeq (each with src/ and bench/workloads.py).
Each runs in its own worker process, which imports that tree's projeq and
workload and only reads the tree.  Both workers draw the same items from the
seed; item by item the driver asks one side, then the other, to run the
next item, and it alternates which side goes first, so that both sides meet
the same machine load.  It prints each side's total time and the number of
items whose checks failed, then the ratio of the total times (A / B) and
the median per-item speed-up, the median of t_A / t_B: above 1 when B is
faster.  It exits with status 1 when any item failed on either side.

Timing two trees in turn, each in its own run, measures the machine's drift
as much as the trees; pairing item by item cancels most of it.  Running one
tree on both sides (an A/A run) shows what is left: a ratio near 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("grid_sweep", "geodesic_flow", "rectify_roundtrip")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def serve(tree: str, workload: str, seed: int):
    """Worker: set up the tree's workload, then for each line on stdin draw
    the next item, run it and print {"kind", "s", "failed"} as one line."""
    root = Path(tree).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from workloads import WORKLOADS as registry

    wl = registry[workload](seed)
    wl.setup()
    print(json.dumps({"ready": True}), flush=True)
    for _ in sys.stdin:
        inputs = wl.draw()
        t0 = time.perf_counter()
        try:
            failed = wl.run(inputs)
        except Exception as e:      # an item's exception fails the item, not the run
            failed = [f"exception: {type(e).__name__}: {e}"]
        dt = time.perf_counter() - t0
        print(json.dumps({"kind": wl.kind(inputs), "s": dt, "failed": failed}), flush=True)


class Worker:
    def __init__(self, tree: str, workload: str, seed: int):
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.update({v: "1" for v in THREAD_VARS})
        env.pop("PYTHONPATH", None)
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve", tree, workload, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        self.read()

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with status {self.proc.wait()}")
        return json.loads(line)

    def item(self) -> dict:
        self.proc.stdin.write("next\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def compare(a: str, b: str, workload: str, items: int, seed: int) -> int:
    sides = {"A": Worker(a, workload, seed), "B": Worker(b, workload, seed)}
    times = {"A": [], "B": []}
    failed = {"A": 0, "B": 0}
    try:
        for i in range(items):
            for side in ("A", "B") if i % 2 == 0 else ("B", "A"):
                r = sides[side].item()
                times[side].append(r["s"])
                if r["failed"]:
                    failed[side] += 1
                    print(f"{side} item {i} ({r['kind']}) failed: {r['failed']}",
                          file=sys.stderr)
    finally:
        for w in sides.values():
            w.close()
    print(f"workload={workload} items={items} seed={seed}")
    for side, tree in (("A", a), ("B", b)):
        print(f"{side}: {tree} total {sum(times[side]):.4f} s, "
              f"{failed[side]} of {items} items failed")
    print(f"total-time ratio A/B: {sum(times['A']) / sum(times['B']):.4f}")
    speedup = statistics.median(ta / tb for ta, tb in zip(times["A"], times["B"]))
    print(f"median per-item speed-up (t_A / t_B): {speedup:.4f}")
    return 1 if failed["A"] or failed["B"] else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--serve"]:
        serve(argv[1], argv[2], int(argv[3]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("a", metavar="A", help="the first tree")
    parser.add_argument("b", metavar="B", help="the second tree")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--items", type=int, required=True)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    if args.items < 1:
        parser.error("--items must be at least 1")
    return compare(args.a, args.b, args.workload, args.items, args.seed)


if __name__ == "__main__":
    sys.exit(main())
