"""projeq benchmark launcher: each workload in fresh single-threaded processes.

    python3 bench/run.py --workload grid_sweep --seed 1 --seconds 35 --trace 0

Run from the repository root; projeq is imported from ./src.  With
`--trace 0` it prints every end-to-end metric by name and unit; with
`--trace 1` the per-layer numbers of a traced pass.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs the three workloads in turn, each with its own lines.
A full report (provenance, per-kind latencies, failures, and with
`--trace 1` the spans) is written under bench/out/.  Times are in reference
seconds: wall time scaled by the speed of a fixed kernel (reference.py).
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

from reference import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("grid_sweep", "geodesic_flow", "rectify_roundtrip")
SETUPS = 3              # fresh-process setups per run; setup_s and import_s are their median
SLACK_S = 100.0         # setups and the last item; with 2 x --seconds the whole run's
                        # deadline, 170 s at --seconds 35
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(mode: str, workload: str, args, deadline: float) -> dict:
    """Run worker.py to completion (killed at the deadline) and parse its JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(args.seed),
           str(args.seconds), repr(time.monotonic())]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(lines[-1])


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def mix_weights(kinds, mix: dict) -> list[float]:
    """Weight of each item such that every kind counts with its share of the
    workload's family cycle, however many of its items the run reached."""
    counts = {k: kinds.count(k) for k in set(kinds)}
    total = sum(mix[k] for k in counts)
    return [mix[k] / total / counts[k] for k in kinds]


def percentile(values, weights, q: float) -> float:
    """Weighted percentile, interpolated between the weight midpoints of the
    sorted values (with equal weights, the Hazen plotting position)."""
    points, cum = [], 0.0
    for v, w in sorted(zip(values, weights)):
        points.append((cum + 0.5 * w, v))
        cum += w
    q *= cum / 100.0
    if q <= points[0][0]:
        return points[0][1]
    for (p0, v0), (p1, v1) in zip(points, points[1:]):
        if q <= p1:
            return v0 + (v1 - v0) * (q - p0) / (p1 - p0)
    return points[-1][1]


def end_to_end(main: dict, setups: list[float]) -> tuple[dict, list[str]]:
    kinds, wall, ref = zip(*main["items"])
    n = len(ref)
    weights = mix_weights(kinds, main["mix"])
    ms = [1000.0 * v for v in ref]
    wall_ms = [1000.0 * v for v in wall]
    p90 = percentile(ms, weights, 90)
    failed = len(main["failures"])
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} fresh-process setups"),
        "items_per_s": (1.0 / sum(w * v for w, v in zip(weights, ref)), "1/s",
                        f"{n} items; wall: {n / main['wall_s']:.4g}/s over {main['wall_s']:.1f} s"),
        "item_ms_p50": (percentile(ms, weights, 50), "ms",
                        f"n={n}; wall: {percentile(wall_ms, weights, 50):.5g} ms"),
        "item_ms_p90": (p90, "ms", f"n={n}, {sum(v > p90 for v in ms)} beyond p90; "
                                   f"wall: {percentile(wall_ms, weights, 90):.5g} ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB", "ru_maxrss of the measuring process"),
        "failed_frac": (failed / n, "ratio", f"{failed} of {n} items failed a check"),
    }
    lines = [f"{name:<14} {value:>12.6g} {unit:<6} {note}"
             for name, (value, unit, note) in metrics.items()]
    return {k: v[:2] for k, v in metrics.items() if k != "failed_frac"}, lines


def by_kind(items) -> dict:
    """Median reference and wall latency per item kind."""
    kinds: dict[str, list[tuple[float, float]]] = {}
    for kind, wall, ref in items:
        kinds.setdefault(kind, []).append((wall, ref))
    return {k: {"n": len(v), "ms_p50": 1000 * statistics.median(r for _, r in v),
                "wall_ms_p50": 1000 * statistics.median(w for w, _ in v)}
            for k, v in sorted(kinds.items())}


def run(workload: str, args) -> dict | None:
    """One workload: print its metrics, write its report, return its result."""
    deadline = time.monotonic() + SLACK_S + 2 * args.seconds
    try:
        setups = [spawn("setup", workload, args, deadline) for _ in range(SETUPS - 1)]
        main_out = spawn("trace" if args.trace else "measure", workload, args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"benchmark aborted: {e}", file=sys.stderr)
        return None
    setups.append(main_out)

    info = machine() | {"versions": main_out["versions"]}
    print(f"projeq benchmark  workload={workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"machine: {info['cpu']}, nproc {info['nproc']} (affinity {info['affinity']}), "
          + ", ".join(f"{k} {v}" for k, v in info["versions"].items())
          + f", commit {info['commit']}")
    print(f"times in reference seconds (bench/reference.py), kernel {REFERENCE_S * 1000:g} ms")
    report = {"args": vars(args) | {"workload": workload}, "machine": info,
              "failures": main_out["failures"]}

    if args.trace:
        metrics = {"import_s": (statistics.median(s["import_s"] for s in setups), "s")}
        metrics |= main_out["metrics"]
        attempted = main_out["attempted"]
        for name, (value, unit) in metrics.items():
            print(f"{name:<32} {value:>14.6g} {unit}")
        for name, why in main_out["unobservable"].items():
            print(f"{name:<32} {'n/a':>14} {why}")
        report["unobservable"] = main_out["unobservable"]
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{workload}-seed{args.seed}.json").write_text(
            json.dumps(main_out["spans"]))
    else:
        metrics, lines = end_to_end(main_out, [s["setup_s"] for s in setups])
        attempted = len(main_out["items"])
        print("\n".join(lines))
        report["setup_wall_s"] = [s["setup_wall_s"] for s in setups]
        report["by_kind"] = by_kind(main_out["items"])
        report["items"] = main_out["items"]

    failed = len(main_out["failures"])
    for f in main_out["failures"][:5]:
        print(f"FAILED {f['kind']}: {', '.join(f['checks'])}", file=sys.stderr)
        if f["traceback"]:
            print(f["traceback"], file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    report["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps(result))
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "projeq" / "__init__.py").is_file():
        print(f"projeq sources not found under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run(w, args) for w in workloads]
    return 0 if all(r is not None for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
