"""Field reads and root finds per benchmark workload, and two 256 x 256 peaks.

    python3 tools/field_evals.py

Run from anywhere; projeq is imported from ./src and the workloads from
./bench/workloads.py, which this script only reads.  For the items and seeds
that tools/output_hashes.py draws by default, it sets up each workload and
runs its items as the benchmark does, and prints the number of
ScalarField._at calls and of fields.brentq calls made (geodesic_flow sweeps
in its setup; its items integrate on compiled kernels).  Then it runs two
scripts on 256 x 256 charts, each in a fresh process, and prints the peak
RSS (ru_maxrss) of each:

* complex_z2: a complex-Liouville pair, h = z^2 on (0.5, 1.5)^2, generated,
  verified, classified, tested for triviality (3H and F) and rectified;
* liouville_change: a Liouville pair on (0.5, 1.5) x (0.5, 1.2), brought to
  its null form, pulled through an admissible change and rectified.

It checks nothing: equal counts on two trees mean that both made the same
reads, and the peaks say what the largest charts cost.
"""

from __future__ import annotations

import os
import subprocess
import sys

from output_hashes import ITEMS, ROOT, SEEDS

from projeq import fields
from workloads import WORKLOADS

PEAK_SCRIPTS = {
    "complex_z2": """
chart = pq.Chart((0.5, 1.5), (0.5, 1.5), (256, 256))
pair = pq.generate(pq.ComplexLiouvilleSpec("z^2", chart))
pq.verify_integral(pair.g, pair.F)
pq.classify_pair(pair.g, pair.gbar)
for form in (pq.hamiltonian_form(pair.g).scaled(3.0), pair.F):
    pq.triviality_check(form, pair.g)
nf, F, _ = pq.to_null_form(pair.g, pair.F)
pq.rectification_pipeline(nf, F)
""",
    "liouville_change": """
chart = pq.Chart((0.5, 1.5), (0.5, 1.2), (256, 256))
pair = pq.generate(pq.LiouvilleSpec("3 + x/4 - x^2/5", "0.55 + y/7", "-", chart))
nf, F, _ = pq.to_null_form(pair.g, pair.F)
nf2, F2 = pq.apply_admissible_change(nf, F, pq.AdmissibleChange("x + x^3/20", "y + y^3/30"))
pq.rectification_pipeline(nf2, F2)
""",
}


def counted_run(workload: str, seed: int, items: int) -> tuple[int, int]:
    """(ScalarField._at calls, fields.brentq calls) of the workload's setup
    and its first `items` items from the seed."""
    counts = [0, 0]
    at, brentq = fields.ScalarField._at, fields.brentq

    def counted_at(*args):
        counts[0] += 1
        return at(*args)

    def counted_brentq(*args):
        counts[1] += 1
        return brentq(*args)

    fields.ScalarField._at, fields.brentq = counted_at, counted_brentq
    try:
        wl = WORKLOADS[workload](seed)
        wl.setup()
        for _ in range(items):
            wl.run(wl.draw())
    finally:
        fields.ScalarField._at, fields.brentq = at, brentq
    return counts[0], counts[1]


def peak_rss_mb(script: str) -> float:
    """ru_maxrss of a fresh process that runs the script, in MB."""
    code = ("import resource\nimport projeq as pq\n" + script
            + "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return float(out.stdout.split()[-1])


def main():
    for workload in WORKLOADS:
        for seed in SEEDS:
            at, roots = counted_run(workload, seed, ITEMS)
            print(f"{workload} seed={seed} items={ITEMS} "
                  f"ScalarField._at={at} fields.brentq={roots}")
    for name, script in PEAK_SCRIPTS.items():
        print(f"{name} 256x256 peak_rss_mb={peak_rss_mb(script):.1f}")


if __name__ == "__main__":
    main()
