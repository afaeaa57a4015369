"""One SHA-256 per benchmark workload and seed over the outputs of its items.

    python3 tools/output_hashes.py [--items 24] [--seeds 5 9001]

Run from anywhere; projeq is imported from ./src and the workloads from
./bench/workloads.py, which this script only reads.  Two trees whose printed
lines are equal computed the same bits:

* grid_sweep: the sweeps of g's, gbar's, F's and H's fields (all six jet
  slots), det g, the verify reports (auto, bracket on the null form, and the
  perturbed control), the classification (its tag, fraction, counts in
  their order, summary eigenvalues and arrays) and the triviality scales;
* rectify_roundtrip: the sweeps of the transformed f, a, b, c, the
  rectification report's to_dict() JSON and the perturbed control's error;
* geodesic_flow: each item's trajectory (times, states and the log of H)
  and its projective residual against the other metric of the pair.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import projeq as pq  # noqa: E402
from workloads import GeodesicFlow, GridSweep, RectifyRoundtrip, perturbed  # noqa: E402


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def text(self, s: str):
        self._h.update(s.encode() + b"\0")

    def array(self, a):
        a = np.ascontiguousarray(a)
        self.text(f"{a.dtype.str}{a.shape}")
        self._h.update(a.tobytes())

    def jets(self, *jets):
        for j in jets:
            for s in pq.Jet2.__slots__:
                self.array(np.asarray(getattr(j, s), dtype=float))

    def fields(self, chart, *fields):
        self.jets(*(f.on(chart) for f in fields))

    def json(self, d):
        self.text(json.dumps(d, sort_keys=True))

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def grid_sweep(seed: int, items: int, d: _Digest):
    w = GridSweep(seed)
    for _ in range(items):
        _, _, spec = w.draw()
        pair = pq.generate(spec)
        g, gbar, F = pair.g, pair.gbar, pair.F
        chart = g.chart
        d.fields(chart, g.g11, g.g12, g.g22)
        d.fields(gbar.chart, gbar.g11, gbar.g12, gbar.g22)
        d.jets(*F.on(chart))
        d.jets(*pq.hamiltonian_form(g).on(chart))
        d.array(g.det)
        d.json(pq.verify_integral(g, F).to_dict())
        nf = pq.null_form_of(g)
        if nf is not None:
            d.json(pq.verify_integral(nf, F, method="bracket").to_dict())
        d.json(pq.verify_integral(g, perturbed(F)).to_dict())
        cls = pq.classify_pair(g, gbar)
        # counts as pairs, so that their order is hashed too
        d.json([cls.tag, cls.fraction, list(cls.counts.items()), cls.summary.eigenvalues])
        for a in (cls.codes, cls.e0, cls.e1):
            d.array(a)
        for form in (pq.hamiltonian_form(g).scaled(3.0), F):
            d.text(repr(pq.triviality_check(form, g).scale))


def rectify_roundtrip(seed: int, items: int, d: _Digest):
    w = RectifyRoundtrip(seed)
    for _ in range(items):
        _, spec, u = w.draw()
        pair = pq.generate(spec)
        nf, F, _ = pq.to_null_form(pair.g, pair.F)
        change = w.admissible_change(u, nf.chart)
        nf2, F2 = pq.apply_admissible_change(nf, F, change)
        d.fields(nf2.chart, nf2.f, F2.a, F2.b, F2.c)
        d.json(pq.rectification_pipeline(nf2, F2).to_dict())
        nf3, F3 = pq.apply_admissible_change(nf, F, change)
        try:
            pq.rectification_pipeline(nf3, perturbed(F3))
            d.text("no error")
        except pq.ProjEqError as e:
            d.text(f"{type(e).__name__}: {e}")


def geodesic_flow(seed: int, items: int, d: _Digest):
    w = GeodesicFlow(seed)
    w.setup()
    for _ in range(items):
        _, k, forward, s = w.draw()
        pair = w.pairs[k]
        a, b = (pair.g, pair.gbar) if forward else (pair.gbar, pair.g)
        traj = w._geodesic(a, s)
        if traj is None:
            d.text("chart exit")
            continue
        d.array(traj.times)
        d.array(traj.states)
        d.array(traj.hamiltonian_values)
        d.array(np.array([float(pq.projective_residual(b, traj))]))


WORKLOADS = {"grid_sweep": grid_sweep, "rectify_roundtrip": rectify_roundtrip,
             "geodesic_flow": geodesic_flow}
ITEMS, SEEDS = 24, (5, 9001)        # the defaults, which tools/field_evals.py reads too


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--items", type=int, default=ITEMS)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    args = parser.parse_args(argv)
    for name, run in WORKLOADS.items():
        for seed in args.seeds:
            d = _Digest()
            run(seed, args.items, d)
            print(f"{name} seed={seed} items={args.items} sha256={d.hexdigest()}")


if __name__ == "__main__":
    main()
