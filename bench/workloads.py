"""The three benchmark workloads: seeded inputs, one item, and its checks.

Inputs are drawn from the parameter distributions of the acceptance suite's
instances (polynomial X and Y, h in {z, z^2, exp z, z + z^3}, monotone
polynomial admissible changes), and every item is checked against the
acceptance suite's bounds.  The program under test receives only expression
strings, charts and phase states.

Each workload cycles through the families in a fixed order, and the
complex-Liouville items through the four h in turn, so every run holds the
same mix whatever its length or seed; the seed draws only the continuous
parameters, which barely change the cost of an item.  Every item also runs
its workload's negative control, for the same reason: the mix, and so the
latency percentiles, do not jump when a run ends one item earlier or later.
"""

from __future__ import annotations

import numpy as np

import projeq as pq
from projeq.errors import ChartExit, RectifyError

# acceptance-suite bounds (tests/test_acceptance.py)
VERIFY_TOL = 1e-9               # criterion 1
ORACLE_GAP = 1e-9               # criterion 9: sys vs bracket residual gap
CLASSIFY_MIN_FRACTION = 0.95    # criterion 2
TRIVIAL_SCALE_RTOL = 1e-6       # criterion 7
NEGATIVE_MIN_RESIDUAL = 1e-4    # criterion 8
PROJECTIVE_RESIDUAL = 1e-6      # criterion 2
INVARIANT_DRIFT = 1e-6          # criterion 3
RECONSTRUCTION = 1e-6           # criterion 5

H_CHOICES = ("z", "z^2", "exp(z)", "z + z^3")
EXPECTED_TAG = {
    "liouville": "real_distinct",
    "complex_liouville": "complex_pair",
    "jordan_block": "jordan_block",
}
PERTURBATION = "x/100"          # b -> b + x/100 turns an integral into a non-integral


def poly_expr(var: str, const: float, coeffs) -> str:
    """'c0 + c1*v + c2*v^2 + ...' with signs folded into the operators."""
    out = f"{const:.6f}"
    for k, c in enumerate(coeffs, start=1):
        mono = var if k == 1 else f"{var}^{k}"
        out += f" {'+' if c >= 0 else '-'} {abs(c):.6f}*{mono}"
    return out


def draw_spec(rng, family: str, sign: str, grid, variant: int):
    """A normal-form spec; `variant` picks h for complex-Liouville specs."""
    if family == "liouville":
        # X in ~[2.1, 3.9], Y in ~[0.2, 0.95]: separated and of one sign
        chart = pq.Chart((-0.5, 0.5), (-0.5, 0.5), grid)
        X = poly_expr("x", 3.0, rng.uniform(-0.4, 0.4, 3))
        Y = poly_expr("y", 0.55, rng.uniform(-0.2, 0.2, 3))
        return pq.LiouvilleSpec(X, Y, sign, chart)
    if family == "complex_liouville":
        h = H_CHOICES[variant % len(H_CHOICES)]
        dx, dy = rng.uniform(-0.05, 0.05, 2)
        chart = pq.Chart((0.5 + dx, 1.5 + dx), (0.5 + dy, 1.2 + dy), grid)
        return pq.ComplexLiouvilleSpec(h, chart)
    chart = pq.Chart((-0.4, 0.4), (-0.5, 0.5), grid)
    return pq.JordanBlockSpec(poly_expr("y", 1.5, rng.uniform(-0.25, 0.25, 3)), chart)


def perturbed(F: pq.QuadraticForm) -> pq.QuadraticForm:
    b_bad = F.b + pq.ScalarField.from_expr(pq.parse(PERTURBATION))
    return pq.QuadraticForm(F.a, b_bad, F.c, F.chart)


class Workload:
    """Draws item inputs in a fixed sequence from the seed and runs them.

    `draw()` returns the next item's inputs and is not timed; `run(inputs)`
    is one timed item and returns the names of the checks that failed.
    """

    name = ""
    stream = 0              # separates the workloads' random streams
    cycle: tuple = ()       # (family, liouville sign) in item order
    grid = (21, 21)

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, self.stream])
        self.index = 0

    def setup(self):
        """Build inputs shared by all items (none by default)."""

    def next_spec(self):
        """(family, sign, spec) of the next item."""
        self.index += 1
        return self.spec(self.rng, self.index - 1)

    def spec(self, rng, i: int):
        """(family, sign, spec) of position i of the family cycle."""
        family, sign = self.cycle[i % len(self.cycle)]
        # complex-Liouville holds every third position of every cycle
        return family, sign, draw_spec(rng, family, sign, self.grid, i // 3)

    @staticmethod
    def kind(inputs) -> str:
        return inputs[0]

    @staticmethod
    def label(family: str, sign: str | None) -> str:
        return f"{family}{sign or ''}"

    def mix(self) -> dict[str, float]:
        """Share of each item kind in one full cycle."""
        kinds = [self.label(f, s) for f, s in self.cycle]
        return {k: kinds.count(k) / len(kinds) for k in kinds}


class GridSweep(Workload):
    """generate -> verify (auto; null forms also by bracket) -> classify ->
    triviality, plus the perturbed-integral control, on the 21x21 chart."""

    name = "grid_sweep"
    stream = 1
    cycle = (("liouville", "+"), ("complex_liouville", None), ("jordan_block", None),
             ("liouville", "-"), ("complex_liouville", None), ("jordan_block", None))

    def draw(self):
        family, sign, spec = self.next_spec()
        return self.label(family, sign), family, spec

    def run(self, inputs) -> list[str]:
        _, family, spec = inputs
        failed = []
        pair = pq.generate(spec)
        rep = pq.verify_integral(pair.g, pair.F, tol=VERIFY_TOL)
        if not (rep.passed and rep.max_residual < VERIFY_TOL):
            failed.append("verify")
        if rep.method == "sys":
            br = pq.verify_integral(pq.null_form_of(pair.g), pair.F, method="bracket",
                                    tol=VERIFY_TOL)
            if br.passed != rep.passed or not abs(br.max_residual - rep.max_residual) < ORACLE_GAP:
                failed.append("bracket_cross_check")
        cls = pq.classify_pair(pair.g, pair.gbar)
        if cls.tag != EXPECTED_TAG[family] or cls.fraction < CLASSIFY_MIN_FRACTION:
            failed.append("classify")
        triv = pq.triviality_check(pq.hamiltonian_form(pair.g).scaled(3.0), pair.g)
        if not (triv.trivial and abs(triv.scale - 3.0) <= 3.0 * TRIVIAL_SCALE_RTOL):
            failed.append("triviality_3H")
        if pq.triviality_check(pair.F, pair.g).trivial:
            failed.append("triviality_F")
        bad = pq.verify_integral(pair.g, perturbed(pair.F), tol=VERIFY_TOL)
        if bad.passed or not bad.max_residual > NEGATIVE_MIN_RESIDUAL:
            failed.append("negative_control")
        return failed


class GeodesicFlow(Workload):
    """One geodesic of g or gbar per item; the pairs are built in setup."""

    name = "geodesic_flow"
    stream = 2
    cycle = GridSweep.cycle * 2     # twelve pairs: each h once
    t_end = 1.0
    tol = 1e-10
    pscale = 0.35

    def setup(self):
        rng = np.random.default_rng([self.seed, self.stream, 0])
        self.pairs = [pq.generate(self.spec(rng, i)[2]) for i in range(len(self.cycle))]

    def draw(self):
        # blocks of twelve items: a g-geodesic of each pair, then a gbar-geodesic of each
        k = self.index % len(self.cycle)
        forward = (self.index // len(self.cycle)) % 2 == 0
        self.index += 1
        pair = self.pairs[k]
        g = pair.g if forward else pair.gbar
        chart = g.chart
        (xlo, xhi), (ylo, yhi) = chart.x_range, chart.y_range
        mx, my = 0.2 * (xhi - xlo), 0.2 * (yhi - ylo)
        while True:
            x = float(self.rng.uniform(xlo + mx, xhi - mx))
            y = float(self.rng.uniform(ylo + my, yhi - my))
            p = self.rng.uniform(-1.0, 1.0, 2)
            p *= self.pscale / max(np.linalg.norm(p), 1e-9)
            s = pq.PhaseState(x, y, float(p[0]), float(p[1]))
            # a numerically null covector is useless as a geodesic seed
            if abs(pq.hamiltonian(g, s)) >= 0.05 * self.pscale ** 2:
                break
        return self.label(*self.cycle[k]) + (":g" if forward else ":gbar"), k, forward, s

    def mix(self) -> dict[str, float]:
        return {f"{k}:{d}": share / 2 for k, share in super().mix().items()
                for d in ("g", "gbar")}

    def _geodesic(self, g, s):
        """On chart exit keep the partial trajectory when it has at least 3
        samples, otherwise retry with halved momentum (acceptance suite)."""
        for _ in range(6):
            try:
                return pq.integrate_geodesic(g, s, self.t_end, tol=self.tol)
            except ChartExit as e:
                if e.trajectory is not None and len(e.trajectory) >= 3:
                    return e.trajectory
                s = pq.PhaseState(s.x, s.y, 0.5 * s.px, 0.5 * s.py)
        return None

    def run(self, inputs) -> list[str]:
        _, k, forward, s = inputs
        pair = self.pairs[k]
        a, b = (pair.g, pair.gbar) if forward else (pair.gbar, pair.g)
        traj = self._geodesic(a, s)
        if traj is None:
            return ["chart_exit"]
        failed = []
        if not pq.projective_residual(b, traj) < PROJECTIVE_RESIDUAL:
            failed.append("projective_residual")
        if forward:
            vals = np.array([pq.projective_integral_momentum(pair.g, pair.gbar,
                                                             pq.PhaseState(*st))
                             for st in traj.states])
            scale = max(float(np.max(np.abs(vals))), 1e-12)
            if not float(np.ptp(vals)) / scale < INVARIANT_DRIFT:
                failed.append("invariant_drift")
        return failed


class RectifyRoundtrip(Workload):
    """generate (11x11) -> null form -> random admissible change -> rectify,
    then the same change with a perturbed integral, which must be rejected."""

    name = "rectify_roundtrip"
    stream = 3
    # rectification needs signature (+,-), so Liouville uses the '-' sign only
    cycle = (("liouville", "-"), ("complex_liouville", None), ("jordan_block", None))
    grid = (11, 11)

    @staticmethod
    def label(family: str, sign: str | None) -> str:
        return family

    def draw(self):
        family, _, spec = self.next_spec()
        # phi' = 1 + 2 c2 t + 3 c3 t^2 >= 1 - 0.2 - 0.15 > 0 for |t| <= T
        change = self.rng.uniform([-0.2, -0.1, -0.05] * 2, [0.2, 0.1, 0.05] * 2)
        return family, spec, change

    @staticmethod
    def admissible_change(u, chart) -> pq.AdmissibleChange:
        def one(var, lo, hi, c0, c2, c3):
            T = max(abs(lo), abs(hi), 0.5)
            return poly_expr(var, c0, [1.0, c2 / T, c3 / (T * T)])

        return pq.AdmissibleChange(one("x", *chart.x_range, *u[:3]),
                                   one("y", *chart.y_range, *u[3:]))

    def run(self, inputs) -> list[str]:
        family, spec, u = inputs
        failed = []
        pair = pq.generate(spec)
        nf, F, _ = pq.to_null_form(pair.g, pair.F)
        change = self.admissible_change(u, nf.chart)
        nf2, F2 = pq.apply_admissible_change(nf, F, change)
        rep = pq.rectification_pipeline(nf2, F2)
        recon = rep.to_dict()["reconstruction_residual"]
        if rep.family != family or not recon <= RECONSTRUCTION:
            failed.append("round_trip")
        # fresh transformed fields, so the control pays its own evaluations
        nf3, F3 = pq.apply_admissible_change(nf, F, change)
        try:
            pq.rectification_pipeline(nf3, perturbed(F3))
            failed.append("negative_control")
        except RectifyError:
            pass
        return failed


WORKLOADS = {w.name: w for w in (GridSweep, GeodesicFlow, RectifyRoundtrip)}
