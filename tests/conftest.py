"""Shared randomized family instances for the test suite.

Instances are built once per session from a fixed seed, so every run sees
the same parameters and the suites stay deterministic.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

import projeq as pq
from projeq.geometry import TAGS
from pointwise import g_tensor_at

# HYPOTHESIS_PROFILE=ci: a failing property prints the blob that reproduces it
settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

SEED = 20240817
N_PER_FAMILY = 20

# one pass/fail line per acceptance criterion, echoed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_LINES

H_CHOICES = ("z", "z^2", "exp(z)", "z + z^3")


def poly_expr(var: str, const: float, coeffs) -> str:
    """'c0 + c1*v + c2*v^2 + ...' with signs folded into the operators."""
    out = f"{const:.6f}"
    for k, c in enumerate(coeffs, start=1):
        mono = var if k == 1 else f"{var}^{k}"
        out += f" {'+' if c >= 0 else '-'} {abs(c):.6f}*{mono}"
    return out


def liouville_instance(rng, grid=(21, 21)):
    # X in ~[2.1, 3.9], Y in ~[0.2, 0.95]: separated, same sign (so the
    # determinant ratio stays positive and I is defined)
    chart = pq.Chart((-0.5, 0.5), (-0.5, 0.5), grid)
    X = poly_expr("x", 3.0, rng.uniform(-0.4, 0.4, 3))
    Y = poly_expr("y", 0.55, rng.uniform(-0.2, 0.2, 3))
    sign = "+" if rng.random() < 0.5 else "-"
    spec = pq.LiouvilleSpec(X, Y, sign, chart)
    return {"family": "liouville", "spec": spec, "pair": pq.generate(spec)}


def complex_liouville_instance(rng, grid=(21, 21)):
    i = rng.integers(0, len(H_CHOICES))
    dx = rng.uniform(-0.05, 0.05)
    dy = rng.uniform(-0.05, 0.05)
    chart = pq.Chart((0.5 + dx, 1.5 + dx), (0.5 + dy, 1.2 + dy), grid)
    spec = pq.ComplexLiouvilleSpec(H_CHOICES[i], chart)
    return {"family": "complex_liouville", "spec": spec, "pair": pq.generate(spec)}


def jordan_instance(rng, grid=(21, 21)):
    chart = pq.Chart((-0.4, 0.4), (-0.5, 0.5), grid)
    Y = poly_expr("y", 1.5, rng.uniform(-0.25, 0.25, 3))
    spec = pq.JordanBlockSpec(Y, chart)
    return {"family": "jordan_block", "spec": spec, "pair": pq.generate(spec)}


_MAKERS = {
    "liouville": liouville_instance,
    "complex_liouville": complex_liouville_instance,
    "jordan_block": jordan_instance,
}

EXPECTED_TAG = {
    "liouville": "real_distinct",
    "complex_liouville": "complex_pair",
    "jordan_block": "jordan_block",
}


@pytest.fixture(scope="session")
def instances():
    rng = np.random.default_rng(SEED)
    out = []
    for family, maker in _MAKERS.items():
        for _ in range(N_PER_FAMILY):
            out.append(maker(rng))
    return out


def perturbed(F):
    """The negative control: b + x/100 makes an integral a non-integral."""
    return pq.QuadraticForm(F.a, F.b + pq.ScalarField.from_expr(pq.parse("x/100")), F.c,
                            F.chart)


def assert_classified_pointwise(res, g, gbar):
    """Each grid point's tag and eigen data in a PairClassification (codes,
    e0 and e1, read-only arrays of g's grid in points() order) equal those of
    classify_at of the pair tensor there (tests/pointwise.py).  Returns those
    classifications."""
    want = [pq.classify_at(g_tensor_at(g, gbar, x, y)) for x, y in g.chart.points()]
    for a in (res.codes, res.e0, res.e1):
        assert a.shape == g.chart.grid and not a.flags.writeable
    got = zip(res.codes.ravel().tolist(), res.e0.ravel().tolist(), res.e1.ravel().tolist())
    assert [(TAGS[code], (e0, e1)[:len(c.eigenvalues)])
            for (code, e0, e1), c in zip(got, want, strict=True)] == \
        [(c.tag, c.eigenvalues) for c in want]
    return want


@pytest.fixture
def sweeps(monkeypatch):
    """(field, chart, returned jets) of each ScalarField.on call, in order.
    The list holds every field and jet it names, so object identities stay
    unique for the test: a call answered from the field's kept sweep
    returns the very jets of an earlier call."""
    calls = []
    on = pq.ScalarField.on

    def counted(field, chart):
        jets = on(field, chart)
        calls.append((field, chart, jets))
        return jets

    monkeypatch.setattr(pq.ScalarField, "on", counted)
    return calls


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(SEED + 1)


def random_states(rng, chart, n, pscale=0.6, min_h=None, g=None):
    """n phase states inside the chart; when g is given, resample states
    whose H is numerically null (useless as geodesic seeds)."""
    states = []
    (xlo, xhi), (ylo, yhi) = chart.x_range, chart.y_range
    mx, my = 0.2 * (xhi - xlo), 0.2 * (yhi - ylo)
    while len(states) < n:
        x = rng.uniform(xlo + mx, xhi - mx)
        y = rng.uniform(ylo + my, yhi - my)
        p = rng.uniform(-1.0, 1.0, 2)
        p *= pscale / max(np.linalg.norm(p), 1e-9)
        s = pq.PhaseState(float(x), float(y), float(p[0]), float(p[1]))
        if g is not None:
            if abs(pq.hamiltonian(g, s)) < (min_h or 0.05) * pscale * pscale:
                continue
        states.append(s)
    return states


def random_admissible_change(rng, chart) -> pq.AdmissibleChange:
    """A random monotone polynomial change safe on the given chart."""
    def one(var, lo, hi):
        T = max(abs(lo), abs(hi), 0.5)
        # phi' = 1 + 2 c2 t + 3 c3 t^2 >= 1 - 0.2 - 0.15 > 0 for |t| <= T
        c2 = rng.uniform(-0.1, 0.1) / T
        c3 = rng.uniform(-0.05, 0.05) / (T * T)
        return poly_expr(var, rng.uniform(-0.2, 0.2), [1.0, c2, c3])

    return pq.AdmissibleChange(one("x", *chart.x_range), one("y", *chart.y_range))
