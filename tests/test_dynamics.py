import math
import random
import warnings

import numpy as np
import pytest

import projeq as pq
from conftest import random_states
from pointwise import projective_residual_loop
from projeq.dynamics import _DP_A, _DP_B4, _DP_B5, _advance, hamiltonian_form, quadratic_value
from projeq.errors import ChartExit, DomainError, InvalidArgument, StepFailure, ZeroVelocity

UNIT = pq.Chart((-2.0, 2.0), (-2.0, 2.0), (5, 5))


def euclidean(chart=UNIT):
    return pq.Metric2.from_exprs("1", "0", "1", chart)


def pair_geodesics(instances, integrals=False):
    """(pair, geodesic's metric, the pair's other metric, trajectory) for the
    first two instances of each family: two geodesics of g and two of gbar
    each, logging the pair's F if integrals; a geodesic that leaves the
    chart keeps its samples."""
    rng = np.random.default_rng(27)
    taken = {}
    out = []
    for inst in instances:
        if taken.setdefault(inst["family"], 0) == 2:
            continue
        taken[inst["family"]] += 1
        pair = inst["pair"]
        for a, b in ((pair.g, pair.gbar), (pair.gbar, pair.g)):
            for s in random_states(rng, a.chart, 2, pscale=0.3, g=a):
                try:
                    traj = pq.integrate_geodesic(a, s, 1.0,
                                                 integrals={"F": pair.F} if integrals else None)
                except ChartExit as e:
                    traj = e.trajectory
                out.append((pair, a, b, traj))
    assert sorted(taken) == ["complex_liouville", "jordan_block", "liouville"]
    return out


class TestHamiltonian:
    def test_euclidean_unit_momentum(self):
        assert pq.hamiltonian(euclidean(), pq.PhaseState(0, 0, 1.0, 0.0)) == 0.5

    def test_null_form_value(self):
        # ds^2 = f dx dy -> H = 2 px py / f
        nf = pq.NullFormMetric.from_expr("4", UNIT)
        s = pq.PhaseState(0.0, 0.0, 3.0, 5.0)
        assert pq.hamiltonian(nf.to_metric2(), s) == pytest.approx(2 * 15.0 / 4.0)

    def test_lowered_form_matches(self):
        g = pq.Metric2.from_exprs("3 + x", "x * y / 4", "5 - y", UNIT)
        s = pq.PhaseState(0.3, -0.5, 0.7, -1.1)
        hf = hamiltonian_form(g)
        assert quadratic_value(hf, s) == pytest.approx(pq.hamiltonian(g, s), rel=1e-12)


class TestPoissonBracket:
    def test_h_with_itself_vanishes(self):
        g = pq.Metric2.from_exprs("2 + x^2", "x * y / 3", "3 + y^2", UNIT)
        s = pq.PhaseState(0.4, -0.3, 1.0, 0.7)
        assert pq.poisson_bracket(g, g, s) == pytest.approx(0.0, abs=1e-14)

    def test_antisymmetry(self):
        g = pq.Metric2.from_exprs("2 + x^2", "0", "1", UNIT)
        F = pq.QuadraticForm.from_exprs("y", "x", "1 + x*y", UNIT)
        s = pq.PhaseState(0.4, -0.3, 1.0, 0.7)
        assert pq.poisson_bracket(g, F, s) == pytest.approx(-pq.poisson_bracket(F, g, s))

    def test_against_finite_differences(self):
        F = pq.QuadraticForm.from_exprs("1 + x^2", "x * y", "2 - y", UNIT)
        G = pq.QuadraticForm.from_exprs("y^2", "3", "x", UNIT)
        s = pq.PhaseState(0.3, 0.2, 0.8, -0.6)
        h = 1e-6

        def val(form, x, y, px, py):
            return quadratic_value(form, pq.PhaseState(x, y, px, py))

        def pb_fd():
            out = 0.0
            for i, (dq, dp) in enumerate([((h, 0), (0, 0)), ((0, h), (0, 0))]):
                pass
            # explicit 2D canonical bracket by central differences
            dFx = (val(F, s.x + h, s.y, s.px, s.py) - val(F, s.x - h, s.y, s.px, s.py)) / (2 * h)
            dFy = (val(F, s.x, s.y + h, s.px, s.py) - val(F, s.x, s.y - h, s.px, s.py)) / (2 * h)
            dFpx = (val(F, s.x, s.y, s.px + h, s.py) - val(F, s.x, s.y, s.px - h, s.py)) / (2 * h)
            dFpy = (val(F, s.x, s.y, s.px, s.py + h) - val(F, s.x, s.y, s.px, s.py - h)) / (2 * h)
            dGx = (val(G, s.x + h, s.y, s.px, s.py) - val(G, s.x - h, s.y, s.px, s.py)) / (2 * h)
            dGy = (val(G, s.x, s.y + h, s.px, s.py) - val(G, s.x, s.y - h, s.px, s.py)) / (2 * h)
            dGpx = (val(G, s.x, s.y, s.px + h, s.py) - val(G, s.x, s.y, s.px - h, s.py)) / (2 * h)
            dGpy = (val(G, s.x, s.y, s.px, s.py + h) - val(G, s.x, s.y, s.px, s.py - h)) / (2 * h)
            return dFx * dGpx - dFpx * dGx + dFy * dGpy - dFpy * dGy

        assert pq.poisson_bracket(F, G, s) == pytest.approx(pb_fd(), rel=1e-6, abs=1e-6)


def assert_samples(traj, direction):
    """float64 (n, 4) states and float64 times that run strictly one way
    from 0."""
    n = len(traj)
    assert traj.states.dtype == np.float64 and traj.states.shape == (n, 4)
    assert traj.times.dtype == np.float64 and traj.times.shape == (n,)
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) * direction > 0.0)
    assert traj.hamiltonian_values.shape == (n,)


def test_stage_sums_run_left_to_right_in_tableau_order():
    """Each stage and both final combinations are summed term by term in
    tableau order, so a trajectory's bits follow neither the BLAS kernel
    nor the Python version (builtin sum compensates from 3.12 on)."""
    rng = random.Random(7)
    for row in (*_DP_A, _DP_B5, _DP_B4):
        for _ in range(200):
            ks = [tuple(rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8) for _ in range(4))
                  for _ in row]
            y = tuple(rng.uniform(-1, 1) for _ in range(4))
            h = rng.uniform(-0.1, 0.1)
            want = []
            for c in range(4):
                acc = row[0] * ks[0][c]
                for r, k in zip(row[1:], ks[1:]):
                    acc = acc + r * k[c]
                want.append(y[c] + h * acc)
            assert _advance(y, h, row, ks) == tuple(want)


class TestIntegrator:
    def test_flat_flow_is_straight(self):
        traj = pq.integrate_geodesic(euclidean(), pq.PhaseState(0, 0, 1.0, 0.0), 1.0)
        assert np.allclose(traj.states[-1], [1.0, 0.0, 1.0, 0.0], atol=1e-9)

    def test_energy_conservation(self):
        g = pq.Metric2.from_exprs("2 + x^2 / 4", "x * y / 8", "3 - y / 2",
                                  pq.Chart((-3, 3), (-3, 3), (5, 5)))
        traj = pq.integrate_geodesic(g, pq.PhaseState(0.1, 0.2, 0.8, 0.4), 1.0)
        drift = np.max(np.abs(traj.hamiltonian_values - traj.hamiltonian_values[0]))
        assert drift < 1e-9 * abs(traj.hamiltonian_values[0])

    def test_logs_are_hamiltonian_and_quadratic_value_bit_for_bit(self, instances):
        """_build_trajectory logs H and each integral from the state tuples,
        with the formulas of hamiltonian and quadratic_value."""
        for pair, a, _, traj in pair_geodesics(instances, integrals=True):
            states = [pq.PhaseState(*s) for s in traj.states.tolist()]
            assert len(states) >= 2 and list(traj.integral_values) == ["F"]
            want_h = np.array([pq.hamiltonian(a, s) for s in states])
            want_f = np.array([quadratic_value(pair.F, s) for s in states])
            assert traj.hamiltonian_values.tobytes() == want_h.tobytes()
            assert traj.integral_values["F"].tobytes() == want_f.tobytes()

    def test_integral_logging(self):
        g = euclidean()
        F = pq.QuadraticForm.from_exprs("0", "0", "1", UNIT)  # py^2, conserved
        traj = pq.integrate_geodesic(g, pq.PhaseState(0, 0, 0.6, 0.8), 1.0,
                                     integrals={"F": F})
        assert np.allclose(traj.integral_values["F"], 0.64)

    def test_chart_exit(self):
        with pytest.raises(ChartExit) as ei:
            pq.integrate_geodesic(euclidean(), pq.PhaseState(0, 0, 4.0, 0.0), 1.0)
        assert ei.value.state.x > 2.0
        assert 0.0 < ei.value.t <= 1.0
        assert ei.value.trajectory is not None
        assert_samples(ei.value.trajectory, 1.0)
        assert ei.value.trajectory.times[-1] < ei.value.t

    def test_an_exact_step_does_not_shrink_the_next(self):
        """The PI controller floors the previous error at 1e-4, as Hairer's
        DOPRI5 does.  On the flat chart-exit case the first two steps have
        error 0 and grow by the 5.0 cap; the third has error 1.1e-7, and the
        step after it grows by 0.9 err^-0.14 1e-4^0.08 = 4.05, where a floor
        of 1e-16 made that factor 0.44."""
        with pytest.raises(ChartExit) as ei:
            pq.integrate_geodesic(euclidean(), pq.PhaseState(0, 0, 4.0, 0.0), 1.0)
        h = np.diff(ei.value.trajectory.times)
        assert (h[1:] / h[:-1]).tolist() == pytest.approx([5.0, 5.0, 4.0531], rel=1e-4)
        assert ei.value.t == 1.0

    def test_backward_time(self):
        traj = pq.integrate_geodesic(euclidean(), pq.PhaseState(0, 0, 1.0, 0.0), -1.0)
        assert traj.states[-1][0] == pytest.approx(-1.0, abs=1e-9)
        assert_samples(traj, -1.0)
        assert traj.times[-1] == -1.0

    def test_step_underflow_near_a_singularity(self):
        # det g = (x - 0.05)^2 vanishes between grid points, so the metric
        # builds; the geodesic runs into x = 0.05, where every stage that
        # lands close enough is singular and the step is halved away
        g = pq.Metric2.from_exprs("(x - 0.05)^2", "0", "1",
                                  pq.Chart((-1, 1), (-1, 1), (5, 5)))
        with pytest.raises(StepFailure, match="^step size underflow near a metric singularity$"):
            pq.integrate_geodesic(g, pq.PhaseState(-0.5, 0, 0.01, 0), 50.0)

    def test_step_budget(self):
        with pytest.raises(StepFailure, match="^exceeded the budget of 3 steps$"):
            pq.integrate_geodesic(euclidean(), pq.PhaseState(0, 0, 1.0, 0.0), 1.0, max_steps=3)

    @pytest.mark.parametrize("budget", ["5", 0, -1, 2.5, True, None])
    def test_bad_step_budget_rejected(self, budget):
        """A step budget is a positive int.  Unchecked, "5" raised TypeError
        and 0, 2.5 or True a StepFailure naming that budget."""
        with pytest.raises(InvalidArgument) as ei:
            pq.integrate_geodesic(euclidean(), pq.PhaseState(0, 0, 1.0, 0.0), 1.0,
                                  max_steps=budget)
        assert str(ei.value) == f"max_steps must be a positive integer, got {budget!r}"

    @pytest.mark.parametrize("t_end, tol", [
        (1.0, 0.0), (1.0, -1e-10), (1.0, math.nan), (1.0, math.inf),
        (math.nan, 1e-10), (math.inf, 1e-10), (-math.inf, 1e-10)])
    def test_bad_tol_or_t_end_rejected(self, t_end, tol):
        """Unchecked, tol = 0 divides by zero in the error norm, t_end = nan
        returns a one-sample trajectory and t_end = inf ends in a step
        underflow."""
        with pytest.raises(InvalidArgument, match="^(tol must be finite and positive|"
                                                  "t_end must be finite), got"):
            pq.integrate_geodesic(euclidean(), pq.PhaseState(0, 0, 1.0, 0.0), t_end, tol=tol)

    @pytest.mark.parametrize("state", [
        (math.nan, 0.0, 1.0, 0.0), (0.0, 0.0, math.nan, 0.0), (0.0, 0.0, 1.0, math.inf)],
        ids=["nan_position", "nan_momentum", "infinite_momentum"])
    def test_non_finite_initial_state_rejected(self, state):
        """Unchecked, a NaN position reads as a chart exit at t = 0 and a
        non-finite momentum ends in a step size underflow."""
        s0 = pq.PhaseState(*state)
        with pytest.raises(InvalidArgument) as ei:
            pq.integrate_geodesic(euclidean(), s0, 1.0)
        assert str(ei.value) == f"initial state must be finite, got {s0!r}"

    @pytest.mark.parametrize("a, state, name", [
        ("1", (0.0, 0.0, 1e200, 1e200), "H"),
        ("1e300", (0.0, 0.0, 1e5, 0.0), "F")], ids=["hamiltonian", "integral"])
    def test_initial_state_whose_values_overflow_rejected(self, a, state, name):
        """A finite state may still overflow H or a registered integral.
        Unchecked, (0, 0, 1e200, 1e200) on the flat metric gave a one-sample
        ChartExit trajectory whose H log read [inf]."""
        s0 = pq.PhaseState(*state)
        F = pq.QuadraticForm.from_exprs(a, "0", "1", UNIT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as ei:
                pq.integrate_geodesic(euclidean(), s0, 1.0, integrals={"F": F})
        assert str(ei.value) == f"{name} is not finite at the initial state {s0!r}"

    @pytest.mark.parametrize("state", [(0.0, 0.0, "1", 0.0), (0.0, None, 1.0, 0.0),
                                       (0.0, 0.0, 1.0, 1j)],
                             ids=["string", "none", "complex"])
    def test_non_real_initial_state_rejected(self, state):
        """math.isfinite raises TypeError on these; the library raises its own
        InvalidArgument."""
        s0 = pq.PhaseState(*state)
        with pytest.raises(InvalidArgument) as ei:
            pq.integrate_geodesic(euclidean(), s0, 1.0)
        assert str(ei.value) == f"initial state must be finite, got {s0!r}"

    def test_null_covector_rejected(self):
        nf = pq.NullFormMetric.from_expr("2", UNIT)
        with pytest.raises(ValueError):
            pq.integrate_geodesic(nf.to_metric2(), pq.PhaseState(0, 0, 1.0, 0.0), 1.0)
        traj = pq.integrate_geodesic(nf.to_metric2(), pq.PhaseState(0, 0, 1.0, 0.0), 1.0,
                                     allow_null=True)
        assert len(traj) > 1

    def test_tolerance_scaling(self):
        g = pq.Metric2.from_exprs("2 + x^2 / 4", "0", "3 - y / 2",
                                  pq.Chart((-3, 3), (-3, 3), (5, 5)))
        s0 = pq.PhaseState(0.1, 0.2, 0.8, 0.4)
        loose = pq.integrate_geodesic(g, s0, 1.0, tol=1e-6)
        tight = pq.integrate_geodesic(g, s0, 1.0, tol=1e-12)
        assert len(tight) > len(loose)
        assert np.allclose(loose.states[-1], tight.states[-1], atol=1e-5)


class TestProjectiveResidual:
    def test_self_residual_vanishes(self):
        g = pq.Metric2.from_exprs("2 + x^2 / 4", "x * y / 8", "3 - y / 2",
                                  pq.Chart((-3, 3), (-3, 3), (5, 5)))
        traj = pq.integrate_geodesic(g, pq.PhaseState(0.1, 0.2, 0.8, 0.4), 1.0)
        assert pq.projective_residual(g, traj) < 1e-12

    def test_detects_non_geodesic(self):
        flat = euclidean()
        curved = pq.Metric2.from_exprs("exp(2*x)", "0", "exp(2*x)", UNIT)
        traj = pq.integrate_geodesic(curved, pq.PhaseState(0.0, 0.0, 0.5, 0.4), 1.0)
        assert pq.projective_residual(flat, traj) > 1e-3

    def test_a_resting_trajectory_has_no_direction(self):
        g = euclidean()
        traj = pq.integrate_geodesic(g, pq.PhaseState(0.0, 0.0, 0.0, 0.0), 1.0,
                                     allow_null=True)
        with pytest.raises(ZeroVelocity, match="^zero velocity at sample 0"):
            pq.projective_residual(g, traj)


    def test_the_float_route_is_the_array_loop_bit_for_bit(self, instances):
        """projective_residual reads the symbols of g as six floats and
        returns a float with the bits of the loop over christoffel_at's array
        on NumPy scalars (tests/pointwise.py): against both metrics of a pair,
        and against a metric whose geodesics the curve is not."""
        cases = [(g, traj) for _, a, b, traj in pair_geodesics(instances) for g in (a, b)]
        curved = pq.Metric2.from_exprs("exp(2*x)", "0", "exp(2*x)", UNIT)
        bent = pq.integrate_geodesic(curved, pq.PhaseState(0.0, 0.0, 0.5, 0.4), 1.0)
        assert pq.projective_residual(euclidean(), bent) > 1e-3
        for g, traj in cases + [(euclidean(), bent)]:
            got, want = pq.projective_residual(g, traj), projective_residual_loop(g, traj)
            assert type(got) is float and got.hex() == float(want).hex()

    def test_a_trajectory_with_no_samples_is_refused(self):
        """No samples is no evidence: the residual once read 0.0, a perfect
        geodesic."""
        g = euclidean()
        traj = pq.Trajectory(g, np.zeros(0), np.zeros((0, 4)), np.zeros(0))
        with pytest.raises(InvalidArgument, match="no samples"):
            pq.projective_residual(g, traj)

    def test_a_speed_whose_cube_underflows(self):
        """|v|^2 = 1e-220 passes the zero-velocity test but |v|^3 is 0.0 in
        floats: 0/0 reads as NaN, as it does on NumPy scalars."""
        g = euclidean()
        traj = pq.Trajectory(g, np.zeros(1), np.array([[0.0, 0.0, 1e-110, 0.0]]), np.zeros(1))
        for residual in (pq.projective_residual, projective_residual_loop):
            with pytest.raises(DomainError, match="^projective residual nan is not finite "
                                                  "at sample 0$"):
                residual(g, traj)

    @pytest.mark.parametrize("sample, slot", [(3, 2), (0, 2), (2, 0)])
    def test_a_nan_sample_is_not_a_geodesic(self, sample, slot):
        """A NaN residual once fell out of max() and a NaN speed passed the
        zero-velocity test, so NaN data read as a perfect geodesic."""
        g = pq.Metric2.from_exprs("2 + x^2 / 4", "x * y / 8", "3 - y / 2",
                                  pq.Chart((-3, 3), (-3, 3), (5, 5)))
        traj = pq.integrate_geodesic(g, pq.PhaseState(0.1, 0.2, 0.8, 0.4), 1.0)
        assert len(traj) > 3 and pq.projective_residual(g, traj) < 1e-12
        traj.states[sample, slot] = np.nan
        with pytest.raises(DomainError, match=f"^projective residual nan is not finite "
                                              f"at sample {sample}$"):
            pq.projective_residual(g, traj)


class TestExport:
    def test_csv_columns(self, tmp_path):
        g = euclidean()
        F = pq.QuadraticForm.from_exprs("0", "0", "1", UNIT)
        traj = pq.integrate_geodesic(g, pq.PhaseState(0, 0, 0.6, 0.8), 0.5,
                                     integrals={"F": F})
        path = tmp_path / "traj.csv"
        pq.export_trajectory(traj, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,x,y,px,py,H,F"
        assert len(lines) == len(traj) + 1
        row = [float(v) for v in lines[-1].split(",")]
        assert row[0] == pytest.approx(0.5)
        assert row[6] == pytest.approx(0.64)
