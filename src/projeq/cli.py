"""Command-line front-end: JSON job configs in, JSON reports (and CSV
trajectories) out.

Exit codes: 0 success, 1 verification/rectification failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigError, ChartExit, ProjEqError, RectifyError, SignatureMismatch
from .dynamics import DEFAULT_INTEGRATOR_TOL, PhaseState, QuadraticForm, export_trajectory, \
    integrate_geodesic, quadratic_value
from .equivalence import DEFAULT_TRIVIALITY_TOL, DEFAULT_VERIFY_TOL, NullFormMetric, \
    fit_integral_combination, triviality_check, verify_integral
from .geometry import DEFAULT_CLASSIFY_TOL, Chart, Metric2, classify_pair
from .normal_forms import ComplexLiouvilleSpec, JordanBlockSpec, JordanKillingFreeSpec, \
    LiouvilleSpec, generate
from .rectify import DEFAULT_CASE_TOL, DEFAULT_SYS_TOL, rectification_pipeline

COMMANDS = ("classify", "verify", "generate", "rectify", "geodesic")

# integrator steps a geodesic run may take: beyond it the run stops with
# StepFailure (exit 2), so that any t_end ends in bounded time
GEODESIC_STEP_BUDGET = 20_000


# --- config access with JSON-path error reporting ------------------------------------


def _get(cfg: dict, path: str, expect=None, required: bool = True, default=None):
    node = cfg
    trail = "$"
    for part in path.split("."):
        if not isinstance(node, dict):
            raise ConfigError(trail, f"expected an object while looking up '{path}'")
        if part not in node:
            if required:
                raise ConfigError(f"{trail}.{part}", "missing required field")
            return default
        node = node[part]
        trail += f".{part}"
    if expect is not None and not isinstance(node, expect):
        names = expect.__name__ if isinstance(expect, type) else \
            "/".join(t.__name__ for t in expect)
        raise ConfigError(trail, f"expected {names}, got {type(node).__name__}")
    return node


def _is_number(v) -> bool:
    """A finite JSON number: booleans, NaN and infinities (which Python's
    json module accepts) are not."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:               # an int beyond the float range
        return False


def _chart_from(cfg: dict, path: str = "chart") -> Chart:
    sec = _get(cfg, path, dict)
    xr = _get(sec, "x_range", list)
    yr = _get(sec, "y_range", list)
    for name, r in (("x_range", xr), ("y_range", yr)):
        if len(r) != 2 or not all(_is_number(v) for v in r):
            raise ConfigError(f"$.{path}.{name}", "expected [lo, hi] numbers")
    grid = _get(sec, "grid", list, required=False, default=[21, 21])
    if len(grid) != 2 or not all(isinstance(v, int) and not isinstance(v, bool) for v in grid):
        raise ConfigError(f"$.{path}.grid", "expected [nx, ny] integers")
    try:
        return Chart((xr[0], xr[1]), (yr[0], yr[1]), (grid[0], grid[1]))
    except ProjEqError as e:
        raise ConfigError(f"$.{path}", str(e))


def _metric_from(cfg: dict, path: str, chart: Chart):
    sec = _get(cfg, path, dict)
    try:
        if "f" in sec:
            return NullFormMetric.from_expr(_get(sec, "f", str), chart).to_metric2()
        return Metric2.from_exprs(_get(sec, "g11", str), _get(sec, "g12", str),
                                  _get(sec, "g22", str), chart)
    except ConfigError:
        raise
    except ProjEqError as e:
        raise ConfigError(f"$.{path}", str(e))


def _integral_from(cfg: dict, chart: Chart) -> QuadraticForm:
    sec = _get(cfg, "integral", dict)
    try:
        return QuadraticForm.from_exprs(_get(sec, "a", str), _get(sec, "b", str),
                                        _get(sec, "c", str), chart)
    except ConfigError:
        raise
    except ProjEqError as e:
        raise ConfigError("$.integral", str(e))


def _spec_from(cfg: dict, chart: Chart):
    sec = _get(cfg, "normal_form", dict)
    family = _get(sec, "family", str)
    try:
        if family == "liouville":
            return LiouvilleSpec(_get(sec, "X", str), _get(sec, "Y", str),
                                 _get(sec, "sign", str), chart)
        if family == "complex_liouville":
            return ComplexLiouvilleSpec(_get(sec, "h", str), chart)
        if family == "jordan_block":
            return JordanBlockSpec(_get(sec, "Y", str), chart)
        if family == "jordan_killing_free":
            return JordanKillingFreeSpec(_get(sec, "Ytilde", str), chart)
    except ConfigError:
        raise
    except ProjEqError as e:
        raise ConfigError("$.normal_form", str(e))
    raise ConfigError("$.normal_form.family", f"unknown family {family!r}")


def _tolerances(cfg: dict) -> dict:
    tols = {
        "verify": DEFAULT_VERIFY_TOL,
        "classify": DEFAULT_CLASSIFY_TOL,
        "triviality": DEFAULT_TRIVIALITY_TOL,
        "case": DEFAULT_CASE_TOL,
        "sys": DEFAULT_SYS_TOL,
        "integrator": DEFAULT_INTEGRATOR_TOL,
    }
    user = _get(cfg, "tolerances", dict, required=False, default={})
    for k, v in user.items():
        if k not in tols:
            raise ConfigError(f"$.tolerances.{k}", "unknown tolerance name")
        if not _is_number(v) or not v > 0:
            raise ConfigError(f"$.tolerances.{k}", "expected a positive number")
        tols[k] = float(v)
    return tols


# --- command handlers -----------------------------------------------------------------


def _cmd_classify(cfg, tols, outdir):
    chart = _chart_from(cfg)
    pair = _get(cfg, "metric_pair", dict)
    g = _metric_from(pair, "g", chart)
    gbar = _metric_from(pair, "gbar", chart)
    res = classify_pair(g, gbar, tols["classify"])
    return 0, {
        "classification": res.tag,
        "agreeing_fraction": res.fraction,
        "counts": res.counts,
        "eigen_data": list(res.summary.eigenvalues),
    }


def _cmd_verify(cfg, tols, outdir):
    chart = _chart_from(cfg)
    g = _metric_from(cfg, "metric", chart)
    F = _integral_from(cfg, chart)
    method = _get(cfg, "method", str, required=False, default="auto")
    rep = verify_integral(g, F, method=method, tol=tols["verify"])
    triv = triviality_check(F, g, tol=tols["triviality"])
    report = {
        "verification": rep.to_dict(),
        "trivial": triv.trivial,
        "triviality_scale": triv.scale,
    }
    return (0 if rep.passed else 1), report


def _cmd_generate(cfg, tols, outdir):
    chart = _chart_from(cfg)
    pair = generate(_spec_from(cfg, chart))
    report = {"family": pair.family, "signature_g": list(pair.g.signature),
              "signature_gbar": list(pair.gbar.signature)}
    code = 0
    if pair.F is not None:
        rep = verify_integral(pair.g, pair.F, tol=tols["verify"])
        report["verification"] = rep.to_dict()
        # the third grid point from each end, clamped to axes of 2 points
        nx, ny = chart.grid
        states = [PhaseState(x, y, 1.0, 0.3) for x, y in
                  [chart.center, (chart.xs[min(2, nx - 1)], chart.ys[min(2, ny - 1)])]]
        states += [PhaseState(x, y, -0.4, 1.0) for x, y in
                   [chart.center, (chart.xs[max(-3, -nx)], chart.ys[max(-3, -ny)])]]
        try:
            alpha, beta, resid, scale = fit_integral_combination(
                pair.g, pair.gbar, pair.F, states)
            report["projective_integral_fit"] = {
                "alpha": alpha, "beta": beta, "residual": resid, "scale": scale}
        except SignatureMismatch as e:
            # gbar may legitimately carry a different signature (e.g. X, Y of
            # opposite signs); I is then not defined by the real cube root
            report["projective_integral_fit"] = {"skipped": str(e)}
        code = 0 if rep.passed else 1
    cls = classify_pair(pair.g, pair.gbar, tols["classify"])
    report["classification"] = {"tag": cls.tag, "agreeing_fraction": cls.fraction}
    return code, report


def _cmd_rectify(cfg, tols, outdir):
    chart = _chart_from(cfg)
    g = _metric_from(cfg, "metric", chart)
    F = _integral_from(cfg, chart)
    try:
        rep = rectification_pipeline(g, F, tol=tols["case"], sys_tol=tols["sys"])
    except RectifyError as e:
        return 1, {"status": "failed", "error": type(e).__name__, "message": str(e)}
    return 0, {"status": "ok", "rectification": rep.to_dict()}


def _cmd_geodesic(cfg, tols, outdir):
    chart = _chart_from(cfg)
    g = _metric_from(cfg, "metric", chart)
    s0 = _get(cfg, "initial_state", list)
    if len(s0) != 4 or not all(_is_number(v) for v in s0):
        raise ConfigError("$.initial_state", "expected [x, y, px, py] finite numbers")
    t_end = _get(cfg, "t_end", (int, float))
    if not _is_number(t_end):
        raise ConfigError("$.t_end", "expected a finite number")
    allow_null = bool(_get(cfg, "allow_null", bool, required=False, default=False))
    integrals = {}
    if "integral" in cfg:
        integrals["F"] = _integral_from(cfg, chart)
    status = "ok"
    try:
        traj = integrate_geodesic(g, PhaseState(*map(float, s0)), float(t_end),
                                  tol=tols["integrator"], integrals=integrals,
                                  allow_null=allow_null, max_steps=GEODESIC_STEP_BUDGET)
    except ChartExit as e:
        if e.trajectory is None:
            raise ConfigError("$.initial_state", "initial point lies outside the chart")
        traj, status = e.trajectory, "chart_exit"
    csv_name = _get(cfg, "csv", str, required=False,
                    default=_get(cfg, "output", str, required=False,
                                 default="geodesic") + ".csv")
    csv_path = outdir / csv_name
    _write("$.csv" if "csv" in cfg else "$.output", csv_path,
           lambda: export_trajectory(traj, csv_path))
    h = traj.hamiltonian_values
    report = {
        "status": status,
        "samples": len(traj),
        "t_final": float(traj.times[-1]),
        "final_state": [float(v) for v in traj.states[-1]],
        "energy_drift": float(max(abs(h - h[0]))) / max(abs(float(h[0])), 1e-300),
        "csv": str(csv_path),
    }
    for name, vals in traj.integral_values.items():
        report[f"{name}_drift"] = float(max(abs(vals - vals[0]))) / \
            max(abs(float(vals[0])), 1e-300)
    return 0, report


def _write(field: str, path: Path, write) -> None:
    """Run write(); a path that cannot be written is bad input in field."""
    try:
        write()
    except OSError as e:
        raise ConfigError(field, f"cannot write {path}: {e.strerror or e}")


_HANDLERS = {
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "generate": _cmd_generate,
    "rectify": _cmd_rectify,
    "geodesic": _cmd_geodesic,
}


# --- entry point ------------------------------------------------------------------


def run(config_path, output_dir=None, quiet: bool = False) -> int:
    config_path = Path(config_path)
    try:
        cfg = json.loads(config_path.read_text())
    except OSError as e:
        if not quiet:
            print(f"error: cannot read {config_path}: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        if not quiet:
            print(f"error: {config_path}: invalid JSON at line {e.lineno}: {e.msg}",
                  file=sys.stderr)
        return 2

    outdir = Path(output_dir) if output_dir else config_path.parent
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        if not quiet:
            print(f"error: cannot create output directory {outdir}: {e.strerror or e}",
                  file=sys.stderr)
        return 2
    try:
        if not isinstance(cfg, dict):
            raise ConfigError("$", "config must be a JSON object")
        command = _get(cfg, "command", str)
        if command not in COMMANDS:
            raise ConfigError("$.command", f"unknown command {command!r}; "
                              f"expected one of {', '.join(COMMANDS)}")
        tols = _tolerances(cfg)
        code, body = _HANDLERS[command](cfg, tols, outdir)
        report = {"version": __version__, "command": command, "tolerances": tols,
                  "exit_code": code}
        report.update(body)
        out_name = _get(cfg, "output", str, required=False, default=f"{command}_report")
        if not out_name.endswith(".json"):
            out_name += ".json"
        out_path = outdir / out_name
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        _write("$.output", out_path, lambda: out_path.write_text(text))
    except ConfigError as e:
        if not quiet:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    except ProjEqError as e:
        if not quiet:
            print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2

    if not quiet:
        print(f"{command}: {'ok' if code == 0 else 'FAILED'} -> {out_path}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="projeq",
        description="Classify, verify, generate, and rectify projectively "
                    "equivalent 2D metric pairs from a JSON job config.")
    parser.add_argument("config", help="path to the JSON job config")
    parser.add_argument("--output-dir", default=None,
                        help="directory for reports (default: config directory)")
    parser.add_argument("--quiet", action="store_true", help="suppress console output")
    args = parser.parse_args(argv)
    return run(args.config, args.output_dir, args.quiet)


if __name__ == "__main__":
    sys.exit(main())
