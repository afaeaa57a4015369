import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from projeq import cli
from projeq.cli import run


def write_config(tmp_path, cfg, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def load_report(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


CHART = {"x_range": [-0.5, 0.5], "y_range": [0.2, 0.9], "grid": [9, 9]}

# ds^2 = f dx dy with f = 1 + x Y'(y) for Y = y/10, and the matching integral
JORDAN_F = "1 + x/10"
JORDAN_INTEGRAL = {"a": "1", "b": "-(y/5)/(1 + x/10)", "c": "0"}
JORDAN_CHART = {"x_range": [-0.4, 0.4], "y_range": [-0.5, 0.5], "grid": [9, 9]}


class TestClassify:
    def test_proportional_pair(self, tmp_path):
        cfg = {
            "command": "classify",
            "chart": CHART,
            "metric_pair": {
                "g": {"g11": "2 + x", "g12": "0", "g22": "3 - y"},
                "gbar": {"g11": "4 + 2*x", "g12": "0", "g22": "6 - 2*y"},
            },
        }
        assert run(write_config(tmp_path, cfg), quiet=True) == 0
        rep = load_report(tmp_path, "classify_report.json")
        assert rep["classification"] == "proportional"
        assert rep["agreeing_fraction"] == 1.0
        assert rep["exit_code"] == 0

    def test_liouville_pair_real_distinct(self, tmp_path):
        X, Y = "(2 + x)", "y"
        cfg = {
            "command": "classify",
            "chart": CHART,
            "metric_pair": {
                "g": {"g11": f"{X} - {Y}", "g12": "0", "g22": f"-({X} - {Y})"},
                "gbar": {"g11": f"(1/{Y} - 1/{X}) / {X}", "g12": "0",
                         "g22": f"-(1/{Y} - 1/{X}) / {Y}"},
            },
        }
        assert run(write_config(tmp_path, cfg), quiet=True) == 0
        rep = load_report(tmp_path, "classify_report.json")
        assert rep["classification"] == "real_distinct"


class TestVerify:
    def test_passing_integral(self, tmp_path):
        cfg = {
            "command": "verify",
            "chart": JORDAN_CHART,
            "metric": {"f": JORDAN_F},
            "integral": JORDAN_INTEGRAL,
        }
        assert run(write_config(tmp_path, cfg), quiet=True) == 0
        rep = load_report(tmp_path, "verify_report.json")
        assert rep["verification"]["passed"]
        assert not rep["trivial"]

    def test_failing_integral_exit_1(self, tmp_path):
        cfg = {
            "command": "verify",
            "chart": JORDAN_CHART,
            "metric": {"f": JORDAN_F},
            "integral": {"a": "1 + y", "b": "0", "c": "0"},
        }
        assert run(write_config(tmp_path, cfg), quiet=True) == 1
        rep = load_report(tmp_path, "verify_report.json")
        assert not rep["verification"]["passed"]
        assert rep["exit_code"] == 1


class TestGenerate:
    def test_liouville(self, tmp_path):
        cfg = {
            "command": "generate",
            "chart": CHART,
            "normal_form": {"family": "liouville", "X": "3 + x^2/2", "Y": "y",
                            "sign": "-"},
        }
        assert run(write_config(tmp_path, cfg), quiet=True) == 0
        rep = load_report(tmp_path, "generate_report.json")
        assert rep["family"] == "liouville"
        assert rep["verification"]["passed"]
        assert rep["classification"]["tag"] == "real_distinct"
        assert "projective_integral_fit" in rep

    def test_opposite_signatures_skip_the_invariant_fit(self, tmp_path):
        """X > 0 > Y gives det g and det gbar opposite signs: I has no real
        cube root, and the report says where instead of fitting it."""
        cfg = {
            "command": "generate",
            "chart": {"x_range": [0.2, 0.9], "y_range": [-0.9, -0.2]},
            "normal_form": {"family": "liouville", "X": "x", "Y": "y", "sign": "+"},
        }
        assert run(write_config(tmp_path, cfg), quiet=True) == 0
        rep = load_report(tmp_path, "generate_report.json")
        assert rep["projective_integral_fit"] == {
            "skipped": "det ratio -2.768e-02 <= 0 at (0.55, -0.55); signatures differ"}

    def test_killing_free_has_no_verification(self, tmp_path):
        cfg = {
            "command": "generate",
            "chart": {"x_range": [0.3, 0.8], "y_range": [0.5, 1.0], "grid": [9, 9]},
            "normal_form": {"family": "jordan_killing_free", "Ytilde": "2 + y/5"},
        }
        assert run(write_config(tmp_path, cfg), quiet=True) == 0
        rep = load_report(tmp_path, "generate_report.json")
        assert "verification" not in rep
        assert rep["classification"]["tag"] == "jordan_block"


class TestRectify:
    def test_jordan_case(self, tmp_path):
        cfg = {
            "command": "rectify",
            "chart": JORDAN_CHART,
            "metric": {"f": JORDAN_F},
            "integral": JORDAN_INTEGRAL,
        }
        assert run(write_config(tmp_path, cfg), quiet=True) == 0
        rep = load_report(tmp_path, "rectify_report.json")
        assert rep["status"] == "ok"
        assert rep["rectification"]["family"] == "jordan_block"
        assert rep["rectification"]["case"] == 3
        assert rep["rectification"]["reconstruction_residual"] < 1e-6

    def test_non_integral_exit_1(self, tmp_path):
        bad = dict(JORDAN_INTEGRAL, b=JORDAN_INTEGRAL["b"] + " + x/100")
        cfg = {
            "command": "rectify",
            "chart": JORDAN_CHART,
            "metric": {"f": JORDAN_F},
            "integral": bad,
        }
        assert run(write_config(tmp_path, cfg), quiet=True) == 1
        rep = load_report(tmp_path, "rectify_report.json")
        assert rep["status"] == "failed"
        assert rep["error"] == "NotAnIntegral"

    def test_ambiguous_case_exit_1(self, tmp_path):
        cfg = {
            "command": "rectify",
            "chart": {"x_range": [-0.3, 0.3], "y_range": [-0.3, 0.3], "grid": [9, 9]},
            "metric": {"f": "1"},
            "integral": {"a": "1", "b": "x", "c": "-y"},
        }
        assert run(write_config(tmp_path, cfg), quiet=True) == 1
        rep = load_report(tmp_path, "rectify_report.json")
        assert (rep["status"], rep["error"]) == ("failed", "AmbiguousCase")


class TestGeodesic:
    def test_flat_flow(self, tmp_path):
        cfg = {
            "command": "geodesic",
            "chart": {"x_range": [-2, 2], "y_range": [-2, 2], "grid": [5, 5]},
            "metric": {"g11": "1", "g12": "0", "g22": "1"},
            "integral": {"a": "0", "b": "0", "c": "1"},
            "initial_state": [0, 0, 0.6, 0.8],
            "t_end": 0.5,
        }
        assert run(write_config(tmp_path, cfg), quiet=True) == 0
        rep = load_report(tmp_path, "geodesic_report.json")
        assert rep["status"] == "ok"
        assert rep["t_final"] == pytest.approx(0.5)
        assert rep["energy_drift"] < 1e-9
        assert rep["F_drift"] < 1e-9
        csv = (tmp_path / "geodesic.csv").read_text().strip().split("\n")
        assert csv[0] == "t,x,y,px,py,H,F"
        assert len(csv) == rep["samples"] + 1

    def test_chart_exit_reported(self, tmp_path):
        cfg = {
            "command": "geodesic",
            "chart": {"x_range": [-2, 2], "y_range": [-2, 2], "grid": [5, 5]},
            "metric": {"g11": "1", "g12": "0", "g22": "1"},
            "initial_state": [0, 0, 8.0, 0.0],
            "t_end": 1.0,
        }
        assert run(write_config(tmp_path, cfg), quiet=True) == 0
        rep = load_report(tmp_path, "geodesic_report.json")
        assert rep["status"] == "chart_exit"
        assert rep["t_final"] < 1.0


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert run(tmp_path / "nope.json", quiet=True) == 2

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        assert run(path) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_command(self, tmp_path, capsys):
        assert run(write_config(tmp_path, {"command": "frobnicate"})) == 2
        assert "$.command" in capsys.readouterr().err

    def test_missing_field_path(self, tmp_path, capsys):
        cfg = {"command": "verify", "chart": CHART, "metric": {"f": "2"}}
        assert run(write_config(tmp_path, cfg)) == 2
        assert "$.integral" in capsys.readouterr().err

    def test_malformed_expression(self, tmp_path, capsys):
        cfg = {
            "command": "verify",
            "chart": CHART,
            "metric": {"f": "2 + * x"},
            "integral": {"a": "1", "b": "0", "c": "0"},
        }
        assert run(write_config(tmp_path, cfg)) == 2
        assert "$.metric" in capsys.readouterr().err

    def test_unknown_tolerance(self, tmp_path, capsys):
        cfg = {
            "command": "verify",
            "chart": CHART,
            "metric": {"f": "2"},
            "integral": {"a": "0", "b": "0", "c": "1"},
            "tolerances": {"wibble": 1e-6},
        }
        assert run(write_config(tmp_path, cfg)) == 2
        assert "$.tolerances.wibble" in capsys.readouterr().err

    def test_bad_chart_range(self, tmp_path, capsys):
        cfg = {
            "command": "verify",
            "chart": {"x_range": [1, -1], "y_range": [0, 1]},
            "metric": {"f": "2"},
            "integral": {"a": "0", "b": "0", "c": "1"},
        }
        assert run(write_config(tmp_path, cfg)) == 2
        assert "chart" in capsys.readouterr().err

    def test_initial_state_shape(self, tmp_path, capsys):
        cfg = {
            "command": "geodesic",
            "chart": CHART,
            "metric": {"f": "2"},
            "initial_state": [0, 0.5, 1.0],
            "t_end": 1.0,
        }
        assert run(write_config(tmp_path, cfg)) == 2
        assert "$.initial_state" in capsys.readouterr().err


_VERIFY = {"command": "verify", "chart": JORDAN_CHART, "metric": {"f": JORDAN_F},
           "integral": JORDAN_INTEGRAL}
_PAIR = {"g": {"g11": "2 + x", "g12": "0", "g22": "3 - y"},
         "gbar": {"g11": "4 + 2*x", "g12": "0", "g22": "6 - 2*y"}}


class TestConfigErrorPaths:
    """A config error names the JSON path of the offending field from the
    root, inside a section as well."""

    @pytest.mark.parametrize("cfg, message", [
        ({**_VERIFY, "chart": {"y_range": [0, 1]}}, "$.chart.x_range: missing required field"),
        ({**_VERIFY, "metric": {"g11": "1", "g22": "-1"}},
         "$.metric.g12: missing required field"),
        ({"command": "classify", "chart": CHART, "metric_pair": {"g": _PAIR["g"]}},
         "$.metric_pair.gbar: missing required field"),
        ({**_VERIFY, "metric": {"f": 2}}, "$.metric.f: expected str, got int"),
        ({"command": "generate", "chart": JORDAN_CHART,
          "normal_form": {"family": "jordan_block"}}, "$.normal_form.Y: missing required field"),
        ({**_VERIFY, "integral": {"a": "1", "b": "2 + * x", "c": "0"}}, "$.integral: "),
        ({"command": "geodesic", "chart": JORDAN_CHART, "metric": {"f": JORDAN_F},
          "initial_state": [3, 0, 1, 1], "t_end": 1.0},
         "$.initial_state: initial point lies outside the chart"),
    ], ids=["chart", "metric", "metric_pair", "metric_f", "normal_form", "integral",
            "initial_state"])
    def test_names_the_full_path(self, tmp_path, capsys, cfg, message):
        assert run(write_config(tmp_path, cfg)) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_a_tolerance_lands_in_the_report(self, tmp_path):
        cfg = {**_VERIFY, "tolerances": {"verify": 1e-12}}
        assert run(write_config(tmp_path, cfg), quiet=True) == 0
        rep = load_report(tmp_path, "verify_report.json")
        assert rep["tolerances"]["verify"] == 1e-12
        assert rep["verification"]["tolerance"] == 1e-12


class TestOutputHandling:
    def test_output_name_gets_json_suffix(self, tmp_path):
        cfg = {
            "command": "classify",
            "chart": CHART,
            "metric_pair": {
                "g": {"g11": "2 + x", "g12": "0", "g22": "3 - y"},
                "gbar": {"g11": "4 + 2*x", "g12": "0", "g22": "6 - 2*y"},
            },
            "output": "my_run",
        }
        assert run(write_config(tmp_path, cfg), quiet=True) == 0
        assert (tmp_path / "my_run.json").exists()

    def test_output_dir_override(self, tmp_path):
        cfg = {
            "command": "verify",
            "chart": JORDAN_CHART,
            "metric": {"f": JORDAN_F},
            "integral": JORDAN_INTEGRAL,
        }
        outdir = tmp_path / "reports" / "nested"
        assert run(write_config(tmp_path, cfg), output_dir=outdir, quiet=True) == 0
        assert (outdir / "verify_report.json").exists()

    def test_deterministic_reports(self, tmp_path):
        cfg = {
            "command": "generate",
            "chart": CHART,
            "normal_form": {"family": "liouville", "X": "3 + x^2/2", "Y": "y",
                            "sign": "-"},
        }
        path = write_config(tmp_path, cfg)
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        assert run(path, output_dir=d1, quiet=True) == 0
        assert run(path, output_dir=d2, quiet=True) == 0
        b1 = (d1 / "generate_report.json").read_bytes()
        b2 = (d2 / "generate_report.json").read_bytes()
        assert b1 == b2

    def test_console_line(self, tmp_path, capsys):
        cfg = {
            "command": "classify",
            "chart": CHART,
            "metric_pair": {
                "g": {"g11": "2 + x", "g12": "0", "g22": "3 - y"},
                "gbar": {"g11": "4 + 2*x", "g12": "0", "g22": "6 - 2*y"},
            },
        }
        assert run(write_config(tmp_path, cfg)) == 0
        out = capsys.readouterr().out
        assert "classify" in out and "ok" in out


GEODESIC = {
    "command": "geodesic",
    "chart": {"x_range": [-2, 2], "y_range": [-2, 2], "grid": [5, 5]},
    "metric": {"g11": "1", "g12": "0", "g22": "1"},
    "initial_state": [0, 0, 0.6, 0.8],
    "t_end": 0.5,
}


class TestGeodesicOutput:
    def test_creates_missing_output_dir(self, tmp_path):
        outdir = tmp_path / "new_dir"
        assert run(write_config(tmp_path, GEODESIC), output_dir=outdir, quiet=True) == 0
        rep = json.loads((outdir / "geodesic_report.json").read_text())
        assert rep["csv"] == str(outdir / "geodesic.csv")
        assert (outdir / "geodesic.csv").exists()

    @pytest.mark.parametrize("field, value", [("csv", "no/such/dir/x.csv"),
                                              ("output", "no/such/dir/run")])
    def test_unwritable_path_is_bad_input(self, tmp_path, capsys, field, value):
        cfg = {**GEODESIC, field: value}
        assert run(write_config(tmp_path, cfg)) == 2
        err = capsys.readouterr().err
        assert f"config error: $.{field}: cannot write" in err
        assert "Traceback" not in err

    def test_unwritable_report_is_bad_input(self, tmp_path, capsys):
        cfg = {"command": "verify", "chart": JORDAN_CHART, "metric": {"f": JORDAN_F},
               "integral": JORDAN_INTEGRAL, "output": "no/such/dir/report"}
        assert run(write_config(tmp_path, cfg)) == 2
        assert "config error: $.output: cannot write" in capsys.readouterr().err

    def test_output_dir_under_a_file(self, tmp_path, capsys):
        (tmp_path / "plain").write_text("")
        assert run(write_config(tmp_path, GEODESIC), output_dir=tmp_path / "plain" / "out") == 2
        assert "cannot create output directory" in capsys.readouterr().err


class TestGeodesicBudget:
    def test_long_run_stops_at_the_step_budget(self, tmp_path, capsys, monkeypatch):
        # the equator of the round sphere: a closed orbit that never leaves the chart
        monkeypatch.setattr(cli, "GEODESIC_STEP_BUDGET", 50)
        sphere = "4/(1 + x^2 + y^2)^2"
        cfg = {"command": "geodesic",
               "chart": {"x_range": [-3, 3], "y_range": [-3, 3], "grid": [5, 5]},
               "metric": {"g11": sphere, "g12": "0", "g22": sphere},
               "initial_state": [1, 0, 0, 1], "t_end": 1e6}
        assert run(write_config(tmp_path, cfg)) == 2
        err = capsys.readouterr().err
        assert "StepFailure: exceeded the budget of 50 steps" in err
        assert "Traceback" not in err


class TestNonFiniteNumbers:
    """Python's json module reads NaN and Infinity, and booleans are ints in
    Python; the schema allows none of them where a number is expected."""

    @pytest.mark.parametrize("path, value", [
        ("t_end", float("nan")),
        ("t_end", float("inf")),
        ("t_end", True),
        ("initial_state", [0, 0, float("nan"), 0.8]),
        ("initial_state", [0, False, 0.6, 0.8]),
        ("chart.x_range", [-2, float("nan")]),
        ("chart.y_range", [True, 2]),
        ("chart.grid", [True, 5]),
        ("tolerances.integrator", True),
        ("tolerances.integrator", float("inf")),
    ])
    def test_rejected(self, tmp_path, capsys, path, value):
        cfg = json.loads(json.dumps(GEODESIC))
        node = cfg
        *parents, leaf = path.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
        assert run(write_config(tmp_path, cfg)) == 2
        captured = capsys.readouterr()
        assert "config error: $." + path in captured.err
        assert "ok" not in captured.out
        assert not (tmp_path / "geodesic.csv").exists()


# --- the exit-code contract over configs shaped by config.schema.json ----------------


def _expressions(*variables):
    """Expression strings over the variables, with literals whose values or
    derivatives overflow, underflow or vanish."""
    atoms = st.sampled_from([*variables, "0", "1", "2", "0.5", "-1", "1e300", "1e-300"])
    return st.recursive(atoms, lambda e: st.one_of(
        st.tuples(e, st.sampled_from("+-*/^"), e).map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "abs"]), e).map(
            lambda t: f"{t[0]}({t[1]})")), max_leaves=5)


_exprs = _expressions("x", "y")
_numbers = st.floats(-1.0, 1.0)
_charts = st.builds(
    lambda x, dx, y, dy, grid: {"x_range": [x, x + dx], "y_range": [y, y + dy], "grid": grid},
    _numbers, st.floats(-0.2, 2.0), _numbers, st.floats(-0.2, 2.0),
    st.lists(st.integers(2, 9), min_size=2, max_size=2))
_metrics = st.one_of(st.fixed_dictionaries({"f": _exprs}),
                     st.fixed_dictionaries({"g11": _exprs, "g12": _exprs, "g22": _exprs}))
_integrals = st.fixed_dictionaries({"a": _exprs, "b": _exprs, "c": _exprs})
_normal_forms = st.one_of(
    st.fixed_dictionaries({"family": st.just("liouville"), "X": _exprs, "Y": _exprs,
                           "sign": st.sampled_from(["+", "-"])}),
    st.fixed_dictionaries({"family": st.just("complex_liouville"), "h": _expressions("z")}),
    st.fixed_dictionaries({"family": st.just("jordan_block"), "Y": _exprs}),
    st.fixed_dictionaries({"family": st.just("jordan_killing_free"), "Ytilde": _exprs}))
_sections = {
    "classify": {"metric_pair": st.fixed_dictionaries({"g": _metrics, "gbar": _metrics})},
    "verify": {"metric": _metrics, "integral": _integrals},
    "generate": {"normal_form": _normal_forms},
    "rectify": {"metric": _metrics, "integral": _integrals},
    "geodesic": {"metric": _metrics, "t_end": _numbers,
                 "initial_state": st.lists(_numbers, min_size=4, max_size=4)},
}
_optional = {
    "verify": {"method": st.sampled_from(["auto", "sys", "bracket", "newton"])},
    "geodesic": {"allow_null": st.booleans(), "integral": _integrals},
}
_configs = st.sampled_from(sorted(_sections)).flatmap(lambda command: st.fixed_dictionaries(
    {"command": st.just(command), "chart": _charts, **_sections[command]},
    optional=_optional.get(command, {})))

_CHART = {"x_range": [-0.4, 0.4], "y_range": [-0.5, 0.5]}
_INTEGRAL = {"a": "1", "b": "0", "c": "0"}
# configs that once raised out of run, with the exit codes they end in
FORMER_TRACEBACKS = [
    ({"command": "generate", "chart": {**_CHART, "grid": [2, 5]},
      "normal_form": {"family": "jordan_block", "Y": "3/2 + y/10"}}, 0),
    ({"command": "verify", "chart": _CHART, "method": "sys", "integral": _INTEGRAL,
      "metric": {"g11": "2 + x", "g12": "0", "g22": "3 - y"}}, 2),
    ({"command": "verify", "chart": _CHART, "method": "newton", "integral": _INTEGRAL,
      "metric": {"f": "1 + x/10"}}, 2),
    ({"command": "geodesic", "chart": _CHART, "initial_state": [0, 0, 1, 1], "t_end": 1.0,
      "metric": {"g11": "1", "g12": "0", "g22": "-1"}}, 2),
    ({"command": "rectify", "chart": _CHART, "integral": _INTEGRAL,
      "metric": {"g11": "-1", "g12": "1e300", "g22": "1e300"}}, 2),
]
# configs whose arithmetic overflowed with a RuntimeWarning
OVERFLOWS = [
    {"command": "verify", "chart": {"x_range": [1e-05, 1.6], "y_range": [-0.3, 0.9],
                                    "grid": [7, 2]},
     "metric": {"f": "x^2"}, "integral": {"a": "1", "b": "1e300/2", "c": "log(0.5)"}},
    {"command": "verify", "chart": {"x_range": [-0.5, -0.2], "y_range": [0.2, 1.2]},
     "metric": {"g11": "0.5", "g12": "exp(1)", "g22": "1e300"},
     "integral": {"a": "2", "b": "exp(1)", "c": "exp(1)"}},
    {"command": "generate", "chart": {"x_range": [0, 0.7], "y_range": [-0.6, 1.1]},
     "normal_form": {"family": "complex_liouville", "h": "1e300 - z"}},
    {"command": "rectify", "chart": {"x_range": [-0.85, 0.86], "y_range": [1e-285, 0.999]},
     "metric": {"f": "0.5"}, "integral": {"a": "-1e-300", "b": "-1e-300", "c": "-1e-300"}},
    # the sys normalizer (1 + |f| + ...)(1 + ... + |c|) overflows
    {"command": "rectify", "chart": {"x_range": [0.0, 1.0], "y_range": [0.0, 1.0], "grid": [2, 2]},
     "metric": {"f": "sqrt(1e300)"}, "integral": {"a": "x", "b": "x", "c": "1e300"}},
    # a y range one float wide: the quadrature knots of the BK map coincide
    {"command": "rectify",
     "chart": {"x_range": [0.0, 1.0], "y_range": [0.5, 0.5000000000000001], "grid": [2, 2]},
     "metric": {"f": "1"}, "integral": {"a": "x", "b": "x", "c": "1e300"}},
]


@pytest.mark.parametrize("cfg, code", FORMER_TRACEBACKS)
def test_former_traceback_ends_in_its_exit_code(tmp_path, capsys, cfg, code):
    assert run(write_config(tmp_path, cfg)) == code
    assert "Traceback" not in capsys.readouterr().err


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_configs)
def test_every_config_ends_in_an_exit_code(cfg):
    """A config shaped by the schema ends in exit code 0, 1 or 2, whatever
    its expressions evaluate to: nothing is raised out of run, and (as the
    test suite turns RuntimeWarnings into errors) no NumPy overflow warns."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "job.json"
        path.write_text(json.dumps(cfg))
        assert cli.run(path, quiet=True) in (0, 1, 2)


for _cfg in [cfg for cfg, _ in FORMER_TRACEBACKS] + OVERFLOWS:
    test_every_config_ends_in_an_exit_code = example(_cfg)(test_every_config_ends_in_an_exit_code)
