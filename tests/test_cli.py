import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings

import pytest

import csrk.cli
import csrk.increments
import csrk.stats
from csrk import __version__
from csrk.cli import main
from csrk.increments import uniforms_per_step
from csrk.tableau import _DOCUMENTS, builtin_scheme, scheme_names, tableau_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def body_lines(text):
    """Output body: everything except comment/header lines."""
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


class TestSchemes:
    def test_lists_all(self, capsys):
        code, out, _ = run(capsys, "schemes")
        assert code == 0
        rows = body_lines(out)
        assert rows[0] == "name,stages,p_deterministic,p_stochastic"
        assert len(rows) == 8
        assert rows[1].startswith("EULER_LINEAR,1,1")

    def test_header_has_version_and_config(self, capsys):
        _, out, _ = run(capsys, "schemes")
        assert out.startswith(f"# csrk {__version__}")
        assert '"command": "schemes"' in out


class TestCheck:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "check", "--scheme", "CRDI2WM")
        assert code == 0
        assert "# overall = pass" in out
        rows = body_lines(out)
        assert rows[0] == "family,index,residual,worst_theta,pass"
        assert all(r.endswith(",pass") for r in rows[1:])

    def test_failing_declared_condition_exits_nonzero(self, capsys, tmp_path):
        doc = json.loads(tableau_to_json(builtin_scheme("EULER_OPT")))
        doc["meta"]["conditions"].append("order2_at_one:13")
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", "--scheme-file", str(f))
        assert code == 1
        assert "# overall = FAIL" in out
        assert "order2_at_one,13,1," in out

    def test_scheme_file_round_trip(self, capsys, tmp_path):
        f = tmp_path / "crdi3.json"
        f.write_text(tableau_to_json(builtin_scheme("CRDI3WM")))
        code, _, _ = run(capsys, "check", "--scheme-file", str(f))
        assert code == 0

    @staticmethod
    def _two_stage_file(tmp_path, **entries):
        doc = {"name": "X", "s": 2, "meta": {
            "conditions": ["order2_at_one:8", "order2_at_one:9"]}}
        for key in ("A0", "A1", "A2", "B0", "B1", "B2"):
            doc[key] = [0, 0, entries.get(key, 0), 0]
        doc["alpha"] = [[[2, 1.0]], []]
        for key in ("beta1", "beta2", "beta3", "beta4"):
            doc[key] = [[], []]
        f = tmp_path / "x.json"
        f.write_text(json.dumps(doc))
        return str(f)

    def test_nan_residual_fails(self, capsys, tmp_path):
        # alpha @ (B0 e)**2 = 1 * 0 + 0 * inf is NaN
        f = self._two_stage_file(tmp_path, B0="1e200")
        code, out, err = run(capsys, "check", "--scheme-file", f)
        assert code == 1 and not err
        assert body_lines(out)[2] == "order2_at_one,9,nan,1,FAIL"
        assert out.endswith("# overall = FAIL\n")

    def test_nan_residual_is_strict_json(self, capsys, tmp_path):
        def refuse(name):
            raise ValueError(f"not strict JSON: {name}")

        f = self._two_stage_file(tmp_path, B0="1e200")
        code, out, _ = run(capsys, "check", "--scheme-file", f,
                           "--format", "json")
        assert code == 1
        doc = json.loads(out, parse_constant=refuse)
        # spelled as in CSV
        assert doc["rows"][1] == ["order2_at_one", 9, "nan", 1.0, "FAIL"]
        # finite values are written as plain json.dumps writes them
        code, out, _ = run(capsys, "check", "--scheme", "CRDI3WM",
                           "--format", "json")
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("text,why", [
        ("1/0", "has no value: float division by zero"),
        ("10.0**400", "has no value: overflows a float"),
        ("sqrt(-1)", "has no value: math domain error"),
        ("(-8)**(1/3)", "is not a finite real number: "
                        "(1.0000000000000002+1.7320508075688772j)"),
        ("1e308*10 - 1e308*10", "is not a finite real number: nan"),
    ])
    def test_expression_without_value_is_one_line(self, capsys, tmp_path,
                                                  text, why):
        f = self._two_stage_file(tmp_path, A0=text)
        code, err = usage_error(capsys, "check", "--scheme-file", f)
        assert code == 2
        assert err == [f"csrk: error: A0[2,1] {text!r} {why}"]

    @pytest.mark.parametrize("name", scheme_names())
    def test_document_file_matches_builtin(self, capsys, tmp_path, name):
        # a builtin is its document: check on the file prints the same
        # rows, scheme line and footer; the recorded config differs only in
        # which of --scheme and --scheme-file was given
        f = tmp_path / "scheme.json"
        f.write_text(_DOCUMENTS[name])
        outputs = [run(capsys, "check", *argv)
                   for argv in (("--scheme", name), ("--scheme-file", str(f)))]
        (code, builtin, _), (file_code, from_file, _) = outputs
        assert code == file_code == 0
        config = "# config = "
        assert ([ln for ln in builtin.splitlines() if not ln.startswith(config)]
                == [ln for ln in from_file.splitlines()
                    if not ln.startswith(config)])
        assert len(body_lines(builtin)) == (
            1 + len(builtin_scheme(name).meta.declared_conditions))
        configs = [json.loads(next(ln for ln in out.splitlines()
                                   if ln.startswith(config))[len(config):])
                   for out in (builtin, from_file)]
        assert configs[0].pop("scheme") == name
        assert configs[1].pop("scheme_file") == str(f)
        assert configs[0] == configs[1]

    @pytest.mark.parametrize("fields,message", [
        ({"s": None}, "stage count s must be a positive integer, got null"),
        ({"s": 2.5}, "stage count s must be a positive integer, got 2.5"),
        ({"meta": []}, "meta must be a JSON object"),
        ({"A0": 0}, "A0 must be a list of 1 row-major entries"),
        ({"beta1": [[1]]}, "beta1[1] term 1 must be an [n, c] pair, got 1"),
        ({"beta1": [[[2.7, 1.0]]]},
         "beta1[1] term 1 has half-exponent 2.7; n must be an integer"),
        ({"meta": {"p_deterministic": "nan"}},
         'meta.p_deterministic must be a finite number, got "nan"'),
        ({"meta": {"conditions": ["continuous_order1:x"]}},
         "condition id 'continuous_order1:x' is not 'family:index' with a "
         "non-negative integer index"),
        ({"meta": {"conditions": ["foo:1"]}},
         "condition 'foo:1' is not in the catalog"),
        ({"meta": {"conditions": ["order2_at_one:99"]}},
         "condition 'order2_at_one:99' is not in the catalog"),
    ])
    def test_malformed_document_is_one_line(self, capsys, tmp_path, fields,
                                            message):
        doc = json.loads(_DOCUMENTS["EULER_OPT"])
        doc.update(fields)
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        code, err = usage_error(capsys, "check", "--scheme-file", str(f))
        assert (code, err) == (2, [f"csrk: error: {message}"])

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.update(Alpha=doc.pop("alpha")),
         "unknown field 'Alpha'; expected one of name, s, A0, A1, A2, B0, "
         "B1, B2, alpha, beta1, beta2, beta3, beta4, meta"),
        (lambda doc: doc["meta"].update(condition=doc["meta"].pop(
            "conditions")),
         "unknown field 'meta.condition'; expected one of "
         "meta.p_deterministic, meta.p_stochastic, meta.conditions"),
    ], ids=["top-level", "meta"])
    def test_unknown_field_is_one_line(self, capsys, tmp_path, edit, message):
        # a misspelled field would otherwise take its default silently
        doc = json.loads(_DOCUMENTS["CRDI1WM"])
        edit(doc)
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        code, err = usage_error(capsys, "check", "--scheme-file", str(f))
        assert (code, err) == (2, [f"csrk: error: {message}"])

    @pytest.mark.parametrize("meta", [
        {"p_stochastic": 1.0}, {"p_stochastic": 1.0, "conditions": []},
    ], ids=["missing", "empty"])
    def test_no_declared_conditions_is_one_line(self, capsys, tmp_path, meta):
        # an empty set would print no rows and "# overall = pass"
        doc = json.loads(_DOCUMENTS["CRDI1WM"])
        doc["meta"] = meta
        f = tmp_path / "none.json"
        f.write_text(json.dumps(doc))
        code, err = usage_error(capsys, "check", "--scheme-file", str(f))
        assert (code, err) == (2, [
            "csrk: error: scheme 'CRDI1WM' declares no conditions to check "
            "(meta.conditions)"])

    def test_document_not_an_object_is_one_line(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("[]")
        code, err = usage_error(capsys, "check", "--scheme-file", str(f))
        assert (code, err) == (
            2, ["csrk: error: a scheme document must be a JSON object"])

    def test_missing_scheme_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["check"])
        assert ei.value.code == 2

    def test_scheme_and_file_exclusive(self, capsys, tmp_path):
        f = tmp_path / "crdi3.json"
        f.write_text(tableau_to_json(builtin_scheme("CRDI3WM")))
        code, err = usage_error(capsys, "check", "--scheme", "CRDI2WM",
                                "--scheme-file", str(f))
        assert code == 2
        assert err == ["csrk: error: argument --scheme-file: not allowed "
                       "with argument --scheme"]

    def test_unknown_scheme(self, capsys):
        code, _, err = run(capsys, "check", "--scheme", "RK4")
        assert code == 2
        assert "RK4" in err


class TestSimulate:
    def test_rows_cover_grid(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--scheme", "CRDI2WM", "--problem", "linear",
            "--h", "0.5", "--seed", "3", "--dense-per-step", "1",
        )
        assert code == 0
        rows = body_lines(out)
        assert rows[0] == "t,theta,y1"
        # 4 nodes + 4 dense + final node
        assert len(rows) == 1 + 9

    def test_deterministic(self, capsys):
        _, a, _ = run(capsys, "simulate", "--scheme", "CRDI3WM", "--problem",
                      "linear", "--h", "0.25", "--seed", "1")
        _, b, _ = run(capsys, "simulate", "--scheme", "CRDI3WM", "--problem",
                      "linear", "--h", "0.25", "--seed", "1")
        assert a == b

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_does_not_grow_with_the_rows(self, tmp_path, fmt):
        # each row goes to a temporary file as it is made, and the file is
        # copied out in fixed-size chunks; a row held in memory until the
        # table is written takes about 0.3 kB (CSV) or 0.6 kB (JSON), over
        # 1 MB for the 4,000 rows between the two runs below
        def peak(steps):
            tracemalloc.start()
            try:
                main(["simulate", "--scheme", "EULER_OPT", "--problem",
                      "linear", "--h", repr(2.0 / steps), "--dense-per-step",
                      "9", "--format", fmt, "--output",
                      str(tmp_path / f"{steps}.{fmt}")])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(20)  # the first run fills the caches of the modules it uses
        # 2,000 and 6,000 rows, both more than one copy chunk of output
        assert peak(600) - peak(200) < 400_000

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_blowup_after_some_rows_writes_nothing(self, capsys, tmp_path,
                                                   fmt):
        # the rows of steps 0 to 89 are made before step 90 blows up
        argv = ("simulate", "--scheme", "EULER_OPT", "--problem", "linear",
                "--a", "0", "--b", "1e6", "--x0", "1e200", "--h", "0.01",
                "--format", fmt)
        out_file = tmp_path / "out"
        for output in ((), ("--output", str(out_file))):
            code, out, err = run(capsys, *argv, *output)
            assert (code, out) == (2, "")
            assert err.startswith("csrk: error: path 0 blew up at step 90:")
        assert not out_file.exists()

    @pytest.mark.parametrize("T", ["2", "4"])
    def test_overflowing_state_names_path_and_step(self, capsys, T):
        # b x0 dW overflows in step 0 (dW != 0 there for seed 2) while drift
        # and diffusion stay finite: only the check of the new state sees it,
        # not a drift value of step 1
        code, err = usage_error(
            capsys, "simulate", "--scheme", "EULER_OPT", "--problem",
            "linear", "--a", "0", "--b", "1e154", "--x0", "1e154",
            "--h", "2", "--T", T, "--seed", "2",
        )
        assert code == 2
        assert err == ["csrk: error: path 0 blew up at step 0"]


class TestErrorTableAndConverge:
    ARGS = (
        "--scheme", "CRDI2WM", "--problem", "linear", "--f", "x",
        "--t-eval", "2.0", "--h-list", "0.5,0.25", "--M", "4000",
        "--seed", "11",
    )

    def test_error_table_columns(self, capsys):
        code, out, _ = run(capsys, "error-table", *self.ARGS)
        assert code == 0
        rows = body_lines(out)
        assert rows[0] == "h,mu,sigma2_mu,ci_low,ci_high"
        assert len(rows) == 3
        assert "# reference_provenance = paper_stated" in out

    def test_converge_appends_slope(self, capsys):
        code, out, _ = run(capsys, "converge", *self.ARGS)
        assert code == 0
        assert "# slope = " in out

    def test_bodies_bit_identical_across_threads(self, capsys):
        _, a, _ = run(capsys, "converge", *self.ARGS, "--threads", "1")
        _, b, _ = run(capsys, "converge", *self.ARGS, "--threads", "4")
        assert body_lines(a) == body_lines(b)

    def test_non_divisible_h_rejected(self, capsys):
        code, _, err = run(
            capsys, "error-table", "--scheme", "CRDI2WM", "--problem",
            "linear", "--t-eval", "2.0", "--h-list", "0.3", "--M", "100",
        )
        assert code == 2
        assert err == "csrk: error: step 0.3 does not divide the horizon 2.0\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "error-table", *self.ARGS,
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["h", "mu", "sigma2_mu", "ci_low", "ci_high"]
        assert len(doc["rows"]) == 2
        assert doc["config"]["scheme"] == "CRDI2WM"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, "error-table", *self.ARGS,
                           "--output", str(target))
        assert code == 0
        assert out == ""
        assert "h,mu,sigma2_mu" in target.read_text()


class TestDense:
    def test_profile(self, capsys):
        code, out, _ = run(
            capsys, "dense", "--scheme", "CRDI3WM", "--problem", "linear",
            "--h", "0.5", "--theta-list", "0.25,0.75", "--M", "2000",
            "--seed", "0",
        )
        assert code == 0
        rows = body_lines(out)
        assert rows[0] == "t,theta,mu,sigma2_mu,ci_low,ci_high"
        assert len(rows) == 1 + 4 * 2


class TestExactCommands:
    def test_local_order(self, capsys):
        code, out, _ = run(
            capsys, "local-order", "--scheme", "CRDI2WM", "--problem",
            "linear", "--f", "x2", "--h-list", "0.125,0.0625,0.03125",
        )
        assert code == 0
        assert "# slope = " in out
        slope = float(out.rsplit("# slope = ", 1)[1].split()[0])
        assert slope == pytest.approx(3.0, abs=0.3)

    def test_exact_order(self, capsys):
        code, out, _ = run(
            capsys, "exact-order", "--scheme", "CRDI3WM", "--problem",
            "linear", "--f", "x2", "--N-list", "4,8,16",
            "--outcome-cap", "50000000",
        )
        assert code == 0
        rows = body_lines(out)
        assert rows[0] == "N,h,error"
        assert len(rows) == 4
        slope = float(out.rsplit("# slope = ", 1)[1].split()[0])
        assert slope > 2.0

    def test_capacity_error_reported(self, capsys):
        code, _, err = run(
            capsys, "exact-order", "--scheme", "CRDI2WM", "--problem",
            "system2d", "--f", "x2", "--N-list", "16",
        )
        assert code == 2
        assert "cap" in err


def usage_error(capsys, *argv):
    """Exit status and stderr lines of a command expected to be refused."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err.splitlines()


class TestUsageErrors:
    MC = ("converge", "--scheme", "CRDI2WM", "--problem", "linear",
          "--t-eval", "2.0", "--h-list", "0.5,0.25", "--M", "100")
    LOCAL = ("local-order", "--scheme", "CRDI2WM", "--problem", "linear")

    @pytest.mark.parametrize("argv", [
        MC + ("--chunk-size", "0"),
        MC + ("--threads", "0"),
        MC + ("--threads", "-3"),
        ("error-table", "--scheme", "CRDI2WM", "--problem", "linear",
         "--a", "800", "--t-eval", "1.7", "--h-list", "0.5", "--M", "100"),
        ("exact-order", "--scheme", "CRDI2WM", "--problem", "linear",
         "--N-list", "0"),
        ("simulate", "--problem", "linear", "--h", "0.5"),
        ("dense", "--scheme", "CRDI2WM", "--problem", "linear", "--h", "0"),
        ("converge", "--scheme", "CRDI2WM", "--problem", "linear",
         "--t-eval", "2.0", "--h-list", "0,0.5", "--M", "100"),
        ("converge", "--scheme", "CRDI2WM", "--problem", "linear",
         "--t-eval", "2.0", "--h-list=-0.5", "--M", "100"),
        ("simulate", "--scheme", "CRDI2WM", "--problem", "linear",
         "--h", "nan"),
        ("dense", "--scheme", "CRDI2WM", "--problem", "linear", "--h", "0.5",
         "--theta-list", ",", "--M", "100"),
        LOCAL + ("--h-list", "nan,0.5"),
        LOCAL + ("--h-list", "inf,0.5"),
        LOCAL + ("--h-list=-0.5",),
        ("simulate", "--scheme", "CRDI2WM", "--problem", "linear",
         "--h", "0.5", "--dense-per-step", "-2"),
        ("dense", "--scheme", "CRDI2WM", "--problem", "linear", "--h", "0.5",
         "--theta-list", "0.5,0.5", "--M", "100"),
        ("check", "--scheme", "CRDI3WM", "--tol", "nan"),
        ("check", "--scheme", "CRDI3WM", "--tol", "inf"),
        ("error-table", "--scheme", "CRDI2WM", "--problem", "linear",
         "--t-eval", "2.0", "--h-list", ",", "--M", "100"),
        ("simulate", "--scheme", "CRDI3WM", "--problem", "linear",
         "--h", "0.5", "--a", "1e308"),
        ("converge", "--scheme", "CRDI3WM", "--problem", "linear",
         "--t-eval", "2.0", "--h-list", "0.5,0.25", "--M", "100",
         "--b", "1e308", "--threads", "2"),
        ("exact-order", "--scheme", "CRDI3WM", "--problem", "linear",
         "--f", "x2", "--N-list", "2,4", "--x0", "1e200"),
        ("simulate", "--scheme", "CRDI2WM", "--problem", "linear",
         "--h", "0.5", "--T", "inf"),
        ("simulate", "--scheme", "CRDI2WM", "--problem", "linear",
         "--h", "0.5", "--x0", "nan"),
        ("check", "--scheme", "CRDI3WM", "--scheme-file", "f.json"),
        # no prefix matching: --f is not --format, --theta not --theta-list
        ("simulate", "--scheme", "CRDI3WM", "--problem", "linear",
         "--h", "1", "--f", "json"),
        ("dense", "--scheme", "CRDI2WM", "--problem", "linear", "--h", "0.5",
         "--theta", "0.5", "--M", "100"),
        ("exact-order", "--scheme", "CRDI2WM", "--problem", "linear",
         "--N-list", "2,4", "--outcome-cap", "-1"),
    ], ids=["chunk-size-0", "threads-0", "threads-negative", "overflow",
            "N-list-0", "no-scheme", "dense-h-0", "h-list-0",
            "h-list-negative", "simulate-h-nan",
            "theta-list-empty", "local-h-nan", "local-h-inf",
            "local-h-negative", "dense-per-step-negative",
            "theta-list-duplicate", "tol-nan", "tol-inf", "h-list-empty",
            "overflow-drift", "overflow-diffusion-threads",
            "overflow-functional", "T-inf", "x0-nan", "scheme-and-file",
            "f-is-not-format", "theta-is-not-theta-list",
            "outcome-cap-negative"])
    def test_one_line_exit_2(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = usage_error(capsys, *argv)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("csrk: error: "), err
        assert not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize("argv,message", [
        (("check", "--scheme", "NOPE"),
         "unknown scheme 'NOPE'; available: EULER_LINEAR, EULER_OPT, "
         "CRDI1WM, CRDI2WM, CRDI3WM, CRDI4WM, CRDI5WM"),
        (MC + ("--f", "nope"), "unknown functional 'nope'; available: x, x2"),
    ], ids=["scheme", "functional"])
    def test_unknown_name_unquoted(self, capsys, argv, message):
        code, err = usage_error(capsys, *argv)
        assert code == 2
        assert err == [f"csrk: error: {message}"]

    HUGE = ("--scheme", "CRDI3WM", "--problem", "linear", "--f", "x2")

    @pytest.mark.parametrize("argv,message", [
        (("converge",) + HUGE + ("--x0", "1e154", "--t-eval", "2.0",
                                 "--h-list", "0.5,0.25", "--M", "100"),
         "the reference value of x1^2 at t=2.0 is not finite"),
        (("dense",) + HUGE + ("--x0", "1e154", "--h", "0.5", "--M", "100"),
         "path 0 blew up at step 0: non-finite f value at t=0.2"),
        (("exact-order",) + HUGE + ("--x0", "1e154", "--N-list", "2,4"),
         "enumeration blew up at step 1: non-finite expectation value at "
         "t=2.0"),
        (("local-order",) + HUGE + ("--x0", "1e300", "--h-list", "0.5,0.25"),
         "enumeration blew up at step 0: non-finite expectation value at "
         "t=0.5"),
        (("converge", "--scheme", "CRDI3WM", "--problem", "linear",
          "--t-eval", "2.0", "--h-list", "0.5,0.25", "--M", "100",
          "--b", "1e308"),
         "path 0 blew up at step 0: non-finite diffusion value at t=0.0, "
         "stage 2"),
    ], ids=["converge-reference", "dense-f-value", "exact-order-expectation",
            "local-order-expectation", "converge-diffusion"])
    def test_non_finite_result_named(self, capsys, argv, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = usage_error(capsys, *argv)
        assert code == 2
        assert err == [f"csrk: error: {message}"]
        assert not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize("argv", [
        ("simulate", "--scheme", "CRDI2WM", "--problem", "linear",
         "--h", "0.3"),
        ("dense", "--scheme", "CRDI2WM", "--problem", "linear", "--h", "0.3",
         "--M", "100"),
    ], ids=["simulate", "dense"])
    def test_non_dividing_step_offers_no_missing_option(self, capsys, argv):
        # no command takes a shortened final step, so the message offers no
        # option (error-table: TestErrorTableAndConverge)
        code, err = usage_error(capsys, *argv)
        assert code == 2
        assert err == ["csrk: error: step 0.3 does not divide the horizon "
                       "2.0"]

    @pytest.mark.parametrize("command,option", [
        (MC, ("--chunk-size", "700")), (MC, ("--allow-shortened",)),
        (LOCAL + ("--h-list", "0.5,0.25"), ("--outcome-cap", "5")),
        (LOCAL + ("--h-list", "0.5,0.25"), ("--outcome-cap", "0")),
    ], ids=["chunk-size", "allow-shortened", "local-outcome-cap",
            "local-outcome-cap-0"])
    def test_removed_option_unrecognized(self, capsys, command, option):
        # the chunk size and the grid are not the caller's to choose, and a
        # one-step tree (3 or 18 leaves) needs no cap
        code, err = usage_error(capsys, *command, *option)
        assert code == 2
        assert err == [f"csrk: error: unrecognized arguments: "
                       f"{' '.join(option)}"]

    @pytest.mark.parametrize("seed", [
        "18446744073709551616", "-18446744073709551616", "-1",
    ])
    @pytest.mark.parametrize("command", [
        ("converge", "--scheme", "CRDI2WM", "--problem", "linear",
         "--t-eval", "2.0", "--h-list", "0.5,0.25", "--M", "100",
         "--threads", "2"),
        ("simulate", "--scheme", "CRDI2WM", "--problem", "linear",
         "--h", "0.5"),
    ], ids=["converge", "simulate"])
    def test_seed_outside_64_bits_refused(self, capsys, monkeypatch, command,
                                          seed):
        # taken modulo 2^64, such a seed would repeat the rows of another
        calls = []
        step_arrays = csrk.stats.compute_step_arrays

        def step(*args):
            calls.append(args)
            return step_arrays(*args)

        monkeypatch.setattr(csrk.stats, "compute_step_arrays", step)
        code, err = usage_error(capsys, *command, "--seed", seed)
        assert code == 2
        assert err == [f"csrk: error: seed must lie in [0, 2**64), got {seed}"]
        assert calls == []

    @pytest.mark.parametrize("h,sub,rows", [
        ("2", "100000000", 100000002), ("0.5", "2499999", 10000001),
    ])
    def test_simulate_rows_limited(self, capsys, monkeypatch, h, sub, rows):
        # every row is held until the table is written: refused before the
        # first step
        monkeypatch.setattr(csrk.stats, "compute_step_arrays",
                            lambda *args: pytest.fail("stepped"))
        code, err = usage_error(capsys, "simulate", "--scheme", "CRDI2WM",
                                "--problem", "linear", "--h", h,
                                "--dense-per-step", sub)
        assert code == 2
        assert err == [f"csrk: error: --dense-per-step {sub} on "
                       f"{round(2 / float(h))} steps asks for {rows} rows, "
                       "above the limit 10000000"]

    @pytest.mark.parametrize("argv,message", [
        (("simulate", "--scheme", "CRDI3WM", "--problem", "linear",
          "--h", "1e-320"), "step 1e-320 is too small for the horizon 2.0"),
        (("simulate", "--scheme", "CRDI3WM", "--problem", "linear",
          "--h", "1e-300"),
         "step 1e-300 on the horizon 2.0 asks for 2e+300 steps, above the "
         "limit 10000000"),
        (("converge", "--scheme", "CRDI3WM", "--problem", "linear",
          "--t-eval", "2.0", "--h-list", "0.5,1e-300", "--M", "100"),
         "step 1e-300 on the horizon 2.0 asks for 2e+300 steps, above the "
         "limit 10000000"),
        (("exact-order", "--scheme", "CRDI3WM", "--problem", "linear",
          "--N-list", "100000000000000000000000"),
         "3^100000000000000000000000 outcome sequences exceed the cap "
         "10000000 (outcome_cap, --outcome-cap on the command line); use "
         "mc_expectation instead"),
        (("check", "--scheme", "CRDI3WM", "--grid-points",
          "100000000000000000000000"),
         "theta grid may have at most 10000000 points (points, --grid-points "
         "on the command line), got 100000000000000000000000"),
    ], ids=["step-count-overflow", "step-count-limit",
            "step-count-limit-h-list", "N-list-huge", "grid-points-huge"])
    def test_names_the_limit(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = usage_error(capsys, *argv)
        assert code == 2
        assert err == [f"csrk: error: {message}"]

    @pytest.mark.parametrize("argv,message", [
        (("exact-order", "--scheme", "CRDI3WM", "--problem", "system2d",
          "--f", "x2", "--N-list", "2,3", "--T", "1.0", "--x0", "5",
          "--a", "9"),
         "problem 'system2d' does not take --a, --x0, --T"),
        (("simulate", "--scheme", "CRDI3WM", "--problem", "linear",
          "--h", "0.5", "--lam", "7"),
         "problem 'linear' does not take --lam"),
        (("simulate", "--scheme", "CRDI3WM", "--problem", "ode",
          "--h", "0.5", "--b", "0.1"),
         "problem 'ode' does not take --b"),
    ], ids=["system2d", "linear", "ode"])
    def test_option_the_problem_does_not_take(self, capsys, argv, message):
        code, err = usage_error(capsys, *argv)
        assert code == 2
        assert err == [f"csrk: error: {message}"]

    def test_outcome_cap_checked_before_the_first_enumeration(
            self, capsys, monkeypatch):
        steps, grids = [], []
        step_arrays = csrk.stats.compute_step_arrays
        uniform = csrk.cli.TimeGrid.uniform

        def step(*args):
            steps.append(args)
            return step_arrays(*args)

        def grid(*args):
            grids.append(args)
            return uniform(*args)

        monkeypatch.setattr(csrk.stats, "compute_step_arrays", step)
        monkeypatch.setattr(csrk.cli.TimeGrid, "uniform", grid)
        code, err = usage_error(
            capsys, "exact-order", "--scheme", "CRDI3WM", "--problem",
            "linear", "--f", "x2", "--N-list", "14,20",
            "--outcome-cap", "50000000",
        )
        assert code == 2
        assert err == ["csrk: error: 3^20 outcome sequences exceed the cap "
                       "50000000 (outcome_cap, --outcome-cap on the command "
                       "line); use mc_expectation instead"]
        assert steps == [] and grids == []

    @pytest.mark.parametrize("argv,steps", [
        (("converge", "--scheme", "CRDI2WM", "--problem", "linear",
          "--t-eval", "2.0", "--h-list", "0.25,0.25", "--M", "100"),
         [0.25, 0.25]),
        (("converge", "--scheme", "CRDI2WM", "--problem", "linear",
          "--t-eval", "2.0", "--h-list", "0.0625", "--M", "400000"),
         [0.0625]),
        (LOCAL + ("--h-list", "0.5,0.5"), [0.5, 0.5]),
        (("exact-order", "--scheme", "CRDI2WM", "--problem", "linear",
          "--N-list", "4,4"), [0.5, 0.5]),
    ], ids=["converge-repeated", "converge-one", "local-order-repeated",
            "exact-order-repeated"])
    def test_order_fit_refused_before_the_first_run(
            self, capsys, monkeypatch, argv, steps):
        calls = []
        step_arrays = csrk.stats.compute_step_arrays

        def step(*args):
            calls.append(args)
            return step_arrays(*args)

        monkeypatch.setattr(csrk.stats, "compute_step_arrays", step)
        code, err = usage_error(capsys, *argv)
        assert code == 2
        assert err == ["csrk: error: order estimation needs nonzero errors at "
                       f"2 or more distinct step sizes, got {steps}"]
        assert calls == []

    def test_every_step_checked_before_the_first_estimate(
            self, capsys, monkeypatch):
        steps = []
        step_arrays = csrk.stats.compute_step_arrays

        def step(*args):
            steps.append(args)
            return step_arrays(*args)

        monkeypatch.setattr(csrk.stats, "compute_step_arrays", step)
        code, err = usage_error(
            capsys, "converge", "--scheme", "CRDI2WM", "--problem", "linear",
            "--t-eval", "2.0", "--h-list", "0.0625,0.3", "--M", "100",
        )
        assert code == 2
        assert len(err) == 1 and err[0].startswith("csrk: error: step 0.3")
        assert steps == []


class TestHeader:
    @pytest.mark.parametrize("argv,config", [
        (("schemes",), {"command": "schemes", "output_format": "csv"}),
        (("check", "--scheme", "CRDI3WM"),
         {"command": "check", "scheme": "CRDI3WM", "grid_points": 21,
          "tol": 1e-12, "output_format": "csv"}),
        (("simulate", "--scheme", "CRDI2WM", "--problem", "ode", "--h", "0.5",
          "--dense-per-step", "3"),
         {"command": "simulate", "scheme": "CRDI2WM", "problem": "ode",
          "problem_params": {"lam": 1.0, "x0": 0.1, "T": 2.0}, "h": 0.5,
          "seed": 0, "dense_per_step": 3, "output_format": "csv"}),
        (("converge", "--scheme", "CRDI2WM", "--problem", "linear",
          "--t-eval", "2.0", "--h-list", "0.5,0.25", "--M", "100",
          "--threads", "2"),
         {"command": "converge", "scheme": "CRDI2WM", "problem": "linear",
          "problem_params": {"a": 1.5, "b": 0.1, "x0": 0.1, "T": 2.0},
          "f": "x", "h_list": [0.5, 0.25], "t_eval": 2.0, "m_samples": 100,
          "seed": 0, "confidence": 0.9, "output_format": "csv"}),
        (("dense", "--scheme", "CRDI3WM", "--problem", "system2d", "--f",
          "x2", "--reference", "derived", "--h", "2.0", "--theta-list", "0.5",
          "--M", "100"),
         {"command": "dense", "scheme": "CRDI3WM", "problem": "system2d",
          "problem_params": {}, "f": "x2", "h": 2.0, "theta_list": [0.5],
          "m_samples": 100, "seed": 0, "confidence": 0.9,
          "reference": "derived", "output_format": "csv"}),
        (("exact-order", "--scheme", "CRDI2WM", "--problem", "linear", "--f",
          "x2", "--N-list", "2,4", "--theta-eval", "0.5", "--outcome-cap",
          "1000"),
         {"command": "exact-order", "scheme": "CRDI2WM", "problem": "linear",
          "problem_params": {"a": 1.5, "b": 0.1, "x0": 0.1, "T": 2.0},
          "f": "x2", "n_list": [2, 4], "theta_eval": 0.5,
          "output_format": "csv"}),
    ], ids=["schemes", "check", "simulate", "converge", "dense",
            "exact-order"])
    def test_config_line(self, capsys, argv, config):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        # the key order is part of the line
        assert out.splitlines()[1] == "# config = " + json.dumps(config)

    # the options cli._RECORDED leaves out, for the reason given there
    UNRECORDED = {"threads", "outcome_cap"}

    def test_every_option_recorded(self):
        """An option a command takes is in its header, or changes nothing."""
        problem_params = {name for _, params in csrk.cli._problems().values()
                          for name in params}
        [commands] = [a for a in csrk.cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)]
        for name, parser in commands.choices.items():
            dests = {a.dest for a in parser._actions
                     if not isinstance(a, argparse._HelpAction)}
            stray = (dests - set(csrk.cli._RECORDED) - problem_params
                     - self.UNRECORDED)
            assert not stray, f"{name}: {sorted(stray)} not in the header"


class TestTracingHooks:
    """perfbench traces the layers by replacing these module globals; the
    engines must keep calling them there, positionally, at these rates."""

    def install(self, monkeypatch, counting):
        calls = {"step": [], "dense": [], "enum": [], "sample": [],
                 "uniforms": [], "problem": []}

        def spy(key, fn):
            def wrapper(*args, **kwargs):
                assert not kwargs, f"{key} called with keywords {kwargs}"
                calls[key].append(args)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(csrk.stats, "compute_step_arrays",
                            spy("step", csrk.stats.compute_step_arrays))
        monkeypatch.setattr(csrk.stats, "evaluate_dense",
                            spy("dense", csrk.stats.evaluate_dense))
        monkeypatch.setattr(csrk.stats, "enumerate_outcomes",
                            spy("enum", csrk.stats.enumerate_outcomes))
        monkeypatch.setattr(csrk.stats, "sample_batch",
                            spy("sample", csrk.stats.sample_batch))
        monkeypatch.setattr(csrk.increments, "uniforms",
                            spy("uniforms", csrk.increments.uniforms))
        for name in ("linear_problem", "system2d_problem"):
            factory = getattr(csrk.cli, name)

            def traced(*args, _factory=factory, **kwargs):
                problem, counts = counting(_factory(*args, **kwargs))
                calls["problem"].append(counts)
                return problem
            monkeypatch.setattr(csrk.cli, name, traced)
        return calls

    @pytest.mark.parametrize("problem,f,extra,t_eval,h_list,m", [
        ("linear", "x", (), "2.0", (0.5, 0.25), 1),
        ("system2d", "x2", ("--reference", "derived"), "4.0", (2.0, 1.0), 2),
    ], ids=["linear", "system2d"])
    def test_monte_carlo_contract(self, capsys, monkeypatch, counting,
                                  problem, f, extra, t_eval, h_list, m):
        calls = self.install(monkeypatch, counting)
        M, chunk = 1000, 256  # serial: the counters are not thread-safe
        monkeypatch.setattr(csrk.stats, "_CHUNK", chunk)
        code, _, _ = run(
            capsys, "converge", "--scheme", "CRDI3WM", "--problem", problem,
            "--f", f, *extra, "--t-eval", t_eval,
            "--h-list", ",".join(map(str, h_list)), "--M", str(M),
            "--threads", "1",
        )
        assert code == 0
        n_chunks = -(-M // chunk)
        steps = n_chunks * sum(round(float(t_eval) / h) for h in h_list)
        assert len(calls["step"]) == steps
        assert all(len(a) == 7 for a in calls["step"])
        # the eval time is a grid node, so no dense call beyond theta = 1
        assert len(calls["dense"]) == steps
        assert all(len(a) == 2 for a in calls["dense"])
        assert calls["enum"] == []
        # one positional draw per chunk and step, on paths of chunk size
        rows = [len(a[3]) for a in calls["step"]]
        assert len(calls["sample"]) == len(calls["uniforms"]) == steps
        assert all(len(a) == 5 for a in calls["sample"])
        assert [a[3].size for a in calls["sample"]] == rows
        assert all(len(a) == 4 for a in calls["uniforms"])
        assert [a[1].size for a in calls["uniforms"]] == rows
        draws = [a[1].size * a[3] for a in calls["uniforms"]]
        assert draws == [r * uniforms_per_step(m) for r in rows]
        assert sum(rows) == M * steps // n_chunks
        scheme = builtin_scheme("CRDI3WM")
        s = scheme.stages
        families = 2 if scheme.uses_cross_stages and m > 1 else 1
        [counts] = calls["problem"]
        assert counts == {"drift": s * steps,
                          "diffusion": s * m * families * steps}

    def test_dense_contract(self, capsys, monkeypatch, counting):
        calls = self.install(monkeypatch, counting)
        M, chunk, h, T = 1000, 256, 0.5, 2.0
        thetas = 9  # the default --theta-list, 0.1 to 0.9
        monkeypatch.setattr(csrk.stats, "_CHUNK", chunk)
        code, _, _ = run(
            capsys, "dense", "--scheme", "CRDI3WM", "--problem", "linear",
            "--h", str(h), "--T", str(T), "--M", str(M), "--threads", "1",
        )
        assert code == 0
        steps = -(-M // chunk) * round(T / h)
        assert len(calls["step"]) == steps
        assert all(len(a) == 7 for a in calls["step"])
        # theta = 1 advances the state; each listed theta is one more call
        assert len(calls["dense"]) == (1 + thetas) * steps
        assert all(len(a) == 2 for a in calls["dense"])
        s = builtin_scheme("CRDI3WM").stages
        [counts] = calls["problem"]
        assert counts == {"drift": s * steps, "diffusion": s * steps}

    @pytest.mark.parametrize("problem,m,T", [
        ("linear", 1, 2.0), ("system2d", 2, 4.0),
    ], ids=["linear", "system2d"])
    def test_simulate_contract(self, capsys, monkeypatch, counting, problem,
                               m, T):
        calls = self.install(monkeypatch, counting)
        h, sub = 0.5, 2
        code, _, _ = run(
            capsys, "simulate", "--scheme", "CRDI3WM", "--problem", problem,
            "--h", str(h), "--dense-per-step", str(sub),
        )
        assert code == 0
        [counts] = calls["problem"]
        steps = round(T / h)
        # one unbatched step call per grid step, each advanced at theta = 1
        assert len(calls["step"]) == steps
        assert all(len(a) == 7 and a[3].shape == (m,) for a in calls["step"])
        assert len(calls["dense"]) == (1 + sub) * steps
        # one draw per step, at the address (seed, path 0, step)
        assert [a[2:] for a in calls["sample"]] == [
            (0, 0, n) for n in range(steps)]
        assert calls["enum"] == []
        scheme = builtin_scheme("CRDI3WM")
        s = scheme.stages
        families = 2 if scheme.uses_cross_stages and m > 1 else 1
        assert counts == {"drift": s * steps,
                          "diffusion": s * m * families * steps}

    def test_enumeration_contract(self, capsys, monkeypatch, counting):
        calls = self.install(monkeypatch, counting)
        n_list = (2, 3)
        code, _, _ = run(
            capsys, "exact-order", "--scheme", "CRDI3WM", "--problem",
            "linear", "--f", "x2", "--N-list", ",".join(map(str, n_list)),
        )
        assert code == 0
        assert len(calls["enum"]) == sum(n_list)
        assert all(len(a) == 2 for a in calls["enum"])
        # one step call per outcome and level while a level fits one slice
        steps = 3 * sum(n_list)
        assert len(calls["step"]) == len(calls["dense"]) == steps
        s = builtin_scheme("CRDI3WM").stages
        [counts] = calls["problem"]
        assert counts == {"drift": s * steps, "diffusion": s * steps}


def rows_sha256(text):
    """sha256 of the data rows: the body without its column line."""
    rows = "\n".join(body_lines(text)[1:])
    return hashlib.sha256(rows.encode()).hexdigest()


_SYSTEM2D = ("converge", "--scheme", "CRDI3WM", "--problem", "system2d",
             "--f", "x2", "--reference", "derived", "--t-eval", "3.8",
             "--h-list", "0.8,0.4", "--M", "3000", "--seed", "2")

# test id -> (argv, sha256 of the data rows)
GOLDEN = {
    "converge-linear": (
        ("converge", "--scheme", "CRDI3WM", "--problem", "linear", "--f",
         "x", "--T", "1.8", "--t-eval", "1.7", "--h-list", "0.3,0.2",
         "--M", "3000", "--seed", "5"),
        "454c359dcbe5b1f71b67b209953941a80aeaedd2cca2f03eb8f4e058f87eecfc"),
    "converge-system2d-threads-1": (
        _SYSTEM2D + ("--threads", "1"),
        "7d021d83b7aff86cf3757f5390262c22639b0d09a6a99cd8235803b5b04363e0"),
    "converge-system2d-threads-2": (
        _SYSTEM2D + ("--threads", "2"),
        "7d021d83b7aff86cf3757f5390262c22639b0d09a6a99cd8235803b5b04363e0"),
    "dense": (
        ("dense", "--scheme", "CRDI3WM", "--problem", "linear", "--h", "0.3",
         "--T", "1.5", "--M", "2000", "--seed", "1"),
        "80a54f8a3bea805aa2233d8d3f4ab6311bdbb30c2a8e276ff912f949e29650f7"),
    "exact-order-theta": (
        ("exact-order", "--scheme", "CRDI2WM", "--problem", "system2d",
         "--f", "x2", "--N-list", "2,3", "--theta-eval", "0.3"),
        "0b35a592b6c99ea293ced894a4ece4afe37bd86bbed2bb2a25748eb777449582"),
    "simulate-dense-per-step": (
        ("simulate", "--scheme", "CRDI5WM", "--problem", "system2d", "--h",
         "0.4", "--seed", "7", "--dense-per-step", "3"),
        "da968e6c0a798b0524d0901e3ff45911fd36690a954475562cf8de1d2568ee09"),
}


class TestGoldenOutput:
    """Data rows are pinned bit for bit; any change to the arithmetic of a
    step or a dense evaluation, or to the draws, shows up here.  The steps
    are not powers of two, so multiplying by h rounds."""

    @pytest.mark.parametrize("argv,digest", GOLDEN.values(), ids=GOLDEN)
    def test_data_rows(self, capsys, monkeypatch, argv, digest):
        # Monte Carlo runs of several chunks at small M: the digests were
        # recorded with 1024-path chunks
        monkeypatch.setattr(csrk.stats, "_CHUNK", 1024)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert rows_sha256(out) == digest


# runs each command of the JSON list in argv[1] and writes its exit status
# and its whole output, with the chunk size of the golden digests
_CHILD = """
import contextlib, io, json, sys
import csrk.stats
from csrk.cli import main
csrk.stats._CHUNK = 1024
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    sys.stdout.write(f"{argv} exited {code}\\n{out.getvalue()}")
"""


def checkout_env():
    """This environment with the checkout's csrk first on PYTHONPATH."""
    env = dict(os.environ)
    path = [os.path.dirname(os.path.dirname(csrk.__file__))]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
class TestPortableBits:
    """No output depends on the kernel OpenBLAS picks for the CPU or on its
    thread count: the same commands give the same bytes under the default
    kernel and under Prescott, which every x86-64 can run and which has no
    FMA, and with OPENBLAS_NUM_THREADS=1 and =2.

    exact-order is left out: its final sum is still a BLAS dot product, whose
    bits change under Haswell and Prescott, and with the thread count (the
    N = 16 error of the README's CRDI3WM x2 run moves by 2e-11 relative)."""

    COMMANDS = [("check", "--scheme", name)
                for name in ("CRDI2WM", "CRDI3WM", "CRDI5WM")] + [
        argv for key, (argv, _) in GOLDEN.items()
        if key != "exact-order-theta"]

    @staticmethod
    def outputs(**openblas):
        """The commands' output with the OPENBLAS_* variables of ``openblas``
        (``coretype=...``, ``num_threads=...``), and no other, set."""
        env = {k: v for k, v in checkout_env().items()
               if k not in ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS")}
        env.update({f"OPENBLAS_{k.upper()}": v for k, v in openblas.items()})
        return subprocess.run(
            [sys.executable, "-c", _CHILD,
             json.dumps(TestPortableBits.COMMANDS)],
            env=env, capture_output=True, check=True).stdout

    def test_same_bytes_under_the_default_kernel_and_prescott(self):
        default = self.outputs()
        assert default.count(b" exited 0\n") == len(self.COMMANDS)
        assert self.outputs(coretype="Prescott") == default

    def test_same_bytes_on_one_and_two_openblas_threads(self):
        one = self.outputs(num_threads="1")
        assert one.count(b" exited 0\n") == len(self.COMMANDS)
        assert self.outputs(num_threads="2") == one


def fresh_python(script):
    """Runs ``script`` in a new interpreter that imports this checkout's
    csrk; its assertions fail the run."""
    proc = subprocess.run([sys.executable, "-c", script], env=checkout_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestStartUp:
    """A command loads only the code it runs."""

    def test_cli_import_loads_no_catalog_or_pool(self):
        fresh_python("""
import contextlib, io, sys
import csrk.cli
csrk.cli.build_parser()
assert "csrk.conditions" not in sys.modules
assert "concurrent.futures" not in sys.modules
import csrk
# a submodule not yet imported resolves as an attribute
assert csrk.conditions.__name__ == "csrk.conditions"
assert csrk.stats.__name__ == "csrk.stats"
from csrk import check_conditions
assert len(csrk.CATALOG) == 72 and check_conditions.__module__ == "csrk.conditions"
assert set(csrk.__all__) <= set(dir(csrk))
assert not hasattr(csrk, "nope")
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert csrk.cli.main(["check", "--scheme", "CRDI3WM"]) == 0
assert out.getvalue().splitlines()[-1] == "# overall = pass"
""")

    def test_one_chunk_runs_inline(self):
        # M = 2000 is one chunk: four threads asked for start no pool
        fresh_python("""
import contextlib, io, sys
from csrk.cli import main
argv = ["converge", "--scheme", "CRDI3WM", "--problem", "linear", "--f", "x",
        "--t-eval", "1.7", "--h-list", "0.5,0.25", "--M", "2000"]
outs = []
for threads in ("4", "1"):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv + ["--threads", threads]) == 0
    outs.append(out.getvalue())
assert "concurrent.futures" not in sys.modules
assert outs[0] == outs[1]
""")
