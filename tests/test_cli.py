import json

import pytest

from klab.cli import EVAL_FUNCTIONS, _report_payload, build_parser, main, parse_line
from klab.core import DEFAULT_BUDGET, GUARD, EvalError, Modulus, SummationBudget
from klab.lattice import intersection_point
from klab.kronecker import f_closed
from klab.theta import theta
from klab.verify import SUITES
from test_fukaya import _point_gap


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestEval:
    def test_theta_value(self, capsys):
        code, out = run(capsys, "eval", "theta", "--z", "0,0", "--tau", "0,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["value_re"] == pytest.approx(1.086434811213, abs=1e-11)
        assert payload["value_im"] == pytest.approx(0.0, abs=1e-12)
        assert payload["shells_used"] >= 1

    def test_f_matches_closed_form(self, capsys):
        code, out = run(
            capsys, "eval", "f", "--z1", "0.17,0.31", "--z2", "0.41,0.53",
            "--tau", "0,1",
        )
        assert code == 0
        payload = json.loads(out)
        want = f_closed(0.17 + 0.31j, 0.41 + 0.53j, Modulus(1j))
        assert complex(payload["value_re"], payload["value_im"]) == pytest.approx(
            want, abs=1e-9
        )

    def test_lower_half_plane_tau_rejected(self, capsys):
        code, out = run(capsys, "eval", "theta", "--z", "0,0", "--tau", "0,-1")
        assert code == 2

    def test_missing_argument(self, capsys):
        code, out = run(capsys, "eval", "f", "--z1", "0.1,0.2", "--tau", "0,1")
        assert code == 2

    @pytest.mark.parametrize("z, zarg", [(-0.3 + 0.5j, "-0.3,0.5"), (-0.3 - 0.5j, "-.3,-.5")])
    def test_negative_value_after_option(self, capsys, z, zarg):
        code, out = run(capsys, "eval", "theta", "--z", zarg, "--tau", "-0.2,1")
        assert code == 0
        payload = json.loads(out)
        value = theta(z, Modulus(-0.2 + 1j))
        assert (payload["value_re"], payload["value_im"]) == (value.real, value.imag)

    def test_unknown_option_still_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "theta", "--w", "0,0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["eval", "theta", "--z=0.1,0.2", "--format", "csv"],
        ["m3", "--format", "text", "--", "0:0.11:0", "2:0.23:0", "-1:-0.31:0", "1:0.07:0"],
        ["m3", "--format", "csv", "--", "0:0.11:0", "2:0.23:0", "-1:-0.31:0", "1:0.07:0"],
        ["verify", "eta-const", "--format", "xml"],
    ])
    def test_format_the_command_does_not_write_is_rejected(self, capsys, argv):
        # eval writes json and text, m3 json, verify json, csv and text
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "argument --format: invalid choice" in err

    @pytest.mark.parametrize("bad", ["--y=0,inf", "--y=nan,0"])
    def test_non_finite_argument_rejected(self, capsys, bad):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "kappa", bad, "--x=0.1,0.2"])
        assert exc.value.code == 2


def bisected_shells(fn, args, tau, budget=DEFAULT_BUDGET) -> int:
    """Reference for ``shells_used``: the smallest ``max_shell`` at which the
    evaluation succeeds, by exponential probe and bisection.  A sum whose
    truncation radius exceeds ``max_shell`` raises, so this is the largest
    radius of the function's sums."""
    lo, hi = 1, budget.max_shell
    probe = 1
    while probe < hi:
        try:
            fn(*args, tau, SummationBudget(budget.target_tol, probe))
            hi = probe
            break
        except EvalError:
            lo = probe + 1
            probe *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            fn(*args, tau, SummationBudget(budget.target_tol, mid))
            hi = mid
        except EvalError:
            lo = mid + 1
    return hi


#: (tau, first argument, second argument); the second point's cone misses
#: the shells of radius 0 and 1 for f, g and h
EVAL_POINTS = [
    (0.3 + 0.9j, 0.2 + 0.35j, 0.7 + 0.55j),
    (0.4j, 0.21 - 0.64j, 0.66 + 0.72j),
]


def _cplx(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


class TestEvalTrace:
    @pytest.mark.parametrize("point", EVAL_POINTS)
    @pytest.mark.parametrize("name", sorted(EVAL_FUNCTIONS))
    def test_shells_used_matches_bisection(self, capsys, name, point):
        tau, *zs = point
        fn, flags = EVAL_FUNCTIONS[name]
        args = zs[: len(flags)]
        argv = ["eval", name, f"--tau={_cplx(tau)}"]
        argv += [f"--{flag}={_cplx(z)}" for flag, z in zip(flags, args)]
        code, out = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["shells_used"] == bisected_shells(fn, args, Modulus(tau))
        assert payload["terms_in_cone"] >= 1
        if name not in ("h", "h0"):  # whose terms each sum a window of (k, n) points
            assert payload["terms"] >= payload["terms_in_cone"]
        assert payload["guard"] == GUARD
        value = fn(*args, Modulus(tau))
        assert (payload["value_re"], payload["value_im"]) == (value.real, value.imag)

    @pytest.mark.parametrize("name", ["h", "h0"])
    def test_h_trace_counts_k_and_k_n_points(self, capsys, name):
        # the radius and terms count k = m + n, and terms_in_cone the (k, n)
        # points of the cone (m + s1)(n + s2) > 0 on those lines of k
        tau, z1, z2 = 0.3 + 0.9j, 0.2 + 0.35j, 0.7 + 0.55j
        code, out = run(capsys, "eval", name, f"--z1={_cplx(z1)}", f"--z2={_cplx(z2)}",
                        f"--tau={_cplx(tau)}", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"schema", "function", "args", "tau", "value_re", "value_im",
                                "shells_used", "ring_share", "terms", "terms_in_cone", "guard"}
        assert payload["schema"] == 1
        assert (payload["shells_used"], payload["terms"], payload["terms_in_cone"]) == (4, 9, 20)
        # both series centre k on -1 here, and their cones hold the same points
        s1, s2 = (0.35 / 0.9, 0.55 / 0.9) if name == "h" else (0.5, 0.5)
        points = sum((k - n + s1) * (n + s2) > 0 for k in range(-5, 4) for n in range(-20, 21))
        assert points == payload["terms_in_cone"]

    @pytest.mark.parametrize("name", sorted(EVAL_FUNCTIONS))
    def test_repeat_calls_bit_identical(self, name):
        fn, flags = EVAL_FUNCTIONS[name]
        for tau, *zs in EVAL_POINTS:
            args = zs[: len(flags)]
            budget = SummationBudget(target_tol=1e-13)
            first = fn(*args, Modulus(tau), budget)
            assert fn(*args, Modulus(tau), budget) == first


class TestM3:
    def test_degree_failure_reports_zero(self, capsys):
        code, out = run(
            capsys, "m3", "0:0.0:0", "1:0.1:0", "2:0.2:0", "3:0.3:0",
            "--tau", "0,1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"schema": 1, "zero": True}

    def test_nonzero_with_oracle(self, capsys):
        code, out = run(
            capsys, "m3", "--tau", "0,1", "--oracle", "--",
            "0:0.11:0", "2:0.23:0", "-1:-0.31:0", "1:0.07:0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"]
        assert payload["max_discrepancy"] < 1e-9

    def test_oracle_points_matched_by_torus_distance(self, capsys):
        # an output point whose x lies next to a 6-digit rounding boundary:
        # matched by rounded coordinates, the two sides read 0.12 apart
        code, out = run(
            capsys, "m3", "--tau", "0.3,0.9", "--oracle", "--radius", "8", "--",
            "1/3:0.0364:0.8159", "-1:-0.0174:0.3687", "2:0.2846:0.6929",
            "3:0.3319:0.5415",
        )
        assert code == 0
        assert json.loads(out)["max_discrepancy"] < 1e-12

    def test_oracle_label_does_not_depend_on_radius(self, capsys):
        # each output point is named by lattice.point_label
        labels = set()
        for radius in ("4", "6", "8"):
            code, out = run(
                capsys, "m3", "--tau", "0,1", "--oracle", "--radius", radius, "--",
                "0:0.11:0", "2:0.23:0", "-1:-0.31:0", "1:0.07:0",
            )
            assert code == 0
            labels.add(tuple((c["a"], c["b"]) for c in json.loads(out)["coefficients"]))
        assert len(labels) == 1

    def test_series_and_oracle_print_the_same_labels(self, capsys):
        # both name an output point by lattice.point_label, whichever lift
        # of the last line each reaches it by
        lines = ["0:0.11:0", "2:0.23:0", "-1:-0.31:0", "1:0.07:0"]
        labels = []
        for oracle in ([], ["--oracle"]):
            code, out = run(capsys, "m3", *lines, "--tau", "0,1", *oracle)
            assert code == 0
            labels.append([(c["a"], c["b"]) for c in json.loads(out)["coefficients"]])
        assert labels[0] == labels[1] == [(0, 0)]

    def test_negative_slope_line_as_written(self, capsys):
        lines = ["0:0.11:0", "2:0.23:0", "-1:-0.31:0", "1:0.07:0"]
        code, out = run(capsys, "m3", *lines, "--tau", "0,1")
        assert code == 0
        code, separated = run(capsys, "m3", "--tau", "0,1", "--", *lines)
        assert code == 0
        assert json.loads(out)["coefficients"]
        assert out == separated

    def test_lines_moved_by_whole_lifts_give_the_same_coefficients(self, capsys):
        # lines 3 and 4 moved by the label (1, -16), which keeps the point where
        # lines 2 and 3 meet: each coefficient's exponent stays in the float range
        near = ["1:0.086172:0.5867", "4:0.210259:0.1847", "0:0.657057:0.3172", "2:-0.991779:0.027"]
        far = near[:2] + ["0:-15.342943:0.3172", "2:-14.991779:0.027"]
        by_point = []
        for argv in (near, far):
            code, out = run(capsys, "m3", *argv, "--tau", "0.2,0.8")
            assert code == 0
            lines = [parse_line(arg) for arg in argv]
            payload = json.loads(out)
            assert (payload["prefactor_re"], payload["prefactor_im"], payload["sign"]) == (1, 0, 1)
            by_point.append({
                intersection_point(lines[0], lines[3], c["a"], c["b"]):
                    complex(c["value_re"], c["value_im"])
                for c in payload["coefficients"]
            })
        scale = max(abs(v) for v in by_point[0].values())
        assert len(by_point[0]) == len(by_point[1])
        assert _point_gap(*by_point) < 1e-12 * scale

    def test_repeated_slopes_rejected(self, capsys):
        code = main(["m3", "0:0.0:0", "1:0.1:0", "1:0.2:0", "2:0.3:0", "--tau", "0,1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("DomainError: ")

    @pytest.mark.parametrize("tau, code", [("0,0.5", 2), ("0,0.3", 0), ("0,0.2", 0)])
    def test_many_cosets_give_a_result_or_a_typed_error(self, capsys, tau, code):
        # 36 cosets: their batch is summed in groups; at 0.5i a coset's terms
        # all fall below the float range
        got = main(["m3", "--tau", tau, "--", "5/3:0.34:0.25", "-4:0.14:0.44",
                    "3/2:-0.35:0.02", "-7/3:-0.37:0.29"])
        out, err = capsys.readouterr()
        assert got == code
        if code:
            assert err.startswith("DomainError: ")
        else:
            assert len(json.loads(out)["coefficients"]) == 36


class TestVerify:
    def test_kronecker_passes(self, capsys):
        code, out = run(
            capsys, "verify", "kronecker", "--samples", "5", "--seed", "1",
            "--tau", "0.3,0.9",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["pass"] is True
        assert payload["max_residual"] < 1e-9

    def test_forced_failure_exit_code(self, capsys):
        code, out = run(
            capsys, "verify", "kronecker", "--samples", "5", "--tol", "1e-20",
            "--tau", "0,1",
        )
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_unknown_identity(self, capsys):
        code, _ = run(capsys, "verify", "nonsense", "--tau", "0,1")
        assert code == 2

    # kronecker exited 1 with points=-1, t-quasi raised ValueError from math.isqrt
    @pytest.mark.parametrize("suite", ["kronecker", "t-quasi", "all"])
    @pytest.mark.parametrize("samples", ["-1", "0"])
    def test_samples_below_one_rejected(self, capsys, suite, samples):
        code = main(["verify", suite, "--samples", samples, "--tau", "0,1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert f"--samples must be at least 1, got {samples}" in err

    def test_csv_format(self, capsys):
        code, out = run(
            capsys, "verify", "psi", "--samples", "3", "--format", "csv",
            "--tau", "0,1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "identity_id,sample,residual,lhs_re,lhs_im,rhs_re,rhs_im"
        assert len(lines) > 1

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _ = run(
            capsys, "verify", "eta-const", "--tau", "0,1", "--out", str(target)
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["pass"] is True

    def test_reproducible_output(self, capsys):
        _, out1 = run(
            capsys, "verify", "fg", "--samples", "4", "--seed", "9",
            "--tau", "0,1",
        )
        _, out2 = run(
            capsys, "verify", "fg", "--samples", "4", "--seed", "9",
            "--tau", "0,1",
        )
        assert out1 == out2

    @pytest.mark.parametrize("suite", ["five-term", "sign-det"])
    def test_slopes_option(self, capsys, suite):
        # sign-det runs at i Im(tau) with or without --slopes
        code, out = run(
            capsys, "verify", suite, "--slopes", "0,2,-1,1,3", "--samples", "2",
            "--tau", "0.3,0.9",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_one_draw_on_a_thin_cone_passes(self, capsys):
        # an outer m3 coset of the one draw has its cone points far from the
        # apex; the suite certifies it alone, and passes with nothing skipped
        code, out = run(capsys, "verify", "five-term", "--slopes", "0,5,-1,2,6", "--tau", "0,1.7",
                        "--seed", "3", "--samples", "1")
        payload = json.loads(out)
        assert code == 0 and payload["pass"] is True and payload["skipped"] == 0

    def test_slopes_reach_the_suite(self, capsys):
        # an uncertified slope order makes every sample a DomainError skip
        code, out = run(capsys, "verify", "five-term", "--slopes", "0,1,2,3,4")
        assert code == 1
        assert json.loads(out)["skipped_by_kind"] == {"DomainError": 3}

    # four slopes raised ValueError from unpacking them, with exit code 1
    @pytest.mark.parametrize("suite", ["five-term", "sign-det", "all"])
    @pytest.mark.parametrize("slopes", ["0,2,-1,1", "0,2,-1,1,3,4"])
    def test_slope_count_other_than_five_is_an_input_error(self, capsys, suite, slopes):
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, "--slopes", slopes])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.splitlines()[-1] == (
            f"klab verify: error: argument --slopes: expected five slopes 'p/q,...', got {slopes!r}")

    @pytest.mark.parametrize("suite", ["five-term", "sign-det"])
    def test_fractional_slopes_are_an_input_error(self, capsys, suite):
        code = main(["verify", suite, "--slopes", "1/2,3,-1/3,1,7/2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("DomainError")

    def test_no_skips_at_small_im_tau(self, capsys):
        # the f sums that converge at 223 to 1,119 indices fit max_shell
        code, out = run(capsys, "verify", "fg", "--tau", "0.3,0.12")
        payload = json.loads(out)
        assert code == 0 and payload["pass"] is True
        assert (payload["points"], payload["skipped"]) == (50, 0)

    def test_skips_grouped_by_kind(self, capsys):
        # at Im(tau) = 0.015 six f sums need a radius beyond max_shell
        code, out = run(
            capsys, "verify", "fg", "--tau", "0.3,0.015", "--format", "text"
        )
        assert code == 0
        assert "points=50 samples=44 skipped=6 (ConvergenceBudgetExceeded: 6)" in out
        code, out = run(capsys, "verify", "fg", "--tau", "0.3,0.015")
        payload = json.loads(out)
        assert payload["points"] == 50 and payload["n_samples"] == 44
        assert payload["skipped"] == 6
        assert payload["skipped_by_kind"] == {"ConvergenceBudgetExceeded": 6}


class TestJsonBytes:
    """The encoder skips its check for cycles; the bytes are those of the
    plain ``json.dumps(payload, sort_keys=True)``."""

    @pytest.mark.parametrize("suite", sorted(SUITES) + ["all"])
    def test_verify_payloads(self, capsys, suite):
        code, out = run(capsys, "verify", suite, "--samples", "3", "--tau", "0.3,0.9")
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
        if suite != "all":
            payload = _report_payload(SUITES[suite](Modulus(0.3 + 0.9j), 3, 0, DEFAULT_BUDGET))
            assert out == json.dumps(payload, sort_keys=True) + "\n"

    @pytest.mark.parametrize("argv", [
        ("eval", "f", "--tau=0.1,0.8", "--z1=0.2,0.3", "--z2=-0.1,0.25"),
        ("eval", "theta", "--tau=0,1", "--z=0.3,0.1"),
        ("m3", "--tau=0,1", "--", "0:0.11:0", "2:0.23:0", "-1:-0.31:0", "1:0.07:0"),
        ("m3", "--tau=0,1", "--oracle", "--", "0:0.11:0", "2:0.23:0", "-1:-0.31:0", "1:0.07:0"),
        ("m3", "--tau=0,1", "--", "0:0.1:0", "1:0.2:0", "2:0.3:0", "3:0.4:0"),
    ])
    def test_eval_and_m3_payloads(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


class TestParserReuse:
    COMMANDS = (
        ["eval", "f", "--z1", "0.17,0.31", "--z2", "0.41,0.53", "--tau", "0,1"],
        ["m3", "--tau", "0,1", "--oracle", "--", "0:0.11:0.3", "2:0.23:0.8",
         "3:-0.31:0.1", "1:0.07:0.5"],
        ["verify", "eta-const", "--tau", "0.3,0.9", "--format", "text"],
        ["eval", "theta", "--z", "-0.3,0.5", "--format", "text"],
    )

    def test_a_sequence_matches_each_command_alone(self, capsys, tmp_path):
        # the parser is built once per process; no flag of an earlier call
        # may carry over into a later one
        def outputs(fresh):
            got = []
            for i, argv in enumerate(self.COMMANDS):
                if fresh:
                    build_parser.cache_clear()
                out = tmp_path / f"{fresh}-{i}.txt"
                argv = argv + ["--out", str(out)] if argv[0] == "verify" else argv
                code, text = run(capsys, *argv)
                got.append((code, text, out.read_text() if out.exists() else None))
            return got

        alone = outputs(True)
        assert outputs(False) == alone
        assert alone[2][1] == "" and alone[2][2].startswith("eta-const: PASS")
        assert alone[3][1].startswith("theta = ") and alone[3][2] is None
