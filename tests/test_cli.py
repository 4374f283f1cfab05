"""Tests for the command-line interface: grammars, formats, exit codes."""

import importlib.resources
import json
import warnings

import numpy as np
import pytest

from isoparam import FocalRadius, NondiagnosableOperator, random_subspace, verification
from isoparam.cli import EXAMPLES, EXIT_NOINPUT, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, run
from isoparam.verification import _record
from test_readme_cli import strict_json

jsonschema = pytest.importorskip("jsonschema")


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def load_schema(name):
    text = (
        importlib.resources.files("isoparam").joinpath(f"schemas/{name}.json").read_text()
    )
    return json.loads(text)


def validate(name, payload):
    jsonschema.validate(payload, load_schema(name))


@pytest.fixture
def line_in_c2(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(random_subspace(2, 1, seed=3).to_json())
    return str(path)


class TestSpectrum:
    def test_horosphere_table(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--example", "horosphere", "--n", "3")
        assert code == EXIT_OK
        # {1.0 x4, 2.0 x1} with c = -4
        lines = [ln.split() for ln in out.splitlines() if ln and ln[0].isspace() or ln[:1].isdigit() or True]
        assert "1" in out and "4" in out and "2" in out
        rows = [ln.split() for ln in out.splitlines()[2:]]
        assert rows[0][:3] == ["1", "4", "4"]
        assert rows[1][:3] == ["2", "1", "1"]

    def test_json_schema_and_values(self, capsys):
        code, out = run_cli(
            capsys,
            "spectrum", "--example", "tube-chk", "--n", "3", "--k", "1",
            "--radius", "1", "--output", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        validate("spectrum", payload)
        entries = payload["spectra"][0]["entries"]
        values = [v for v, _, _ in entries]
        assert abs(values[0] - np.tanh(1)) < 1e-12

    def test_subspace_spectra_per_angle(self, capsys, line_in_c2):
        code, out = run_cli(
            capsys,
            "spectrum", "--subspace", line_in_c2, "--n", "3",
            "--radius", "1.0", "--output", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        validate("spectrum", payload)
        # w_perp of a real line in C^2 has angles {0, pi/2}
        angles = sorted(s["normal_angle"] for s in payload["spectra"])
        assert abs(angles[0]) < 1e-9
        assert abs(angles[-1] - np.pi / 2) < 1e-9

    def test_subspace_spectrum_explicit_angle(self, capsys, line_in_c2):
        code, out = run_cli(
            capsys,
            "spectrum", "--subspace", line_in_c2, "--n", "3",
            "--radius", "1.0", "--angle", "0.7", "--output", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        validate("spectrum", payload)
        assert len(payload["spectra"]) == 1
        assert payload["spectra"][0]["normal_angle"] == 0.7

    def test_csv_digits(self, capsys):
        code, out = run_cli(
            capsys,
            "spectrum", "--example", "horosphere", "--n", "2", "--output", "csv",
        )
        assert code == EXIT_OK
        header, *rows = out.strip().splitlines()
        assert header.startswith("example,n,k,r,")
        # 17 significant digits round-trip doubles exactly; '.' separator
        values = [float(row.split(",")[5]) for row in rows]
        assert values == [1.0, 2.0]

    def test_csv_roundtrip_irrational(self, capsys):
        code, out = run_cli(
            capsys,
            "spectrum", "--example", "tube-chk", "--n", "3", "--k", "1",
            "--radius", "1", "--output", "csv",
        )
        assert code == EXIT_OK
        rows = out.strip().splitlines()[1:]
        values = sorted(float(row.split(",")[5]) for row in rows)
        assert values[0] == np.tanh(1.0)  # bit-exact round trip
        assert "." in rows[0].split(",")[5]


class TestClassify:
    def test_case_vi_json(self, capsys, line_in_c2):
        code, out = run_cli(
            capsys,
            "classify", "--subspace", line_in_c2, "--n", "3",
            "--radius", "1.0", "--output", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        validate("classify", payload)
        assert payload["case"] == "vi"
        assert payload["homogeneous"] is False
        assert payload["constant_principal_curvatures"] is False
        assert payload["invariant"] == [[0.0, 2], [np.pi / 2, 1]]

    def test_named_families(self, capsys):
        for fam, case in [("horosphere", "iii"), ("tube-rhn", "ii"), ("lohnherr", "iv")]:
            code, out = run_cli(
                capsys, "classify", "--example", fam, "--n", "3", "--output", "json"
            )
            assert code == EXIT_OK
            payload = json.loads(out)
            validate("classify", payload)
            assert payload["case"] == case
            assert payload["homogeneous"] is True


class TestLift:
    def test_rhn_lift_json(self, capsys):
        code, out = run_cli(
            capsys,
            "lift", "--example", "tube-rhn", "--n", "3", "--radius", "1.0",
            "--output", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        validate("lift", payload)
        assert payload["jordan_type"] == "IV"
        assert payload["admissible"] is True

    def test_lohnherr_lift_is_type_iii(self, capsys):
        code, out = run_cli(
            capsys, "lift", "--example", "lohnherr", "--n", "3", "--output", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        validate("lift", payload)
        assert payload["jordan_type"] == "III"
        assert payload["admissible"] is True

    @pytest.mark.parametrize("tol", [1e-15, 1e-17])
    def test_constraints_judged_at_the_given_tol(self, capsys, tol):
        # the cartan_pair residual of this lift is 4.4e-16: it passes at
        # 1e-15 and fails at 1e-17 (both scaled by 1 + |c|)
        from isoparam import classifier, hopf_lift, tube_geometry

        code, out = run_cli(
            capsys,
            "lift", "--example", "tube-chk", "--n", "3", "--k", "1", "--radius", "1",
            "--tol", str(tol),
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        spec = tube_geometry.standard_spectrum("tube-chk", 3, r=1.0, c=-4.0, k=1)
        cls = hopf_lift.classify_lift(hopf_lift.hopf_lift_data(spec, -4.0))
        report = classifier.check_type_constraints(cls, -4.0, tol=tol)
        assert [(ch["name"], ch["passed"]) for ch in payload["constraints"]] == [
            (ch.name, ch.passed) for ch in report.checks
        ]
        assert payload["admissible"] is report.admissible


class TestModuli:
    def test_ch3_unique(self, capsys):
        code, out = run_cli(capsys, "moduli", "--n", "3", "--k", "3", "--output", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        validate("moduli", payload)
        assert len(payload["families"]) == 1
        assert payload["families"][0]["entries"] == [[0.0, 2], [np.pi / 2, 1]]
        assert payload["families"][0]["free_angles"] == 0


class TestVerify:
    def test_single_suite(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--suite", "cartan", "--seed", "42", "--output", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        validate("verify", payload)
        assert payload["ok"] is True

    def test_empty_suite_set(self, capsys):
        # a selection that names no suite would pass vacuously: it is refused
        for suite in ("", ","):
            code, out = run_cli(capsys, "verify", "--suite", suite, "--output", "json")
            assert code == EXIT_VALIDATION
            payload = strict_json(out)
            validate("error", payload)
            assert payload["error"] == {"type": "ValueError", "message": "no suite selected"}
        with pytest.raises(ValueError, match="no suite selected"):
            verification.verify_suites(verification.RunConfig(), ())

    def test_tube_suite_at_a_small_curvature(self, capsys):
        # at c = -1e-6 every radius draw has s0 r <= 1.5e-3, where the angle
        # cubic solved in x lost trace_identity to 2.1e-9 against 1e-9
        code, out = run_cli(capsys, "verify", "--suite", "tube", "--seed", "0",
                            "--curvature=-1e-6", "--output", "json")
        assert code == EXIT_OK
        payload = strict_json(out)
        validate("verify", payload)
        assert payload["ok"] is True

    def test_unknown_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "bogus")
        assert code == EXIT_VALIDATION

    INPUTS = [{"n": 2}, {"n": 3}, {"n": 4}]

    def test_failed_check_names_its_worst_input(self):
        checks = []
        _record(checks, "tube_geometry", "probe", [0.1, 3.0, 0.2], 1e-9, self.INPUTS)
        assert checks == [
            {
                "module": "tube_geometry",
                "name": "probe",
                "samples": 3,
                "max_residual": 3.0,
                "tol": 1e-9,
                "passed": False,
                "worst_input": {"n": 3},
            }
        ]

    def test_nan_residual_fails(self):
        checks = []
        _record(checks, "tube_geometry", "probe", [0.1, np.nan, 0.2], 1.0, self.INPUTS)
        assert checks[0]["passed"] is False
        assert checks[0]["worst_input"] == {"n": 3}

    def test_passing_check_has_no_worst_input(self):
        checks = []
        _record(checks, "tube_geometry", "probe", [0.1, 3.0, 0.2], 5.0, self.INPUTS)
        assert checks[0]["passed"] is True
        assert "worst_input" not in checks[0]

    @pytest.mark.parametrize("suite", verification.SUITES)
    def test_suite_that_raises_is_a_failed_record(self, capsys, monkeypatch, suite):
        # the suite raises on purpose; it reports one failed check, and
        # every suite runs
        def raising_suite(config):
            raise NondiagnosableOperator("planted raise")

        monkeypatch.setitem(verification._SUITE_RUNNERS, suite, raising_suite)
        code, out = run_cli(capsys, "verify", "--seed", "0", "--output", "json")
        assert code == EXIT_VALIDATION
        payload = json.loads(out)
        validate("verify", payload)
        assert [s["suite"] for s in payload["suites"]] == list(verification.SUITES)
        raised = [(s["suite"], ch) for s in payload["suites"] for ch in s["checks"] if ch["name"] == "raised"]
        assert [name for name, _ in raised] == [suite]
        ch = raised[0][1]
        assert (ch["samples"], ch["max_residual"], ch["passed"]) == (0, None, False)
        assert set(ch["worst_input"]) == {"error", "message"}

    def test_raised_record_names_the_error(self, monkeypatch):
        def raising_suite(config):
            raise FocalRadius("r at a focal radius")

        monkeypatch.setitem(verification._SUITE_RUNNERS, "tube", raising_suite)
        record = verification.verify_suites(verification.RunConfig(), ("tube", "cartan"))
        assert record["suites"][0]["checks"] == [
            {
                "module": "test_cli",
                "name": "raised",
                "samples": 0,
                "max_residual": None,
                "tol": 0.0,
                "passed": False,
                "worst_input": {"error": "FocalRadius", "message": "r at a focal radius"},
            }
        ]
        assert record["suites"][1]["failed"] == 0
        assert (record["failed"], record["ok"]) == (1, False)

    def test_failed_record_exits_2_and_prints_failures(self, capsys, monkeypatch):
        def failing_suite(config):
            checks = []
            _record(checks, "tube_geometry", "probe", [0.1, 3.0, 0.2], 1e-9, self.INPUTS)
            return checks

        monkeypatch.setitem(verification._SUITE_RUNNERS, "tube", failing_suite)
        code, out = run_cli(capsys, "verify", "--suite", "tube")
        assert code == EXIT_VALIDATION
        assert "FAIL probe" in out
        assert out.splitlines()[-1] == "FAILURES"
        code, out = run_cli(capsys, "verify", "--suite", "tube", "--output", "json")
        assert code == EXIT_VALIDATION
        payload = strict_json(out)
        validate("verify", payload)
        assert (payload["passed"], payload["failed"], payload["ok"]) == (0, 1, False)
        assert payload["suites"][0]["checks"][0]["worst_input"] == {"n": 3}

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_residual_is_null(self, bad):
        checks = []
        _record(checks, "tube_geometry", "probe", [0.1, bad, 0.2], 1.0, self.INPUTS)
        assert checks[0]["max_residual"] is None
        assert checks[0]["passed"] is False
        assert checks[0]["worst_input"] == {"n": 3}

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_residual_prints_strict_json(self, capsys, monkeypatch, bad):
        def failing_suite(config):
            checks = []
            _record(checks, "tube_geometry", "probe", [0.1, bad], 1e-9, self.INPUTS)
            _record(checks, "tube_geometry", "fine", [0.1, 0.2], 1.0)
            return checks

        monkeypatch.setitem(verification._SUITE_RUNNERS, "tube", failing_suite)
        code, out = run_cli(capsys, "verify", "--suite", "tube", "--output", "json")
        assert code == EXIT_VALIDATION
        payload = strict_json(out)
        validate("verify", payload)
        probe, fine = payload["suites"][0]["checks"]
        assert (probe["max_residual"], probe["passed"]) == (None, False)
        assert (fine["max_residual"], fine["passed"]) == (0.2, True)
        code, out = run_cli(capsys, "verify", "--suite", "tube")
        assert code == EXIT_VALIDATION
        assert "FAIL probe" in out and "max_residual=non-finite" in out
        code, out = run_cli(capsys, "verify", "--suite", "tube", "--output", "csv")
        assert code == EXIT_VALIDATION
        assert out.splitlines()[1:] == [
            "tube,probe,2,,1.0000000000000001e-09,0",
            "tube,fine,2,0.20000000000000001,1,1",
        ]


class TestHorocycle:
    def test_points_are_members(self, capsys):
        code, out = run_cli(
            capsys, "horocycle", "--n", "3", "--seed", "5", "--output", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        validate("horocycle", payload)
        assert len(payload["points"]) == 8
        assert all(pt["in_w_tube_core"] for pt in payload["points"])

    def test_rejects_nonpositive_steps(self, capsys):
        code, out = run_cli(capsys, "horocycle", "--n", "3", "--steps", "-5")
        assert code == EXIT_USAGE
        validate("error", json.loads(out))

    def test_tol_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ISOPARAM_TOL", "1e-30")
        code, out = run_cli(
            capsys, "horocycle", "--n", "3", "--seed", "5", "--output", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        # an impossible tolerance flips the membership verdicts
        assert not all(pt["in_w_tube_core"] for pt in payload["points"])


class TestDeterminismAndErrors:
    def test_byte_identical_json(self, capsys):
        argv = ["verify", "--suite", "cartan", "--seed", "7", "--output", "json"]
        _, out1 = run_cli(capsys, *argv)
        _, out2 = run_cli(capsys, *argv)
        assert out1 == out2

    def test_suite_results_independent_of_selection(self):
        # per-check derived sub-seeds: the cartan results are the same
        # whether the suite runs alone or alongside others
        from isoparam import RunConfig, verify_suites

        alone = verify_suites(RunConfig(seed=11), suites=("cartan",))
        combined = verify_suites(RunConfig(seed=11), suites=("tube", "cartan"))
        cartan_alone = alone["suites"][0]
        cartan_combined = [s for s in combined["suites"] if s["suite"] == "cartan"][0]
        assert cartan_alone == cartan_combined

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0])
    def test_run_config_rejects_bad_seed(self, seed):
        from isoparam import RunConfig

        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
            RunConfig(seed=seed)

    def test_usage_error(self, capsys):
        code, out = run_cli(capsys, "classify")
        assert code == EXIT_USAGE
        validate("error", json.loads(out))

    @pytest.mark.parametrize(
        "argv",
        [
            ["horocycle", "--n", "3", "--seed=-1"],
            ["verify", "--suite", "cartan", "--seed=-1"],
            ["lift", "--example", "lohnherr", "--n", "3", "--seed=-5"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_is_usage_error(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        payload = strict_json(out)
        validate("error", payload)
        assert payload["error"]["type"] == "usage"

    def test_unknown_command(self, capsys):
        code, out = run_cli(capsys)
        assert code == EXIT_USAGE

    def test_file_not_found(self, capsys):
        code, out = run_cli(
            capsys, "spectrum", "--subspace", "/no/such/file.json", "--n", "3",
            "--radius", "1",
        )
        assert code == EXIT_NOINPUT
        validate("error", json.loads(out))

    @pytest.mark.parametrize(
        "text",
        [
            "[[1, 0, 0, 0]]",
            '"text"',
            '{"ambient_cdim": null, "basis": [[1, 0, 0, 0]]}',
            '{"ambient_cdim": 2, "basis": [{"a": 1}]}',
            '{"ambient_cdim": 2.7, "basis": [[1, 0, 0, 0]]}',
            '{"ambient_cdim": true, "basis": [[1, 0]]}',
        ],
        ids=["list", "string", "null-cdim", "object-row", "float-cdim", "bool-cdim"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["spectrum", "--radius", "1"], ["classify", "--radius", "1"], ["horocycle"]],
        ids=lambda argv: argv[0],
    )
    def test_malformed_subspace_file(self, capsys, tmp_path, argv, text):
        path = tmp_path / "w.json"
        path.write_text(text)
        code, out = run_cli(capsys, *argv, "--subspace", str(path), "--n", "3")
        assert code == EXIT_VALIDATION
        payload = strict_json(out)
        validate("error", payload)
        assert payload["error"]["type"] == "ValueError"

    def test_subnormal_lohnherr_radius_answers(self, capsys):
        # mu = s0 coth(s0 r) overflows at r = 1e-310, but for k = 1 it has
        # multiplicity 0
        argv = ["lift", "--example", "lohnherr", "--n", "3", "--radius", "1e-310"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(capsys, *argv, "--output", "json")
        assert code == EXIT_OK
        validate("lift", strict_json(out))

    @pytest.mark.parametrize("radius", ["0", "-1", "inf"])
    def test_focal_or_negative_radius(self, capsys, line_in_c2, radius):
        code, out = run_cli(
            capsys, "spectrum", "--subspace", line_in_c2, "--n", "3",
            "--radius", radius, "--output", "json",
        )
        assert code == EXIT_VALIDATION
        payload = json.loads(out)
        validate("error", payload)
        assert payload["error"]["type"] == "FocalRadius"

    @pytest.mark.parametrize("radius", ["nan", "inf"])
    @pytest.mark.parametrize(
        "example", [["tube-chk", "--k", "1"], ["tube-rhn"], ["lohnherr"]]
    )
    def test_spectrum_rejects_non_finite_radius(self, capsys, example, radius):
        code, out = run_cli(
            capsys, "spectrum", "--example", *example, "--n", "3",
            "--radius", radius, "--output", "json",
        )
        assert code == EXIT_VALIDATION
        payload = json.loads(out)
        validate("error", payload)
        assert payload["error"]["type"] == "FocalRadius"

    @pytest.mark.parametrize("radius", ["nan", "inf"])
    def test_classify_rejects_non_finite_radius(self, capsys, line_in_c2, radius):
        code, out = run_cli(
            capsys, "classify", "--subspace", line_in_c2, "--n", "3",
            "--radius", radius, "--output", "json",
        )
        assert code == EXIT_VALIDATION
        payload = json.loads(out)
        validate("error", payload)
        assert payload["error"]["type"] == "FocalRadius"

    @pytest.mark.parametrize("curvature", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--example", "tube-chk", "--n", "3", "--k", "1", "--radius", "1"],
            ["classify", "--example", "horosphere", "--n", "3"],
            ["lift", "--example", "horosphere", "--n", "3"],
            ["verify", "--suite", "cartan"],
            ["horocycle", "--n", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_rejects_non_finite_curvature(self, capsys, argv, curvature):
        # glued with "=" so that argparse does not read "-inf" as an option
        code, out = run_cli(capsys, *argv, f"--curvature={curvature}", "--output", "json")
        assert code == EXIT_VALIDATION
        payload = json.loads(out)
        validate("error", payload)
        assert payload["error"]["type"] == "ValueError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--example", "horosphere", "--n", "3"],
            ["classify", "--example", "horosphere", "--n", "3"],
            ["moduli", "--n", "4", "--k", "3"],
            ["verify", "--suite", "cartan"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_tol_only_where_read(self, capsys, argv):
        # --tol is accepted by lift and horocycle, the commands that read it
        assert run_cli(capsys, *argv)[0] == EXIT_OK
        code, out = run_cli(capsys, *argv, "--tol", "1e-6")
        assert code == EXIT_USAGE
        validate("error", json.loads(out))
        lift = ["lift", "--example", "horosphere", "--n", "3", "--tol", "1e-6"]
        assert run_cli(capsys, *lift)[0] == EXIT_OK

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["spectrum", "--example", "horosphere", "--n", "3"], "--seed=1"),
            (["classify", "--example", "horosphere", "--n", "3"], "--seed=1"),
            (["moduli", "--n", "4", "--k", "3"], "--seed=1"),
            (["moduli", "--n", "4", "--k", "3"], "--curvature=-1"),
        ],
        ids=lambda arg: arg[0] if isinstance(arg, list) else arg.split("=")[0],
    )
    def test_seed_and_curvature_only_where_read(self, capsys, argv, flag):
        # --seed is read by lift, verify and horocycle, --curvature by all
        # but moduli; elsewhere either is a usage error
        assert run_cli(capsys, *argv)[0] == EXIT_OK
        code, out = run_cli(capsys, *argv, flag)
        assert code == EXIT_USAGE
        validate("error", json.loads(out))
        lift = ["lift", "--example", "lohnherr", "--n", "3", "--radius", "0.5", "--seed", "1"]
        assert run_cli(capsys, *lift)[0] == EXIT_OK

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "abc"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["lift", "--example", "tube-chk", "--n", "3", "--k", "1", "--radius", "1"],
            ["horocycle", "--n", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_tol_must_be_finite_and_positive(self, capsys, monkeypatch, source, argv, tol):
        if source == "env":
            monkeypatch.setenv("ISOPARAM_TOL", tol)
        else:
            argv = [*argv, f"--tol={tol}"]  # glued so that "-1" is not read as an option
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        payload = strict_json(out)
        validate("error", payload)
        assert payload["error"]["type"] == "usage"
        assert "finite positive number" in payload["error"]["message"]

    def test_validation_failure(self, capsys):
        code, out = run_cli(
            capsys, "spectrum", "--example", "tube-chk", "--n", "3", "--k", "9",
            "--radius", "1",
        )
        assert code == EXIT_VALIDATION
        payload = json.loads(out)
        validate("error", payload)
        assert payload["error"]["type"] == "InvalidK"

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--example", "lohnherr", "--n", "1"],
            ["lift", "--example", "lohnherr", "--n", "1"],
            ["lift", "--example", "lohnherr", "--n", "1", "--radius", "1"],
            ["horocycle", "--n", "0"],
        ],
        ids=["spectrum-lohnherr", "lift-lohnherr", "lift-lohnherr-radius", "horocycle"],
    )
    def test_n_below_two_is_invalid_k(self, capsys, argv):
        code, out = run_cli(capsys, *argv, "--output", "json")
        assert code == EXIT_VALIDATION
        payload = strict_json(out)
        validate("error", payload)
        assert payload["error"] == {"type": "InvalidK", "message": "need n >= 2"}


class TestStrictJson:
    # the README examples are parsed as strict JSON by test_readme_cli
    @pytest.mark.parametrize(
        "argv",
        [
            # 1/tanh overflows at a subnormal radius
            ["spectrum", "--example", "tube-chk", "--n", "3", "--k", "1",
             "--radius", "1e-320", "--output", "json"],
            ["classify", "--k", "2", "--angle", "nan", "--n", "3"],
            # the horosphere ignores the radius but the record echoes it
            ["spectrum", "--example", "horosphere", "--n", "3", "--radius", "inf",
             "--output", "json"],
            ["lift", "--example", "horosphere", "--n", "3", "--radius", "nan"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_non_finite_input_gives_strict_error_record(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_VALIDATION
        validate("error", strict_json(out))

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--example", "lohnherr", "--n", "3", "--radius", "1e-310"],
            ["spectrum", "--n", "3", "--radius", "1e-310"],
            ["spectrum", "--curvature=-1e-300", "--n", "3", "--radius", "1e-300"],
        ],
        ids=["lohnherr-subnormal-r", "subspace-subnormal-r", "lam-underflows"],
    )
    def test_non_finite_char_factors_refused(self, capsys, line_in_c2, argv):
        if "--example" not in argv:
            argv = argv + ["--subspace", line_in_c2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(capsys, *argv, "--output", "json")
        assert code == EXIT_VALIDATION
        payload = strict_json(out)
        validate("error", payload)
        assert payload["error"]["type"] == "FocalRadius"

    def test_huge_curvature_spectrum_answers(self, capsys, line_in_c2):
        # at c = -1e300 and r = 0.5, lam = mu = s0 = 5e149 to rounding and the
        # top curvature is 2 s0, at both angles of a real line's w_perp
        argv = ["spectrum", "--curvature=-1e300", "--n", "3", "--radius", "0.5",
                "--subspace", line_in_c2, "--output", "json"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(capsys, *argv)
        assert code == EXIT_OK
        payload = strict_json(out)
        validate("spectrum", payload)
        assert [rec["entries"] for rec in payload["spectra"]] == [[[5e149, 4, 4], [1e150, 1, 1]]] * 2

    def test_huge_curvatures_fail_without_overflow(self, capsys):
        # curvatures near 1e300 are finite; the reconstruction guard of
        # classify_jordan must compare them without overflowing
        argv = ["lift", "--example", "tube-chk", "--n", "3", "--k", "1", "--radius", "1e-300"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run_cli(capsys, *argv)
        assert code == EXIT_VALIDATION
        payload = strict_json(out)
        validate("error", payload)
        assert payload["error"]["type"] == "ConstraintViolation"


class TestCliProperty:
    """spectrum, classify and lift over n and radii from 1e-320 to 50."""

    COMMANDS = (
        [("spectrum", "--example", ex) for ex in EXAMPLES]
        + [("spectrum", "--subspace"), ("classify", "--subspace")]
        + [("lift", "--example", ex) for ex in EXAMPLES]
    )

    def test_exit_code_and_strict_schema_valid_record(self, capsys, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        files = {}

        def subspace_file(n, dim):
            # a w of dimension dim in C^(n-1); k = 2(n-1) - dim lies in [1, 2n-3]
            if (n, dim) not in files:
                files[n, dim] = tmp_path / f"w_{n}_{dim}.json"
                files[n, dim].write_text(random_subspace(n - 1, dim, seed=n + dim).to_json())
            return str(files[n, dim])

        @hypothesis.settings(derandomize=True, deadline=None, max_examples=120, database=None)
        @hypothesis.given(
            command=st.sampled_from(self.COMMANDS),
            n=st.integers(2, 6),
            r=st.floats(np.log(1e-320), np.log(50.0)).map(lambda log_r: float(np.exp(log_r))),
            pick=st.floats(0.0, 1.0, exclude_max=True),
        )
        @hypothesis.example(command=("spectrum", "--example", "lohnherr"), n=3, r=1e-310, pick=0.0)
        @hypothesis.example(command=("spectrum", "--subspace"), n=3, r=1e-310, pick=0.0)
        @hypothesis.example(command=("classify", "--subspace"), n=3, r=1e-310, pick=0.0)
        @hypothesis.example(command=("lift", "--example", "lohnherr"), n=3, r=1e-310, pick=0.0)
        def check(command, n, r, pick):
            argv = [command[0], "--n", str(n), "--radius", repr(r), "--output", "json"]
            if command[1] == "--subspace":
                argv += ["--subspace", subspace_file(n, 1 + int(pick * (2 * n - 3)))]
            else:
                argv += ["--example", command[2]]
                if command[2] == "tube-chk":
                    argv += ["--k", str(int(pick * n))]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, out = run_cli(capsys, *argv)
            assert code in (EXIT_OK, EXIT_VALIDATION), argv
            assert out.count("\n") == 1, argv
            validate(command[0] if code == EXIT_OK else "error", strict_json(out))

        check()
