"""Report aggregation, batch runs against the golden corpus, and the CLI
surface (subcommands, JSON output, exit codes)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homopot
from homopot.cli import main
from homopot.parse import ParseError, parse_potential
from homopot.potential import PotentialError, potential_from_json
from homopot.report import (AnalysisReport, analyze, batch, report_json_text,
                            NON_INTEGRABLE, PASSES, RADIAL_CANDIDATE)

DATA = Path(__file__).parent / "data"
# goldens whose input stays out of the corpus, so golden_summary.csv keeps its rows;
# fraction literals in a denominator pin the scale at which P/Q is reported
LITERAL_GOLDENS = {"07_rational_fraction_literals": "q1^5/(7/2*q1^2+q2^2)"}


# -- report pipeline -------------------------------------------------------------

def test_analyze_radial_report():
    rep = analyze("r^-3")
    assert rep.verdict == RADIAL_CANDIDATE
    assert rep.darboux.continuum
    assert rep.n_points == 1 and rep.n_multiple == 1
    js = rep.to_json()
    assert js["darboux"]["points"][0]["spectrum"] == ["12", "-3"]


def test_analyze_witness_chain():
    rep = analyze("q1^2*q2")
    assert rep.verdict == NON_INTEGRABLE
    lams = {str(pv.lam) for pv in rep.point_verdicts}
    assert lams == {"-3"}
    assert all(pv.morales is not None and not pv.morales.admissible
               for pv in rep.point_verdicts)


def test_analyze_passes():
    rep = analyze("q1^3")
    assert rep.verdict == PASSES
    pv = rep.point_verdicts[0]
    assert pv.lam == 0 and pv.morales.witness == ("family 1", 0)


def test_analyze_multiple_nonradial_forces_non_integrable():
    # every eigenvalue admissible, but a multiple point on a non-radial
    # potential contradicts the uniqueness of the rotation-invariant case
    rep = analyze("q1^3 + 3/2*q1*q2^2 + q2^3")
    assert rep.n_multiple == 1
    assert all(pv.status == "admissible" for pv in rep.point_verdicts)
    assert rep.verdict == NON_INTEGRABLE


def test_analyze_high_degree_monomial():
    # the jet's powers of q1 must not cost one stack frame per exponent
    assert analyze("q1^1000").verdict == PASSES


CHILD_ANALYZE = """
import sys, homopot
try:
    print(homopot.analyze(sys.argv[1]).n_points)
except homopot.PotentialError as exc:
    print(type(exc).__name__)
"""

DEGREE_10_LINEAR_FORMS = (
    "500/81*q1^10 - 12050/81*q1^9*q2 + 68615/54*q1^8*q2^2 - 119488/27*q1^7*q2^3"
    " + 9271727/1728*q1^6*q2^4 - 11396389/3456*q1^5*q2^5 + 24513289/20736*q1^4*q2^6"
    " - 10756313/41472*q1^3*q2^7 + 158795/4608*q1^2*q2^8 - 3925/1536*q1*q2^9"
    " + 125/1536*q2^10")

DEGREE_10_RATIONAL_FORMS = (
    "(4/3*q1 + 7/3*q2)*(2/3*q1 + 2/5*q2)*(-1/3*q1 + 1*q2)*(1/3*q1 + 1/5*q2)*(3*q1 + 6*q2)"
    "*(2*q1 + 7/6*q2)*(3*q1 + 8*q2)*(-1/2*q1 + 7/3*q2)*(2*q1 + 9/4*q2)*(-1/3*q1 + 8/3*q2)")



def _case(text, outcome, name=None):
    return pytest.param(text, outcome, id=name or text)


@pytest.mark.parametrize("text, outcome", [
    _case("(100002 + 2*i)/(100003*q2)", "1"),
    _case("q1^3 + 100000000000000000000*q2^3", "3"),
    # coefficients beyond double precision: points, or a typed error
    _case(f"q1^3 + {10**200}*q2^3 + q1^2*q2", "3", "q1^3 + 10^200*q2^3 + q1^2*q2"),
    _case(f"q1^3 + {10**400}*q2^3 + q1^2*q2", "DarbouxError", "q1^3 + 10^400*q2^3 + q1^2*q2"),
    # |s| > 1 puts |W(s)| in doubles far above its exact value at the float s
    _case(DEGREE_10_LINEAR_FORMS, "3", "degree-10 product of linear forms"),
    # the float root s is off by 7e-14 relative, which |gamma|^(k-1)/|q(s)|^2
    # amplifies past the residual bound: one exact Newton step rescues it
    _case(DEGREE_10_RATIONAL_FORMS, "9", "degree-10 product of rational linear forms"),
    # the root s = 0 of W has multiplicity 2999: split off before Yun
    _case("q1^2*q2^3000 + q2^3002", "3"),
    # a leading coefficient 3^100 beyond 2^53: the float test cannot reject
    # a candidate, the test mod P does
    _case("(2*q1)^100 + (3*q2)^100", "100"),
    # mu = g1(s)/q(s)^2 = 2*500^500 overflows on the float directions s = +-sqrt(500)
    _case("q1^2*q2^1000", "DarbouxError"),
    # exact points beyond double range cannot be sorted in doubles
    _case(f"1/{10**2500}*q1^3 + {10**2500}*q2^3", "DarbouxError",
          "1/10^2500*q1^3 + 10^2500*q2^3"),
    # a polar coefficient beyond double range: |U| of the critical-point search overflows
    _case("r^-3*(10^400*cos(theta))", "DarbouxError"),
])
def test_analyze_finishes_in_bounded_time(text, outcome):
    # large end coefficients must not cost a search over their divisors;
    # a child process turns a hang into a failure instead of a stuck suite
    env = dict(os.environ, PYTHONPATH=str(Path(homopot.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", CHILD_ANALYZE, text], env=env,
                          check=True, timeout=5, capture_output=True, text=True)
    assert proc.stdout.strip() == outcome


def test_analyze_does_not_import_numpy():
    # no third-party package, and import homopot and analyze leave orbit
    # integration unloaded, as the set-up time of every analyze run assumes
    env = dict(os.environ, PYTHONPATH=str(Path(homopot.__file__).parents[1]))
    code = ('import sys, homopot; from fractions import Fraction; '
            'homopot.analyze("q1^2*q2"); '
            'homopot.period_quadrature(homopot.LoopSpec(2), Fraction(1, 3)); '
            'print("numpy" in sys.modules, "homopot.orbit" in sys.modules)')
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          check=True, timeout=30, capture_output=True, text=True)
    assert proc.stdout.strip() == "False False"


@pytest.mark.parametrize("text, lam", [
    ("q1^2*q2^2 + 2*q2^4", "1"),
    ("q1^2*q2^3 + 100000000000*q2^5", "1/50000000000"),
    ("123456789*q1^5 + 987654321*q2^5 + 7*q1^2*q2^3", "14/987654321"),
])
def test_exact_lambda_where_the_point_is_irrational(capsys, text, lam):
    # the direction (0, 1) is exact, the point on it is not: lambda is
    # decided exactly, never reconstructed from a float
    code, out, _ = run_cli(capsys, "analyze", text, "--json")
    assert code == 0
    js = json.loads(out)
    assert js["verdict"] == NON_INTEGRABLE
    on_axis = [pv for p, pv in zip(js["darboux"]["points"], js["points"])
               if p["c"][0] == 0.0]
    assert len(on_axis) == 1
    assert on_axis[0]["lambda"] == lam and on_axis[0]["lambda_exact"]
    assert on_axis[0]["reason"] == "exact rational eigenvalue"
    assert on_axis[0]["status"] == "inadmissible"


def test_polar_points_on_exact_directions(capsys):
    # the critical directions z = +-1, +-i of U = 1 + cos(2 theta)/10 are
    # exact: the points lie on the axes and lambda = U''/U + k is exact
    code, out, _ = run_cli(capsys, "analyze", "--json",
                           (DATA / "corpus" / "04_polar_wave.pot").read_text().strip())
    assert code == 0
    js = json.loads(out)
    assert [[t == 0.0 for t in p["c"]] for p in js["darboux"]["points"]] == \
        [[False, True], [True, False], [True, False], [False, True]]
    assert all(p["residual"] == 0.0 for p in js["darboux"]["points"])
    assert [pv["lambda"] for pv in js["points"]] == ["-37/11", "-23/9", "-23/9", "-37/11"]
    assert all(pv["reason"] == "exact rational eigenvalue" for pv in js["points"])


@pytest.mark.parametrize("text", [
    "(q1+2*q2)/(q1^3+q2^3)",
    "1/(q1^2+q1*q2+3*q2^2)",
    "r^-2*(1 + 1/10*cos(3*theta) + 1/20*sin(2*theta))",
])
def test_degree_minus_two_admits_every_eigenvalue(text):
    # (q1 p2 - q2 p1)^2/2 + (q1^2 + q2^2) V is a first integral at k = -2,
    # and the table's all-of-C row takes a float or non-real lambda unrounded
    rep = analyze(text)
    assert rep.potential.degree == -2 and rep.verdict == PASSES
    assert rep.n_points and not any(p.exact for p in rep.darboux.points)
    for p, pv in zip(rep.darboux.points, rep.point_verdicts):
        lam = complex(p.spectrum[1])
        assert pv.status == "admissible" and pv.reason == "the k=-2 row admits all of C"
        assert pv.morales is None
        assert pv.lam == (lam.real if abs(lam.imag) <= 1e-8 * max(1.0, abs(lam)) else None)
    if text.startswith("(q1+2"):  # lambda ~ 2.40 +- 1.02i at the complex points
        assert sum(pv.lam is None for pv in rep.point_verdicts) == 2


def test_analyze_rejects_bad_degrees():
    from homopot.darboux import DarbouxError
    with pytest.raises(DarbouxError):
        analyze("q1^2 + q2^2")


def test_report_byte_stability():
    a = report_json_text(analyze("q1^2*q2"))
    b = report_json_text(analyze("q1^2*q2"))
    assert a == b
    assert "elapsed" not in a
    c = report_json_text(analyze("q1^2*q2"), include_timing=True)
    assert "elapsed_seconds" in c


def test_report_json_roundtrip():
    rep = analyze("r^-3")
    js = json.loads(report_json_text(rep))
    assert json.loads(json.dumps(js)) == js
    from homopot.potential import potential_from_json
    assert potential_from_json(js["potential"]).text() == "r^-3"


# -- batch -----------------------------------------------------------------------

def test_batch_golden_corpus():
    result = batch(DATA / "corpus")
    assert not result.errors
    assert result.exit_code == 0
    golden = (DATA / "golden_summary.csv").read_text()
    assert result.summary_csv() == golden


def test_corpus_json_reports_are_golden():
    """`analyze --json` of each corpus file, byte for byte."""
    corpus = sorted((DATA / "corpus").iterdir())
    goldens = (DATA / "golden_json").iterdir()
    assert [p.stem for p in corpus] == sorted(p.stem for p in goldens
                                              if not p.stem.startswith("ve_")
                                              and p.stem not in LITERAL_GOLDENS)
    for path in corpus:
        text = path.read_text().strip()
        source = potential_from_json(json.loads(text)) if path.suffix == ".json" else text
        golden = (DATA / "golden_json" / f"{path.stem}.json").read_text()
        assert report_json_text(analyze(source)) == golden, path.name


def test_batch_empty_dir(tmp_path):
    result = batch(tmp_path)
    assert result.exit_code == 0
    assert result.summary_csv() == "file,k,n_points,n_multiple,verdict\n"


def test_batch_partial_failure(tmp_path):
    (tmp_path / "good.pot").write_text("q1^3")
    (tmp_path / "bad.pot").write_text("q1^2 + q2")
    (tmp_path / "worse.json").write_text("{not json")
    (tmp_path / "list_terms.json").write_text(
        '{"kind":"polynomial","degree":3,"terms":[]}')
    (tmp_path / "zero_den.json").write_text('{"kind":"radial","a":"1/0","degree":3}')
    # a degree must be a JSON integer: no float, bool or string
    for name, degree in (("float", "3.7"), ("bool", "true"), ("string", '"3"')):
        (tmp_path / f"{name}_degree.json").write_text(
            f'{{"kind":"radial","a":"1","degree":{degree}}}')
    (tmp_path / "float_num_degree.json").write_text(
        '{"kind":"rational","degree":-1,"num":{"degree":2.5,"terms":{}},'
        '"den":{"degree":3,"terms":{"0,3":"1"}}}')
    result = batch(tmp_path)
    assert result.exit_code == 1
    assert len(result.reports) == 1 and len(result.errors) == 8
    assert all("degree must be a JSON integer" in msg
               for name, msg in result.errors if "_degree" in name)
    rows = {r[0]: r[4] for r in result.summary_rows}
    assert rows["good.pot"] == PASSES
    assert rows["bad.pot"].startswith("error:")


# -- CLI -------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_analyze(capsys):
    code, out, _ = run_cli(capsys, "analyze", "r^-3")
    assert code == 0
    assert "multiple_point_radial_candidate" in out


def test_cli_analyze_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", "q1^2*q2", "--json")
    assert code == 0
    js = json.loads(out)
    assert js["verdict"] == NON_INTEGRABLE
    assert js["multiplicity_summary"]["n_points"] == 2
    # gamma = 3/(2s) for the real directions s = +-1/sqrt 2: the points are real
    assert all(isinstance(t, float) for p in js["darboux"]["points"] for t in p["c"])


def test_cli_analyze_error_exit(capsys):
    code, _, err = run_cli(capsys, "analyze", "q1^2 + q2")
    assert code == 1
    assert "non-homogeneous" in err


def test_cli_error_prints_the_point_as_numbers(capsys):
    # U(0) = -1 < 0 at the critical direction theta = 0: the normalized
    # point fails its check, and the message shows it as (1, 0)
    code, out, err = run_cli(capsys, "ve-build", "r^3*(-2 + cos(2*theta))", "--level", "1")
    assert code == 1 and out == ""
    assert err == "error: (1, 0) is not a Darboux point: grad V(c) != kc\n"


def test_cli_json_beyond_the_int_digit_limit_is_an_error(capsys):
    # the report exists, but 2^20000 has more decimal digits than Python's
    # int-to-str limit lets the JSON writer print: a typed error, no traceback
    code, out, err = run_cli(capsys, "analyze", "(2*q1)^20000", "--json")
    assert (code, out) == (1, "") and err.startswith("error: report has no JSON form")


def test_int_digit_limit_gives_typed_errors(tmp_path):
    # numbers with more decimal digits than Python's int-to-str limit (4300)
    # exist exactly; only their decimal forms are typed errors
    rep = analyze(f"1/{10**2500}*q1^2*q2 + {10**2500}*q2^3")
    assert rep.verdict == NON_INTEGRABLE
    for render in (report_json_text, AnalysisReport.to_text):
        with pytest.raises(PotentialError, match="report has no (JSON|text) form"):
            render(rep)
    with pytest.raises(ParseError, match="number literal of 5001 characters"):
        analyze("1" + "0" * 5000 + "*q1^3")
    with pytest.raises(PotentialError, match="potential has no text form"):
        analyze(parse_potential("(2*q1)^20000"))
    (tmp_path / "big.pot").write_text("(2*q1)^20000\n")
    assert batch(tmp_path).summary_rows == [("big.pot", "", "", "", "error: PotentialError")]


def test_cli_polar_analyze(capsys):
    code, out, _ = run_cli(capsys, "polar-analyze",
                           "--U", "1 + 1/10*cos(2*theta)", "--k", "-3", "--json")
    assert code == 0
    js = json.loads(out)
    assert js["classification"] == "non_integrable"
    assert js["lambda"] == "-37/11"


def test_cli_darboux(capsys):
    code, out, _ = run_cli(capsys, "darboux", "q1^3", "--json")
    assert code == 0
    js = json.loads(out)
    assert js["points"][0]["spectrum"] == ["6", "0"]


def test_cli_darboux_text_is_golden(capsys):
    text = (DATA / "corpus" / "02_axis_product.pot").read_text().strip()
    code, out, _ = run_cli(capsys, "darboux", text)
    assert code == 0
    assert out == (DATA / "golden_darboux_02_axis_product.txt").read_text()


@pytest.mark.parametrize("argv, message", [
    (["polar-analyze", "--U", "q1", "--k", "-3"], "U must be a trig polynomial in theta only"),
    (["polar-analyze", "--U", "cos(theta)", "--k", "3"], "negative degrees only"),
    (["darboux", "q1^2 + q2"], "non-homogeneous"),
    (["morales-check", "--k", "3", "--lambda", "1/0"], "not a rational number"),
    (["monodromy-period", "--alpha", "-1", "--j", "1"], "negative integer alpha"),
    (["monodromy-period", "--alpha", "1/3", "--j", "1", "--quad-tol", "1e-13"],
     "1e-12 floor"),
    (["polar-analyze", "--U", "10^400*cos(theta)", "--k", "-3"], "beyond double precision"),
    (["monodromy-period", "--alpha", "-1/2", "--j", "1", "--quad-tol", "nan"],
     "1e-12 floor"),
])
def test_cli_error_exits(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err


def test_cli_morales_check(capsys):
    code, out, _ = run_cli(capsys, "morales-check", "--k", "-3", "--lambda", "-37/11")
    assert code == 0 and "inadmissible" in out
    code, out, _ = run_cli(capsys, "morales-check", "--k", "-2", "--lambda", "17/3",
                           "--json")
    assert json.loads(out)["admissible"] is True


def test_cli_morales_check_witness_line(capsys):
    code, out, _ = run_cli(capsys, "morales-check", "--k", "3", "--lambda", "0")
    assert code == 0
    assert out == "(k, lambda) = (3, 0): admissible\nwitness: family 1 at i = 0\n"


def test_cli_morales_k5_variant(capsys):
    # -9/8 + 36/8 = 27/8 needs 4+10i = -6 (i = -1): only the tenj row hits it
    _, out_printed, _ = run_cli(capsys, "morales-check", "--k", "5",
                                "--lambda", "27/8", "--json")
    assert json.loads(out_printed)["admissible"] is False
    _, out_tenj, _ = run_cli(capsys, "morales-check", "--k", "5",
                             "--lambda", "27/8", "--k5-variant", "tenj", "--json")
    assert json.loads(out_tenj)["admissible"] is True


# (1, 0) is an exact point with lambda = 27/8 = -9/8 + (4 + 10i)^2/8 at i = -1
K5_TEXT = "q1^5 + 27/16*q1^3*q2^2 + q2^5"


def _axis_status(report: dict) -> str:
    """The status of the point (1, 0) in an analyze --json report."""
    (status,) = [pv["status"] for p, pv in zip(report["darboux"]["points"], report["points"])
                 if p["c"] == ["1", "0"]]
    return status


def test_analyze_honours_the_k5_variant(capsys, tmp_path):
    assert _axis_status(analyze(K5_TEXT).to_json()) == "inadmissible"
    assert _axis_status(analyze(K5_TEXT, k5_variant="printed").to_json()) == "inadmissible"
    assert _axis_status(analyze(K5_TEXT, k5_variant="tenj").to_json()) == "admissible"
    code, out, _ = run_cli(capsys, "analyze", K5_TEXT, "--k5-variant", "tenj", "--json")
    assert code == 0 and _axis_status(json.loads(out)) == "admissible"
    (tmp_path / "k5.pot").write_text(K5_TEXT)
    ((_, rep),) = batch(tmp_path, k5_variant="tenj").reports
    assert _axis_status(rep.to_json()) == "admissible"
    code, out, _ = run_cli(capsys, "batch", str(tmp_path), "--k5-variant", "tenj", "--json")
    assert code == 0 and _axis_status(json.loads(out)["reports"]["k5.pot"]) == "admissible"


@pytest.mark.parametrize("source", ["q1^3", "q1^5 + q2^5", "not a potential"])
def test_analyze_refuses_an_unknown_k5_variant_before_parsing(source):
    with pytest.raises(ValueError, match="unknown k5 variant 'nonsense'") as info:
        analyze(source, k5_variant="nonsense")
    assert not isinstance(info.value, ParseError)


@pytest.mark.parametrize("directory", ["empty", DATA / "corpus"], ids=["empty", "corpus"])
def test_batch_refuses_an_unknown_k5_variant_before_listing(directory, tmp_path):
    # at once, not as one error row per file, and also with no file to analyze
    with pytest.raises(ValueError, match="unknown k5 variant 'nonsense'"):
        batch(tmp_path if directory == "empty" else directory, "nonsense")


def test_cli_monodromy_period(capsys):
    code, out, _ = run_cli(capsys, "monodromy-period", "--alpha", "-1/2", "--j", "1",
                           "--json")
    assert code == 0
    js = json.loads(out)
    assert abs(js["closed_form"][1] + 6.283185307179586) < 1e-9
    assert js["abs_diff"] < 1e-8


def test_cli_monodromy_period_text(capsys):
    code, out, _ = run_cli(capsys, "monodromy-period", "--alpha", "-1/2", "--j", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alpha = -1/2, j = 1"
    values = [complex(line.split(":", 1)[1].strip()) for line in lines[1:3]]
    assert [line.split(":")[0] for line in lines[1:]] == ["closed form ", "quadrature  ",
                                                           "|difference|"]
    assert abs(values[0] + 6.283185307179586j) < 1e-9
    assert abs(values[0] - values[1]) < 1e-9
    assert float(lines[3].split(":")[1]) < 1e-9


def test_cli_ve_build(capsys):
    code, out, _ = run_cli(capsys, "ve-build", "r^-3", "--level", "2", "--json")
    assert code == 0
    js = json.loads(out)
    assert js["level"] == 2 and js["lambda"] == "-3"
    assert len(js["indices"]) == 14
    # points whose c is irrational; a float lambda (0.45427337345643304 for
    # the cubic) stays the symbol lam, since no rational stands in for it
    for text, lam in [("2*r^-3", "-3"), ("3*r^4", "4"),
                      ("r^-3*(1 + 1/10*cos(2*theta))", "-37/11"),
                      ("r^-3*(1 + 1/10*cos(3*theta) + 1/20*sin(2*theta))", None),
                      ("q1^3 - 2*q1^2*q2 + 2*q1*q2^2 - 9*q2^3", None)]:
        code, out, err = run_cli(capsys, "ve-build", text, "--level", "2", "--json")
        assert code == 0, (text, err)
        js = json.loads(out)
        assert js["level"] == 2 and js["lambda"] == lam, text
        assert any(e["d_symbols"] == ["lam"] for e in js["entries"]) == (lam is None), text
    for text in ("r^-3", "q1^3"):
        for level in ("-1", "-3"):
            code, out, err = run_cli(capsys, "ve-build", text, "--level", level)
            assert (code, out, err) == (1, "", "error: level must be >= 1\n"), (text, level)


def test_cli_ve_build_text_and_lambda_override(capsys):
    code, out, _ = run_cli(capsys, "ve-build", "r^-3", "--level", "2")
    assert (code, out) == (0, "level 2 system, dimension 14, k = -3, lambda = -3\n"
                               "26 transition entries\n")
    code, out, _ = run_cli(capsys, "ve-build", "r^-3", "--level", "2", "--lambda", "5/2")
    assert code == 0 and out.startswith("level 2 system, dimension 14, k = -3, lambda = 5/2\n")
    code, out, _ = run_cli(capsys, "ve-build", "r^-3", "--level", "2", "--lambda", "5/2",
                           "--json")
    assert code == 0 and json.loads(out)["lambda"] == "5/2"


@pytest.mark.parametrize("stem, text", LITERAL_GOLDENS.items())
def test_cli_analyze_json_of_literal_inputs_is_golden(capsys, stem, text):
    code, out, _ = run_cli(capsys, "analyze", text, "--json")
    assert code == 0
    assert out == (DATA / "golden_json" / f"{stem}.json").read_text()


def test_cli_ve_build_polar_is_golden(capsys):
    text = (DATA / "corpus" / "04_polar_wave.pot").read_text().strip()
    code, out, _ = run_cli(capsys, "ve-build", text, "--level", "3", "--json")
    assert code == 0
    assert out == (DATA / "golden_json" / "ve_04_polar_wave_l3.json").read_text()


def test_cli_polar_analyze_is_golden(capsys):
    # a power of a sum through parse_trig_poly; lambda = -41/11 exactly
    code, out, _ = run_cli(capsys, "polar-analyze", "--U", "(1 + 1/10*cos(2*theta))^2",
                           "--k", "-3", "--json")
    assert code == 0
    assert out == (DATA / "golden_polar_analyze.json").read_text()


@pytest.mark.parametrize("golden, U, k, fmt", [
    # U = 1 - sin^4: a triple root of z^M U' at the extremum, so the
    # theorem decides and the report carries no table block
    ("multiple.json", "5/8 + 1/2*cos(2*theta) - 1/8*cos(4*theta)", "-3", "--json"),
    ("multiple.txt", "5/8 + 1/2*cos(2*theta) - 1/8*cos(4*theta)", "-3", None),
    # an irrational extremum angle: a float lambda < k, reported as it is
    ("float_lambda.json", "1 + 1/10*cos(3*theta) + 1/20*sin(2*theta)", "-3", "--json"),
    ("radial.json", "5", "-3", "--json"),
    ("degree_minus_two.json", "1 + 1/10*cos(2*theta)", "-2", "--json"),
])
def test_cli_polar_analyze_branches_are_golden(capsys, golden, U, k, fmt):
    code, out, _ = run_cli(capsys, "polar-analyze", "--U", U, "--k", k, *filter(None, [fmt]))
    assert code == 0
    assert out == (DATA / f"golden_polar_analyze_{golden}").read_text()


def test_cli_batch(capsys, tmp_path):
    out_csv = tmp_path / "summary.csv"
    code, out, _ = run_cli(capsys, "batch", str(DATA / "corpus"), "--out", str(out_csv))
    assert code == 0
    assert out_csv.read_text() == (DATA / "golden_summary.csv").read_text()
    assert out == (DATA / "golden_summary.csv").read_text()


def test_cli_batch_failure_exit(capsys, tmp_path):
    (tmp_path / "bad.pot").write_text("q1 + ")
    code, _, err = run_cli(capsys, "batch", str(tmp_path))
    assert code == 1
    assert "bad.pot" in err


def test_cli_batch_usage_and_write_errors(capsys, tmp_path):
    code, out, err = run_cli(capsys, "batch", str(DATA / "golden_summary.csv"))
    assert (code, out) == (2, "") and err.startswith("error: not a directory:")
    missing = tmp_path / "missing" / "summary.csv"
    code, out, err = run_cli(capsys, "batch", str(DATA / "corpus"), "--out", str(missing))
    assert (code, out) == (1, "") and err.startswith(f"error: cannot write {missing}:")


def test_cli_g_verdict(capsys):
    code, out, _ = run_cli(capsys, "g-verdict", "--k", "3", "--json")
    assert code == 0
    js = json.loads(out)
    assert js["verdict"] == "non_commutative"
    assert not any(c["triggered"] for c in js["checklist"].values())
    code, _, err = run_cli(capsys, "g-verdict", "--k", "2")
    assert code == 1 and "domain" in err


def test_cli_dump_table(capsys):
    code, out, _ = run_cli(capsys, "dump-table", "--k", "-3", "--json")
    assert code == 0
    js = json.loads(out)
    assert len(js["-3"]) == 6
    assert js["-3"][0]["row"] == "family 1"
    code, out, err = run_cli(capsys, "dump-table", "--k", "0")
    assert (code, out, err) == (1, "", "error: degree k = 0 has no table\n")


# the whole table of both k = 5 variants, and a k = 5 certificate over all its rows
TABLE_GOLDENS = {
    "golden_dump_table.json": ("dump-table", "--json"),
    "golden_dump_table_tenj.json": ("dump-table", "--k5-variant", "tenj", "--json"),
    "golden_morales_check_k5.json": ("morales-check", "--k", "5", "--lambda", "1/3", "--json"),
}


def test_cli_table_is_golden(capsys):
    for golden, argv in TABLE_GOLDENS.items():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == (DATA / golden).read_text(), golden


def test_cli_g_verdict_text(capsys):
    code, out, _ = run_cli(capsys, "g-verdict", "--k", "3")
    assert code == 0
    assert out == ("G(l=0, k=3): non_commutative (all five exclusion conditions fail)\n"
                   "  alpha_integer: value 1/3, triggered False\n"
                   "  beta_integer: value -4/3, triggered False\n"
                   "  gamma_pole_beta: value -1/6, triggered False\n"
                   "  gamma_pole_alpha: value -11/6, triggered False\n"
                   "  alpha_minus_beta_integer: value 5/3, triggered False\n")


def test_cli_dump_table_text(capsys):
    code, out, _ = run_cli(capsys, "dump-table", "--k", "-3")
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["k = -3:", "  family 1: lambda = i*k*(i*k + k - 2)/2",
                         "  family 2: lambda = (i*k + k - 1)*(i*k + 1)/2"]
    assert len(lines) == 7 and lines[6] == "  k=-3 sporadic d: lambda = -25/8 + (12/5 + 6i)^2/8"


def test_cli_usage_error_exit_code(capsys):
    for argv in (["analyze"],  # missing the potential argument
                 ["analyze", "q1^3", "--quad-tol", "1e-9"],
                 ["analyze", "q1^3", "--residual-tol", "1e-9"],
                 ["morales-check", "--k", "3", "--lambda", "1", "--max-denominator", "5"],
                 ["dump-table", "--max-denominator", "5"],
                 ["analyze", "q1^3", "--max-denominator", "5"],
                 ["polar-analyze", "--U", "cos(theta)", "--k", "-3", "--max-denominator", "5"],
                 ["analyze", "q1^3", "--timing"],  # --timing needs --json
                 ["batch", str(DATA / "corpus"), "--timing"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
