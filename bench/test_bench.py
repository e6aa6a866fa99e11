"""Tests of the benchmark itself: seeded inputs, recorded shares, the
oracle's exact expectations and the span arithmetic.

    python3 -m pytest bench
"""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import inputs
import oracle
import spans

ROOT = Path(__file__).resolve().parent.parent
ANALYZE_WORKLOADS = ("analyze-mix", "analyze-bigcoef", "batch-dir")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


@pytest.mark.parametrize("workload", ANALYZE_WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    a = inputs.analyze_inputs(workload, 7, ROOT)
    b = inputs.analyze_inputs(workload, 7, ROOT)
    assert _dump(a) == _dump(b)
    assert _dump(a) != _dump(inputs.analyze_inputs(workload, 8, ROOT))


def test_same_seed_gives_byte_identical_tasks():
    assert _dump(inputs.obstruction_tasks(7)) == _dump(inputs.obstruction_tasks(7))
    assert _dump(inputs.obstruction_tasks(7)) != _dump(inputs.obstruction_tasks(8))


def _design(items):
    return Counter((it["kind"], it["degree"], it["source"], it["gaussian"],
                    None if it["gaussian"] else it["band"]) for it in items)


@pytest.mark.parametrize("workload", ANALYZE_WORKLOADS)
def test_cost_driving_properties_do_not_depend_on_the_seed(workload):
    first = inputs.analyze_inputs(workload, 1, ROOT)
    for seed in (2, 3):
        assert _design(inputs.analyze_inputs(workload, seed, ROOT)) == _design(first)
    assert (Counter(t["class"] for t in inputs.obstruction_tasks(1))
            == Counter(t["class"] for t in inputs.obstruction_tasks(2)))


def test_bigcoef_keeps_the_known_defect_inputs():
    for seed in (1, 2, 3):
        texts = {it["name"]: it["text"] for it in inputs.analyze_inputs("analyze-bigcoef", seed, ROOT)}
        for name, text in inputs.BIGCOEF_NAMED_INPUTS:
            assert texts[name] == text


def test_bigcoef_bands_cover_up_to_1e12_with_prime_ends():
    items = inputs.analyze_inputs("analyze-bigcoef", 1, ROOT)
    random_real = [it for it in items if it["source"] == "random"
                   and it["kind"] == "polynomial" and not it["gaussian"]]
    bands = Counter(it["band"] for it in random_real)
    assert set(bands) == {"1e0-1e3", "1e3-1e6", "1e6-1e9", "1e9-1e12"}
    assert max(bands.values()) - min(bands.values()) <= 1
    for it in random_real:
        V = oracle.BiPoly.from_sympy(oracle.sympy_potential(it["text"]))
        k = it["degree"]
        for mono in ((k - 1, 1), (1, k - 1)):
            assert inputs.is_prime(abs(V.terms[mono][0].numerator))


def test_shares_are_recorded_and_sum_to_one():
    items = inputs.analyze_inputs("analyze-mix", 1, ROOT)
    shares = inputs.shares(items)
    for key in ("kind", "band", "source", "degree_band"):
        assert sum(shares[key].values()) == pytest.approx(1.0, abs=1e-3)
    assert shares["kind"]["invalid"] > 0


def test_planted_points_have_their_exact_lambda():
    items = [it for it in inputs.analyze_inputs("analyze-mix", 3, ROOT) if "planted" in it]
    assert len(items) == inputs.REPEATS * len(inputs.DEGREES)
    for it in items[:8]:
        exp = oracle.Expectation(it)
        lam = dict(exp.directions)
        assert lam[(Fraction(0), Fraction(0))] == (Fraction(it["planted"]["lambda"]), 0)


def test_oracle_finds_the_tiny_lambda():
    exp = oracle.Expectation({"text": "q1^2*q2^3 + 100000000000*q2^5"})
    assert dict(exp.directions)[None] == (Fraction(2, 10 ** 11), 0)


def test_gaussian_root_finder_keeps_only_exact_roots():
    def g(re, im=0):
        return (Fraction(re), Fraction(im))
    # (s - (1 + i)) (s - 2/3) (s^2 + 3), low to high
    poly = oracle._umul(oracle._umul([g(-1, -1), g(1)], [g(Fraction(-2, 3)), g(1)]),
                        [g(3), g(0), g(1)])
    assert sorted(oracle._exact_roots_gauss(poly)) == [g(Fraction(2, 3)), g(1, 1)]


def test_oracle_rejects_a_wrong_decided_lambda_and_allows_indeterminate():
    exp = oracle.Expectation({"text": "q1^2*q2^3 + 100000000000*q2^5"})
    point = {"c": [[0.0, 0.0], [0.01, 0.0]], "exact": False, "multiple": False,
             "lam_exact": True, "reason": "rational reconstruction of 2e-11"}
    wrong = {"points": [dict(point, status="admissible", lam="0")]}
    assert oracle._lambda_problems(exp, wrong)
    right = {"points": [dict(point, status="inadmissible", lam="1/50000000000")]}
    assert not oracle._lambda_problems(exp, right)
    undecided = {"points": [dict(point, status="indeterminate", lam=2e-11, lam_exact=False)]}
    assert not oracle._lambda_problems(exp, undecided)


def test_oracle_reports_a_missing_exact_direction():
    # directions s = 0 (exact, lambda = -6) and s = +-sqrt(3)
    exp = oracle.Expectation({"text": "q1^3 - 3*q1*q2^2"})
    assert [lam for _, lam in exp.directions] == [(Fraction(-6), 0)]
    assert oracle._lambda_problems(exp, {"points": []})


def test_float_cubic_has_no_exact_direction():
    rng = inputs.workload_rng("test", 0)
    for _ in range(5):
        assert not oracle.Expectation({"text": inputs.float_cubic(rng)}).has_exact_direction


def test_self_time_is_span_minus_children_and_busy_counts_nesting_once():
    # op 1: analyze [0, 10] > roots [1, 4] and find [5, 9] > find [6, 8]
    recorded = [(1, 2, 1, "upoly.roots", 1.0, 4.0),
                (1, 4, 3, "darboux.find_darboux_points", 6.0, 8.0),
                (1, 3, 1, "darboux.find_darboux_points", 5.0, 9.0),
                (1, 1, None, "report.analyze", 0.0, 10.0)]
    selfs = spans.self_times(recorded)
    assert selfs == {"report.analyze": 3.0, "upoly.roots": 3.0,
                     "darboux.find_darboux_points": 4.0}
    assert sum(selfs.values()) == 10.0
    assert spans.busy_times(recorded)["darboux.find_darboux_points"] == 4.0
