"""Tests of the benchmark itself: every output check accepts the program's
answer and rejects a wrong one, traced counts repeat exactly across hash
seeds, and the command fails cleanly without the library.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import starcover as sc  # noqa: E402

import brackets_wl  # noqa: E402
import descent_wl  # noqa: E402
import quantize_wl  # noqa: E402
from common import round_rng  # noqa: E402


def flip_one_sign(element):
    """The element with the sign of one coefficient term flipped."""
    car = element.carrier
    parts = dict(element.parts)
    i = min(parts)
    payload = dict(parts[i])
    key = min(payload)
    coeff = payload[key]
    (e, c), *_ = sorted(coeff.numer.terms.items())
    payload[key] = coeff + sc.LocalizedPoly(coeff.chart, sc.Poly(coeff.chart.variables, {e: -2 * c}))
    parts[i] = payload
    return sc.DGLAElement(car, element.algebra, element.degree, parts)


# -- descent ------------------------------------------------------------------


@pytest.fixture(scope="module")
def descent():
    return descent_wl.Workload(7)


def test_pair_check_rejects_a_perturbed_transformation(descent):
    problem = descent._pair(round_rng("test", 7, 0), 2)
    source, target, found = problem.solve()
    assert problem.check((source, target, found)) is None
    k = sorted(found.eta)[0]
    car = found.eta[k].carrier
    bump = sc.DGLAElement(car, source.algebra, 0, {1: car.vector_field({0: car.chart.one()})})
    wrong = sc.TwistedTransformation(dict(found.eta), dict(found.eps))
    wrong.eta[k] = found.eta[k] + bump
    assert "does not reproduce" in problem.check((source, target, wrong))


def test_sphere_check_rejects_a_changed_cocycle_or_verdict(descent):
    problem = descent._sphere(round_rng("test", 7, 1), True)
    report = problem.solve()
    assert problem.check(report) is None
    cocycle = dict(report.cocycle)
    tri = sorted(cocycle)[0]
    cocycle[tri] = f"hbar * {descent_wl.parse_layer(cocycle[tri]) + 1}"
    changed = sc.ObstructionReport(report.order, cocycle, report.class_is_zero, report.detail)
    assert "pairing" in problem.check(changed)
    cocycle[tri] = "hbar^2 * 1"
    garbled = sc.ObstructionReport(report.order, cocycle, report.class_is_zero, report.detail)
    assert "unexpected layer rendering" in problem.check(garbled)
    zero = sc.ObstructionReport(report.order, report.cocycle, True, report.detail)
    assert "nonzero class" in problem.check(zero)
    identity = descent_wl.identity_transformation(descent.sphere, "associative", descent.R)
    assert "equivalent" in problem.check(identity)


def test_coboundary_check_rejects_the_identity(descent):
    problem = descent._sphere(round_rng("test", 7, 2), False)
    datum, found = problem.solve()
    assert problem.check((datum, found)) is None
    identity = descent_wl.identity_transformation(descent.sphere, "associative", descent.R)
    assert "survive" in problem.check((datum, identity))


def test_datum_comparison_sees_one_flipped_sign(descent):
    """The comparison behind the transformation and round-trip checks."""
    problem = descent._pair(round_rng("test", 7, 3), 2)
    source, target, found = problem.solve()
    e = sorted(target.edge_gauges)[0]
    changed = target.copy()
    changed.edge_gauges[e] = flip_one_sign(target.edge_gauges[e])
    assert descent_wl.round_trip_equal(changed)
    assert not descent_wl.data_equal(changed, target)
    assert "does not reproduce" in problem.check((source, changed, found))


# -- brackets -------------------------------------------------------------------


@pytest.fixture(scope="module")
def brackets():
    return brackets_wl.Workload(7)


@pytest.mark.parametrize("kind", ["polyvec", "polydiff"])
@pytest.mark.parametrize("triple", [(0, 0, 0), (1, 1, -1), (0, 1, 1)])
def test_bracket_check_rejects_a_flipped_sign(brackets, kind, triple):
    make = brackets._polyvec if kind == "polyvec" else brackets._polydiff
    problem = make(round_rng("test", 7, 0), triple)
    out = problem.solve()
    assert problem.check(out) is None
    assert "[X, Y]" in problem.check({**out, "XY": flip_one_sign(out["XY"])})
    zero = sc.DGLAElement.zero(out["XY"].carrier, out["XY"].algebra, out["XY"].degree)
    assert "[X, Y]" in problem.check({**out, "XY": zero})
    assert "jacobi" in problem.check({**out, "jacobi": out["XY"]})


def test_d_check_rejects_a_flipped_sign(brackets):
    problem = brackets._polydiff(round_rng("test", 7, 1), (1, 0, 0))
    out = problem.solve()
    assert problem.check(out) is None
    assert "Hochschild" in problem.check({**out, "dX": flip_one_sign(out["dX"])})


# -- quantize -------------------------------------------------------------------


@pytest.fixture(scope="module")
def quantize():
    return quantize_wl.Workload(7)


def altered_star(S):
    """S with one coefficient of its cochain changed."""
    beta = S.beta.element
    i = max(beta.parts)
    payload = dict(beta.parts[i])
    key = max(payload)
    payload[key] = payload[key] + payload[key].chart.one()
    parts = dict(beta.parts)
    parts[i] = payload
    element = sc.DGLAElement(beta.carrier, beta.algebra, beta.degree, parts)
    return sc.StarProduct(sc.MCElement(element))


@pytest.mark.parametrize("make", ["moyal2", "poly2"])
def test_star_check_rejects_an_altered_coefficient(quantize, make):
    rng = round_rng("test", 7, 0)
    problem = quantize._moyal(rng, 2) if make == "moyal2" else quantize._poly2(rng)
    S = problem.solve()
    assert problem.check(S) is None
    assert problem.check(altered_star(S)) is not None


def test_first_order_check_rejects_a_scaled_product(quantize):
    problem = quantize._poly2(round_rng("test", 7, 1))
    S = problem.solve()
    beta = S.beta.element
    scaled = sc.StarProduct(sc.MCElement(beta.scale(2)))
    assert problem.check(scaled) is not None


def test_gauge_check_rejects_a_perturbed_gauge(quantize):
    rng = round_rng("test", 7, 2)
    problem = quantize._gauge(rng, quantize._moyal_star(rng))
    gamma = problem.solve()
    assert problem.check(gamma) is None
    log = gamma.log
    car = log.carrier
    bump = sc.DGLAElement(car, log.algebra, 0, {1: car.term(((1, 0),), car.chart.var("y"))})
    assert "does not reproduce" in problem.check(sc.GaugeElement(log + bump))


# -- the command ------------------------------------------------------------------


def run(args, cwd, env=None):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", ["descent", "brackets", "quantize"])
def test_traced_counts_repeat_across_hash_seeds(workload):
    counts = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"], ROOT, env)
        assert out.returncode == 0, out.stderr
        metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["exactalg.fraction.created"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = run(["--workload", "descent", "--seed", "1", "--seconds", "1"], tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
