"""Acceptance harness.

Each criterion runs at its stated tolerance and prints one PASS/FAIL
line.  The invariant computations come from the same suite functions the
``verify`` command runs, so passing here certifies the shipped CLI paths;
the two reproduction commands and the runtime/determinism contract are
exercised through the CLI itself.
"""

import io
import json
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from realops import cli

SEED_ARGS = []          # default seed 0xC0FFEE everywhere


def _run_cli(argv):
    buf = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buf):
        code = cli.run(["--json"] + argv)
    elapsed = time.perf_counter() - start
    return code, buf.getvalue(), elapsed


@pytest.fixture(scope="module")
def verify_all():
    code1, out1, t1 = _run_cli(["verify", "all"])
    code2, out2, t2 = _run_cli(["verify", "all"])
    return {"codes": (code1, code2), "outputs": (out1, out2),
            "times": (t1, t2), "report": json.loads(out1)}


def _row(verify_all, suite, prefix):
    for row in verify_all["report"]["result"][suite]:
        if row["name"].startswith(prefix):
            return row
    raise AssertionError(f"no check named {prefix!r} in suite {suite}")


def _report(num, description, ok):
    print(f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_l12_nonuniqueness():
    code, out, elapsed = _run_cli(["reproduce", "l12-nonunique"])
    r = json.loads(out)["result"]
    ok = (code == 0 and
          abs(r["min_norm"] - np.sqrt(2.0)) <= 1e-9 and
          r["max_lower"] >= 2.0 - 1e-6 and
          abs(r["max_upper"] - 2.0) <= 1e-12 and
          r["gap"] >= 0.58 and
          elapsed < 10.0)
    _report(1, "two-dimensional l1 norms: min sqrt(2), max bracket [2, 2], "
               f"gap {r['gap']:.4f}, {elapsed:.1f}s", ok)


def test_criterion_02_complex_dual():
    code, out, _ = _run_cli(["reproduce", "complex-dual"])
    r = json.loads(out)["result"]
    ok = (code == 0 and
          abs(r["complexified_norm"] - np.sqrt(2.0)) <= 1e-9 and
          abs(r["dual_lower_bound"] - 1.0) <= 1e-6 and
          r["worst_restart"] <= 1.0 + 1e-6 and
          r["restarts_run"] == 64)
    _report(2, "complex dual drop: norm sqrt(2) against dual bound "
               f"{r['dual_lower_bound']:.9f}, worst restart "
               f"{r['worst_restart']:.9f}", ok)


def test_criterion_03_reasonableness(verify_all):
    conj = _row(verify_all, "opspace", "complexified norms are conjugation")
    ext = _row(verify_all, "opspace", "complexification extends")
    pairs = conj["details"]["pairs"]
    ok = (pairs >= 1000 and conj["deviation"] <= 1e-10 and
          ext["deviation"] <= 1e-12)
    _report(3, f"{pairs} pairs over 5 spaces, levels 1-3: conjugation "
               f"dev {conj['deviation']:.2e}, extension dev "
               f"{ext['deviation']:.2e}", ok)


def test_criterion_04_ruan_axioms(verify_all):
    rows = [_row(verify_all, "opspace", f"matrix norm axioms hold on {n}")
            for n in ("M2(R)", "complexified M2(R)", "min ell_inf_2")]
    ok = all(r["deviation"] <= 1e-10 and r["details"]["samples"] == 100
             for r in rows)
    worst = max(r["deviation"] for r in rows)
    _report(4, f"norm axioms on three spaces, 100 samples each, worst "
               f"dev {worst:.2e}", ok)


def test_criterion_05_m_projection(verify_all):
    good = _row(verify_all, "mideal", "left multiplication by diag(1,0)")
    symm = _row(verify_all, "mideal", "symmetrization refutes at level 1")
    ok = (good["passed"] and good["details"]["all_levels"] is True and
          symm["details"]["level"] == 1 and symm["deviation"] <= 1e-9)
    _report(5, "diag(1,0) certified at all levels; symmetrization refuted "
               f"at level 1, witness value off by {symm['deviation']:.2e}",
            ok)


def test_criterion_06_choi_effros(verify_all):
    row = _row(verify_all, "systems", "diagonal expectation re-product")
    ok = row["deviation"] <= 1e-10 and row["details"]["trials"] == 500
    _report(6, "diagonal expectation: associativity, multiplicative norm "
               f"identity and bimodule laws within {row['deviation']:.2e} "
               "over 500 trials", ok)


def test_criterion_07_norm_positivity(verify_all):
    row = _row(verify_all, "linalg",
               "contraction iff block positivity, across norms in [0.5, 1.5]")
    ok = row["deviation"] == 0.0 and row["details"]["samples"] == 500
    _report(7, "500 samples with norms in [0.5, 1.5]: 100% agreement at "
               "tolerance 1e-9", ok)


def test_criterion_08_complexification_consistency(verify_all):
    shuffles = [_row(verify_all, "mideal",
                     f"column/complexification shuffle is exact on {n}")
                for n in ("scalars", "M2(R)")]
    corner = _row(verify_all, "mideal", "corner maps commute")
    mins = [_row(verify_all, "quantization",
                 f"minimal quantization commutes with complexification on {n}")
            for n in ("scalars", "ell_inf_2", "ell_1_2")]
    ok = (all(r["deviation"] <= 1e-12 for r in shuffles) and
          corner["deviation"] <= 1e-12 and
          corner["details"]["checked_maps"] ==
          "the zero map and the 16 matrix units" and
          all(r["deviation"] <= 1e-10 for r in mins))
    _report(8, "shuffle exact on scalars and M2(R); corner maps commute to "
               "1e-12 on the zero map and the 16 matrix units, so on every "
               "map; minimal quantization commutes on all three spaces", ok)


def test_criterion_09_quotients_and_sums(verify_all):
    quo = _row(verify_all, "opspace", "quotient norms agree")
    dsum = _row(verify_all, "opspace", "direct sum norms")
    ok = (quo["deviation"] <= 1e-6 and quo["details"]["cases"] == 50 and
          quo["details"]["not_converged"] == 0 and
          dsum["deviation"] <= 1e-12)
    _report(9, f"50 quotient cases agree to {quo['deviation']:.2e}; direct "
               f"sums exact to {dsum['deviation']:.2e}", ok)


def test_criterion_10_tro_suite(verify_all):
    closure = _row(verify_all, "systems", "triple closure classifies")
    sub = _row(verify_all, "systems", "generated subtriples close")
    shilov = _row(verify_all, "systems", "concrete inner products")
    witness = closure["details"]["witness"]
    ok = (closure["deviation"] <= 1e-12 and
          witness is not None and
          np.allclose(witness, [[0.0, 0.0], [0.0, 1.0]]) and
          sub["details"]["mixed_span_dim"] == 4 and
          shilov["deviation"] <= 1e-12 and
          shilov["details"]["samples"] == 100)
    _report(10, "mixed span rejected with witness e22; its subtriple has "
                "dimension 4; 100 inner products positive", ok)


def test_criterion_11_brs_levels(verify_all):
    good = [_row(verify_all, "systems", f"matrix levels of {n}")
            for n in ("M2(R)", "the triangular algebra")]
    bad = _row(verify_all, "systems", "rescaled scalar algebra")
    ok = (all(r["deviation"] <= 1e-10 for r in good) and
          bad["deviation"] <= 1e-12 and
          bad["details"]["violation"] >= 0.25 - 1e-12)
    _report(11, "Banach-algebra levels pass on both genuine algebras; the "
                f"decoupled structure violates by "
                f"{bad['details']['violation']:.4f}", ok)


def test_criterion_12_runtime_and_determinism(verify_all):
    t1, t2 = verify_all["times"]
    ok = (verify_all["codes"] == (0, 0) and
          verify_all["outputs"][0] == verify_all["outputs"][1] and
          t1 < 60.0 and t2 < 60.0 and
          verify_all["report"]["passed"] is True)
    _report(12, f"verify all: {t1:.1f}s and {t2:.1f}s, single-threaded, "
                "byte-identical reports, all checks green", ok)
