import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import realops
from realops import cli, mideal, systems
from realops.linalg import MEMBERSHIP_TOL
from realops.opspace import full_matrix_space, opspace_to_json, span_space


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
        return str(p)

    write("m2.json", opspace_to_json(full_matrix_space(2)))
    write("mat.json", {"rows": 2, "cols": 2, "entries": [[3, 0], [0, 4]]})
    write("proj_good.json", {"matrix": [[1, 0, 0, 0], [0, 1, 0, 0],
                                        [0, 0, 0, 0], [0, 0, 0, 0]]})
    write("proj_symm.json", {"matrix": [[1, 0, 0, 0], [0, .5, .5, 0],
                                        [0, .5, .5, 0], [0, 0, 0, 1]]})
    write("proj_corrupt.json", {"matrix": [[1, 0, 0, 0], [0, .5, .4, 0],
                                           [0, .5, .5, 0], [0, 0, 0, 1]]})
    write("l12.json", {"dim": 2, "functionals": [[1, 1], [1, -1]]})
    write("pair.json", {"mats": [
        {"rows": 2, "cols": 2, "entries": [[1, 0], [0, -1]]},
        {"rows": 2, "cols": 2, "entries": [[0, 1], [1, 0]]}]})
    write("triangular.json", opspace_to_json(span_space(
        [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 1]]])))
    write("ideal.json", {"coeffs": [[0.0, 1.0, 0.0]]})
    write("not_ideal.json", {"coeffs": [[1.0, 0.0, 0.0]]})
    write("e12.json", opspace_to_json(span_space([[[0, 1], [0, 0]]])))
    write("diag_phi.json", {"matrix": [[1, 0, 0, 0], [0, 0, 0, 0],
                                       [0, 0, 0, 0], [0, 0, 0, 1]]})
    write("id_map.json", {"matrix": [[1, 0, 0, 0], [0, 1, 0, 0],
                                     [0, 0, 1, 0], [0, 0, 0, 1]]})
    write("eye2.json", {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 1]]})
    write("subspace.json", {"coeffs": [[1.0, 0.0, 0.0, 0.0]]})
    write("e12_elem.json", {"level": 1, "coeffs": [[[0.0, 1.0, 0.0, 0.0]]]})
    write("generic_elem.json", {"level": 1,
                                "coeffs": [[[0.3, 1.0, -0.7, 0.2]]]})
    write("bad_mat.json", {"rows": 2, "cols": 2, "entries": [[1, 2]]})
    write("mixed_span.json", opspace_to_json(span_space(
        [[[1, 0], [0, 0]], [[0, 1], [1, 0]]])))
    write("corner.json", opspace_to_json(span_space(
        [[[1, 0], [0, 0]], [[0, 1], [0, 0]]])))
    write("y_elem.json", {"level": 1, "coeffs": [[[1.0, 0.0]]]})
    write("z_elem.json", {"level": 1, "coeffs": [[[0.0, 1.0]]]})
    write("half_scalars.json", dict(opspace_to_json(span_space([[[0.5]]])),
                                    structure=[[[1.0]]]))
    write("foo.json", {"foo": 1})
    return paths


def run_json(capsys, argv):
    code = cli.run(["--json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestBasicCommands:
    def test_norm_mat(self, files, capsys):
        code, rep = run_json(capsys, ["norm", "--mat", files["mat.json"]])
        assert code == 0
        assert rep["result"]["op_norm"] == 4.0
        assert rep["config"]["seed"] == 0xC0FFEE

    def test_norm_elem(self, files, capsys):
        code, rep = run_json(capsys, ["norm", "--space", files["m2.json"],
                                      "--elem", files["e12_elem.json"]])
        assert code == 0
        assert rep["result"]["level_norm"] == pytest.approx(1.0)

    def test_complexify(self, files, capsys):
        code, rep = run_json(capsys, ["complexify", "--space",
                                      files["m2.json"]])
        assert code == 0
        assert rep["result"]["dim"] == 8
        assert rep["result"]["space"]["complexified"] is True

    def test_quantize_min(self, files, capsys):
        code, rep = run_json(capsys, ["quantize-min", "--banach",
                                      files["l12.json"],
                                      "--elem", "[1.0, 0.0]"])
        assert code == 0
        assert rep["result"]["min_level_norm"] == pytest.approx(1.0)

    def test_w2_norm(self, files, capsys):
        code, rep = run_json(capsys, ["w2-norm", "--banach", files["l12.json"],
                                      "--x", "[3, 0]", "--y", "[0, 0]"])
        assert code == 0
        assert rep["result"]["w2_norm"] == pytest.approx(3.0)

    def test_max_l1(self, files, capsys):
        code, rep = run_json(capsys, ["max-l1", "--coeffs",
                                      files["pair.json"], "--mmax", "2",
                                      "--restarts", "8"])
        assert code == 0
        assert rep["result"]["lower"] >= 2 - 1e-6
        assert rep["result"]["upper"] == pytest.approx(2.0, abs=1e-12)
        keys = list(rep["result"])
        assert keys.index("search_rounds") == keys.index("sdp_iterations") + 1
        assert rep["result"]["search_rounds"] > 0

    def test_quotient_norm(self, files, capsys):
        code, rep = run_json(capsys, ["quotient-norm", "--space",
                                      files["m2.json"], "--subspace",
                                      files["subspace.json"], "--elem",
                                      files["e12_elem.json"]])
        assert code == 0
        assert rep["result"]["value"] == pytest.approx(1.0, abs=1e-7)
        assert rep["result"]["converged"] is True


class TestExitCodes:
    def test_certified_projection(self, files, capsys):
        code, rep = run_json(capsys, ["certify-mproj", "--space",
                                      files["m2.json"], "--proj",
                                      files["proj_good.json"],
                                      "--max-level", "2", "--samples", "100",
                                      "--restarts", "6"])
        assert code == 0
        assert rep["result"]["verdict"] == "certified"
        assert rep["result"]["all_levels"] is True
        # nothing was drawn or searched on the all-level path
        assert rep["result"]["levels_checked"] == 0
        assert rep["result"]["samples"] == 0
        assert set(rep["result"]["certificate"]) == \
            {"a", "delta", "epsilon", "mu_bound", "tau_bound"}

    def test_refuted_projection(self, files, capsys):
        code, rep = run_json(capsys, ["certify-mproj", "--space",
                                      files["m2.json"], "--proj",
                                      files["proj_symm.json"],
                                      "--max-level", "2", "--samples", "100",
                                      "--restarts", "6"])
        assert code == 1
        assert rep["result"]["verdict"] == "refuted"
        assert rep["result"]["observed"] == pytest.approx(np.sqrt(0.5),
                                                          abs=1e-9)
        assert rep["result"]["all_levels"] is False
        assert rep["result"]["certificate"] is None

    def test_corrupt_projection_is_an_input_error(self, files, capsys):
        code = cli.run(["--json", "certify-mproj", "--space",
                        files["m2.json"], "--proj",
                        files["proj_corrupt.json"]])
        out = capsys.readouterr().out
        assert code == 2
        assert "idempotent" in json.loads(out)["error"]

    def test_right_ideal_true_false(self, files, capsys):
        code, _ = run_json(capsys, ["right-ideal", "--algebra",
                                    files["triangular.json"], "--subspace",
                                    files["ideal.json"]])
        assert code == 0
        code, _ = run_json(capsys, ["right-ideal", "--algebra",
                                    files["triangular.json"], "--subspace",
                                    files["not_ideal.json"]])
        assert code == 1

    def test_multiplier_witness(self, files, capsys):
        code, rep = run_json(capsys, ["multiplier-witness", "--space",
                                      files["m2.json"], "--map",
                                      files["id_map.json"], "--a",
                                      files["eye2.json"]])
        assert code == 0
        assert rep["result"]["is_witness"] is True

    def test_tro_check(self, files, capsys):
        code, _ = run_json(capsys, ["tro-check", "--space",
                                    files["e12.json"]])
        assert code == 0
        code, rep = run_json(capsys, ["tro-check", "--space",
                                      files["mixed_span.json"]])
        assert code == 1
        assert np.allclose(rep["result"]["witness_product"],
                           [[0.0, 0.0], [0.0, 1.0]])

    def test_subtriple(self, files, capsys):
        code, rep = run_json(capsys, ["subtriple", "--space",
                                      files["mixed_span.json"]])
        assert code == 0
        assert rep["result"]["dim"] == 4

    def test_brs_and_choi_effros(self, files, capsys):
        code, _ = run_json(capsys, ["brs-check", "--algebra",
                                    files["m2.json"]])
        assert code == 0
        code, rep = run_json(capsys, ["choi-effros", "--algebra",
                                      files["m2.json"], "--idempotent",
                                      files["diag_phi.json"]])
        assert code == 0
        assert rep["result"]["mode"] == "selfadjoint"

    def test_unitize(self, files, capsys):
        code, rep = run_json(capsys, ["unitize", "--algebra",
                                      files["e12.json"]])
        assert code == 0
        assert rep["result"]["dim_after"] == 2

    def test_paulsen(self, files, capsys):
        code, rep = run_json(capsys, ["paulsen", "--space", files["m2.json"]])
        assert code == 0
        assert rep["result"]["dim"] == 10

    def test_unknown_reproduction_rejected(self, capsys):
        assert cli.run(["reproduce", "nonsense"]) == 2

    def test_malformed_input_is_error(self, files, capsys):
        code = cli.run(["--json", "norm", "--mat", files["bad_mat.json"]])
        capsys.readouterr()
        assert code == 2

    def test_missing_file_is_error(self, capsys):
        code = cli.run(["--json", "norm", "--mat", "/nonexistent.json"])
        capsys.readouterr()
        assert code == 2


@pytest.mark.parametrize("argv", [
    ["brs-check", "--algebra", "m2.json", "--level", "0"],
    ["brs-check", "--algebra", "m2.json", "--samples", "-5"],
    ["certify-mproj", "--space", "m2.json", "--proj", "proj_good.json",
     "--max-level", "0"],
    ["certify-mproj", "--space", "m2.json", "--proj", "proj_good.json",
     "--samples", "-1"],
    ["max-l1", "--coeffs", "pair.json", "--mmax", "0"],
    ["reproduce", "l12-nonunique", "--mmax", "0"],
    ["reproduce", "complex-dual", "--mmax", "0"],
    ["certify-mproj", "--space", "m2.json", "--proj", "proj_good.json",
     "--restarts", "-3"],
    ["max-l1", "--coeffs", "pair.json", "--restarts", "0"],
    ["reproduce", "l12-nonunique", "--restarts", "-1"],
    ["reproduce", "complex-dual", "--restarts", "-1"],
    ["quotient-norm", "--space", "m2.json", "--subspace", "subspace.json",
     "--elem", "e12_elem.json", "--iters", "0"],
    ["quotient-norm", "--space", "m2.json", "--subspace", "subspace.json",
     "--elem", "e12_elem.json", "--iters", "-4"],
])
def test_out_of_range_parameters_are_input_errors(files, capsys, argv):
    code = cli.run(["--json"] + [files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in json.loads(captured.out)
    assert "Traceback" not in captured.out + captured.err


def test_threads_flag_is_gone(capsys):
    assert cli.run(["--threads", "2", "verify", "linalg"]) == 2
    capsys.readouterr()


def test_iters_flag_is_gone(files, capsys):
    code = cli.run(["--json", "quotient-norm", "--space", files["m2.json"],
                    "--subspace", files["subspace.json"], "--elem",
                    files["e12_elem.json"], "--iters", "100"])
    assert code == 2
    assert "--iters" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("argv, command", [
    (["--json", "max-l1", "--coeffs", "c.json", "--restarts", "abc"],
     "max-l1"),
    (["--json", "--threads", "2", "verify", "linalg"], None),
])
def test_argument_errors_under_json_are_json(capsys, argv, command):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2
    rep = json.loads(captured.out)
    assert set(rep) == {"command", "config", "error"}
    assert rep["command"] == command
    assert rep["config"] == {"seed": 0xC0FFEE, "tol": 1e-9,
                             "output": "json"}
    assert "Traceback" not in captured.out + captured.err


def test_argument_errors_in_text_mode_print_usage(capsys):
    assert cli.run(["max-l1", "--coeffs", "c.json", "--restarts", "abc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and "invalid int value" in captured.err


def test_quotient_norm_tol_reaches_converged(files, capsys):
    # the bracket closes exactly on dist(e12, span e11), so the generic
    # element is the one whose gap a tolerance can fall below
    argv = ["quotient-norm", "--space", files["m2.json"], "--subspace",
            files["subspace.json"], "--elem", files["generic_elem.json"]]
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert rep["config"]["tol"] == 1e-7
    res = rep["result"]
    gap = res["gap_estimate"]
    assert 0 < gap <= 1e-7
    assert gap == res["value"] - res["lower"]
    # a tolerance below the gap leaves the same solve unconverged
    code, rep = run_json(capsys, ["--tol", repr(gap / 2)] + argv)
    assert code == 2
    assert rep["config"]["tol"] == gap / 2
    assert rep["result"] == dict(res, converged=False)


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "-1", "abc"])
def test_tol_must_be_a_finite_nonnegative_number(files, tmp_path, capsys,
                                                 tol):
    # --tol inf once passed a quotient solve that made no step vacuously,
    # and --tol -1 or nan exited 2 with a result but no error
    elem = tmp_path / "big_elem.json"
    elem.write_text(json.dumps({"level": 1,
                                "coeffs": [[[1e50, 2e50, 3e50, 4e50]]]}))
    argv = [f"--tol={tol}", "quotient-norm", "--space", files["m2.json"],
            "--subspace", files["subspace.json"], "--elem", str(elem)]
    code, rep = run_json(capsys, argv)
    assert code == 2
    assert "tolerance" in rep["error"] and "result" not in rep
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and "tolerance" in captured.err


def test_zero_tol_is_accepted(files, capsys):
    # the bracket closes exactly on dist(e12, span e11) = 1
    code, rep = run_json(capsys, [
        "--tol", "0", "quotient-norm", "--space", files["m2.json"],
        "--subspace", files["subspace.json"],
        "--elem", files["e12_elem.json"]])
    assert (code, rep["config"]["tol"]) == (0, 0.0)
    assert rep["result"]["gap_estimate"] == 0.0


def test_successive_runs_share_no_state(files, capsys):
    # the parser is built once per process and reused by every run
    assert cli.build_parser() is cli.build_parser()
    argv = ["quotient-norm", "--space", files["m2.json"], "--subspace",
            files["subspace.json"], "--elem", files["e12_elem.json"]]
    cli.run(["--json"] + argv)
    fresh = capsys.readouterr().out
    code, rep = run_json(capsys, ["--tol", "3e-8"] + argv)
    assert (code, rep["config"]["tol"]) == (0, 3e-8)
    code, rep = run_json(capsys, argv)
    assert (code, rep["config"]["tol"]) == (0, 1e-7)
    code, rep = run_json(capsys, ["max-l1", "--coeffs", files["pair.json"],
                                  "--restarts", "abc"])
    assert code == 2 and "error" in rep
    code, rep = run_json(capsys, ["max-l1", "--coeffs", files["pair.json"],
                                  "--mmax", "1"])
    assert code == 0 and rep["config"]["restarts"] == 64
    cli.run(["--json"] + argv)
    assert capsys.readouterr().out == fresh


TOL_CHECKS = {
    "tro-check": (["--space", "e12.json"], systems, "tro_closure_report"),
    "multiplier-witness": (["--space", "m2.json", "--map", "id_map.json",
                            "--a", "eye2.json"],
                           mideal, "verify_multiplier_witness"),
    "choi-effros": (["--algebra", "m2.json", "--idempotent",
                     "diag_phi.json"], systems, "choi_effros_product"),
    "brs-check": (["--algebra", "m2.json", "--level", "1", "--samples",
                   "10"], systems, "check_brs_level"),
    "right-ideal": (["--algebra", "triangular.json", "--subspace",
                     "ideal.json"], mideal, "is_right_ideal"),
    "shilov": (["--tro", "corner.json", "--y", "y_elem.json", "--z",
                "z_elem.json"], systems, "shilov_inner_product"),
    "unitize": (["--algebra", "e12.json"], systems, "unitize"),
    "subtriple": (["--space", "mixed_span.json"], systems,
                  "generated_subtriple"),
}


@pytest.mark.parametrize("command", sorted(TOL_CHECKS))
@pytest.mark.parametrize("tol", [None, "3e-8"])
def test_config_tol_is_the_tolerance_the_check_used(files, capsys,
                                                    monkeypatch, command,
                                                    tol):
    argv, module, name = TOL_CHECKS[command]
    check = getattr(module, name)
    used = []

    def spy(*args, **kwargs):
        used.append(kwargs["tol"])
        return check(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    flags = [] if tol is None else ["--tol", tol]
    code, rep = run_json(capsys, flags + [command] +
                         [files.get(a, a) for a in argv])
    assert code == 0
    assert used == [rep["config"]["tol"]]
    expected = {"brs-check": 1e-10, "choi-effros": 1e-10,
                "subtriple": 1e-10}.get(command, MEMBERSHIP_TOL)
    assert used[0] == (expected if tol is None else float(tol))


def test_explicit_tol_reaches_brs_check(files, capsys):
    argv = ["brs-check", "--algebra", files["half_scalars.json"],
            "--level", "1"]
    code, rep = run_json(capsys, argv)
    assert code == 1
    assert 1.0 < rep["result"]["max_violation"] < 2.0
    code, rep = run_json(capsys, ["--tol", "2"] + argv)
    assert code == 0
    assert rep["config"]["tol"] == 2.0 and rep["result"]["passed"] is True


def test_explicit_tol_reaches_unitize(files, capsys):
    argv = ["unitize", "--algebra", files["e12.json"]]
    code, rep = run_json(capsys, argv)
    assert code == 0 and rep["result"]["dim_after"] == 2
    # the identity's relative residual against span{e12} is about 0.59
    code, rep = run_json(capsys, ["--tol", "2"] + argv)
    assert code == 0
    assert rep["config"]["tol"] == 2.0 and rep["result"]["dim_after"] == 1


def test_subtriple_rejects_a_rank_cutoff_of_one_or_more(files, capsys):
    code, rep = run_json(capsys, ["--tol", "1", "subtriple", "--space",
                                  files["mixed_span.json"]])
    assert code == 2
    assert "rank cutoff" in rep["error"]


@pytest.mark.parametrize("argv", [
    ["certify-mproj", "--space", "m2.json", "--proj", "foo.json"],
    ["choi-effros", "--algebra", "m2.json", "--idempotent", "foo.json"],
    ["verify", "mideal", "--proj", "foo.json"],
])
def test_matrix_files_without_matrix_are_input_errors(files, capsys, argv):
    code, rep = run_json(capsys, [files.get(a, a) for a in argv])
    assert code == 2
    assert rep["error"] == 'projection JSON needs a "matrix"'


@pytest.mark.parametrize("argv", [
    ["right-ideal", "--algebra", "triangular.json", "--subspace", "foo.json"],
    ["quotient-norm", "--space", "m2.json", "--subspace", "foo.json",
     "--elem", "e12_elem.json"],
    ["quantize-min", "--banach", "l12.json", "--elem", "foo.json"],
    ["quantize-min", "--banach", "l12.json", "--elem", '{"foo": 1}'],
])
def test_coefficient_files_without_coeffs_are_input_errors(files, capsys,
                                                           argv):
    code, rep = run_json(capsys, [files.get(a, a) for a in argv])
    assert code == 2
    assert rep["error"] == 'coefficient JSON needs "coeffs"'


def test_error_report_echoes_the_command_default(capsys):
    code, rep = run_json(capsys, ["tro-check", "--space", "/nonexistent.json"])
    assert code == 2
    assert rep["config"]["tol"] == MEMBERSHIP_TOL


class TestSpaceMemo:
    """Spaces are memoized by file content within one process."""

    def test_equal_text_at_two_paths_gives_one_space(self, files, tmp_path):
        copy = tmp_path / "copy.json"
        copy.write_text(open(files["m2.json"]).read())
        assert cli._load_space(str(copy)) is cli._load_space(files["m2.json"])

    def test_edited_file_gives_a_new_space_and_report(self, tmp_path,
                                                      capsys):
        path, elem = tmp_path / "edited.json", tmp_path / "x.json"
        elem.write_text(json.dumps({"level": 1, "coeffs": [[[1.0]]]}))
        argv = ["norm", "--space", str(path), "--elem", str(elem)]
        reports = []
        for scale in (1.0, 3.0):
            path.write_text(json.dumps(opspace_to_json(span_space(
                [[[scale, 0.0], [0.0, 0.0]]]))))
            space = cli._load_space(str(path))
            assert space.basis[0, 0, 0] == scale
            reports.append((space, run_json(capsys, argv)))
        (s1, (c1, r1)), (s2, (c2, r2)) = reports
        assert s1 is not s2 and c1 == c2 == 0
        assert (r1["result"]["level_norm"],
                r2["result"]["level_norm"]) == pytest.approx((1.0, 3.0))

    @pytest.mark.parametrize("basis", [
        None, [[[1.0, 0.0]], [[2.0, 0.0]]], [[[1.0]], [[1.0]]]])
    def test_invalid_spaces_fail_every_time(self, basis, tmp_path, capsys):
        # invalid JSON, then two dependent bases: exceptions are not
        # memoized, so each request reports the error again
        path = tmp_path / "bad.json"
        path.write_text('{"basis": [' if basis is None else json.dumps(
            {"basis": [{"rows": len(b), "cols": len(b[0]), "entries": b}
                       for b in basis]}))
        for _ in range(2):
            code, rep = run_json(capsys, ["tro-check", "--space", str(path)])
            assert code == 2
            assert rep["error"] and "result" not in rep


class TestReproductions:
    def test_l12_nonunique(self, capsys):
        code, rep = run_json(capsys, ["reproduce", "l12-nonunique",
                                      "--restarts", "16"])
        assert code == 0
        r = rep["result"]
        assert r["min_norm"] == pytest.approx(np.sqrt(2.0), abs=1e-9)
        assert r["max_lower"] >= 2 - 1e-6
        assert r["max_upper"] == pytest.approx(2.0, abs=1e-12)
        assert r["gap"] >= 0.58
        assert "claim" in r
        keys = list(r)
        assert keys.index("search_rounds") == keys.index("sdp_iterations") + 1
        assert r["search_rounds"] > 0

    def test_l12_nonunique_is_byte_identical(self, capsys):
        argv = ["--json", "reproduce", "l12-nonunique", "--restarts", "8"]
        cli.run(argv)
        first = capsys.readouterr().out
        cli.run(argv)
        assert capsys.readouterr().out == first

    def test_complex_dual(self, capsys):
        code, rep = run_json(capsys, ["reproduce", "complex-dual",
                                      "--restarts", "16"])
        assert code == 0
        r = rep["result"]
        assert r["complexified_norm"] == pytest.approx(np.sqrt(2.0), abs=1e-9)
        assert r["dual_lower_bound"] == pytest.approx(1.0, abs=1e-6)
        assert r["worst_restart"] <= 1 + 1e-6


class TestVerify:
    def test_verify_linalg_passes(self, capsys):
        code, rep = run_json(capsys, ["verify", "linalg"])
        assert code == 0
        assert rep["passed"] is True
        assert all(row["passed"] for row in rep["result"]["linalg"])

    def test_verify_reports_are_byte_identical(self, capsys):
        code1 = cli.run(["--json", "verify", "quantization"])
        out1 = capsys.readouterr().out
        code2 = cli.run(["--json", "verify", "quantization"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_verify_mideal_oblique_projections_stay_idempotent(self, capsys):
        # this seed once drew an oblique projection whose idempotency
        # defect (2.3e-10) exceeded the projection type's tolerance
        code, rep = run_json(capsys, ["--seed", "14129765317872405887",
                                      "verify", "mideal"])
        assert code == 0
        assert rep["passed"] is True

    def test_verify_mideal_with_corrupt_projection(self, files, capsys):
        code = cli.run(["--json", "verify", "mideal", "--proj",
                        files["proj_corrupt.json"]])
        capsys.readouterr()
        assert code == 2

    def test_verify_mideal_with_good_projection(self, files, capsys):
        code, rep = run_json(capsys, ["verify", "mideal", "--proj",
                                      files["proj_good.json"]])
        assert code == 0
        names = [row["name"] for row in rep["result"]["mideal"]]
        assert any("user-supplied" in n for n in names)

    def test_text_mode_has_config_lines(self, files, capsys):
        code = cli.run(["norm", "--mat", files["mat.json"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "config.seed = 12648430" in out
        assert "result.op_norm: 4.0" in out


#: one argv per command; some refute or stay inconclusive (NONZERO_CODES),
#: so that ``passed`` is seen false as well as true
REPORT_ARGVS = {
    "norm": ["norm", "--mat", "mat.json"],
    "complexify": ["complexify", "--space", "e12.json"],
    "quantize-min": ["quantize-min", "--banach", "l12.json"],
    "w2-norm": ["w2-norm", "--banach", "l12.json", "--x", "[3, 0]",
                "--y", "[0, 0]"],
    "max-l1": ["max-l1", "--coeffs", "pair.json", "--mmax", "1",
               "--restarts", "2"],
    "certify-mproj": ["certify-mproj", "--space", "m2.json", "--proj",
                      "proj_symm.json", "--max-level", "2", "--samples",
                      "20", "--restarts", "2"],
    "multiplier-witness": ["multiplier-witness", "--space", "m2.json",
                           "--map", "id_map.json", "--a", "eye2.json"],
    "right-ideal": ["right-ideal", "--algebra", "triangular.json",
                    "--subspace", "not_ideal.json"],
    "brs-check": ["brs-check", "--algebra", "m2.json", "--level", "1",
                  "--samples", "5"],
    "unitize": ["unitize", "--algebra", "e12.json"],
    "paulsen": ["paulsen", "--space", "e12.json"],
    "choi-effros": ["choi-effros", "--algebra", "m2.json", "--idempotent",
                    "proj_symm.json"],
    "tro-check": ["tro-check", "--space", "mixed_span.json"],
    "subtriple": ["subtriple", "--space", "e12.json"],
    "shilov": ["shilov", "--tro", "corner.json", "--y", "y_elem.json",
               "--z", "z_elem.json"],
    "quotient-norm": ["--tol", "1e-300", "quotient-norm", "--space",
                      "m2.json", "--subspace", "subspace.json", "--elem",
                      "generic_elem.json"],
    "reproduce": ["reproduce", "complex-dual", "--mmax", "1",
                  "--restarts", "2"],
    "verify": ["verify", "linalg"],
}

NO_VERDICT = {"norm", "complexify", "quantize-min", "w2-norm", "max-l1",
              "unitize", "paulsen", "subtriple"}

#: refuted, failed preconditions and an unconverged solve
NONZERO_CODES = {"certify-mproj": 1, "right-ideal": 1, "tro-check": 1,
                 "choi-effros": 2, "quotient-norm": 2}


def subcommand_options(command):
    """The option names (dests) the parser declares for a subcommand."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions
            if a.dest != "help"}


@pytest.mark.parametrize("command", sorted(cli.HANDLERS))
def test_report_shape(files, capsys, command):
    code, rep = run_json(capsys, [files.get(a, a)
                                  for a in REPORT_ARGVS[command]])
    assert set(rep["config"]) == ({"seed", "tol", "output"} |
                                  subcommand_options(command))
    assert rep["config"]["output"] == "json"
    assert code == NONZERO_CODES.get(command, 0)
    if command in NO_VERDICT:
        assert "passed" not in rep
    else:
        assert rep["passed"] is (code == 0)


@pytest.mark.parametrize("command, key", [("complexify", "space"),
                                          ("unitize", "algebra")])
def test_out_writes_the_reported_object(files, capsys, tmp_path, command,
                                        key):
    out = tmp_path / "out.json"
    flag = "--space" if command == "complexify" else "--algebra"
    code, rep = run_json(capsys, [command, flag, files["e12.json"],
                                  "--out", str(out)])
    assert code == 0
    assert rep["result"]["written_to"] == str(out)
    assert rep["config"]["out"] == str(out)
    assert json.loads(out.read_text()) == rep["result"][key]


#: run in a fresh interpreter: which scipy modules are loaded after the
#: import, after the commands that need no SDP, and after a quotient norm
SCIPY_PROBE = """
import contextlib, io, json, sys
import realops.cli as cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

steps = {"import": loaded()}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(["verify", s]) for s in ("linalg", "mideal", "systems")]
    codes.append(cli.run(["reproduce", "complex-dual"]))
    steps["cheap"] = loaded()
    codes.append(cli.run(["quotient-norm"] + sys.argv[1:]))
steps["quotient"] = loaded()
print(json.dumps({"codes": codes, "steps": steps}))
"""


def test_commands_without_an_sdp_load_no_scipy(files):
    # LAPACK loads on the first SDP solve and scipy.optimize only for the
    # reference solvers, so importing the CLI stays cheap
    src = os.path.dirname(os.path.dirname(realops.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, "--space", files["m2.json"],
         "--subspace", files["subspace.json"], "--elem",
         files["generic_elem.json"]],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    rep = json.loads(proc.stdout)
    assert rep["codes"] == [0] * 5
    assert rep["steps"]["import"] == rep["steps"]["cheap"] == []
    assert "scipy.linalg" in rep["steps"]["quotient"]
    assert not any(m.startswith("scipy.optimize")
                   for m in rep["steps"]["quotient"])
