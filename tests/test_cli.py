import argparse
import dataclasses
import json
import os
import pkgutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import realops
from realops import cli, mideal, opspace, quantization, suites, systems
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
    # finite inputs on which a command overflows
    write("huge_functionals.json", {"dim": 2, "functionals": [[1e308, 1e308],
                                                              [1, -1]]})
    write("huge_coeffs.json", {"mats": [{"rows": 2, "cols": 2, "entries":
                                         [[1e308, 1e308], [1e308, 1e308]]}]})
    write("huge_proj.json", {"matrix": [[1e308, 0, 0, 0], [0, 1, 0, 0],
                                        [0, 0, 0, 0], [0, 0, 0, 0]]})
    write("proj_3x3.json", {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 0]]})
    write("eye3.json", {"rows": 3, "cols": 3,
                        "entries": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    write("ideal_4.json", {"coeffs": [[0.0, 1.0, 0.0, 0.0]]})
    write("tiny_subspace.json", {"coeffs": [[1e-200, 0, 0, 0]]})
    write("huge_elem.json", {"level": 1, "coeffs": [[[1e308, 1e308, 0, 0]]]})
    # files that contradict themselves
    write("m2_ambient_3x3.json", dict(opspace_to_json(full_matrix_space(2)),
                                      ambient={"rows": 3, "cols": 3}))
    write("e12_elem_level_2.json", {"level": 2,
                                    "coeffs": [[[0.0, 1.0, 0.0, 0.0]]]})
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
                                      files["pair.json"]])
        assert code == 0
        assert rep["result"]["lower"] >= 2 - 1e-6
        assert rep["result"]["upper"] == pytest.approx(2.0, abs=1e-12)
        # no best_m (always n) and no search_rounds (no polish) remain
        assert set(rep["result"]) == {"lower", "upper", "witness",
                                      "sdp_iterations", "certificate"}

    def test_max_l1_reports_the_library_certificate(self, files, capsys):
        # the (t, X, Y) behind upper, as max_l1_norm_bounds returns it
        _, rep = run_json(capsys, ["max-l1", "--coeffs", files["pair.json"]])
        mats = [np.array([[1.0, 0.0], [0.0, -1.0]]),
                np.array([[0.0, 1.0], [1.0, 0.0]])]
        t, x, y = quantization.max_l1_norm_bounds(mats).certificate
        assert rep["result"]["certificate"] == [t, x.tolist(), y.tolist()]
        assert rep["result"]["upper"] == t

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
                                      "--max-level", "2", "--restarts", "6"])
        assert code == 0
        assert rep["result"]["verdict"] == "certified"
        # nothing was searched on the all-level path
        assert rep["result"]["levels_checked"] == 0
        assert set(rep["result"]["certificate"]) == \
            {"a", "delta", "epsilon", "mu_bound", "tau_bound"}

    def test_refuted_projection(self, files, capsys):
        code, rep = run_json(capsys, ["certify-mproj", "--space",
                                      files["m2.json"], "--proj",
                                      files["proj_symm.json"],
                                      "--max-level", "2", "--restarts", "6"])
        assert code == 1
        assert rep["result"]["verdict"] == "refuted"
        assert rep["result"]["check"] == "mu_contraction"
        assert rep["result"]["observed"] == pytest.approx(np.sqrt(2.0),
                                                          abs=1e-9)
        assert "samples" not in rep["result"]
        assert rep["result"]["levels_checked"] == 1
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

    def test_choi_effros_bimodule_defect_fails(self, files, tmp_path,
                                               capsys):
        # E12 E11 gains 0.25 E11, which the diagonal expectation keeps
        s = systems.op_algebra(full_matrix_space(2)).structure.copy()
        s[1, 0, 0] += 0.25
        algebra = tmp_path / "bimodule_defect.json"
        algebra.write_text(json.dumps(systems.algebra_to_json(
            systems.op_algebra(full_matrix_space(2), s))))
        code, rep = run_json(capsys, ["choi-effros", "--algebra",
                                      str(algebra), "--idempotent",
                                      files["diag_phi.json"]])
        assert code == 1
        assert rep["passed"] is False
        assert rep["result"]["precondition_failures"] == []
        assert rep["result"]["bimodule_deviation"] == 0.25

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
     "--restarts", "0"],
    ["certify-mproj", "--space", "m2.json", "--proj", "proj_good.json",
     "--restarts", "-3"],
    ["reproduce", "l12-nonunique", "--restarts", "0"],
    ["reproduce", "l12-nonunique", "--restarts", "-1"],
    ["reproduce", "complex-dual", "--restarts", "-1"],
    # inputs whose sizes do not fit the space or algebra
    ["certify-mproj", "--space", "m2.json", "--proj", "proj_3x3.json"],
    ["multiplier-witness", "--space", "m2.json", "--map", "id_map.json",
     "--a", "eye3.json"],
    ["right-ideal", "--algebra", "triangular.json", "--subspace",
     "ideal_4.json"],
    ["w2-norm", "--banach", "l12.json", "--x", "[NaN, 1]", "--y", "[0, 0]"],
    ["w2-norm", "--banach", "l12.json", "--x", "[1, 0]", "--y", "[1, NaN]"],
    ["w2-norm", "--banach", "l12.json", "--x", "[1e400, 1]", "--y", "[0, 0]"],
    ["w2-norm", "--banach", "l12.json", "--x", "[1, 0]",
     "--y", "[-Infinity, 0]"],
    ["w2-norm", "--banach", "l12.json", "--x", "[1, 2, 3]", "--y", "[0, 0]"],
    ["w2-norm", "--banach", "l12.json", "--x", "[1, 0]", "--y", "[0]"],
    # overflows on finite input, which once reported inf (w2-norm, exit 0)
    # or a misleading error after a warning
    ["w2-norm", "--banach", "huge_functionals.json", "--x", "[1, 1]",
     "--y", "[1, 0]"],
    ["max-l1", "--coeffs", "huge_coeffs.json"],
    ["certify-mproj", "--space", "m2.json", "--proj", "huge_proj.json"],
    ["choi-effros", "--algebra", "m2.json", "--idempotent", "huge_proj.json"],
    ["quotient-norm", "--space", "m2.json", "--subspace",
     "tiny_subspace.json", "--elem", "huge_elem.json"],
    # a norm request without its input, and input files that contradict
    # themselves
    ["norm"],
    ["norm", "--space", "m2.json"],
    ["norm", "--space", "m2_ambient_3x3.json", "--elem", "e12_elem.json"],
    ["norm", "--space", "m2.json", "--elem", "e12_elem_level_2.json"],
])
def test_out_of_range_parameters_are_input_errors(files, capsys, argv):
    # under the default warning filter, no warning may escape either
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.run(["--json"] + [files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert (code, caught) == (2, [])
    assert not json.loads(captured.out)["error"].startswith(
        "unrecognized arguments")
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("argv", [
    ["certify-mproj", "--space", "m2.json", "--proj", "proj_good.json",
     "--samples", "-1"],
    ["max-l1", "--coeffs", "pair.json", "--mmax", "0"],
    ["max-l1", "--coeffs", "pair.json", "--restarts", "0"],
    ["reproduce", "l12-nonunique", "--mmax", "0"],
    ["reproduce", "complex-dual", "--mmax", "0"],
    ["quotient-norm", "--space", "m2.json", "--subspace", "subspace.json",
     "--elem", "e12_elem.json", "--iters", "0"],
    ["quotient-norm", "--space", "m2.json", "--subspace", "subspace.json",
     "--elem", "e12_elem.json", "--iters", "-4"],
])
def test_flags_a_command_lacks_are_usage_errors(files, capsys, argv):
    # whatever the value, a flag the command does not declare is rejected
    # before any range is checked
    code = cli.run(["--json"] + [files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"].startswith(
        "unrecognized arguments")
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("seed", ["-5", "18446744073709551616",
                                  "0x10000000000000000", "abc", "1.5", ""])
def test_seed_must_be_a_64_bit_nonnegative_integer(capsys, seed):
    argv = ["--seed", seed, "reproduce", "complex-dual"]
    code, rep = run_json(capsys, argv)
    assert code == 2
    assert set(rep) == {"command", "config", "error"}
    assert "--seed" in rep["error"] and repr(seed) in rep["error"]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and repr(seed) in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("seed, suite, reported", [
    ("abc", "linalg", "abc"), ("-5", "linalg", "-5"), ("0x5", "bogus", 5)])
def test_argument_error_reports_the_seed_given(capsys, seed, suite, reported):
    # a rejected seed is reported as given, not as the default the
    # namespace starts from; a valid one as parsed
    code, rep = run_json(capsys, ["--seed", seed, "verify", suite])
    assert (code, rep["config"]["seed"]) == (2, reported)


@pytest.mark.parametrize("tol", ["abc", "-1", "nan", "inf"])
def test_argument_error_reports_the_tol_given(capsys, tol):
    # a rejected tolerance is reported as given, not as the command's
    # default
    code, rep = run_json(capsys, ["--tol", tol, "verify", "linalg"])
    assert (code, rep["config"]["tol"]) == (2, tol)
    assert "tolerance" in rep["error"]


#: commands that read no tolerance
NO_TOL = {"norm", "complexify", "quantize-min", "w2-norm", "max-l1",
          "paulsen", "reproduce", "verify"}


def test_tol_defaults_name_every_command_that_reads_tol():
    assert set(cli.TOL_DEFAULTS) == set(cli.HANDLERS) - NO_TOL


@pytest.mark.parametrize("command", sorted(NO_TOL))
def test_tol_is_rejected_where_nothing_reads_it(files, capsys, command):
    # a tolerance that no check reads would be echoed as config.tol while
    # the report stayed the same
    argv = ["--tol", "0.5"] + [files.get(a, a) for a in REPORT_ARGVS[command]]
    code, rep = run_json(capsys, argv)
    assert (code, rep["config"]["tol"]) == (2, 0.5)
    assert rep["error"] == f"--tol does not apply to {command}"
    assert "result" not in rep


@pytest.mark.parametrize("seed, value", [("0", 0), ("0xC0FFEE", 0xC0FFEE),
                                         ("18446744073709551615",
                                          2 ** 64 - 1)])
def test_seed_range_ends_are_accepted(capsys, seed, value):
    code, rep = run_json(capsys, ["--seed", seed, "verify", "linalg"])
    assert (code, rep["config"]["seed"]) == (0, value)


@pytest.mark.parametrize("argv", [
    ["max-l1", "--coeffs", "pair.json"],
    ["reproduce", "l12-nonunique", "--restarts", "16"]])
def test_max_l1_reports_do_not_depend_on_the_seed(files, capsys, argv):
    # the seesaw starts from the polar factors of the coefficients, so
    # nothing in these commands is random
    argv = [files.get(a, a) for a in argv]
    reps = [run_json(capsys, ["--seed", seed] + argv)
            for seed in ("1", "0xC0FFEE")]
    assert [code for code, _ in reps] == [0, 0]
    assert [rep["config"].pop("seed") for _, rep in reps] == [1, 0xC0FFEE]
    assert json.dumps(reps[0][1]) == json.dumps(reps[1][1])


def test_threads_flag_is_gone(capsys):
    assert cli.run(["--threads", "2", "verify", "linalg"]) == 2
    capsys.readouterr()


def test_iters_flag_is_gone(files, capsys):
    code = cli.run(["--json", "quotient-norm", "--space", files["m2.json"],
                    "--subspace", files["subspace.json"], "--elem",
                    files["e12_elem.json"], "--iters", "100"])
    assert code == 2
    assert "--iters" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("name", ["complex-dual", "l12-nonunique"])
def test_mmax_flag_is_gone(capsys, name):
    # the dual search runs at the one test size n, so no size flag is left
    code, rep = run_json(capsys, ["reproduce", name, "--mmax", "2"])
    assert code == 2
    assert "--mmax" in rep["error"] and "result" not in rep


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
    # neither command reads a tolerance, and none was given
    assert rep["config"] == {"seed": 0xC0FFEE, "output": "json"}
    assert "Traceback" not in captured.out + captured.err


def test_argument_errors_in_text_mode_print_usage(capsys):
    assert cli.run(["reproduce", "complex-dual", "--restarts", "abc"]) == 2
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
    code, rep = run_json(capsys, ["reproduce", "complex-dual",
                                  "--restarts", "abc"])
    assert code == 2 and "error" in rep
    code, rep = run_json(capsys, ["reproduce", "complex-dual"])
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


def test_brs_check_reports_the_violating_pair(files, capsys):
    code, rep = run_json(capsys, ["brs-check", "--algebra",
                                  files["half_scalars.json"]])
    assert code == 1
    algebra = systems.op_algebra(span_space([[[0.5]]]), structure=[[[1.0]]])
    a, b = (np.array(c) for c in rep["result"]["witness"])
    na, nb, nab = opspace.level_norms(algebra.space, np.stack(
        [a, b, algebra.product_coeffs(a, b)]))
    assert nab - na * nb == rep["result"]["max_violation"] > 0


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
    ["multiplier-witness", "--space", "m2.json", "--map", "foo.json",
     "--a", "eye2.json"],
])
def test_matrix_files_without_matrix_are_input_errors(files, capsys, argv):
    code, rep = run_json(capsys, [files.get(a, a) for a in argv])
    assert code == 2
    assert rep["error"] == 'matrix file needs a "matrix"'


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


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("argv, dim", [
    (["right-ideal", "--algebra", "triangular.json"], 3),
    (["quotient-norm", "--space", "m2.json", "--elem", "e12_elem.json"], 4),
])
def test_non_finite_coefficients_are_input_errors(files, tmp_path, capsys,
                                                  argv, dim, literal):
    # a NaN once reached matrix_rank and pinv and was reported as "SVD did
    # not converge"
    sub = tmp_path / "non_finite.json"
    sub.write_text('{"coeffs": [[%s%s]]}' % (literal, ", 0" * (dim - 1)))
    code, rep = run_json(capsys, [files.get(a, a) for a in argv] +
                         ["--subspace", str(sub)])
    assert code == 2
    assert rep["error"] == "coefficients must be finite (no NaN/Inf)"


def test_quantize_min_with_huge_functionals_passes(files, capsys):
    # the basis condition number, which overflowed here, is no longer
    # computed
    code, rep = run_json(capsys, ["quantize-min", "--banach",
                                  files["huge_functionals.json"]])
    assert code == 0
    assert rep["result"]["dual_ball_vertices"] == 4


@pytest.mark.parametrize("scale", [1e3, 1e9])
def test_quotient_gap_is_relative_to_the_value(files, tmp_path, capsys,
                                               scale):
    # the bracket closes to about 1e-10 of the value, which at these
    # scales was above 1e-7 in absolute terms
    rng = np.random.default_rng(5)
    sub, elem = tmp_path / "sub.json", tmp_path / "elem.json"
    sub.write_text(json.dumps({"coeffs": rng.standard_normal((1, 4)).tolist()}))
    elem.write_text(json.dumps({"level": 2, "coeffs": (
        scale * rng.standard_normal((2, 2, 4))).tolist()}))
    code, rep = run_json(capsys, ["quotient-norm", "--space", files["m2.json"],
                                  "--subspace", str(sub), "--elem",
                                  str(elem)])
    res = rep["result"]
    assert code == 0 and res["converged"]
    assert res["gap_estimate"] <= 1e-7 * res["value"]


@pytest.mark.parametrize("entry", [1e13, 1e16, 1e100])
@pytest.mark.parametrize("unit", [1e200, 1.0])
def test_quotient_large_component_in_the_subspace_converges(
        files, tmp_path, capsys, entry, unit):
    # dist([[e, 2], [3, 4]], span E11) = 5 for every e; a solve that formed
    # B - K w at each step lost the residual to the rounding of e and
    # exited 2 with a gap of up to 0.36
    sub, elem = tmp_path / "sub.json", tmp_path / "elem.json"
    sub.write_text(json.dumps({"coeffs": [[unit, 0, 0, 0]]}))
    elem.write_text(json.dumps({"level": 1, "coeffs": [[[entry, 2, 3, 4]]]}))
    code, rep = run_json(capsys, ["quotient-norm", "--space", files["m2.json"],
                                  "--subspace", str(sub), "--elem",
                                  str(elem)])
    res = rep["result"]
    assert (code, res["converged"]) == (0, True)
    assert abs(res["value"] - 5.0) <= 1e-9


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
        assert (r["max_lower"], r["max_upper"]) == (2.0, 2.0)
        assert r["sdp_iterations"] == 0
        assert r["gap"] >= 0.58
        # no best_m (always n) and no search_rounds (no polish) remain
        assert set(r) == {"min_norm", "max_lower", "max_upper", "gap",
                          "witness", "sdp_iterations", "claim"}

    def test_l12_short_bracket_fails(self, capsys, monkeypatch):
        # a maximal lower bound of 1.99 still splits the structures by more
        # than 0.5, but it does not reach 2, so the reproduction fails
        real = quantization.max_l1_norm_bounds

        def short(coeff_mats):
            return dataclasses.replace(real(coeff_mats), lower=1.99)
        monkeypatch.setattr(quantization, "max_l1_norm_bounds", short)
        rep = quantization.reproduce_l12_nonuniqueness()
        assert rep.gap >= 0.5 and not rep.passed
        code, rep = run_json(capsys, ["reproduce", "l12-nonunique"])
        assert code == 1
        assert rep["passed"] is False and rep["result"]["max_lower"] == 1.99

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
        assert "best_m" not in r


class TestReproduceCost:
    """What a ``reproduce`` request builds: one random stream per dual
    search, one l^1_2 per process, and a bounded restart count."""

    def test_dual_search_seeds_one_stream(self, monkeypatch):
        keys = []

        def counted(seed, *key):
            keys.append(key)
            return real(seed, *key)
        real = opspace.derived_rng
        monkeypatch.setattr(opspace, "derived_rng", counted)
        opspace.theta_dual_search([[1.0, 0.0], [0.0, 0.0]],
                                  [[0.0, 1.0], [0.0, 0.0]], restarts=16,
                                  seed=0xC0FFEE)
        assert keys == [(2,)]

    def test_first_start_does_not_depend_on_the_restart_count(
            self, monkeypatch):
        starts = []

        def recorded(realize, grad, polar, x0):
            starts.append(x0.copy())
            return real(realize, grad, polar, x0)
        real = opspace.polar_seesaw
        monkeypatch.setattr(opspace, "polar_seesaw", recorded)
        z = ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]])
        one = opspace.theta_dual_search(*z, restarts=1, seed=0xC0FFEE)
        many = opspace.theta_dual_search(*z, restarts=64, seed=0xC0FFEE)
        # the seeded starts and nothing else
        assert [len(s) for s in starts] == [1, 64]
        assert np.array_equal(starts[0], starts[1][:1])
        assert one.restart_values == many.restart_values[:1]

    def test_l12_builds_ell_one_once(self, capsys, monkeypatch):
        built = []

        def counted(dim):
            built.append(dim)
            return real(dim)
        real = quantization.ell_one
        monkeypatch.setattr(quantization, "ell_one", counted)
        quantization._ell_one_2.cache_clear()
        argv = ["--json", "reproduce", "l12-nonunique"]
        assert cli.run(argv) == 0
        first = capsys.readouterr().out
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == first
        assert built == [2]
        space = quantization._ell_one_2()
        assert not space.functionals.flags.writeable
        assert not space.representatives.flags.writeable

    def test_restart_cap(self, capsys):
        cap = cli.MAX_RESTARTS
        assert cli._count(str(cap)) == cap
        with pytest.raises(argparse.ArgumentTypeError):
            cli._count(str(cap + 1))
        for count in (cap + 1, 10 ** 11):
            code = cli.run(["--json", "reproduce", "complex-dual",
                            "--restarts", str(count)])
            captured = capsys.readouterr()
            assert code == 2
            rep = json.loads(captured.out)
            assert set(rep) == {"command", "config", "error"}
            assert "--restarts" in rep["error"] and str(cap) in rep["error"]
            assert "Traceback" not in captured.out + captured.err


class TestOptionBounds:
    """Every count and level option of ``certify-mproj`` and ``brs-check``
    is bounded at parse time; no search runs at a cap."""

    OPTIONS = [
        (["certify-mproj", "--space", "m2.json", "--proj", "proj_symm.json"],
         "--restarts", cli.MAX_RESTARTS),
        (["certify-mproj", "--space", "m2.json", "--proj", "proj_symm.json"],
         "--max-level", cli.MAX_LEVEL),
        (["brs-check", "--algebra", "m2.json"], "--samples",
         cli.MAX_RESTARTS),
        (["brs-check", "--algebra", "m2.json"], "--level", cli.MAX_LEVEL)]

    @pytest.mark.parametrize("argv, option, cap", OPTIONS,
                             ids=[f"{a[0]} {o}" for a, o, _ in OPTIONS])
    def test_beyond_the_cap_is_an_input_error(self, files, capsys, argv,
                                              option, cap):
        for value in (cap + 1, 10 ** 15):
            code = cli.run(["--json"] + [files.get(a, a) for a in argv]
                           + [option, str(value)])
            captured = capsys.readouterr()
            assert code == 2
            rep = json.loads(captured.out)
            assert set(rep) == {"command", "config", "error"}
            assert option in rep["error"] and str(cap) in rep["error"]
            assert "Traceback" not in captured.out + captured.err

    def test_converters_accept_their_ranges(self):
        for convert, low, high in ((cli._count, 1, cli.MAX_RESTARTS),
                                   (cli._samples, 0, cli.MAX_RESTARTS),
                                   (cli._level, 1, cli.MAX_LEVEL)):
            assert (convert(str(low)), convert(str(high))) == (low, high)
            for bad in (str(low - 1), str(high + 1), "1.5", "abc"):
                with pytest.raises(argparse.ArgumentTypeError):
                    convert(bad)


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

    def test_verify_takes_no_projection(self, files, capsys):
        code, rep = run_json(capsys, ["verify", "mideal", "--proj",
                                      files["proj_good.json"]])
        assert code == 2
        assert rep["command"] == "verify"
        assert rep["error"].startswith("unrecognized arguments: --proj")

    def test_verify_choices_are_the_suites(self):
        suite = next(a for a in subcommand_parser("verify")._actions
                     if a.dest == "suite")
        assert suite.choices == ["all", *suites.SUITES]

    def test_good_projection_certifies_through_certify_mproj(self, files,
                                                             capsys):
        # the parameters of the mideal suite's orthogonal-projection row
        code, rep = run_json(capsys, ["certify-mproj", "--space",
                                      files["m2.json"], "--proj",
                                      files["proj_good.json"],
                                      "--max-level", "2", "--restarts", "6"])
        assert code == 0
        assert rep["result"]["verdict"] == "certified"
        assert (rep["config"]["max_level"], rep["config"]["restarts"],
                rep["config"]["tol"]) == (2, 6, 1e-9)

    def test_text_mode_has_config_lines(self, files, capsys):
        code = cli.run(["norm", "--mat", files["mat.json"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "config.seed = 12648430" in out
        assert "result.op_norm: 4.0" in out

    def test_text_mode_prints_a_list_of_matrices_row_by_row(self, capsys):
        code = cli.run(["reproduce", "l12-nonunique"])
        out = capsys.readouterr().out
        assert code == 0
        assert "result.witness[0][0]: [1.0, 0.0]\n" in out
        assert out.endswith("PASS\n")


#: one argv per command; some refute or stay inconclusive (NONZERO_CODES),
#: so that ``passed`` is seen false as well as true
REPORT_ARGVS = {
    "norm": ["norm", "--mat", "mat.json"],
    "complexify": ["complexify", "--space", "e12.json"],
    "quantize-min": ["quantize-min", "--banach", "l12.json"],
    "w2-norm": ["w2-norm", "--banach", "l12.json", "--x", "[3, 0]",
                "--y", "[0, 0]"],
    "max-l1": ["max-l1", "--coeffs", "pair.json"],
    "certify-mproj": ["certify-mproj", "--space", "m2.json", "--proj",
                      "proj_symm.json", "--max-level", "2", "--restarts",
                      "2"],
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
    "reproduce": ["reproduce", "complex-dual", "--restarts", "2"],
    "verify": ["verify", "linalg"],
}

#: result keys naming the object a command builds from the input file
#: that config names by the same key
BUILT_OBJECT_KEYS = {"space", "algebra"}

NO_VERDICT = {"norm", "complexify", "quantize-min", "w2-norm", "max-l1",
              "unitize", "paulsen", "subtriple"}

#: refuted, failed preconditions and an unconverged solve
NONZERO_CODES = {"certify-mproj": 1, "right-ideal": 1, "tro-check": 1,
                 "choi-effros": 2, "quotient-norm": 2}


def subcommand_parser(command):
    """The parser of one subcommand."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def subcommand_options(command):
    """The option names (dests) the parser declares for a subcommand."""
    return {a.dest for a in subcommand_parser(command)._actions
            if a.dest != "help"}


@pytest.mark.parametrize("command", sorted(cli.HANDLERS))
def test_report_shape(files, capsys, command):
    code, rep = run_json(capsys, [files.get(a, a)
                                  for a in REPORT_ARGVS[command]])
    # only a command that reads a tolerance echoes one
    tol = {"tol"} if command in cli.TOL_DEFAULTS else set()
    assert set(rep["config"]) == ({"seed", "output"} | tol |
                                  subcommand_options(command))
    assert rep["config"]["output"] == "json"
    if isinstance(rep["result"], dict):
        # a result states what the command computed: no input, no tolerance
        shared = set(rep["result"]) & (set(rep["config"]) |
                                       {"tol", "tolerance"})
        assert shared <= BUILT_OBJECT_KEYS
        assert all(rep["result"][k] != rep["config"][k] for k in shared)
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


def test_complex_dual_builds_the_complex_scalars_once(capsys, monkeypatch):
    argv = ["--json", "reproduce", "complex-dual", "--restarts", "2"]
    assert cli.run(argv) == 0
    first = capsys.readouterr().out

    def rebuilt(space):
        raise AssertionError("the complex scalars were built again")

    monkeypatch.setattr(opspace, "_complexified", rebuilt)
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == first


#: run in a fresh interpreter: the realops and scipy modules loaded after
#: the import and after each step, a step being a JSON list of argument
#: lists given as the first argument
LOAD_PROBE = """
import contextlib, io, json, sys
import realops.cli as cli

def loaded():
    return {pkg: sorted(m for m in sys.modules if m.split(".")[0] == pkg)
            for pkg in ("realops", "scipy")}

steps, codes = {"import": loaded()}, []
for name, commands in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes += [cli.run(argv) for argv in commands]
    steps[name] = loaded()
print(json.dumps({"codes": codes, "steps": steps}))
"""

#: what importing the CLI loads: the tolerances of linalg and the seed of rng
CLI_IMPORT_LOADS = ["realops", "realops.cli", "realops.linalg",
                    "realops.rng"]


def load_probe(steps):
    src = os.path.dirname(os.path.dirname(realops.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", LOAD_PROBE, json.dumps(steps)],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_commands_without_an_sdp_load_no_scipy(files):
    # LAPACK loads on the first SDP solve and scipy.optimize only for the
    # reference solvers, so importing the CLI stays cheap; a start that
    # closes its bracket builds no SDP (the l12 pair's).  Each command
    # loads only the realops modules it runs, and importing the CLI none
    # but the two its module top reads
    quotient = ["quotient-norm", "--space", files["m2.json"], "--subspace",
                files["subspace.json"], "--elem", files["generic_elem.json"]]
    rep = load_probe([
        ["reproduce", [["reproduce", "complex-dual"],
                       ["reproduce", "l12-nonunique"]]],
        ["cheap", [["verify", s] for s in ("linalg", "mideal", "systems")]],
        ["quotient", [quotient]]])
    assert rep["codes"] == [0] * 6
    steps = rep["steps"]
    assert steps["import"]["realops"] == CLI_IMPORT_LOADS
    assert steps["reproduce"]["realops"] == sorted(CLI_IMPORT_LOADS + [
        "realops.opspace", "realops.optim", "realops.quantization"])
    every_module = sorted(["realops"] + [
        f"realops.{m.name}" for m in pkgutil.iter_modules(realops.__path__)])
    assert steps["cheap"]["realops"] == every_module
    assert steps["import"]["scipy"] == steps["reproduce"]["scipy"] == \
        steps["cheap"]["scipy"] == []
    assert "scipy.linalg" in steps["quotient"]["scipy"]
    assert not any(m.startswith("scipy.optimize")
                   for m in steps["quotient"]["scipy"])

    alone = load_probe([["quotient", [quotient]]])
    assert alone["codes"] == [0]
    assert alone["steps"]["quotient"]["realops"] == sorted(
        CLI_IMPORT_LOADS + ["realops.opspace", "realops.optim"])
