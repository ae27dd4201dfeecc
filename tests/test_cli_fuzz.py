"""Fuzzing of the CLI's input handling.

Malformed JSON files and out-of-range or non-integer flag values, fed to
the fast commands only (``norm``, ``quotient-norm``, ``max-l1``), must end
with exit code 0, 1 or 2, never with a traceback; under ``--json`` stdout
must be strict JSON (no NaN or Infinity literals).  ``max_examples`` is kept small so the whole tier-1
suite stays fast.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from realops import cli
from realops.opspace import full_matrix_space, opspace_to_json

VALID = {
    "mat": {"rows": 2, "cols": 2, "entries": [[3, 0], [0, 4]]},
    "space": opspace_to_json(full_matrix_space(2)),
    "elem": {"level": 1, "coeffs": [[[0.0, 1.0, 0.0, 0.0]]]},
    "subspace": {"coeffs": [[1.0, 0.0, 0.0, 0.0]]},
    "coeffs": {"mats": [{"rows": 2, "cols": 2, "entries": [[1, 0], [0, -1]]},
                        {"rows": 2, "cols": 2, "entries": [[0, 1], [1, 0]]}]},
}
#: keys of the file formats, so that random objects reach the loaders' checks
KEYS = ["rows", "cols", "entries", "basis", "ambient", "conjugation",
        "complexified", "level", "coeffs", "mats"]

LEAVES = (st.none() | st.booleans() | st.integers(-3, 3) |
          st.floats(allow_nan=True, allow_infinity=True) |
          st.sampled_from([1e400, -1e400, 10 ** 30]) | st.text(max_size=3))
JSON_VALUES = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=3) |
    st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=10)
#: flag values: small integers, numbers that are not integers, and junk
#: without digits (so no large restart count slips through)
FLAG_VALUES = (st.integers(-3, 2).map(str) |
               st.sampled_from(["nan", "inf", "-inf", "1e400", "2.5", "0x10",
                                ""]) |
               st.text(alphabet="abx-+. e", max_size=4))
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _nodes(doc, path=()):
    """Paths to every node of a JSON document, the root excluded."""
    children = (doc.items() if isinstance(doc, dict) else
                enumerate(doc) if isinstance(doc, list) else ())
    for key, val in children:
        yield path + (key,)
        yield from _nodes(val, path + (key,))


@st.composite
def malformed(draw, kind):
    """The text of a broken variant of a valid input file."""
    doc = json.loads(json.dumps(VALID[kind]))
    mode = draw(st.sampled_from(["truncate", "replace", "whole"]))
    if mode == "truncate":
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text)))] + draw(
            st.text(max_size=3))
    if mode == "whole":
        return json.dumps(draw(JSON_VALUES))
    # choose the depth first, so that shallow keys are hit as often as the
    # many deep matrix entries
    paths = list(_nodes(doc))
    depth = draw(st.integers(1, max(len(p) for p in paths)))
    path = draw(st.sampled_from([p for p in paths if len(p) == depth]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(JSON_VALUES)
    return json.dumps(doc)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _files(workdir, broken: dict) -> dict:
    """Write every input file, the broken ones from their given text."""
    paths = {}
    for kind, doc in VALID.items():
        path = os.path.join(workdir, f"{kind}.json")
        with open(path, "w") as fh:
            fh.write(broken.get(kind, json.dumps(doc)))
        paths[kind] = path
    return paths


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _check(argv, json_mode):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run((["--json"] if json_mode else []) + argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if json_mode:
        rep = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert {"command", "config"} <= set(rep)
    return code


COMMANDS = {
    "norm --mat": (["mat"], lambda p: ["norm", "--mat", p["mat"]]),
    "norm --space --elem": (["space", "elem"], lambda p: [
        "norm", "--space", p["space"], "--elem", p["elem"]]),
    "quotient-norm": (["space", "subspace", "elem"], lambda p: [
        "quotient-norm", "--space", p["space"], "--subspace", p["subspace"],
        "--elem", p["elem"]]),
    "max-l1": (["coeffs"], lambda p: [
        "max-l1", "--coeffs", p["coeffs"]]),
}


@SETTINGS
@given(data=st.data(), command=st.sampled_from(sorted(COMMANDS)),
       json_mode=st.booleans())
def test_malformed_json_files(workdir, data, command, json_mode):
    kinds, argv = COMMANDS[command]
    kind = data.draw(st.sampled_from(kinds))
    paths = _files(workdir, {kind: data.draw(malformed(kind))})
    _check(argv(paths), json_mode)


@pytest.mark.parametrize("kind, text", [
    ("mat", '{"rows": Infinity, "cols": 2, "entries": [[3, 0], [0, 4]]}'),
    ("elem", '{"level": 1, "coeffs": 5}'),
    ("elem", '{"level": -Infinity, "coeffs": [[[0, 1, 0, 0]]]}'),
    ("subspace", '{"coeffs": 5}'),
    ("coeffs", '{"mats": [{"rows": 2, "cols": Infinity, '
               '"entries": [[1, 0], [0, -1]]}]}'),
])
def test_found_malformed_inputs_are_input_errors(workdir, capsys, kind, text):
    # broken files that once ended in an IndexError or OverflowError
    paths = _files(workdir, {kind: text})
    command = next(c for c, (kinds, _) in COMMANDS.items() if kind in kinds)
    code = cli.run(["--json"] + COMMANDS[command][1](paths))
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in json.loads(captured.out)
    assert "Traceback" not in captured.out + captured.err


@SETTINGS
@given(mmax=FLAG_VALUES, restarts=FLAG_VALUES, seed=FLAG_VALUES,
       json_mode=st.booleans())
def test_max_l1_flag_values(workdir, mmax, restarts, seed, json_mode):
    # max-l1 has no --mmax or --restarts, so every value is a usage error
    paths = _files(workdir, {})
    assert _check(["--seed", seed, "max-l1", "--coeffs", paths["coeffs"],
                   "--mmax", mmax, "--restarts", restarts], json_mode) == 2


@SETTINGS
@given(tol=FLAG_VALUES | st.floats().map(repr), json_mode=st.booleans())
def test_quotient_norm_tol_values(workdir, tol, json_mode):
    paths = _files(workdir, {})
    _check(["--tol", tol] + COMMANDS["quotient-norm"][1](paths), json_mode)
