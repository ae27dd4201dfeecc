"""Workload inputs and output checks for the realops benchmark.

A workload is one or more lists of requests, one per pass; a run cycles
through them.  ``verify`` and ``reproduce`` have one list, whose work
changes little with the seed.  ``quotient`` has ``QUOTIENT_PASSES``
lists of the same mix with other elements, because solve times vary with
the element: a run's medians then cover several sets of inputs rather
than one.  Each request is the argument list of one ``realops.cli.run``
call plus what its report must satisfy.  Inputs are made from the
workload seed alone, with numpy's generator, and written as JSON files
before timing starts; the program sees only those files and the seed.
The spaces used by ``quotient`` are written out by hand from the
documented file format, and every expected bound is computed here with
plain numpy, so the checks do not rest on the code they check.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("verify", "reproduce", "quotient")
#: request lists of ``quotient``, 36 requests each
QUOTIENT_PASSES = 8

#: the invariant suites run by ``verify``, one request each; the opspace
#: and quantization suites (about 9 s each) are left out so that a 30 s run
#: holds about ten passes: their work is the quotient solves and the max-l1
#: search that ``quotient`` and ``reproduce`` time
VERIFY_SUITES = ("linalg", "mideal", "systems")
#: restarts per reproduction (the CLI's default is 64): about 1.5 s a
#: request, so a run holds about ten passes
REPRODUCE_RESTARTS = 16

#: quotient-norm values of elements inside the subspace must not exceed this
ZERO_TOL = 1e-9
#: a real element and its complexified copy must agree within this
PAIR_TOL = 1e-6


@dataclass
class Request:
    argv: list[str]
    kind: str
    expect: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Spaces for the quotient workload, written from the file format
# ----------------------------------------------------------------------

def _unit(p, q, i, j):
    m = np.zeros((p, q))
    m[i, j] = 1.0
    return m


M2_BASIS = np.stack([_unit(2, 2, i, j) for i in range(2) for j in range(2)])
#: complexification as 2p x 2q blocks: real copies [[B, 0], [0, B]] first,
#: imaginary copies [[0, -B], [B, 0]] second
M2C_BASIS = np.concatenate([
    np.stack([np.block([[b, 0 * b], [0 * b, b]]) for b in M2_BASIS]),
    np.stack([np.block([[0 * b, -b], [b, 0 * b]]) for b in M2_BASIS])])
#: the minimal structure on ell^1_2: e_k -> diag(<f, e_k>) over the
#: dual-ball vertices f = (1, 1), (1, -1)
L1MIN_BASIS = np.stack([np.diag([1.0, 1.0]), np.diag([1.0, -1.0])])


def _space_json(basis, complexified=False):
    d, p, q = basis.shape
    out = {"ambient": {"rows": p, "cols": q},
           "basis": [{"rows": p, "cols": q, "entries": b.tolist()}
                     for b in basis],
           "complexified": complexified}
    if complexified:
        half = d // 2
        out["conjugation"] = np.diag(
            [1.0] * half + [-1.0] * half).tolist()
    return out


SPACES = {
    "m2": (M2_BASIS, False),
    "m2c": (M2C_BASIS, True),
    "l1min": (L1MIN_BASIS, False),
}


def level_norm(basis: np.ndarray, coeffs: np.ndarray) -> float:
    """Norm of the realization sum_k c_ijk B_k, placed blockwise."""
    n = coeffs.shape[0]
    _, p, q = basis.shape
    real = np.einsum("ijk,kpq->ipjq", coeffs, basis).reshape(n * p, n * q)
    return float(np.linalg.norm(real, 2))


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------

def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = WORKLOADS.index(workload)
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, tag])


def _quotient_cases(rng: np.random.Generator):
    """The 36 cases of a pass: (space, subspace coeffs, element, kind, pair).

    15 generic elements, 6 real/complexified pairs (12 requests) and 9
    elements inside the subspace, over levels 1-3.
    """
    cases = []
    pair = 0
    for level in (1, 2, 3):
        for name, dims in (("m2", (1, 2)), ("m2c", (1, 2)), ("l1min", (1,))):
            d = SPACES[name][0].shape[0]
            for k in dims:
                sub = rng.standard_normal((k, d))
                x = rng.standard_normal((level, level, d))
                cases.append((name, sub, x, "generic", None))
        for k in (1, 2):
            sub = rng.standard_normal((k, 4))
            x = rng.standard_normal((level, level, 4))
            sub_c = np.zeros((2 * k, 8))
            sub_c[:k, :4] = sub
            sub_c[k:, 4:] = sub
            x_c = np.concatenate([x, np.zeros_like(x)], axis=2)
            cases.append(("m2", sub, x, "pair", pair))
            cases.append(("m2c", sub_c, x_c, "pair", pair))
            pair += 1
        for name, k in (("m2", 2), ("m2c", 1), ("l1min", 1)):
            d = SPACES[name][0].shape[0]
            sub = rng.standard_normal((k, d))
            t = rng.standard_normal((level, level, k))
            cases.append((name, sub, np.einsum("ijl,lk->ijk", t, sub),
                          "inside", None))
    return cases


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)


def make_passes(workload: str, seed: int, workdir: str) -> list[list[Request]]:
    """The request lists of a run's passes; writes their input files
    under workdir.

    ``workdir`` should be a path relative to the working directory: it is
    echoed in every report, and reports are compared byte for byte.
    """
    base = ["--seed", str(seed), "--json"]
    if workload == "verify":
        return [[Request(base + ["verify", suite], "verify", {"suite": suite})
                 for suite in VERIFY_SUITES]]
    if workload == "reproduce":
        restarts = ["--restarts", str(REPRODUCE_RESTARTS)]
        return [[Request(base + ["reproduce", "l12-nonunique"] + restarts,
                         "l12"),
                 Request(base + ["reproduce", "complex-dual"] + restarts,
                         "dual")]]
    if workload != "quotient":
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(workdir, exist_ok=True)
    space_paths = {}
    for name, (basis, cplx) in SPACES.items():
        space_paths[name] = os.path.join(workdir, f"{name}.json")
        _write_json(space_paths[name], _space_json(basis, cplx))
    rng = _rng(seed, workload)
    passes = []
    idx = 0
    for _ in range(QUOTIENT_PASSES):
        requests = []
        for name, sub, x, kind, pair in _quotient_cases(rng):
            sub_path = os.path.join(workdir, f"q{idx:03d}-sub.json")
            elem_path = os.path.join(workdir, f"q{idx:03d}-elem.json")
            idx += 1
            _write_json(sub_path, {"coeffs": sub.tolist()})
            _write_json(elem_path, {"level": int(x.shape[0]),
                                    "coeffs": x.tolist()})
            expect = {"level_norm": level_norm(SPACES[name][0], x)}
            if pair is not None:
                expect["pair"] = pair
            requests.append(Request(
                base + ["quotient-norm", "--space", space_paths[name],
                        "--subspace", sub_path, "--elem", elem_path],
                kind, expect))
        passes.append(requests)
    return passes


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def check_report(req: Request, code: int, text: str) -> tuple[bool, str]:
    """(ok, reason) for one request's exit code and JSON report."""
    if code != 0:
        return False, f"exit code {code}"
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        return False, f"report is not JSON: {exc}"
    if rep.get("passed") is not True:
        return False, "report says passed != true"
    res = rep.get("result", {})
    if req.kind == "verify":
        bad = [row["name"] for rows in res.values() for row in rows
               if row.get("passed") is not True]
        if bad or list(res) != [req.expect["suite"]]:
            return False, f"failing rows {bad} over suites {sorted(res)}"
    elif req.kind == "l12":
        if not (res["max_lower"] >= 2.0 - 1e-6 and
                abs(res["min_norm"] - math.sqrt(2.0)) <= 1e-9):
            return False, (f"max_lower {res['max_lower']!r}, "
                           f"min_norm {res['min_norm']!r}")
    elif req.kind == "dual":
        if not abs(res["dual_lower_bound"] - 1.0) <= 1e-6:
            return False, f"dual_lower_bound {res['dual_lower_bound']!r}"
    else:
        value = res["value"]
        if res.get("converged") is not True:
            return False, "converged != true"
        bound = req.expect["level_norm"]
        if not value <= bound * (1.0 + 1e-12) + 1e-15:
            return False, f"value {value!r} exceeds level norm {bound!r}"
        if req.kind == "inside" and not value <= ZERO_TOL:
            return False, f"element inside the subspace has value {value!r}"
    return True, ""


def check_pairs(requests: list[Request], values: list) -> list[str]:
    """Real/complexified pairs must agree; returns one line per mismatch."""
    seen: dict[int, float] = {}
    bad = []
    for req, value in zip(requests, values):
        pair = req.expect.get("pair")
        if pair is None or value is None:
            continue
        if pair in seen and abs(seen[pair] - value) > PAIR_TOL:
            bad.append(f"pair {pair}: {seen[pair]!r} vs {value!r}")
        seen.setdefault(pair, value)
    return bad
