"""Command-line surface.

Subcommand style over JSON files; every report embeds the full
configuration (defaults included verbatim), so identical inputs and seed
produce byte-identical reports.  Exit codes: 0 pass/true, 1
refuted/false/assertion failed, 2 invalid input or inconclusive.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, is_dataclass

import numpy as np

from . import linalg, mideal, opspace, quantization, suites, systems
from .linalg import CLASSIFY_TOL, MEMBERSHIP_TOL
from .rng import DEFAULT_SEED

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

#: --tol defaults other than CLASSIFY_TOL; unitize and subtriple test at
#: these fixed values, which --tol does not change
TOL_DEFAULTS = {
    **dict.fromkeys(("multiplier-witness", "right-ideal", "shilov",
                     "tro-check", "unitize"), MEMBERSHIP_TOL),
    "brs-check": 1e-10,        # slack of norm(ab) <= norm(a) norm(b)
    "choi-effros": 1e-10,      # deviations of the re-product identities
    "quotient-norm": 1e-7,     # gap estimate of the convex solve
    "subtriple": 1e-10,        # rank cutoff relative to the top singular value
}


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _vector_arg(text: str):
    """A small JSON literal on the command line, or a path to a file."""
    text = text.strip()
    if text.startswith("[") or text.startswith("{"):
        return json.loads(text)
    return _load_json(text)


def _load_space(path: str) -> opspace.OpSpace:
    return opspace.opspace_from_json(_load_json(path))


def _load_algebra(path: str) -> systems.OpAlgebra:
    return systems.algebra_from_json(_load_json(path))


def _load_map(path: str, domain=None, codomain=None) -> opspace.CBMap:
    obj = _load_json(path)
    return opspace.cbmap_from_json(obj, domain=domain, codomain=codomain,
                                   base_dir=os.path.dirname(path) or ".")


def _tol(args) -> float:
    """--tol, or the command's default from TOL_DEFAULTS."""
    return TOL_DEFAULTS.get(args.command, CLASSIFY_TOL) if args.tol is None \
        else args.tol


def _report(args, command: str, result, passed: bool | None, extra_config=None):
    config = {
        "seed": args.seed,
        "tol": _tol(args),
        "output": "json" if args.json else "text",
    }
    if extra_config:
        config.update(extra_config)
    rep = {"command": command, "config": _jsonable(config),
           "result": _jsonable(result)}
    if passed is not None:
        rep["passed"] = bool(passed)
    return rep


def _emit(rep: dict, args) -> None:
    if args.json:
        sys.stdout.write(json.dumps(rep, sort_keys=True, indent=2) + "\n")
        return
    sys.stdout.write(f"command: {rep['command']}\n")
    for key, val in sorted(rep["config"].items()):
        sys.stdout.write(f"  config.{key} = {val}\n")
    _emit_tree(rep["result"], "result", out=sys.stdout)
    if "passed" in rep:
        sys.stdout.write("PASS\n" if rep["passed"] else "FAIL\n")


def _emit_tree(node, prefix, out) -> None:
    if isinstance(node, dict):
        for key in sorted(node):
            _emit_tree(node[key], f"{prefix}.{key}", out)
    elif isinstance(node, list) and node and isinstance(node[0], (dict, list)):
        for i, item in enumerate(node):
            _emit_tree(item, f"{prefix}[{i}]", out)
    else:
        out.write(f"{prefix}: {node}\n")


# ----------------------------------------------------------------------
# Handlers
# ----------------------------------------------------------------------

def _cmd_norm(args):
    if args.mat:
        m = linalg.mat_from_json(_load_json(args.mat))
        return _report(args, "norm", {"op_norm": linalg.op_norm(m)},
                       None, {"mat": args.mat}), EXIT_PASS
    if not (args.space and args.elem):
        raise ValueError("norm needs --mat, or --space with --elem")
    space = _load_space(args.space)
    x = opspace.elem_from_json(space, _load_json(args.elem))
    return _report(args, "norm",
                   {"level": x.level, "level_norm": opspace.level_norm(x)},
                   None, {"space": args.space, "elem": args.elem}), EXIT_PASS


def _cmd_complexify(args):
    space = _load_space(args.space)
    xc = opspace.complexify_space(space)
    result = {"space": opspace.opspace_to_json(xc), "dim": xc.dim}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(opspace.opspace_to_json(xc), fh, sort_keys=True,
                      indent=2)
        result["written_to"] = args.out
    return _report(args, "complexify", result, None,
                   {"space": args.space, "out": args.out}), EXIT_PASS


def _cmd_quantize_min(args):
    e = quantization.banach_from_json(_load_json(args.banach))
    xs = quantization.realize_min(e)
    result = {"space": opspace.opspace_to_json(xs),
              "dual_ball_vertices": e.representatives.shape[0] * 2}
    if args.elem:
        parsed = _vector_arg(args.elem)
        if isinstance(parsed, dict):
            parsed = parsed.get("coeffs", parsed)
        c = np.asarray(parsed, dtype=float)
        if c.ndim == 1:
            c = c.reshape(1, 1, -1)
        result["min_level_norm"] = quantization.min_level_norm(e, c)
        result["level"] = int(c.shape[0])
    return _report(args, "quantize-min", result, None,
                   {"banach": args.banach, "elem": args.elem}), EXIT_PASS


def _cmd_w2_norm(args):
    e = quantization.banach_from_json(_load_json(args.banach))
    x = np.asarray(_vector_arg(args.x), dtype=float)
    y = np.asarray(_vector_arg(args.y), dtype=float)
    val = quantization.w2_complex_norm(e, x, y)
    return _report(args, "w2-norm", {"w2_norm": val}, None,
                   {"banach": args.banach, "x": args.x, "y": args.y}), EXIT_PASS


def _cmd_max_l1(args):
    obj = _load_json(args.coeffs)
    if not isinstance(obj, dict) or "mats" not in obj:
        raise ValueError('coefficient file needs {"mats": [matrix, ...]}')
    mats = [linalg.mat_from_json(m) for m in obj["mats"]]
    res = quantization.max_l1_norm_bounds(mats, m_max=args.mmax,
                                          restarts=args.restarts,
                                          seed=args.seed)
    result = {"lower": res.lower, "upper": res.upper, "best_m": res.best_m,
              "witness": [w.tolist() for w in res.witness]}
    return _report(args, "max-l1", result, None,
                   {"coeffs": args.coeffs, "mmax": args.mmax,
                    "restarts": args.restarts}), EXIT_PASS


def _cmd_certify_mproj(args):
    space = _load_space(args.space)
    pobj = _load_json(args.proj)
    if not isinstance(pobj, dict) or "matrix" not in pobj:
        raise ValueError('projection JSON needs a "matrix"')
    proj = mideal.projection(space, np.asarray(pobj["matrix"], dtype=float))
    cert = mideal.certify_left_m_projection(
        proj, max_level=args.max_level, samples=args.samples,
        restarts=args.restarts, seed=args.seed, tol=_tol(args))
    code = {"certified": EXIT_PASS, "refuted": EXIT_FAIL}.get(cert.verdict,
                                                              EXIT_ERROR)
    return _report(args, "certify-mproj", cert, cert.certified,
                   {"space": args.space, "proj": args.proj,
                    "max_level": args.max_level, "samples": args.samples,
                    "restarts": args.restarts}), code


def _cmd_multiplier_witness(args):
    space = _load_space(args.space)
    u = _load_map(args.map, domain=space, codomain=space)
    a = linalg.mat_from_json(_load_json(args.a))
    ok = mideal.verify_multiplier_witness(space, u, a, tol=_tol(args))
    return _report(args, "multiplier-witness", {"is_witness": ok}, ok,
                   {"space": args.space, "map": args.map, "a": args.a}), \
        EXIT_PASS if ok else EXIT_FAIL


def _cmd_right_ideal(args):
    algebra = _load_algebra(args.algebra)
    sub = _load_json(args.subspace)
    coeffs = sub["coeffs"] if isinstance(sub, dict) else sub
    ok = mideal.is_right_ideal(algebra, np.asarray(coeffs, dtype=float),
                               tol=_tol(args))
    return _report(args, "right-ideal", {"is_right_ideal": ok}, ok,
                   {"algebra": args.algebra, "subspace": args.subspace}), \
        EXIT_PASS if ok else EXIT_FAIL


def _cmd_brs_check(args):
    algebra = _load_algebra(args.algebra)
    rep = systems.check_brs_level(algebra, level=args.level,
                                  samples=args.samples, seed=args.seed,
                                  tol=_tol(args))
    result = {"level": rep.level, "samples": rep.samples,
              "max_violation": rep.max_violation, "passed": rep.passed}
    return _report(args, "brs-check", result, rep.passed,
                   {"algebra": args.algebra, "level": args.level,
                    "samples": args.samples}), \
        EXIT_PASS if rep.passed else EXIT_FAIL


def _cmd_unitize(args):
    algebra = _load_algebra(args.algebra)
    before = algebra.dim
    unital = systems.unitize(algebra)
    result = {"dim_before": before, "dim_after": unital.dim,
              "algebra": systems.algebra_to_json(unital)}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(systems.algebra_to_json(unital), fh, sort_keys=True,
                      indent=2)
        result["written_to"] = args.out
    return _report(args, "unitize", result, None,
                   {"algebra": args.algebra, "out": args.out}), EXIT_PASS


def _cmd_paulsen(args):
    space = _load_space(args.space)
    ps = systems.build_paulsen_system(space)
    result = {"dim": ps.space.dim, "ambient_side": ps.space.ambient[0],
              "space": opspace.opspace_to_json(ps.space),
              "corners": {"lambda": ps.lam_index, "mu": ps.mu_index,
                          "upper": list(ps.upper_indices),
                          "lower": list(ps.lower_indices)}}
    return _report(args, "paulsen", result, None,
                   {"space": args.space}), EXIT_PASS


def _cmd_choi_effros(args):
    algebra = _load_algebra(args.algebra)
    pobj = _load_json(args.idempotent)
    phi = opspace.CBMap(algebra.space, algebra.space,
                        np.asarray(pobj["matrix"], dtype=float))
    rep = systems.choi_effros_product(algebra, phi, tol=_tol(args),
                                      seed=args.seed)
    if not rep.preconditions_ok:
        code = EXIT_ERROR
    else:
        code = EXIT_PASS if rep.passed else EXIT_FAIL
    return _report(args, "choi-effros", rep, rep.passed,
                   {"algebra": args.algebra,
                    "idempotent": args.idempotent}), code


def _cmd_tro_check(args):
    space = _load_space(args.space)
    rep = systems.tro_closure_report(space, tol=_tol(args))
    return _report(args, "tro-check", rep, rep.is_tro,
                   {"space": args.space}), \
        EXIT_PASS if rep.is_tro else EXIT_FAIL


def _cmd_subtriple(args):
    space = _load_space(args.space)
    sub = systems.generated_subtriple(space)
    result = {"dim": sub.dim, "space": opspace.opspace_to_json(sub)}
    return _report(args, "subtriple", result, None,
                   {"space": args.space}), EXIT_PASS


def _cmd_shilov(args):
    tro = systems.TROSpace(_load_space(args.tro))
    y = opspace.elem_from_json(tro.space, _load_json(args.y))
    z = opspace.elem_from_json(tro.space, _load_json(args.z))
    res = systems.shilov_inner_product(tro, y, z, tol=_tol(args))
    result = {"matrix": res.matrix.tolist(),
              "membership_residual": res.membership_residual,
              "in_span": res.in_span}
    return _report(args, "shilov", result, res.in_span,
                   {"tro": args.tro, "y": args.y, "z": args.z}), \
        EXIT_PASS if res.in_span else EXIT_FAIL


def _cmd_quotient_norm(args):
    space = _load_space(args.space)
    sub = _load_json(args.subspace)
    coeffs = sub["coeffs"] if isinstance(sub, dict) else sub
    x = opspace.elem_from_json(space, _load_json(args.elem))
    res = opspace.quotient_level_norm(space, np.asarray(coeffs, float), x,
                                      tol=_tol(args))
    result = {"value": res.value, "gap_estimate": res.gap,
              "converged": res.converged}
    return _report(args, "quotient-norm", result, res.converged,
                   {"space": args.space, "subspace": args.subspace,
                    "elem": args.elem}), \
        EXIT_PASS if res.converged else EXIT_ERROR


def _cmd_reproduce(args):
    if args.name == "l12-nonunique":
        rep = quantization.reproduce_l12_nonuniqueness(
            seed=args.seed, m_max=args.mmax, restarts=args.restarts)
        result = {"min_norm": rep.min_norm, "max_lower": rep.max_lower,
                  "max_upper": rep.max_upper, "gap": rep.gap,
                  "best_m": rep.best_m,
                  "witness": [w.tolist() for w in rep.witness],
                  "claim": rep.claim}
        ok = (rep.passed and abs(rep.min_norm - np.sqrt(2.0)) <= 1e-9 and
              rep.max_lower >= 2.0 - 1e-6 and
              abs(rep.max_upper - 2.0) <= 1e-12 and rep.gap >= 0.58)
        return _report(args, "reproduce l12-nonunique", result, ok,
                       {"name": args.name, "mmax": args.mmax,
                        "restarts": args.restarts}), \
            EXIT_PASS if ok else EXIT_FAIL
    if args.name == "complex-dual":
        scalars = opspace.span_space([[[1.0]]])
        x = opspace.elem(scalars, np.array([[[1.0], [0.0]],
                                            [[0.0], [0.0]]]))
        y = opspace.elem(scalars, np.array([[[0.0], [1.0]],
                                            [[0.0], [0.0]]]))
        cnorm = opspace.complexification_norm(scalars, x, y)
        search = opspace.theta_dual_search(
            [[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]],
            m_max=args.mmax, restarts=args.restarts, seed=args.seed)
        worst_restart = max(search.restart_values)
        ok = (abs(cnorm - np.sqrt(2.0)) <= 1e-9 and
              abs(search.lower - 1.0) <= 1e-6 and
              worst_restart <= 1.0 + 1e-6 and
              cnorm - search.lower >= 0.4)
        result = {"complexified_norm": cnorm,
                  "dual_lower_bound": search.lower,
                  "worst_restart": worst_restart,
                  "restarts_run": len(search.restart_values),
                  "best_m": search.best_m,
                  "gap": cnorm - search.lower,
                  "claim": ("passing to the real dual of the complex "
                            "scalars is isometric but not completely "
                            "isometric: the level-2 row [1, i] has norm "
                            "sqrt(2) while its dual image has norm 1")}
        return _report(args, "reproduce complex-dual", result, ok,
                       {"name": args.name, "mmax": args.mmax,
                        "restarts": args.restarts}), \
            EXIT_PASS if ok else EXIT_FAIL
    raise ValueError(f"unknown reproduction {args.name!r}; choose "
                     f"'l12-nonunique' or 'complex-dual'")


def _cmd_verify(args):
    projection_matrix = None
    if args.proj:
        pobj = _load_json(args.proj)
        projection_matrix = np.asarray(pobj["matrix"], dtype=float)
    if args.suite == "all":
        per_suite = suites.run_all(args.seed)
    else:
        per_suite = {args.suite: suites.run_suite(
            args.suite, args.seed, projection_matrix=projection_matrix)}
    result = {}
    all_pass = True
    for name, checks in per_suite.items():
        rows = []
        for c in checks:
            rows.append({"name": c.name, "deviation": c.deviation,
                         "tolerance": c.tolerance, "passed": c.passed,
                         "details": _jsonable(c.details)})
            all_pass &= c.passed
        result[name] = rows
    return _report(args, f"verify {args.suite}", result, all_pass,
                   {"suite": args.suite, "proj": args.proj}), \
        EXIT_PASS if all_pass else EXIT_FAIL


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

class _UsageError(Exception):
    """An argument error, raised where argparse would print and exit."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose errors reach ``run``, so that ``--json`` can
    report them as JSON; subcommand parsers inherit the class."""

    def error(self, message):
        raise _UsageError(self, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="realops",
        description="Desk-scale computations with real operator spaces: "
                    "matrix-level norms, complexification, minimal and "
                    "maximal quantizations, one-sided M-projection "
                    "certificates, operator systems and TRO machinery.")
    parser.add_argument("--seed", type=lambda v: int(v, 0),
                        default=DEFAULT_SEED,
                        help="64-bit master seed (default 0xC0FFEE)")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the command's default tolerance ("
                             + ", ".join(f"{cmd} {val:g}" for cmd, val in
                                         sorted(TOL_DEFAULTS.items()))
                             + f", any other command {CLASSIFY_TOL:g}; "
                               "unitize and subtriple keep theirs)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="operator norm of a matrix or element")
    p.add_argument("--mat")
    p.add_argument("--space")
    p.add_argument("--elem")

    p = sub.add_parser("complexify", help="complexify an operator space")
    p.add_argument("--space", required=True)
    p.add_argument("--out")

    p = sub.add_parser("quantize-min",
                       help="diagonal realization of the minimal structure")
    p.add_argument("--banach", required=True)
    p.add_argument("--elem", help="coefficient tensor (JSON literal or file)")

    p = sub.add_parser("w2-norm", help="circled complexification norm")
    p.add_argument("--banach", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = sub.add_parser("max-l1",
                       help="maximal-structure norm bracket over ell^1")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--mmax", type=int, default=4)
    p.add_argument("--restarts", type=int, default=64)

    p = sub.add_parser("certify-mproj",
                       help="certify or refute a complete left M-projection")
    p.add_argument("--space", required=True)
    p.add_argument("--proj", required=True)
    p.add_argument("--max-level", type=int, default=3)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--restarts", type=int, default=16)

    p = sub.add_parser("multiplier-witness",
                       help="check a left-multiplier witness matrix")
    p.add_argument("--space", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--a", required=True)

    p = sub.add_parser("right-ideal", help="right-ideal membership check")
    p.add_argument("--algebra", required=True)
    p.add_argument("--subspace", required=True)

    p = sub.add_parser("brs-check",
                       help="Banach-algebra check at a matrix level")
    p.add_argument("--algebra", required=True)
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--samples", type=int, default=100)

    p = sub.add_parser("unitize", help="adjoin the unit to an algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--out")

    p = sub.add_parser("paulsen", help="build the 2x2 corner system")
    p.add_argument("--space", required=True)

    p = sub.add_parser("choi-effros",
                       help="verify the re-product of an idempotent map")
    p.add_argument("--algebra", required=True)
    p.add_argument("--idempotent", required=True)

    p = sub.add_parser("tro-check", help="triple-closure check")
    p.add_argument("--space", required=True)

    p = sub.add_parser("subtriple", help="generated subtriple in the ambient")
    p.add_argument("--space", required=True)

    p = sub.add_parser("shilov", help="concrete inner product of a TRO")
    p.add_argument("--tro", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True)

    p = sub.add_parser("quotient-norm", help="distance to a subspace level")
    p.add_argument("--space", required=True)
    p.add_argument("--subspace", required=True)
    p.add_argument("--elem", required=True)

    p = sub.add_parser("reproduce",
                       help="rerun a bundled numeric counterexample")
    p.add_argument("name", choices=["l12-nonunique", "complex-dual"])
    p.add_argument("--mmax", type=int, default=4)
    p.add_argument("--restarts", type=int, default=64)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("suite", choices=["all", "linalg", "opspace",
                                     "quantization", "mideal", "systems"])
    p.add_argument("--proj",
                   help="optional projection file for the mideal suite")
    return parser


HANDLERS = {
    "norm": _cmd_norm,
    "complexify": _cmd_complexify,
    "quantize-min": _cmd_quantize_min,
    "w2-norm": _cmd_w2_norm,
    "max-l1": _cmd_max_l1,
    "certify-mproj": _cmd_certify_mproj,
    "multiplier-witness": _cmd_multiplier_witness,
    "right-ideal": _cmd_right_ideal,
    "brs-check": _cmd_brs_check,
    "unitize": _cmd_unitize,
    "paulsen": _cmd_paulsen,
    "choi-effros": _cmd_choi_effros,
    "tro-check": _cmd_tro_check,
    "subtriple": _cmd_subtriple,
    "shilov": _cmd_shilov,
    "quotient-norm": _cmd_quotient_norm,
    "reproduce": _cmd_reproduce,
    "verify": _cmd_verify,
}


def _emit_error(args, message: str) -> None:
    if args.json:
        err = {"command": args.command, "error": message,
               "config": _jsonable({"seed": args.seed,
                                    "tol": _tol(args),
                                    "output": "json"})}
        sys.stdout.write(json.dumps(err, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(f"error: {message}\n")


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    # parsed into a namespace of our own, so that an argument error still
    # knows the options read before it
    args = argparse.Namespace()
    try:
        parser.parse_args(argv, namespace=args)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    except _UsageError as exc:
        if args.json or "--json" in argv:
            args.json = True
            _emit_error(args, str(exc))
        else:
            exc.parser.print_usage(sys.stderr)
            sys.stderr.write(f"{exc.parser.prog}: error: {exc}\n")
        return EXIT_ERROR
    try:
        rep, code = HANDLERS[args.command](args)
    except (ValueError, TypeError, KeyError, OSError, OverflowError,
            json.JSONDecodeError) as exc:
        _emit_error(args, str(exc))
        return EXIT_ERROR
    _emit(rep, args)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
