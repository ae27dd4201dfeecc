"""Command-line surface.

Subcommand style over JSON files.  Each handler returns ``(result,
code)``, and ``run`` assembles every report from it: ``command``, then
``config`` with seed, tol and output followed by every option of the
parsed subcommand (defaults and unset options included verbatim), then
``result``.  Identical inputs and seed produce byte-identical reports.
Exit codes: 0 pass/true, 1 refuted/false/assertion failed, 2 invalid
input or inconclusive.  A command that gives a verdict also reports
``passed``, true exactly when it exits 0; the others exit 0 and carry no
``passed``.
"""

from __future__ import annotations

import argparse
import functools
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

#: --tol defaults other than CLASSIFY_TOL
TOL_DEFAULTS = {
    **dict.fromkeys(("multiplier-witness", "right-ideal", "shilov",
                     "tro-check", "unitize"), MEMBERSHIP_TOL),
    "brs-check": 1e-10,        # slack of norm(ab) <= norm(a) norm(b)
    "choi-effros": 1e-10,      # deviations of the re-product identities
    "quotient-norm": 1e-7,     # certified gap of the convex solve
    "subtriple": 1e-10,        # rank cutoff relative to the top singular value
}

#: options of the main parser; every other parsed option is the subcommand's
GLOBAL_OPTIONS = ("command", "seed", "tol", "json")

#: commands whose report name carries their positional argument
NAMED_BY = {"reproduce": "name", "verify": "suite"}


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


#: distinct space files whose parsed spaces one process keeps
SPACE_MEMO_SIZE = 8


@functools.lru_cache(maxsize=SPACE_MEMO_SIZE)
def _space_from_text(text: str) -> opspace.OpSpace:
    """The validated space of a file's text.  Spaces are frozen, so equal
    text gets one space object, with the derived matrices it memoizes; an
    invalid text raises again on every call, as exceptions are not
    cached."""
    return opspace.opspace_from_json(json.loads(text))


def _load_space(path: str) -> opspace.OpSpace:
    with open(path) as fh:
        return _space_from_text(fh.read())


def _load_algebra(path: str) -> systems.OpAlgebra:
    return systems.algebra_from_json(_load_json(path))


def _load_map(path: str, domain=None, codomain=None) -> opspace.CBMap:
    obj = _load_json(path)
    return opspace.cbmap_from_json(obj, domain=domain, codomain=codomain,
                                   base_dir=os.path.dirname(path) or ".")


def _load_matrix(path: str) -> np.ndarray:
    """The coefficient matrix of a projection or idempotent map file."""
    obj = _load_json(path)
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise ValueError('projection JSON needs a "matrix"')
    return np.asarray(obj["matrix"], dtype=float)


def _coeffs(obj) -> np.ndarray:
    """Coefficients given as {"coeffs": [...]} or as the bare list."""
    if isinstance(obj, dict):
        if "coeffs" not in obj:
            raise ValueError('coefficient JSON needs "coeffs"')
        obj = obj["coeffs"]
    return np.asarray(obj, dtype=float)


def _write_out(args, result: dict, key: str) -> dict:
    """Write ``result[key]`` to ``--out``, when given, and record where."""
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result[key], fh, sort_keys=True, indent=2)
        result["written_to"] = args.out
    return result


def _tol(args) -> float:
    """--tol, or the command's default from TOL_DEFAULTS."""
    return TOL_DEFAULTS.get(args.command, CLASSIFY_TOL) if args.tol is None \
        else args.tol


def _verdict(ok) -> int:
    return EXIT_PASS if ok else EXIT_FAIL


def _config(args) -> dict:
    """seed, tol and output, then every option of the parsed subcommand."""
    config = {"seed": args.seed, "tol": _tol(args),
              "output": "json" if args.json else "text"}
    config.update((key, val) for key, val in vars(args).items()
                  if key not in GLOBAL_OPTIONS)
    return _jsonable(config)


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
# Handlers: each returns (result, exit code), the code None when the
# command gives no verdict
# ----------------------------------------------------------------------

def _cmd_norm(args):
    if args.mat:
        m = linalg.mat_from_json(_load_json(args.mat))
        return {"op_norm": linalg.op_norm(m)}, None
    if not (args.space and args.elem):
        raise ValueError("norm needs --mat, or --space with --elem")
    space = _load_space(args.space)
    x = opspace.elem_from_json(space, _load_json(args.elem))
    return {"level": x.level, "level_norm": opspace.level_norm(x)}, None


def _cmd_complexify(args):
    xc = opspace.complexify_space(_load_space(args.space))
    result = {"space": opspace.opspace_to_json(xc), "dim": xc.dim}
    return _write_out(args, result, "space"), None


def _cmd_quantize_min(args):
    e = quantization.banach_from_json(_load_json(args.banach))
    xs = quantization.realize_min(e)
    result = {"space": opspace.opspace_to_json(xs),
              "dual_ball_vertices": e.representatives.shape[0] * 2}
    if args.elem:
        c = _coeffs(_vector_arg(args.elem))
        if c.ndim == 1:
            c = c.reshape(1, 1, -1)
        result["min_level_norm"] = quantization.min_level_norm(e, c)
        result["level"] = int(c.shape[0])
    return result, None


def _cmd_w2_norm(args):
    e = quantization.banach_from_json(_load_json(args.banach))
    x = np.asarray(_vector_arg(args.x), dtype=float)
    y = np.asarray(_vector_arg(args.y), dtype=float)
    return {"w2_norm": quantization.w2_complex_norm(e, x, y)}, None


def _cmd_max_l1(args):
    obj = _load_json(args.coeffs)
    if not isinstance(obj, dict) or "mats" not in obj:
        raise ValueError('coefficient file needs {"mats": [matrix, ...]}')
    mats = [linalg.mat_from_json(m) for m in obj["mats"]]
    res = quantization.max_l1_norm_bounds(mats, m_max=args.mmax,
                                          restarts=args.restarts,
                                          seed=args.seed)
    return {"lower": res.lower, "upper": res.upper, "best_m": res.best_m,
            "witness": res.witness,
            "sdp_iterations": res.sdp_iterations,
            "search_rounds": res.search_rounds}, None


def _cmd_certify_mproj(args):
    space = _load_space(args.space)
    proj = mideal.projection(space, _load_matrix(args.proj))
    cert = mideal.certify_left_m_projection(
        proj, max_level=args.max_level, samples=args.samples,
        restarts=args.restarts, seed=args.seed, tol=_tol(args))
    return cert, _verdict(cert.certified)


def _cmd_multiplier_witness(args):
    space = _load_space(args.space)
    u = _load_map(args.map, domain=space, codomain=space)
    a = linalg.mat_from_json(_load_json(args.a))
    ok = mideal.verify_multiplier_witness(space, u, a, tol=_tol(args))
    return {"is_witness": ok}, _verdict(ok)


def _cmd_right_ideal(args):
    algebra = _load_algebra(args.algebra)
    ok = mideal.is_right_ideal(algebra, _coeffs(_load_json(args.subspace)),
                               tol=_tol(args))
    return {"is_right_ideal": ok}, _verdict(ok)


def _cmd_brs_check(args):
    algebra = _load_algebra(args.algebra)
    rep = systems.check_brs_level(algebra, level=args.level,
                                  samples=args.samples, seed=args.seed,
                                  tol=_tol(args))
    return {"level": rep.level, "samples": rep.samples,
            "max_violation": rep.max_violation, "passed": rep.passed}, \
        _verdict(rep.passed)


def _cmd_unitize(args):
    algebra = _load_algebra(args.algebra)
    unital = systems.unitize(algebra, tol=_tol(args))
    result = {"dim_before": algebra.dim, "dim_after": unital.dim,
              "algebra": systems.algebra_to_json(unital)}
    return _write_out(args, result, "algebra"), None


def _cmd_paulsen(args):
    ps = systems.build_paulsen_system(_load_space(args.space))
    return {"dim": ps.space.dim, "ambient_side": ps.space.ambient[0],
            "space": opspace.opspace_to_json(ps.space),
            "corners": {"lambda": ps.lam_index, "mu": ps.mu_index,
                        "upper": ps.upper_indices,
                        "lower": ps.lower_indices}}, None


def _cmd_choi_effros(args):
    algebra = _load_algebra(args.algebra)
    phi = opspace.CBMap(algebra.space, algebra.space,
                        _load_matrix(args.idempotent))
    rep = systems.choi_effros_product(algebra, phi, tol=_tol(args),
                                      seed=args.seed)
    return rep, _verdict(rep.passed) if rep.preconditions_ok else EXIT_ERROR


def _cmd_tro_check(args):
    rep = systems.tro_closure_report(_load_space(args.space), tol=_tol(args))
    return rep, _verdict(rep.is_tro)


def _cmd_subtriple(args):
    sub = systems.generated_subtriple(_load_space(args.space), tol=_tol(args))
    return {"dim": sub.dim, "space": opspace.opspace_to_json(sub)}, None


def _cmd_shilov(args):
    tro = systems.TROSpace(_load_space(args.tro))
    y = opspace.elem_from_json(tro.space, _load_json(args.y))
    z = opspace.elem_from_json(tro.space, _load_json(args.z))
    res = systems.shilov_inner_product(tro, y, z, tol=_tol(args))
    return {"matrix": res.matrix,
            "membership_residual": res.membership_residual,
            "in_span": res.in_span}, _verdict(res.in_span)


def _cmd_quotient_norm(args):
    space = _load_space(args.space)
    coeffs = _coeffs(_load_json(args.subspace))
    x = opspace.elem_from_json(space, _load_json(args.elem))
    res = opspace.quotient_level_norm(space, coeffs, x, tol=_tol(args))
    return {"value": res.value, "lower": res.lower, "gap_estimate": res.gap,
            "converged": res.converged, "iterations": res.iterations}, \
        EXIT_PASS if res.converged else EXIT_ERROR


def _cmd_reproduce(args):
    if args.name == "l12-nonunique":
        rep = quantization.reproduce_l12_nonuniqueness(
            seed=args.seed, m_max=args.mmax, restarts=args.restarts)
        ok = (rep.passed and abs(rep.min_norm - np.sqrt(2.0)) <= 1e-9 and
              rep.max_lower >= 2.0 - 1e-6 and
              abs(rep.max_upper - 2.0) <= 1e-12 and rep.gap >= 0.58)
        return {"min_norm": rep.min_norm, "max_lower": rep.max_lower,
                "max_upper": rep.max_upper, "gap": rep.gap,
                "best_m": rep.best_m, "witness": rep.witness,
                "sdp_iterations": rep.sdp_iterations,
                "search_rounds": rep.search_rounds,
                "claim": rep.claim}, _verdict(ok)
    scalars = opspace.span_space([[[1.0]]])
    x = opspace.elem(scalars, np.array([[[1.0], [0.0]], [[0.0], [0.0]]]))
    y = opspace.elem(scalars, np.array([[[0.0], [1.0]], [[0.0], [0.0]]]))
    cnorm = opspace.complexification_norm(scalars, x, y)
    search = opspace.theta_dual_search(
        [[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]],
        m_max=args.mmax, restarts=args.restarts, seed=args.seed)
    worst_restart = max(search.restart_values)
    ok = (abs(cnorm - np.sqrt(2.0)) <= 1e-9 and
          abs(search.lower - 1.0) <= 1e-6 and
          worst_restart <= 1.0 + 1e-6 and
          cnorm - search.lower >= 0.4)
    return {"complexified_norm": cnorm,
            "dual_lower_bound": search.lower,
            "worst_restart": worst_restart,
            "restarts_run": len(search.restart_values),
            "best_m": search.best_m,
            "gap": cnorm - search.lower,
            "claim": ("passing to the real dual of the complex scalars is "
                      "isometric but not completely isometric: the level-2 "
                      "row [1, i] has norm sqrt(2) while its dual image has "
                      "norm 1")}, _verdict(ok)


def _cmd_verify(args):
    projection_matrix = _load_matrix(args.proj) if args.proj else None
    if args.suite == "all":
        per_suite = suites.run_all(args.seed)
    else:
        per_suite = {args.suite: suites.run_suite(
            args.suite, args.seed, projection_matrix=projection_matrix)}
    result = {name: [{"name": c.name, "deviation": c.deviation,
                      "tolerance": c.tolerance, "passed": c.passed,
                      "details": c.details} for c in checks]
              for name, checks in per_suite.items()}
    return result, _verdict(all(c.passed for checks in per_suite.values()
                                for c in checks))


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


def _tolerance(text: str) -> float:
    """A --tol value, a finite number >= 0: against a NaN, infinite or
    negative tolerance every check would pass vacuously or never."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}")
    if not (np.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be a finite number >= 0, got {text!r}")
    return tol


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs
    about forty times as much as a parse, and parsing leaves it unchanged."""
    parser = _Parser(
        prog="realops",
        description="Desk-scale computations with real operator spaces: "
                    "matrix-level norms, complexification, minimal and "
                    "maximal quantizations, one-sided M-projection "
                    "certificates, operator systems and TRO machinery.")
    parser.add_argument("--seed", type=lambda v: int(v, 0),
                        default=DEFAULT_SEED,
                        help="64-bit master seed (default 0xC0FFEE)")
    parser.add_argument("--tol", type=_tolerance, default=None,
                        help="override the command's default tolerance ("
                             + ", ".join(f"{cmd} {val:g}" for cmd, val in
                                         sorted(TOL_DEFAULTS.items()))
                             + f", any other command {CLASSIFY_TOL:g})")
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
    p.add_argument("--mmax", type=int, default=4,
                   help="largest test size tried, capped at n")
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
    p.add_argument("--mmax", type=int, default=4,
                   help="largest test size tried, capped at n")
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
        result, code = HANDLERS[args.command](args)
    except (ValueError, TypeError, KeyError, OSError, OverflowError,
            json.JSONDecodeError) as exc:
        _emit_error(args, str(exc))
        return EXIT_ERROR
    command = args.command
    if command in NAMED_BY:
        command += " " + getattr(args, NAMED_BY[command])
    rep = {"command": command, "config": _config(args),
           "result": _jsonable(result)}
    if code is not None:
        rep["passed"] = code == EXIT_PASS
    _emit(rep, args)
    return EXIT_PASS if code is None else code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
