"""Command-line shell: instance generation, verification suites, and the
per-module computations, all speaking the JSON operator format.
"""

import argparse
import json
import sys

import numpy as np

from . import autos, factor, fredholm, projections, quotient, topology
from .core import Diagonal, operator_norm
from .errors import DpkError, NoConvergence
from .generate import KINDS, ExperimentConfig, generate
from .projections import ModelProjection
from .errors import IoError
from .serial import (
    canonical_dumps,
    functional_to_obj,
    load_operator,
    operator_from_obj,
    operator_to_obj,
)
from .suites import SUITES, run_suite


def _diag_to_obj(d):
    return {
        "head": [[float(z.real), float(z.imag)] for z in np.asarray(d.head_entries)],
        "tail": [[float(z.real), float(z.imag)] for z in np.asarray(d.tail_pattern)],
    }


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _read_operator(path):
    return load_operator(_read_text(path))


def _read_json(path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise IoError(f"invalid JSON in {path}: {exc}") from exc


def _field(obj, key, kind, what):
    """obj[key], which must be of the given type (IoError otherwise)."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind):
        raise IoError(f"{what} needs a {kind.__name__} field {key!r}")
    return value


def _entries(obj, key, what):
    try:
        return [complex(re, im) for re, im in _field(obj, key, list, what)]
    except (TypeError, ValueError) as exc:
        raise IoError(f"{what}: {key!r} must be a list of [re, im] pairs") from exc


def _perm(obj, key, what):
    values = _field(obj, key, list, what)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise IoError(f"{what}: {key!r} must be a list of integers")
    return values


def _generator_from_obj(item, k):
    """One generator of an ``autos normal-form`` input file."""
    what = f"generator {k}"
    kind = _field(item, "kind", str, what)
    if kind == "diagonal":
        return Diagonal(_entries(item, "head", what), _entries(item, "tail", what))
    if kind == "exponent":
        return operator_from_obj(_field(item, "operator", dict, what))
    if kind == "permutation":
        return autos.PermutationSpec(_perm(item, "head_perm", what), _perm(item, "tail_perm", what))
    raise IoError(f"{what}: unknown kind {kind!r}")


def _emit(args, payload, csv_text=None):
    if csv_text is not None and args.format == "csv":
        text = csv_text
    else:
        text = canonical_dumps(payload) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise IoError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _config_from_args(args, **extra):
    return ExperimentConfig(seed=args.seed, head_size=args.head, period=args.period, **extra)


# Shared flags; each subcommand takes --out plus the ones it reads.
FLAGS = {
    "--seed": dict(type=int, default=0),
    "--trials": dict(type=int, default=300),
    "--head": dict(type=int, default=24),
    "--period": dict(type=int, default=3),
    "--tol": dict(type=float, default=None),
    "--out": dict(default=None, help="write output here instead of stdout"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--trace": dict(action="store_true"),
    "--no-meta": dict(action="store_true", dest="no_meta",
                      help="omit wall-time metadata so reruns are byte-identical"),
}


def _add_flags(parser, *flags):
    for flag in ("--out",) + flags:
        parser.add_argument(flag, **FLAGS[flag])


def cmd_gen(args):
    config = _config_from_args(args)
    instance = generate(config, args.kind, trial=args.trial)
    if args.kind == "projection":
        payload = operator_to_obj(instance.op, normalized=False)
    elif args.kind == "permutation":
        payload = {
            "head_perm": instance.head_perm.tolist(),
            "tail_perm": instance.tail_perm.tolist(),
        }
    elif args.kind == "functional":
        payload = functional_to_obj(instance)
    else:
        payload = operator_to_obj(instance, normalized=False)
    _emit(args, payload)
    return 0


def cmd_verify(args):
    config = _config_from_args(args, trials=args.trials, suite=args.suite)
    report = run_suite(config)
    _emit(
        args,
        report.to_obj(no_meta=args.no_meta),
        csv_text=report.to_csv(no_meta=args.no_meta),
    )
    return 0 if report.failures == 0 else 1


def cmd_fredholm(args):
    t = _read_operator(args.operator)
    _emit(args, fredholm.fredholm_data(t).to_obj())
    return 0


def cmd_factor_unitary(args):
    u = _read_operator(args.operator)
    fac = factor.unitary_factorize(u)
    payload = {
        "diagonal_unitary": _diag_to_obj(fac.diagonal_unitary),
        "exponent": operator_to_obj(fac.exponent, normalized=False),
        "reconstruction_residual": operator_norm(fac.reconstruct() - u),
    }
    _emit(args, payload)
    return 0


def cmd_porta_recht(args):
    a = _read_operator(args.operator)
    tol = args.tol if args.tol is not None else 1e-10
    try:
        fac = factor.porta_recht(a, tol=tol, keep_trace=args.trace)
    except NoConvergence as exc:
        _emit(args, {
            "error": "NoConvergence",
            "iterations": exc.iterations,
            "residual": exc.residual,
        })
        return 1
    payload = {
        "diagonal": _diag_to_obj(fac.diagonal),
        "exponent": operator_to_obj(fac.exponent, normalized=False),
        "iterations": fac.iterations,
        "residual": fac.residual,
        "reconstruction_residual": operator_norm(fac.reconstruct() - a),
    }
    if args.trace:
        payload["trace"] = [
            {"iteration": it, "residual": res, "step": alpha}
            for it, res, alpha in fac.trace
        ]
    _emit(args, payload)
    return 0


def cmd_quotient(args):
    t = _read_operator(args.operator)
    q = quotient.quotient_class(t)
    payload = {
        "period": q.p,
        "values": [[float(z.real), float(z.imag)] for z in q.values],
        "norm": q.norm,
    }
    _emit(args, payload)
    return 0


def cmd_character(args):
    t = _read_operator(args.operator)
    value = quotient.character_eval(t, args.residue)
    _emit(args, {"residue": args.residue, "value": [value.real, value.imag]})
    return 0


def cmd_autos(args):
    if args.action == "stampfli":
        a = _read_operator(args.operator)
        tol = args.tol if args.tol is not None else 1e-8
        _emit(args, {"derivation_norm": autos.stampfli_derivation_norm(a, tol=tol)})
        return 0
    if args.action == "normal-form":
        items = _field(_read_json(args.operator), "generators", list, "normal-form input")
        word = autos.normal_form([_generator_from_obj(item, k) for k, item in enumerate(items)])
        payload = {
            "w": _diag_to_obj(word.w),
            "exponent": operator_to_obj(word.exponent, normalized=False),
            "sigma": {
                "head_perm": word.sigma.head_perm.tolist(),
                "tail_perm": word.sigma.tail_perm.tolist(),
            },
        }
        _emit(args, payload)
        return 0
    raise DpkError(f"unknown autos action {args.action!r}")


def cmd_proj(args):
    if args.action == "index":
        p = ModelProjection(_read_operator(args.operator))
        q = ModelProjection(_read_operator(args.second))
        _emit(args, {"index": projections.pair_index(p, q)})
        return 0
    if args.action == "classify":
        p = ModelProjection(_read_operator(args.operator))
        _emit(args, projections.classify_component(p).to_obj())
        return 0
    if args.action == "geodesic":
        p = ModelProjection(_read_operator(args.operator))
        q = ModelProjection(_read_operator(args.second))
        geo = projections.minimal_geodesic(p, q)
        gap = operator_norm(p.op - q.op)
        payload = {
            "exponent": operator_to_obj(geo.exponent, normalized=False),
            "length": geo.length,
            "gap": gap,
            "arcsin_residual": abs(geo.length - float(np.arcsin(min(gap, 1.0)))),
        }
        _emit(args, payload)
        return 0
    raise DpkError(f"unknown proj action {args.action!r}")


def cmd_topo(args):
    if args.action == "section":
        u = _read_operator(args.operator)
        d, v = topology.bundle_section(u)
        payload = {
            "diagonal": _diag_to_obj(d),
            "fiber_factor": operator_to_obj(v, normalized=False),
            "residual": operator_norm(d.to_operator() @ v - u),
        }
        _emit(args, payload)
        return 0
    if args.action == "winding":
        samples = _field(_read_json(args.operator), "samples", list, "winding input")
        loop = topology.UnitaryLoop([operator_from_obj(o) for o in samples])
        if args.kind == "diagonal":
            head_w, tail_w = topology.loop_winding(loop, "diagonal")
            payload = {"head": head_w.tolist(), "tail": tail_w.tolist()}
        else:
            payload = {"det": topology.loop_winding(loop, "compact")}
        _emit(args, payload)
        return 0
    if args.action == "k0":
        p = ModelProjection(_read_operator(args.operator))
        _emit(args, topology.k0_class(p).to_obj())
        return 0
    raise DpkError(f"unknown topo action {args.action!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dpk",
        description="Exactly computable model of diagonal-plus-compact operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a seeded instance")
    p_gen.add_argument("kind", choices=KINDS)
    p_gen.add_argument("--trial", type=int, default=0)
    _add_flags(p_gen, "--seed", "--head", "--period")
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(SUITES))
    _add_flags(p_verify, "--seed", "--head", "--period", "--trials", "--format", "--no-meta")
    p_verify.set_defaults(func=cmd_verify)

    p_fred = sub.add_parser("fredholm", help="Fredholm data of an operator")
    p_fred.add_argument("operator", help="operator JSON file, or - for stdin")
    _add_flags(p_fred)
    p_fred.set_defaults(func=cmd_fredholm)

    p_fu = sub.add_parser("factor-unitary", help="diagonal times exponential factorization")
    p_fu.add_argument("operator")
    _add_flags(p_fu)
    p_fu.set_defaults(func=cmd_factor_unitary)

    p_pr = sub.add_parser("porta-recht", help="positive factorization D^1/2 e^Z D^1/2")
    p_pr.add_argument("operator")
    _add_flags(p_pr, "--tol", "--trace")
    p_pr.set_defaults(func=cmd_porta_recht)

    p_q = sub.add_parser("quotient", help="quotient class of a member")
    p_q.add_argument("operator")
    _add_flags(p_q)
    p_q.set_defaults(func=cmd_quotient)

    p_c = sub.add_parser("character", help="residue character evaluation")
    p_c.add_argument("operator")
    p_c.add_argument("--residue", type=int, required=True)
    _add_flags(p_c)
    p_c.set_defaults(func=cmd_character)

    p_a = sub.add_parser("autos", help="automorphism machinery")
    p_a.add_argument("action", choices=("stampfli", "normal-form"))
    p_a.add_argument("operator", help="operator or generator-list JSON")
    _add_flags(p_a, "--tol")
    p_a.set_defaults(func=cmd_autos)

    p_p = sub.add_parser("proj", help="projection geometry")
    p_p.add_argument("action", choices=("index", "classify", "geodesic"))
    p_p.add_argument("operator")
    p_p.add_argument("second", nargs="?", default=None)
    _add_flags(p_p)
    p_p.set_defaults(func=cmd_proj)

    p_t = sub.add_parser("topo", help="bundle section, winding, projection class")
    p_t.add_argument("action", choices=("section", "winding", "k0"))
    p_t.add_argument("operator")
    p_t.add_argument("--kind", choices=("diagonal", "compact"), default="diagonal")
    _add_flags(p_t)
    p_t.set_defaults(func=cmd_topo)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DpkError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
