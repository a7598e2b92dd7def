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


# Flags; each subcommand takes --out plus the ones it reads.
FLAGS = {
    "--seed": dict(type=int, default=0),
    "--trials": dict(type=int, default=300),
    "--head": dict(type=int, default=24),
    "--period": dict(type=int, default=3),
    "--tol": dict(type=float, default=None),
    "--out": dict(default=None, help="write output here instead of stdout"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--trace": dict(action="store_true"),
    "--kind": dict(choices=("diagonal", "compact"), default="diagonal"),
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


def cmd_autos_stampfli(args):
    a = _read_operator(args.operator)
    tol = args.tol if args.tol is not None else 1e-8
    _emit(args, autos.stampfli_derivation_norm(a, tol=tol).to_obj())
    return 0


def cmd_autos_normal_form(args):
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


def _read_projections(args):
    return (ModelProjection(_read_operator(args.operator)),
            ModelProjection(_read_operator(args.second)))


def cmd_proj_index(args):
    p, q = _read_projections(args)
    _emit(args, {"index": projections.pair_index(p, q)})
    return 0


def cmd_proj_classify(args):
    p = ModelProjection(_read_operator(args.operator))
    _emit(args, projections.classify_component(p).to_obj())
    return 0


def cmd_proj_geodesic(args):
    p, q = _read_projections(args)
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


def cmd_topo_section(args):
    u = _read_operator(args.operator)
    d, v = topology.bundle_section(u)
    payload = {
        "diagonal": _diag_to_obj(d),
        "fiber_factor": operator_to_obj(v, normalized=False),
        "residual": operator_norm(d.to_operator() @ v - u),
    }
    _emit(args, payload)
    return 0


def cmd_topo_winding(args):
    samples = _field(_read_json(args.operator), "samples", list, "winding input")
    loop = topology.UnitaryLoop([operator_from_obj(o) for o in samples])
    if args.kind == "diagonal":
        head_w, tail_w = topology.loop_winding(loop, "diagonal")
        payload = {"head": head_w.tolist(), "tail": tail_w.tolist()}
    else:
        payload = {"det": topology.loop_winding(loop, "compact")}
    _emit(args, payload)
    return 0


def cmd_topo_k0(args):
    p = ModelProjection(_read_operator(args.operator))
    _emit(args, topology.k0_class(p).to_obj())
    return 0


def _add_command(sub, name, func, help=None, operands=("operator",), flags=()):
    """Subcommand ``name`` running ``func``, with its operand files and the
    shared flags it reads."""
    parser = sub.add_parser(name, help=help)
    for operand in operands:
        parser.add_argument(operand, help="JSON file, or - for stdin")
    _add_flags(parser, *flags)
    parser.set_defaults(func=func)
    return parser


# Commands with one nested subcommand per action, each given as
# (action, function, operand files, flags it reads).
ACTIONS = (
    ("autos", "automorphism machinery", [
        ("stampfli", cmd_autos_stampfli, ("operator",), ("--tol",)),
        ("normal-form", cmd_autos_normal_form, ("operator",), ()),
    ]),
    ("proj", "projection geometry", [
        ("index", cmd_proj_index, ("operator", "second"), ()),
        ("classify", cmd_proj_classify, ("operator",), ()),
        ("geodesic", cmd_proj_geodesic, ("operator", "second"), ()),
    ]),
    ("topo", "bundle section, winding, projection class", [
        ("section", cmd_topo_section, ("operator",), ()),
        ("winding", cmd_topo_winding, ("operator",), ("--kind",)),
        ("k0", cmd_topo_k0, ("operator",), ()),
    ]),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dpk",
        description="Exactly computable model of diagonal-plus-compact operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_gen = _add_command(sub, "gen", cmd_gen, "generate a seeded instance", (),
                         ("--seed", "--head", "--period"))
    p_gen.add_argument("kind", choices=KINDS)
    p_gen.add_argument("--trial", type=int, default=0)
    p_verify = _add_command(sub, "verify", cmd_verify, "run a verification suite", (),
                            ("--seed", "--head", "--period", "--trials", "--format", "--no-meta"))
    p_verify.add_argument("--suite", required=True, choices=sorted(SUITES))
    _add_command(sub, "fredholm", cmd_fredholm, "Fredholm data of an operator")
    _add_command(sub, "factor-unitary", cmd_factor_unitary,
                 "diagonal times exponential factorization")
    _add_command(sub, "porta-recht", cmd_porta_recht, "positive factorization D^1/2 e^Z D^1/2",
                 flags=("--tol", "--trace"))
    _add_command(sub, "quotient", cmd_quotient, "quotient class of a member")
    p_char = _add_command(sub, "character", cmd_character, "residue character evaluation")
    p_char.add_argument("--residue", type=int, required=True)
    for name, help, actions in ACTIONS:
        nested = sub.add_parser(name, help=help).add_subparsers(dest="action", required=True)
        for action, func, operands, flags in actions:
            _add_command(nested, action, func, None, operands, flags)
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
