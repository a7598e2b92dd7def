"""JSON encoding of model values.

Operator format::

    {"m": int, "p": int, "head": [[[re, im], ...], ...], "tail": [[...]]}

The writer emits the canonically normalized representation; the reader
validates the grid invariant and entry finiteness.  Positive functionals are
encoded as ``{"A": matrix, "w": [reals]}``.
"""

import json

import numpy as np

from .core import EopOperator
from .errors import IoError


def _matrix_to_obj(a):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(a)]


def _matrix_from_obj(obj, what):
    try:
        rows = [[complex(re, im) for re, im in row] for row in obj]
    except (TypeError, ValueError) as exc:
        raise IoError(f"malformed {what} matrix") from exc
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise IoError(f"{what} matrix is not square")
    return np.array(rows, dtype=np.complex128).reshape(n, n)


def operator_to_obj(t, normalized=True):
    if normalized:
        t = t.normalize()
    return {
        "m": t.m,
        "p": t.p,
        "head": _matrix_to_obj(t.head),
        "tail": _matrix_to_obj(t.tail),
    }


def operator_from_obj(obj):
    if not isinstance(obj, dict) or "head" not in obj or "tail" not in obj:
        raise IoError("operator object must carry 'head' and 'tail'")
    head = _matrix_from_obj(obj["head"], "head")
    tail = _matrix_from_obj(obj["tail"], "tail")
    t = EopOperator(head, tail)
    try:
        m, p = int(obj.get("m", t.m)), int(obj.get("p", t.p))
    except (TypeError, ValueError, OverflowError) as exc:
        raise IoError("declared m and p must be integers") from exc
    if m != t.m:
        raise IoError(f"declared m={obj['m']} does not match head shape {t.m}")
    if p != t.p:
        raise IoError(f"declared p={obj['p']} does not match tail shape {t.p}")
    return t


def functional_to_obj(phi):
    return {"A": _matrix_to_obj(phi.trace_matrix), "w": [float(x) for x in phi.weights]}


def functional_from_obj(obj):
    from .quotient import PositiveFunctional  # deferred: quotient pulls in heavier deps

    if not isinstance(obj, dict) or "A" not in obj or "w" not in obj:
        raise IoError("functional object must carry 'A' and 'w'")
    return PositiveFunctional(_matrix_from_obj(obj["A"], "A"), obj["w"])


def canonical_dumps(obj):
    """Deterministic JSON serialization (sorted keys, no whitespace drift)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def dump_operator(t):
    return canonical_dumps(operator_to_obj(t))


def load_operator(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IoError(f"invalid JSON: {exc}") from exc
    return operator_from_obj(obj)
