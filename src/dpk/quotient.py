"""The commutative quotient: residue classes, characters and functionals.

Modding out the compacts leaves only the repeating tail diagonal, so the
quotient class of a member is its tail pattern and the model's characters
are the residue evaluations Psi_r.  Positive functionals split into a trace
part against a finite matrix and a singular part supported on the residues.
"""

import numpy as np

from .core import Diagonal, _check_expand, align, is_dpk_member
from .errors import AlignmentError, BadResidue, NotInDpk, NotPositive
from .linalg import herm

__all__ = [
    "QuotientClass",
    "PositiveFunctional",
    "quotient_class",
    "character_eval",
    "functional_decompose",
    "endomorphism_from_characters",
]


class QuotientClass:
    """Tail diagonal pattern of a member, up to period expansion.

    It has no head (m = 0), so ``core.align`` puts two classes on their lcm
    period.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        vals = np.array(values, dtype=np.complex128)
        if vals.ndim != 1 or vals.size < 1:
            raise AlignmentError("quotient class needs a nonempty value vector")
        self.values = vals
        self.values.setflags(write=False)

    @property
    def m(self):
        return 0

    @property
    def p(self):
        return self.values.size

    @property
    def norm(self):
        return float(np.max(np.abs(self.values)))

    def expand(self, m_new, p_new):
        if (m_new, p_new) == (self.m, self.p):
            return self
        _check_expand(self, m_new, p_new)
        return QuotientClass(np.tile(self.values, p_new // self.p))

    def isclose(self, other, tol=1e-12):
        a, b = align(self, other)
        return bool(np.max(np.abs(a.values - b.values)) <= tol)

    def __mul__(self, other):
        a, b = align(self, other)
        return QuotientClass(a.values * b.values)

    def __repr__(self):
        return f"QuotientClass(p={self.p})"


def quotient_class(t):
    if not is_dpk_member(t):
        raise NotInDpk("operand is not a model D+K element")
    return QuotientClass(np.diagonal(t.tail).copy())


def character_eval(t, residue):
    """Psi_r: evaluate the tail pattern at a residue.

    Multiplicative and unital, and identically zero on compacts.
    """
    if not is_dpk_member(t):
        raise NotInDpk("operand is not a model D+K element")
    r = int(residue)
    if not 0 <= r < t.p:
        raise BadResidue(f"residue {r} out of range for period {t.p}")
    return complex(t.tail[r, r])


class PositiveFunctional:
    """trace(A * .) plus nonnegative residue weights.

    ``trace_matrix`` is a finite Hermitian PSD matrix acting on the first
    N_A coordinates; ``weights`` has one nonnegative entry per residue of a
    fixed period.  Evaluation of the singular part needs the operand's
    period to divide that period.
    """

    __slots__ = ("trace_matrix", "weights")

    def __init__(self, trace_matrix, weights):
        a = np.array(trace_matrix, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NotPositive("trace matrix must be square")
        if a.size and np.max(np.abs(a - a.conj().T)) > 1e-12:
            raise NotPositive("trace matrix must be Hermitian")
        a = herm(a)
        if a.size and np.linalg.eigvalsh(a)[0] < -1e-12:
            raise NotPositive("trace matrix must be positive semidefinite")
        w = np.array(weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise NotPositive("weights must be a nonempty vector")
        if np.min(w) < -1e-12:
            raise NotPositive("weights must be nonnegative")
        w = np.maximum(w, 0.0)
        self.trace_matrix = a
        self.weights = w
        self.trace_matrix.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def period(self):
        return self.weights.size

    def _pattern_on_grid(self, t):
        if self.period % t.p:
            raise AlignmentError(
                f"operand period {t.p} does not divide functional period {self.period}"
            )
        return np.tile(np.diagonal(t.tail), self.period // t.p)

    def evaluate_normal(self, t):
        n = self.trace_matrix.shape[0]
        if n == 0:
            return 0j
        return complex(np.trace(self.trace_matrix @ t.dense(n)))

    def evaluate_singular(self, t):
        if not np.any(self.weights):
            return 0j
        pattern = self._pattern_on_grid(t)
        return complex(np.sum(self.weights * pattern))

    def evaluate(self, t):
        if not is_dpk_member(t):
            raise NotInDpk("functionals evaluate on model D+K elements")
        return self.evaluate_normal(t) + self.evaluate_singular(t)

    def total_mass(self):
        """Value at the identity: trace(A) plus the weight sum."""
        return float(np.trace(self.trace_matrix).real + np.sum(self.weights))


def functional_decompose(phi):
    """Split into (normal part, singular part); the parts sum back exactly.

    The normal part is trace-class evaluation, the singular part vanishes on
    compacts, and both parts are positive.
    """
    normal = PositiveFunctional(phi.trace_matrix, np.zeros(phi.period))
    singular = PositiveFunctional(
        np.zeros((0, 0), dtype=np.complex128), phi.weights
    )
    return normal, singular


def endomorphism_from_characters(period, fixed_residues, assignment, anchor=0):
    """Build a *-endomorphism out of residue characters.

    The returned map sends a member T to the diagonal whose tail entry r is
    Psi_anchor(T) for r in ``fixed_residues`` and Psi_assignment[r](T)
    otherwise, with head entries replicated from the pattern.  It is
    multiplicative, *-preserving and kills compacts.

    ``assignment`` must cover exactly the residues outside the fixed set and
    be injective there.
    """
    p = int(period)
    if p < 1:
        raise BadResidue("period must be at least 1")
    fixed = frozenset(int(r) for r in fixed_residues)
    if any(not 0 <= r < p for r in fixed):
        raise BadResidue("fixed residues out of range")
    free = [r for r in range(p) if r not in fixed]
    amap = {int(k): int(v) for k, v in dict(assignment).items()}
    if sorted(amap) != free:
        raise BadResidue("assignment must cover exactly the non-fixed residues")
    if any(not 0 <= v < p for v in amap.values()):
        raise BadResidue("assignment values out of range")
    if len(set(amap.values())) != len(amap):
        raise BadResidue("assignment must be injective off the fixed set")
    if not 0 <= int(anchor) < p:
        raise BadResidue("anchor residue out of range")
    sources = np.array(
        [int(anchor) if r in fixed else amap[r] for r in range(p)], dtype=int
    )

    def apply(t):
        if not is_dpk_member(t):
            raise NotInDpk("endomorphisms act on model D+K elements")
        if p % t.p:
            raise AlignmentError(
                f"operand period {t.p} does not divide endomorphism period {p}"
            )
        pattern = np.tile(np.diagonal(t.tail), p // t.p)[sources]
        m_out = -(-t.m // p) * p
        head = np.tile(pattern, m_out // p)
        return Diagonal(head, pattern).to_operator()

    return apply
