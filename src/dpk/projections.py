"""Projection geometry: pair index, components, and minimal geodesics.

A model projection in D+K has a 0/1 diagonal tail, so two projections are
comparable exactly when their tail patterns agree; their difference then
lives in the head and the index of the pair is computed two independent
ways (an eigenvalue count at +/-1 and a rank formula) which must agree
exactly.  Conjugating exponentials come from the direct-rotation
construction away from the +/-1 eigenspaces and from a paired partial
isometry on them.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import Diagonal, EopOperator, align, is_dpk_member, operator_norm, zero_tail
from .errors import (
    IndexNotZero,
    InsufficientRoom,
    ModelLimitation,
    ModelViolation,
    NotComparable,
    NotConjugate,
    NotProjection,
    OracleMismatch,
)
from .factor import exp_ih
from .linalg import eigh_sorted, herm, log_unitary_matrix, matrix_rank_tol, polar_unitary

PROJECTION_TOL = 1e-10
EIG_CLUSTER_TOL = 1e-8
# Rank threshold for products of projections, chosen so that dropping a
# principal angle in the rank route coincides with snapping the matching
# eigenvalue of P - Q to +-1: cos(theta) <= sqrt(2 eps - eps^2) iff
# sin(theta) >= 1 - eps.
PRODUCT_RANK_TOL = float(np.sqrt(2 * EIG_CLUSTER_TOL - EIG_CLUSTER_TOL**2))


class ModelProjection:
    """Validated projection; member tails are snapped to exact 0/1 patterns."""

    __slots__ = ("op",)

    def __init__(self, operator):
        head = herm(operator.head)
        tail = np.asarray(operator.tail)
        if is_dpk_member(operator):
            pattern = np.diagonal(tail).copy()
            offset = np.abs(pattern - np.round(pattern.real))
            rounded = np.round(pattern.real)
            if np.any(offset > EIG_CLUSTER_TOL) or not np.all(
                np.isin(rounded, (0.0, 1.0))
            ):
                raise NotProjection("member tail pattern is not 0/1")
            tail = np.diag(rounded.astype(np.complex128))
        else:
            tail = herm(tail)
        candidate = EopOperator(head, tail)
        defect = operator_norm(candidate @ candidate - candidate)
        sym = operator_norm(candidate - candidate.adjoint())
        if max(defect, sym) > PROJECTION_TOL:
            raise NotProjection(
                f"not idempotent self-adjoint within tolerance (defect {defect:.2e})"
            )
        self.op = candidate

    @classmethod
    def _trusted(cls, op):
        """Wrap a block re-representation of an already validated projection.

        Validation would change no bits here (``herm`` of an exactly
        Hermitian head and rounding of an exact 0/1 pattern are no-ops), so
        it is skipped; user input goes through the constructor.
        """
        self = object.__new__(cls)
        self.op = op
        return self

    @property
    def m(self):
        return self.op.m

    @property
    def p(self):
        return self.op.p

    @property
    def head(self):
        return self.op.head

    def is_member(self):
        return is_dpk_member(self.op)

    def pattern(self):
        if not self.is_member():
            raise NotProjection("projection is not a model D+K element")
        return np.diagonal(self.op.tail).real.astype(int)

    def expand(self, m_new, p_new):
        return ModelProjection._trusted(self.op.expand(m_new, p_new))

    def head_rank(self):
        w = np.linalg.eigvalsh(herm(self.head))
        return int(np.count_nonzero(w > 0.5))

    def __repr__(self):
        return f"ModelProjection(m={self.m}, p={self.p})"


def diagonal_projection(head_bits, tail_bits):
    bits = Diagonal(
        np.asarray(head_bits, dtype=float).astype(complex),
        np.asarray(tail_bits, dtype=float).astype(complex),
    )
    return ModelProjection(bits.to_operator())


@dataclass(frozen=True)
class ComponentClass:
    """Connected-component label: finite rank, cofinite rank, or infinite."""

    kind: str
    rank: Optional[int] = None
    nullity: Optional[int] = None
    tail_pattern: Optional[Tuple[int, ...]] = None
    base_index: Optional[int] = None

    def to_obj(self):
        return {
            "kind": self.kind,
            "rank": self.rank,
            "nullity": self.nullity,
            "tail_pattern": list(self.tail_pattern) if self.tail_pattern else None,
            "base_index": self.base_index,
        }


@dataclass(frozen=True)
class GeodesicExponent:
    """Codiagonal Hermitian exponent of a projection geodesic."""

    exponent: EopOperator
    length: float


def _require_member_projection(p):
    if not p.is_member():
        raise NotProjection("projection is not a model D+K element")


def projection_diag_decompose(p):
    """P = E + K with E the thresholded diagonal projection, K zero-tail.

    Head diagonal entries at or above 1/2 go to 1 (ties round up).
    """
    _require_member_projection(p)
    head_bits = (np.diagonal(p.head).real >= 0.5).astype(complex)
    e = Diagonal(head_bits, p.pattern().astype(complex))
    k = p.op - e.to_operator()
    return e, k


def _aligned_comparable(p, q):
    a, b = align(p.op, q.op)
    pa, qb = ModelProjection._trusted(a), ModelProjection._trusted(b)
    if not np.array_equal(pa.pattern(), qb.pattern()):
        raise NotComparable("tail patterns differ; difference is not compact")
    return pa, qb


def pair_index(p, q):
    """Index of a comparable pair, computed by two routes that must agree.

    Route one counts eigenvalues of P - Q clustered at +1 and -1; route two
    evaluates dim(R(P) & N(Q)) - dim(N(P) & R(Q)) through head ranks.  Any
    disagreement raises OracleMismatch.
    """
    pa, qb = _aligned_comparable(p, q)
    diff = herm(pa.head - qb.head)
    if diff.size:
        w = np.linalg.eigvalsh(diff)
        plus = int(np.count_nonzero(np.abs(w - 1.0) <= EIG_CLUSTER_TOL))
        minus = int(np.count_nonzero(np.abs(w + 1.0) <= EIG_CLUSTER_TOL))
    else:
        plus = minus = 0
    by_eigen = plus - minus

    rank_p = pa.head_rank()
    rank_q = qb.head_rank()
    dim_rp_nq = rank_p - matrix_rank_tol(qb.head @ pa.head, PRODUCT_RANK_TOL)
    dim_np_rq = rank_q - matrix_rank_tol(pa.head @ qb.head, PRODUCT_RANK_TOL)
    by_rank = dim_rp_nq - dim_np_rq

    if by_eigen != by_rank:
        raise OracleMismatch(
            f"index routes disagree: eigencount {by_eigen} vs rank formula {by_rank}"
        )
    return int(by_eigen)


def zero_index_diagonal(p):
    """Diagonal projection E0 with P - E0 compact and index(P, E0) = 0.

    Starts from the thresholded diagonal and flips head entries, lowest
    indices first, until the index vanishes.
    """
    _require_member_projection(p)
    proj = p
    for attempt in range(2):
        e, _ = projection_diag_decompose(proj)
        idx = pair_index(proj, ModelProjection(e.to_operator()))
        bits = np.asarray(e.head_entries).real.astype(int)
        want = 1 if idx > 0 else 0
        flip_from = np.flatnonzero(bits == (1 - want))
        if abs(idx) <= flip_from.size:
            bits[flip_from[: abs(idx)]] = want
            e0 = Diagonal(bits.astype(complex), e.tail_pattern)
            check = pair_index(proj, ModelProjection(e0.to_operator()))
            if check != 0:
                raise ModelViolation(f"flip rule left index {check}")
            return e0
        if attempt == 0:
            # Absorb one tail block into the head to make room, then retry.
            proj = proj.expand(proj.m + proj.p, proj.p)
    raise InsufficientRoom("head has too few flippable entries")


def _rotation_exponent(src, dst):
    """Codiagonal Hermitian X with exp(iX) src exp(-iX) = dst.

    On the orthocomplement of the +/-1 eigenspaces of K = dst - src the
    exponent is the log of the direct rotation W = dst*src + (1-dst)(1-src);
    on the +/-1 eigenspaces it comes from pairing eigenbases in index order
    through a partial isometry V, X1 = i*(pi/2)*(V - V*).
    """
    k = herm(dst.head - src.head)
    m = src.m
    if m == 0:
        return zero_tail(np.zeros((0, 0)), src.p), 0.0
    w, v = eigh_sorted(k)
    plus = np.abs(w - 1.0) <= EIG_CLUSTER_TOL
    minus = np.abs(w + 1.0) <= EIG_CLUSTER_TOL
    mid = ~(plus | minus)
    if np.count_nonzero(plus) != np.count_nonzero(minus):
        raise IndexNotZero(
            f"+1/-1 multiplicities differ: {np.count_nonzero(plus)} vs "
            f"{np.count_nonzero(minus)}"
        )

    x_head = np.zeros((m, m), dtype=np.complex128)
    c0 = v[:, mid]
    if c0.shape[1]:
        p0 = c0.conj().T @ dst.head @ c0
        e0 = c0.conj().T @ src.head @ c0
        eye = np.eye(c0.shape[1], dtype=np.complex128)
        direct = p0 @ e0 + (eye - p0) @ (eye - e0)
        u0 = polar_unitary(direct)
        x_head += c0 @ log_unitary_matrix(u0) @ c0.conj().T
    v_plus = v[:, plus]
    v_minus = v[:, minus]
    if v_plus.shape[1]:
        pairing = v_plus @ v_minus.conj().T
        x_head += 1j * (np.pi / 2.0) * (pairing - pairing.conj().T)
    x_head = herm(x_head)
    length = float(np.max(np.abs(np.linalg.eigvalsh(x_head))))
    return zero_tail(x_head, src.p), length


def _verify_conjugation(x, src, dst, tol=1e-8):
    u = exp_ih(x)
    residual = operator_norm(u @ src.op @ u.adjoint() - dst.op)
    if residual > tol:
        raise ModelViolation(f"conjugation residual {residual:.3e} exceeds {tol:.0e}")
    return residual


def conjugating_exponential(p, e0):
    """Exponent X with exp(iX) E0 exp(-iX) = P, norm at most pi/2."""
    e0_proj = ModelProjection(e0.to_operator()) if isinstance(e0, Diagonal) else e0
    idx = pair_index(p, e0_proj)
    if idx != 0:
        raise IndexNotZero(f"pair index {idx} is nonzero")
    src, dst = _aligned_comparable(e0_proj, p)
    x, length = _rotation_exponent(src, dst)
    _verify_conjugation(x, src, dst)
    return GeodesicExponent(x, length)


def minimal_geodesic(p, q):
    """Minimal-length geodesic exponent from P to Q.

    The curve exp(itX) P exp(-itX) reaches Q at t = 1; when the gap
    norm(P - Q) is below one its length is arcsin of the gap, and exactly
    pi/2 when the gap is one.
    """
    idx = pair_index(p, q)
    if idx != 0:
        raise IndexNotZero(f"pair index {idx} is nonzero")
    src, dst = _aligned_comparable(p, q)
    x, length = _rotation_exponent(src, dst)
    _verify_conjugation(x, src, dst)
    return GeodesicExponent(x, length)


def classify_component(p):
    """Component label from the tail pattern (all-0, all-1, or mixed)."""
    _require_member_projection(p)
    pattern = p.pattern()
    if np.all(pattern == 0):
        return ComponentClass(kind="finite", rank=p.head_rank())
    if np.all(pattern == 1):
        return ComponentClass(kind="cofinite", nullity=p.m - p.head_rank())
    e_can = _canonical_diagonal(pattern, p.m)
    base = pair_index(p, ModelProjection(e_can.to_operator()))
    return ComponentClass(
        kind="infinite", tail_pattern=tuple(int(b) for b in pattern), base_index=base
    )


def _canonical_diagonal(pattern, m):
    bits = np.asarray(pattern, dtype=float)
    return Diagonal(np.tile(bits, m // bits.size).astype(complex), bits.astype(complex))


def same_component(p, q):
    """Same connected component: equal tail patterns and zero pair index."""
    try:
        return pair_index(p, q) == 0
    except NotComparable:
        return False


def rank_nullity_conjugacy(p, q):
    """Model word conjugating P onto Q when their rank/nullity data match.

    Finite-rank classes need equal ranks and cofinite classes equal
    nullities (NotConjugate otherwise).  Mixed tail patterns must match up
    to a residue permutation with equal head ranks; pairs that are conjugate
    only through permutations outside the model raise ModelLimitation.
    """
    a, b = align(p.op, q.op)
    pa, qb = ModelProjection._trusted(a), ModelProjection._trusted(b)
    ca, cb = classify_component(pa), classify_component(qb)
    if ca.kind != cb.kind:
        raise NotConjugate(f"component kinds differ: {ca.kind} vs {cb.kind}")
    if ca.kind == "finite" and ca.rank != cb.rank:
        raise NotConjugate(f"ranks differ: {ca.rank} vs {cb.rank}")
    if ca.kind == "cofinite" and ca.nullity != cb.nullity:
        raise NotConjugate(f"nullities differ: {ca.nullity} vs {cb.nullity}")

    if ca.kind == "infinite":
        rho = _matching_residue_perm(pa.pattern(), qb.pattern())
        if rho is None:
            raise ModelLimitation("tail patterns are not residue-permutation equivalent")
        if pa.head_rank() != qb.head_rank():
            raise ModelLimitation(
                "head ranks differ; conjugation needs a permutation outside the model"
            )
    else:
        rho = np.arange(pa.p)

    from .autos import PermutationSpec, apply_automorphism, normal_form

    e_p = zero_index_diagonal(pa)
    x_p = conjugating_exponential(pa, e_p).exponent
    e_q = zero_index_diagonal(qb)
    x_q = conjugating_exponential(qb, e_q).exponent

    head_perm = _head_bit_matching(
        np.asarray(e_p.head_entries).real.astype(int),
        np.asarray(e_q.head_entries).real.astype(int),
    )
    sigma = PermutationSpec(head_perm, rho)
    word = normal_form([x_q, sigma, x_p * (-1.0)])
    residual = operator_norm(apply_automorphism(word, pa.op) - qb.op)
    if residual > 1e-8:
        raise ModelViolation(f"conjugacy word residual {residual:.3e} too large")
    return word


def _matching_residue_perm(pat_a, pat_b):
    """Lexicographically first residue permutation rho with rho(pat_a) = pat_b."""
    ones_a = np.flatnonzero(pat_a == 1)
    ones_b = np.flatnonzero(pat_b == 1)
    zeros_a = np.flatnonzero(pat_a == 0)
    zeros_b = np.flatnonzero(pat_b == 0)
    if ones_a.size != ones_b.size:
        return None
    rho = np.empty(pat_a.size, dtype=int)
    rho[ones_a] = ones_b
    rho[zeros_a] = zeros_b
    return rho


def _head_bit_matching(bits_p, bits_q):
    """Head permutation sending the support of bits_p onto that of bits_q."""
    if np.count_nonzero(bits_p) != np.count_nonzero(bits_q):
        raise ModelViolation("head bit counts diverged after index normalization")
    perm = np.empty(bits_p.size, dtype=int)
    perm[np.flatnonzero(bits_p == 1)] = np.flatnonzero(bits_q == 1)
    perm[np.flatnonzero(bits_p == 0)] = np.flatnonzero(bits_q == 0)
    return perm
