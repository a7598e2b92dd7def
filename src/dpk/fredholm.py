"""Invertibility and Fredholm theory inside the block-periodic model.

The infinite operator is block diagonal, so invertibility reduces to the two
finite blocks and the Fredholm property reduces to the tail block alone: a
singular tail repeats its null space in every block, which kills the
semi-Fredholm property as well.  Whenever the operator is Fredholm its
kernel and cokernel live in the head and have equal dimension, so the index
is zero.
"""

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    Diagonal,
    EopOperator,
    canonical_decompose,
    delta,
    identity,
    is_dpk_member,
    operator_norm,
    zero_tail,
)
from .errors import ModelViolation, NoConvergence, NotInDpk, NotInvertible
from .linalg import nullity, svmin

INVERTIBILITY_TOL = 1e-10


@dataclass(frozen=True)
class FredholmData:
    """Fredholm diagnostics; dimension fields are None when infinite."""

    is_fredholm: bool
    index: Optional[int]
    kernel_dim: Optional[int]
    cokernel_dim: Optional[int]
    tail_min_singular_value: float

    def to_obj(self):
        return {
            "is_fredholm": self.is_fredholm,
            "index": self.index,
            "kernel_dim": self.kernel_dim,
            "cokernel_dim": self.cokernel_dim,
            "tail_min_singular_value": self.tail_min_singular_value,
        }


class IsometryKind(enum.Enum):
    NOT_ISOMETRY = "NotIsometry"
    UNITARY = "Unitary"


def is_invertible(t):
    """(flag, inverse) with the exact block-wise inverse when invertible.

    Invertibility threshold: smallest singular value of each block above
    1e-10; borderline operators are reported not invertible rather than
    guessed at.
    """
    s_head = svmin(t.head)
    s_tail = svmin(t.tail)
    if min(s_head, s_tail) <= INVERTIBILITY_TOL:
        return False, None
    return True, EopOperator(np.linalg.inv(t.head), np.linalg.inv(t.tail))


def invertible_diagonal_decomposition(t):
    """Rewrite an invertible member as D0 + K0 with D0 an invertible diagonal.

    Near-zero head diagonal entries (|d| <= 1e-10) are bumped by r, half the
    smallest diagonal magnitude above the threshold; the bump is a finite-rank
    perturbation absorbed into the compact part, so the sum is unchanged.
    """
    if not is_dpk_member(t):
        raise NotInDpk("operand is not a model D+K element")
    ok, _ = is_invertible(t)
    if not ok:
        raise NotInvertible("operand is not invertible")
    d = delta(t)
    entries = d.all_entries()
    magnitudes = np.abs(entries)
    nonzero = magnitudes[magnitudes > INVERTIBILITY_TOL]
    r = 0.5 * max(float(np.finfo(float).eps), float(np.min(nonzero)))
    head = np.asarray(d.head_entries).copy()
    bump = np.abs(head) <= INVERTIBILITY_TOL
    head[bump] += r
    d0 = Diagonal(head, d.tail_pattern)
    if np.min(np.abs(d0.all_entries())) <= INVERTIBILITY_TOL:
        raise NotInvertible("bump rule failed to produce an invertible diagonal")
    k0 = t - d0.to_operator()
    return d0, k0


def invertible_approx(t, eps):
    """Invertible member within strictly 3*eps of t.

    Small diagonal entries are lifted to eps and, if -1 sits within 1e-8 of
    the spectrum of D_eps^{-1} K, the compact part is nudged by a small
    multiple of the projection onto its range (at most 3 retries).
    Hermitian inputs produce Hermitian outputs.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not is_dpk_member(t):
        raise NotInDpk("operand is not a model D+K element")
    dec = canonical_decompose(t)
    d = dec.diagonal_part

    def lift(v):
        out = v.copy()
        out[np.abs(out) < eps] = eps
        return out

    d_eps = Diagonal(lift(np.asarray(d.head_entries)), lift(np.asarray(d.tail_pattern)))
    m_op = dec.compact_part
    shift = min(1e-6, eps / 8.0)
    for _ in range(4):
        eigs = np.linalg.eigvals(m_op.head / d_eps.head_entries[:, None])
        if np.min(np.abs(eigs + 1.0), initial=np.inf) > 1e-8:
            break
        u, s, _ = np.linalg.svd(m_op.head)
        rank = int(np.count_nonzero(s > 1e-12))
        proj = u[:, :rank] @ u[:, :rank].conj().T
        m_op = m_op + zero_tail(shift * proj, t.p)
    else:
        raise NoConvergence("could not steer -1 out of the spectrum", iterations=3)
    out = d_eps.to_operator() + m_op
    ok, _ = is_invertible(out)
    if not ok:
        raise NoConvergence("lifted approximant is numerically singular")
    return out


def fredholm_data(t):
    """Fredholm diagnostics; Fredholm exactly when the tail block is invertible."""
    s_tail = svmin(t.tail)
    if s_tail <= INVERTIBILITY_TOL:
        return FredholmData(False, None, None, None, s_tail)
    k = nullity(t.head, INVERTIBILITY_TOL)
    return FredholmData(True, 0, k, k, s_tail)


def isometry_classify(v):
    """Classify an isometry candidate; proper isometries cannot occur.

    If v*v = I holds to 1e-10 but vv* = I fails at 1e-9 the model invariant
    is broken and a ModelViolation is raised, signalling a bug rather than a
    mathematical possibility.
    """
    one = identity(0, 1)
    if operator_norm(v.adjoint() @ v - one) > 1e-10:
        return IsometryKind.NOT_ISOMETRY
    if operator_norm(v @ v.adjoint() - one) > 1e-9:
        raise ModelViolation("isometric but not co-isometric: model invariant broken")
    return IsometryKind.UNITARY
