"""Unitary and positive factorizations.

Every model unitary U in D+K splits as U = D * exp(i X) with D a diagonal
unitary (the entrywise phases of delta(U)) and X Hermitian with exactly zero
tail.  Positive invertible members split as D^(1/2) exp(Z) D^(1/2) with D a
positive diagonal and Z Hermitian, zero-tail and zero-diagonal; the diagonal
factor is found by a damped fixed-point iteration on its logarithm.
"""

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .core import Diagonal, EopOperator, delta, is_dpk_member, operator_norm, zero_tail
from .errors import NoConvergence, NotInDpk, NotPositive, NotUnitary
from .linalg import (
    block_norms,
    exactly_diagonal,
    herm,
    hermitian_function,
    log_hermitian_pd,
    log_unitary_matrix,
    principal_phases,
)

UNITARY_TOL = 1e-10


def _hermitian_op_function(x, f):
    """f(x) for a Hermitian model operator: each block through its
    eigendecomposition, an exactly diagonal tail entrywise (so it stays
    exactly diagonal)."""
    head = hermitian_function(herm(x.head), f)
    if exactly_diagonal(x.tail):
        tail = np.diag(f(np.diagonal(x.tail).real))
    else:
        tail = hermitian_function(herm(x.tail), f)
    return EopOperator(head, tail)


def exp_ih(x):
    """exp(i*x) for a Hermitian model operator, exact on diagonal tails."""
    return _hermitian_op_function(x, lambda w: np.exp(1j * w))


def _gram_defects(blocks):
    """norm(B* B - I) for each matrix B of an (n, k, k) stack."""
    gram = blocks.conj().transpose(0, 2, 1).copy() @ blocks
    return block_norms(gram - np.eye(blocks.shape[-1], dtype=np.complex128))


def unitarity_defects(heads, tails):
    """unitarity_defect of each sample of an (n, m, m) head stack and an
    (n, p, p) tail stack."""
    return np.maximum(_gram_defects(tails), _gram_defects(heads))


def unitarity_defect(u):
    """norm(U* U - I), block by block: the identity needs no alignment.

    Same arithmetic, bit for bit, as forming U* U - I on U's own grid.
    """
    return float(unitarity_defects(u.head[None], u.tail[None])[0])


def require_unitary(u, tol=UNITARY_TOL):
    if unitarity_defect(u) > tol:
        raise NotUnitary("operand is not unitary within tolerance")
    return u


def log_unitary(u):
    """Spectral principal logarithm: Hermitian X with exp(iX) = U.

    Eigenphases live on [-pi, pi); the eigenvalue -1 maps to -pi.  Exactly
    diagonal tails are logged entrywise so the result keeps an exactly
    diagonal tail.
    """
    require_unitary(u)
    head = log_unitary_matrix(u.head)
    if exactly_diagonal(u.tail):
        tail = np.diag(principal_phases(np.diagonal(u.tail)).astype(np.complex128))
    else:
        tail = log_unitary_matrix(u.tail)
    return EopOperator(head, tail)


@dataclass(frozen=True)
class UnitaryFactorization:
    """U = diagonal_unitary * exp(i * exponent), exponent compact Hermitian."""

    diagonal_unitary: Diagonal
    exponent: EopOperator

    def reconstruct(self):
        return self.diagonal_unitary.to_operator() @ exp_ih(self.exponent)


def _phase(values):
    mags = np.abs(values)
    out = np.ones_like(values)
    big = mags >= 1e-12
    out[big] = values[big] / mags[big]
    return out


def unitary_factorize(u):
    """Factor a model unitary as a diagonal unitary times exp(iX), X zero-tail.

    Head diagonal entries below 1e-12 in modulus get phase 1 (angle zero);
    the tail of the exponent is exactly zero by construction.
    """
    require_unitary(u)
    if not is_dpk_member(u):
        raise NotInDpk("unitary is not a model D+K element")
    d = delta(u)
    phases = Diagonal(_phase(np.asarray(d.head_entries)),
                      _phase(np.asarray(d.tail_pattern)))
    w = phases.conj().to_operator() @ u
    x_head = log_unitary_matrix(w.head)
    return UnitaryFactorization(phases, zero_tail(x_head, u.p))


def unitary_path(u, t):
    """Point at parameter t of the canonical path from I to u.

    The path D(s) exp(isX) stays unitary and inside the model; its Lipschitz
    constant on [0,1] is at most pi * (1 + norm(X)).
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("path parameter must lie in [0, 1]")
    fac = unitary_factorize(u)
    d = fac.diagonal_unitary
    theta_h = principal_phases(np.asarray(d.head_entries))
    theta_t = principal_phases(np.asarray(d.tail_pattern))
    d_t = Diagonal(np.exp(1j * t * theta_h), np.exp(1j * t * theta_t))
    return d_t.to_operator() @ exp_ih(fac.exponent * t)


@dataclass(frozen=True)
class PortaRechtFactorization:
    """A = diagonal^(1/2) exp(exponent) diagonal^(1/2), exponent zero-diagonal."""

    diagonal: Diagonal
    exponent: EopOperator
    iterations: int
    residual: float
    trace: List[Tuple[int, float, float]] = field(default_factory=list, repr=False)

    def reconstruct(self):
        d = self.diagonal
        root = Diagonal(np.sqrt(np.asarray(d.head_entries).real).astype(complex),
                        np.sqrt(np.asarray(d.tail_pattern).real).astype(complex))
        r = root.to_operator()
        return r @ _hermitian_op_function(self.exponent, np.exp) @ r


def porta_recht(a, tol=1e-10, max_iter=500, init_log_diagonal=None, keep_trace=False):
    """Factor a positive invertible member as D^(1/2) exp(Z) D^(1/2).

    The tail equation forces the diagonal's tail to equal the tail of ``a``
    exactly and the exponent's tail to vanish, so the iteration runs on the
    head block only.

    Parameters
    ----------
    a : EopOperator
        Positive definite model member (smallest eigenvalue > 1e-10).
    tol : float
        Stop when the diagonal of Z is below this in sup norm.
    max_iter : int
        Iteration budget; exceeding it raises NoConvergence.
    init_log_diagonal : array or None
        Optional starting log-diagonal for the head (length m); defaults to
        log of the diagonal of ``a``.  A second, different start is how the
        uniqueness of the factorization is probed.
    keep_trace : bool
        Record (iteration, residual, step size) triples.

    Raises
    ------
    NotPositive, NotInDpk, NoConvergence
    """
    if not is_dpk_member(a):
        raise NotInDpk("operand is not a model D+K element")
    if operator_norm(a - a.adjoint()) > 1e-10:
        raise NotPositive("operand is not self-adjoint")
    pattern = np.diagonal(a.tail)
    head = herm(a.head)
    if a.m and (np.linalg.eigvalsh(head)[0] <= 1e-10):
        raise NotPositive("head block is not positive definite")
    if np.min(pattern.real) <= 1e-10:
        raise NotPositive("tail pattern is not positive")
    m, p = a.m, a.p

    if m == 0:
        d = Diagonal(np.zeros(0, dtype=complex), pattern)
        z = zero_tail(np.zeros((0, 0)), p)
        return PortaRechtFactorization(d, z, 0, 0.0, [])

    if init_log_diagonal is None:
        ell = np.log(np.diagonal(head).real.copy())
    else:
        ell = np.array(init_log_diagonal, dtype=float)
        if ell.shape != (m,):
            raise ValueError(f"init_log_diagonal must have length {m}")

    alpha = 1.0
    prev_res = np.inf
    trace = []
    z_head = None
    for it in range(max_iter + 1):
        scale_vec = np.exp(-ell / 2.0)
        mid = herm(scale_vec[:, None] * head * scale_vec[None, :])
        z_head = log_hermitian_pd(mid)
        rho = np.diagonal(z_head).real.copy()
        res = float(np.max(np.abs(rho)))
        if keep_trace:
            trace.append((it, res, alpha))
        if res <= tol:
            d = Diagonal(np.exp(ell).astype(complex), pattern.copy())
            return PortaRechtFactorization(d, zero_tail(z_head, p), it, res, trace)
        if not np.isfinite(res) or res > 1e8:
            raise NoConvergence("iteration diverged", iterations=it, residual=res)
        if res > prev_res:
            alpha = max(alpha / 2.0, 1.0 / 64.0)
        prev_res = res
        ell = ell + alpha * rho
    raise NoConvergence(
        f"no convergence in {max_iter} iterations", iterations=max_iter, residual=prev_res
    )
