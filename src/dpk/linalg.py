"""Deterministic dense linear-algebra helpers.

These wrappers give reproducible block kernels: Hermitian eigenvalues come
out ascending from LAPACK, singular values descending, and matrix functions
of normal matrices are assembled from an eigendecomposition or a complex
Schur form with the off-diagonal discarded.  Every wrapper accepts a 0 x 0
block, so callers need no empty-head guard.  The stacked kernels
(``block_norms``, ``eigenphase_sums``) take (n, k, k) arrays and give,
matrix by matrix, the same bits as their one-block counterparts.  Not all
dense work goes through here: 19 direct ``np.linalg`` calls remain in other
modules, 4 of them in ``oracles``, whose routes are independent on purpose.
"""

import numpy as np
import scipy.linalg

RANK_TOL = 1e-8


def herm(a):
    """Hermitian part (a + a*)/2 of a matrix, or of each matrix of an
    (n, k, k) stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def svdvals(a):
    """Singular values, descending; empty matrices give an empty array."""
    if a.size == 0:
        return np.zeros(0)
    return np.linalg.svd(a, compute_uv=False)


def svmax(a):
    s = svdvals(a)
    return float(s[0]) if s.size else 0.0


def block_norm(b):
    """Spectral norm of one block; an exactly diagonal block takes no SVD."""
    if b.size == 0:
        return 0.0
    # Exactly diagonal blocks need no SVD: the norm is the largest modulus.
    if exactly_diagonal(b):
        return float(np.max(np.abs(np.diagonal(b))))
    return svmax(b)


def exactly_diagonal(blocks):
    """Are all off-diagonal entries exactly 0 (-0.0 is zero, NaN is not)?
    One bool for a matrix, one per matrix of an (n, k, k) stack."""
    if blocks.ndim == 2:
        # The plain count is several times faster than the axis form below.
        return np.count_nonzero(blocks) == np.count_nonzero(np.diagonal(blocks))
    d = np.diagonal(blocks, axis1=-2, axis2=-1)
    return np.count_nonzero(blocks, axis=(-2, -1)) == np.count_nonzero(d, axis=-1)


def all_exactly_diagonal(blocks):
    """Is every matrix of an (n, k, k) stack exactly diagonal?  One bool,
    from the whole-stack form of the plain count ``exactly_diagonal`` makes
    for one matrix."""
    return bool(np.count_nonzero(blocks)
                == np.count_nonzero(np.diagonal(blocks, axis1=-2, axis2=-1)))


def block_norms(blocks):
    """block_norm of each matrix of an (n, k, k) stack, bit for bit.

    Exactly diagonal matrices take the largest modulus of their diagonal;
    the rest share one stacked SVD call.
    """
    out = np.zeros(blocks.shape[0])
    if blocks.shape[-1] == 0:
        return out
    d = np.diagonal(blocks, axis1=1, axis2=2)
    exact = exactly_diagonal(blocks)
    if exact.any():
        out[exact] = np.max(np.abs(d[exact]), axis=1)
    if not exact.all():
        out[~exact] = np.linalg.svd(blocks[~exact], compute_uv=False)[:, 0]
    return out


def svmin(a):
    s = svdvals(a)
    return float(s[-1]) if s.size else float("inf")


def matrix_rank_tol(a, tol=RANK_TOL):
    return int(np.count_nonzero(svdvals(a) > tol))


def nullity(a, tol=RANK_TOL):
    n = min(a.shape) if a.size else 0
    return n - matrix_rank_tol(a, tol)


def eigh_sorted(a):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    if a.size == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=np.complex128)
    return np.linalg.eigh(a)


def hermitian_function(h, f):
    """f(h) for Hermitian h via its eigendecomposition; f acts on the
    eigenvalue array."""
    w, v = eigh_sorted(h)
    return (v * f(w)) @ v.conj().T


def log_hermitian_pd(a):
    """Principal logarithm of a Hermitian positive-definite matrix."""
    if a.size == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    w, v = np.linalg.eigh(a)
    if w[0] <= 0.0:
        raise np.linalg.LinAlgError("matrix is not positive definite")
    return herm((v * np.log(w)) @ v.conj().T)


def principal_phases(vals):
    """Phases of unit-modulus values on the branch [-pi, pi)."""
    theta = np.angle(vals)
    theta = np.where(theta >= np.pi, -np.pi, theta)
    return theta


def log_unitary_matrix(u):
    """Hermitian x with exp(i*x) = u for a (numerically) unitary u.

    Uses the complex Schur form; for a unitary matrix the triangular factor
    is diagonal up to roundoff, so dropping its off-diagonal part is exact.
    Eigenphases are taken in [-pi, pi), sending the eigenvalue -1 to -pi.
    """
    if u.size == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    t, q = scipy.linalg.schur(np.ascontiguousarray(u), output="complex")
    theta = principal_phases(np.diagonal(t))
    return herm((q * theta) @ q.conj().T)


def eigenphase_sums(a, b):
    """Sum of the principal eigenphases of a[k]* b[k] for each k.

    ``a`` and ``b`` are (n, k, k) stacks of unitaries; the sums are the
    phase increments of det along consecutive samples, one LAPACK call per
    stack.  Loops of exactly diagonal samples do not come here:
    ``topology.loop_winding`` sums the phases of the ratios' diagonal
    entries, which are the eigenvalues LAPACK returns for them.
    """
    if a.shape[-1] == 0:
        return np.zeros(a.shape[0])
    ratios = a.conj().transpose(0, 2, 1) @ b
    return np.sum(np.angle(np.linalg.eigvals(ratios)), axis=1)


def polar_unitary(w):
    """Unitary factor of the polar decomposition w = u * (w*w)^(1/2)."""
    if w.size == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    u, _, vh = np.linalg.svd(w)
    return u @ vh


def dedup_complex(vals, tol=1e-10):
    """Cluster near-equal complex values, keeping the first of each cluster.

    Values are lexicographically sorted by (real, imag) first, so the result
    is deterministic.
    """
    vals = np.asarray(vals, dtype=np.complex128).ravel()
    if vals.size == 0:
        return vals
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    kept = []
    for z in vals:
        if all(abs(z - k) > tol for k in kept):
            kept.append(z)
    return np.array(kept, dtype=np.complex128)
