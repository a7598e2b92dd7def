"""Eventually block-periodic operators and their exact algebra.

A model operator acts on l2(N) as a fixed m x m ``head`` matrix on the first
m coordinates followed by a single p x p ``tail`` block repeated forever.
The grid invariant p | m makes any two operators alignable by whole-block
expansion, so the class is closed under *-algebra operations, and norms and
spectra are exact because every operator is block diagonal.

Diagonal-plus-compact membership is structural: an operator belongs to the
model D+K exactly when its tail block is a diagonal matrix.  Arithmetic on
exactly-sparse blocks keeps zero entries exactly zero, so membership is
stable under sums, products and adjoints.
"""

import math

import numpy as np

from .errors import AlignmentError, NonFiniteEntry, NotInDpk
from .linalg import block_norm, dedup_complex, exactly_diagonal

EQ_TOL = 1e-12
# Most cells (m*m + p*p) a common grid may have: an operator on it takes at
# most 64 MiB as complex128.  Coprime periods would otherwise blow up
# unchecked: periods 97 and 89 align on a 1.19 GB tail.  Suite and benchmark
# grids stay below 10^4 cells.
GRID_CELL_BUDGET = 1 << 22


def _as_square(a, what, ndim=2):
    """Complex copy of a square matrix (ndim 2) or of a stack of square
    matrices (ndim 3), entries finite."""
    arr = np.array(a, dtype=np.complex128)
    if arr.ndim != ndim or arr.shape[-1] != arr.shape[-2]:
        shape = "a square matrix" if ndim == 2 else "a stack of square matrices"
        raise AlignmentError(f"{what} must be {shape}, got shape {arr.shape}")
    _check_finite(arr, what)
    return arr


def _check_grid(m, p):
    """Head size m and period p of a gridded value: p >= 1 and p | m."""
    if p < 1:
        raise AlignmentError("period must be at least 1")
    if m % p != 0:
        raise AlignmentError(f"period {p} does not divide head size {m}")


def _check_expand(value, m_new, p_new):
    """Raise AlignmentError unless ``value`` can expand to (m_new, p_new): a
    valid grid whose period is a multiple of value.p and whose head is no
    smaller than value.m."""
    _check_grid(m_new, p_new)
    if p_new % value.p or m_new < value.m:
        raise AlignmentError(f"cannot expand {value!r} to ({m_new},{p_new})")


def _as_vector(a, what):
    arr = np.array(a, dtype=np.complex128)
    if arr.ndim != 1:
        raise AlignmentError(f"{what} must be a vector, got shape {arr.shape}")
    _check_finite(arr, what)
    return arr


def _check_finite(arr, what):
    if arr.size and not np.all(np.isfinite(arr)):
        raise NonFiniteEntry(f"{what} contains non-finite entries")


def _freeze(arr):
    arr.setflags(write=False)
    return arr


class _Frozen:
    """Base of immutable values: assigning or deleting an attribute raises
    AttributeError.  ``__init__``, and caches filled on first use, write
    through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class EopOperator:
    """Head matrix plus an infinitely repeated tail block.

    Instances are immutable; every operation returns a new value, so sharing
    across threads is safe.
    """

    __slots__ = ("head", "tail")

    def __init__(self, head, tail):
        head = _as_square(head, "head")
        tail = _as_square(tail, "tail")
        _check_grid(head.shape[0], tail.shape[0])
        self.head = _freeze(head)
        self.tail = _freeze(tail)

    @classmethod
    def _new(cls, head, tail):
        # Fast path for freshly computed internal arrays; skips validation.
        self = object.__new__(cls)
        head.setflags(write=False)
        tail.setflags(write=False)
        self.head = head
        self.tail = tail
        return self

    @property
    def m(self):
        return self.head.shape[0]

    @property
    def p(self):
        return self.tail.shape[0]

    def __repr__(self):
        return f"EopOperator(m={self.m}, p={self.p})"

    def expand(self, m_new, p_new):
        """Re-represent the same operator on a coarser (m_new, p_new) grid."""
        if (m_new, p_new) == (self.m, self.p):
            return self
        _check_expand(self, m_new, p_new)
        head = np.zeros((m_new, m_new), dtype=np.complex128)
        tail = np.zeros((p_new, p_new), dtype=np.complex128)
        self._fill(head, tail)
        return EopOperator._new(head, tail)

    def _fill(self, head, tail):
        """Write this operator's blocks into zeroed arrays of a coarser grid.

        ``head`` and ``tail`` must be zero and of a grid this one expands
        to (see ``expand``); they may be views into larger stacks.
        """
        m, p = self.m, self.p
        head[:m, :m] = self.head
        for s in range(m, head.shape[0], p):
            head[s : s + p, s : s + p] = self.tail
        for s in range(0, tail.shape[0], p):
            tail[s : s + p, s : s + p] = self.tail

    def dense(self, n):
        """Top-left n x n corner of the infinite matrix."""
        out = np.zeros((n, n), dtype=np.complex128)
        k = min(self.m, n)
        out[:k, :k] = self.head[:k, :k]
        pos = self.m
        while pos < n:
            k = min(self.p, n - pos)
            out[pos : pos + k, pos : pos + k] = self.tail[:k, :k]
            pos += self.p
        return out

    def adjoint(self):
        return EopOperator._new(self.head.conj().T.copy(), self.tail.conj().T.copy())

    def __add__(self, other):
        a, b = align(self, other)
        return EopOperator._new(a.head + b.head, a.tail + b.tail)

    def __sub__(self, other):
        a, b = align(self, other)
        return EopOperator._new(a.head - b.head, a.tail - b.tail)

    def __neg__(self):
        return EopOperator._new(-self.head, -self.tail)

    def __mul__(self, scalar):
        lam = complex(scalar)
        return EopOperator._new(lam * self.head, lam * self.tail)

    __rmul__ = __mul__

    def __matmul__(self, other):
        a, b = align(self, other)
        return EopOperator._new(a.head @ b.head, a.tail @ b.tail)

    def isclose(self, other, tol=EQ_TOL):
        return operators_close(self, other, tol)

    def is_diagonal(self):
        """True when head and tail are exactly diagonal matrices."""
        return bool(exactly_diagonal(self.head) and exactly_diagonal(self.tail))

    def normalize(self):
        """Shrink period and head when the representation is redundant.

        Only exact redundancy is removed (a tail that is a block repetition
        of a smaller-period block, trailing head blocks bit-equal to the
        tail), so normalizing never changes the operator.
        """
        tail = np.asarray(self.tail)
        p = self.p
        for q in range(1, p + 1):
            if p % q:
                continue
            if _is_block_repetition(tail, q):
                tail = tail[:q, :q]
                p = q
                break
        head = np.asarray(self.head)
        m = self.m
        while m >= p:
            s = m - p
            if (
                np.all(head[s:m, s:m] == tail)
                and np.all(head[:s, s:m] == 0)
                and np.all(head[s:m, :s] == 0)
            ):
                m = s
            else:
                break
        return EopOperator(head[:m, :m].copy(), tail.copy())


def _is_block_repetition(tail, q):
    p = tail.shape[0]
    for a in range(p // q):
        for b in range(p // q):
            block = tail[a * q : (a + 1) * q, b * q : (b + 1) * q]
            ref = tail[:q, :q] if a == b else 0.0
            if not np.all(block == ref):
                return False
    return True


class Diagonal:
    """Eventually periodic diagonal: head entries plus a repeating pattern."""

    __slots__ = ("head_entries", "tail_pattern")

    def __init__(self, head_entries, tail_pattern):
        head = _as_vector(head_entries, "head entries")
        tail = _as_vector(tail_pattern, "tail pattern")
        _check_grid(head.size, tail.size)
        self.head_entries = _freeze(head)
        self.tail_pattern = _freeze(tail)

    @property
    def m(self):
        return self.head_entries.size

    @property
    def p(self):
        return self.tail_pattern.size

    def __repr__(self):
        return f"Diagonal(m={self.m}, p={self.p})"

    def to_operator(self):
        # The entries were validated on construction, so no re-check.
        return EopOperator._new(np.diag(self.head_entries), np.diag(self.tail_pattern))

    def expand(self, m_new, p_new):
        if (m_new, p_new) == (self.m, self.p):
            return self
        _check_expand(self, m_new, p_new)
        reps = (m_new - self.m) // self.p
        head = np.concatenate([self.head_entries, np.tile(self.tail_pattern, reps)])
        return Diagonal(head, np.tile(self.tail_pattern, p_new // self.p))

    def conj(self):
        return Diagonal(self.head_entries.conj(), self.tail_pattern.conj())

    def all_entries(self):
        return np.concatenate([self.head_entries, self.tail_pattern])

    def __mul__(self, other):
        a, b = align(self, other)
        return Diagonal(a.head_entries * b.head_entries,
                        a.tail_pattern * b.tail_pattern)


class DpkElement:
    """Canonical pair: diagonal part plus a zero-diagonal, zero-tail compact part."""

    __slots__ = ("diagonal_part", "compact_part")

    def __init__(self, diagonal_part, compact_part):
        self.diagonal_part = diagonal_part
        self.compact_part = compact_part

    def total(self):
        return self.diagonal_part.to_operator() + self.compact_part


def construct(head, tail_block):
    """Validated constructor; see EopOperator."""
    return EopOperator(head, tail_block)


def identity(m=0, p=1):
    return EopOperator(np.eye(m, dtype=np.complex128), np.eye(p, dtype=np.complex128))


def zero(m=0, p=1):
    return zero_tail(np.zeros((m, m), dtype=np.complex128), p)


def zero_tail(head, p):
    """Validated operator with the given head and an exactly zero p x p
    tail: the model's compact operators."""
    return EopOperator(head, np.zeros((p, p), dtype=np.complex128))


def common_grid(values):
    """Smallest (m, p) grid every value expands to: lcm period, head rounded up.

    A grid of more than ``GRID_CELL_BUDGET`` cells (m*m + p*p) is refused
    with AlignmentError, before anything is expanded to it.
    """
    p_new = math.lcm(*(v.p for v in values))
    m_new = -(-max(v.m for v in values) // p_new) * p_new
    if m_new * m_new + p_new * p_new > GRID_CELL_BUDGET:
        raise AlignmentError(f"common grid ({m_new},{p_new}) has more than "
                             f"{GRID_CELL_BUDGET} cells")
    return m_new, p_new


def align(*values):
    """Re-represent every value (operator, diagonal, permutation or quotient
    class) on the common grid, as a tuple in argument order."""
    m_new, p_new = common_grid(values)
    return tuple([v.expand(m_new, p_new) for v in values])


def operators_close(a, b, tol=EQ_TOL):
    x, y = align(a, b)
    dh = float(np.max(np.abs(x.head - y.head), initial=0.0))
    dt = float(np.max(np.abs(x.tail - y.tail)))
    return max(dh, dt) <= tol


def delta(t):
    """Conditional expectation onto diagonals: zero out off-diagonal entries."""
    return Diagonal(np.diagonal(t.head).copy(), np.diagonal(t.tail).copy())


def is_dpk_member(s):
    """True exactly when the tail block is a diagonal matrix."""
    return bool(exactly_diagonal(s.tail))


def canonical_decompose(t):
    """Split t = D + K with the compact part having exactly zero diagonal."""
    if not is_dpk_member(t):
        raise NotInDpk("tail block of T - delta(T) is nonzero")
    d = delta(t)
    k_head = t.head - np.diag(d.head_entries)
    return DpkElement(d, zero_tail(k_head, t.p))


def operator_norm(t):
    """Exact operator norm: max singular value over the two blocks."""
    return float(max(block_norm(t.tail), block_norm(t.head)))


def spectrum(t, tol=1e-10):
    """(point spectrum, essential spectrum) as deduplicated sorted arrays.

    Every eigenvalue of the tail block repeats in infinitely many blocks, so
    the essential part is exactly the tail eigenvalue set.
    """
    ess = dedup_complex(np.linalg.eigvals(t.tail), tol)
    pts = np.concatenate([np.linalg.eigvals(t.head), ess])
    return dedup_complex(pts, tol), ess


def finite_spectrum_approx(t, eps):
    """Snap the diagonal part onto an eps-grid, keeping the compact part.

    The output diagonal entries take finitely many values and the operator
    moves by at most eps in norm; Hermitian inputs stay Hermitian since real
    entries are snapped to real grid points.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    dec = canonical_decompose(t)
    d = dec.diagonal_part

    def snap(v):
        return np.round(v.real / eps) * eps + 1j * (np.round(v.imag / eps) * eps)

    quant = Diagonal(snap(d.head_entries), snap(d.tail_pattern))
    return quant.to_operator() + dec.compact_part
