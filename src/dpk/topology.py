"""Bundle section, loop winding invariants, and the projection class invariant.

The product map (D, V) -> DV from diagonal unitaries times compact-unitary
perturbations of the identity onto the model unitary group admits a section
on the open ball of radius two around the identity.  Winding numbers of
closed unitary loops realize the fundamental-group data of the two factors,
and projections carry a (tail pattern, relative index) class that is stable
under inner conjugation and additive over orthogonal sums.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import (
    Diagonal,
    EopOperator,
    _Frozen,
    _as_square,
    _check_finite,
    _check_grid,
    common_grid,
    identity,
    is_dpk_member,
    operator_norm,
)
from .errors import (
    AlignmentError,
    KindMismatch,
    NotInBall,
    NotInDpk,
    NotOrthogonalPatterns,
    NotUnitary,
    StepTooLarge,
)
from .factor import log_unitary, require_unitary, unitarity_defects
from .linalg import all_exactly_diagonal, block_norms, eigenphase_sums
from .projections import ModelProjection, _canonical_diagonal, pair_index

MAX_LOOP_STEP = 0.5
LOOP_UNITARY_TOL = 1e-9
# Stacked checks run on chunks of samples holding at most this many cells
# per block stack, so their temporaries stay small whatever the loop length.
CHUNK_CELLS = 8192


def _chunks(n, k):
    """(samples, next samples) index pairs covering a loop of n samples of
    k x k blocks; the sample after the last is the first."""
    step = max(1, CHUNK_CELLS // max(k * k, 1))
    return [(slice(a, min(a + step, n)), np.arange(a + 1, min(a + step, n) + 1) % n)
            for a in range(0, n, step)]


def _next_samples(a):
    """a[k + 1] for each k, the sample after the last being the first; the
    same as ``np.roll(a, -1, axis=0)``, at a fraction of its cost."""
    return np.concatenate((a[1:], a[:1]))


def _diagonal_max_step(entries):
    """Largest step of a loop of exactly diagonal samples, from the (n, k)
    diagonal entries; NotUnitary first if a sample is not unitary."""
    if np.max(np.abs(np.conjugate(entries) * entries - 1.0)) > LOOP_UNITARY_TOL:
        raise NotUnitary("operand is not unitary within tolerance")
    return float(np.max(np.abs(_next_samples(entries) - entries)))


def _chunked_max_step(heads, tails):
    """Largest step of a loop from its stacks, chunk by chunk; NotUnitary
    first if a sample is not unitary."""
    chunks = _chunks(heads.shape[0], max(heads.shape[1], tails.shape[1]))
    for here, _ in chunks:
        if np.max(unitarity_defects(heads[here], tails[here])) > LOOP_UNITARY_TOL:
            raise NotUnitary("operand is not unitary within tolerance")
    worst = 0.0
    for here, after in chunks:
        steps = np.maximum(block_norms(tails[after] - tails[here]),
                           block_norms(heads[after] - heads[here]))
        worst = max(worst, float(np.max(steps)))
    return worst


def _diagonal_entries(heads, tails):
    """(n, m + p) array of the diagonal entries of each sample's blocks."""
    return np.concatenate([np.diagonal(heads, axis1=1, axis2=2),
                           np.diagonal(tails, axis1=1, axis2=2)], axis=1)


class UnitaryLoop(_Frozen):
    """Closed loop of model unitaries, stored as stacks on one common grid.

    ``heads`` is the read-only (n, m, m) stack of head blocks and ``tails``
    the read-only (n, p, p) stack of tail blocks, both C-contiguous.  There
    are two constructors:

    * ``UnitaryLoop(samples)`` takes model operators and copies them once
      onto their common (lcm-period) grid, then checks that the copies are
      finite (NonFiniteEntry);
    * ``UnitaryLoop.from_stacks(heads, tails)`` takes the stacks directly
      and copies them.  It validates what an operator's constructor would:
      square blocks, stacks of the same length, tail size p >= 1 dividing
      head size m (AlignmentError), and finite entries (NonFiniteEntry).

    ``samples[k]`` is a read-only operator whose blocks are views of
    ``heads[k]`` and ``tails[k]``; the views are made on first access only.
    ``adjoint()`` conjugate-transposes every block of the stacks.  A loop is
    immutable: assigning or deleting an attribute raises AttributeError.

    Every loop, whichever way it is made, has at least two samples
    (StepTooLarge otherwise), every sample must be unitary within 1e-9
    (NotUnitary), and consecutive samples, wrapping around from the last to
    the first, must stay closer than 0.5 in norm (StepTooLarge), so that
    every entrywise phase step is well inside (-pi/3, pi/3) and the winding
    numbers below are unambiguous.  Unitarity is checked for all samples
    before any step.

    ``diagonal`` says whether every head and tail block is exactly diagonal
    (-0.0 counts as zero), decided once by one count over each whole stack.
    Such a loop is checked on its (n, m + p) diagonal entries: the
    unitarity defect of an entry d is |conj(d) d - 1|, and a step is the
    largest |d[k+1] - d[k]|, which is the norm ``block_norms`` gives a
    diagonal block, bit for bit.  Other loops are checked on the stacks in
    chunks of at most ``CHUNK_CELLS`` cells per block, so their temporaries
    stay bounded; exactly diagonal blocks among them take no SVD.
    """

    __slots__ = ("heads", "tails", "max_step", "diagonal", "_samples")

    def __init__(self, samples):
        samples = list(samples)
        n = len(samples)
        if n < 2:
            raise StepTooLarge("a loop needs at least two samples")
        m, p = common_grid(samples)
        heads = np.zeros((n, m, m), dtype=np.complex128)
        tails = np.zeros((n, p, p), dtype=np.complex128)
        for k, s in enumerate(samples):
            s._fill(heads[k], tails[k])
        # Arithmetic such as scaling skips validation, so a sample can
        # carry non-finite entries, which pass the tolerance comparisons.
        _check_finite(heads, "loop heads")
        _check_finite(tails, "loop tails")
        self._check_and_store(heads, tails)

    @classmethod
    def from_stacks(cls, heads, tails):
        """Loop of the samples (heads[k], tails[k]); see the class docstring."""
        # Own C-contiguous copies.  _as_square also checks finiteness, which
        # the loop checks cannot: a NaN passes their tolerance comparisons.
        heads = np.ascontiguousarray(_as_square(heads, "heads", ndim=3))
        tails = np.ascontiguousarray(_as_square(tails, "tails", ndim=3))
        if heads.shape[0] != tails.shape[0]:
            raise AlignmentError(
                f"{heads.shape[0]} head blocks but {tails.shape[0]} tail blocks")
        if heads.shape[0] < 2:
            raise StepTooLarge("a loop needs at least two samples")
        _check_grid(heads.shape[1], tails.shape[1])
        return cls._from_own_stacks(heads, tails)

    @classmethod
    def _from_own_stacks(cls, heads, tails):
        # For fresh, valid, C-contiguous complex stacks that nothing else holds.
        self = object.__new__(cls)
        self._check_and_store(heads, tails)
        return self

    def _check_and_store(self, heads, tails):
        """Freeze the stacks, check unitarity and then the steps, and keep them."""
        heads.setflags(write=False)
        tails.setflags(write=False)
        diagonal = all_exactly_diagonal(heads) and all_exactly_diagonal(tails)
        if diagonal:
            worst = _diagonal_max_step(_diagonal_entries(heads, tails))
        else:
            worst = _chunked_max_step(heads, tails)
        if worst >= MAX_LOOP_STEP:
            raise StepTooLarge(f"largest sample gap {worst:.3f} >= {MAX_LOOP_STEP}")
        for name, value in (("heads", heads), ("tails", tails), ("max_step", worst),
                            ("diagonal", diagonal), ("_samples", None)):
            object.__setattr__(self, name, value)

    @property
    def samples(self):
        if self._samples is None:
            object.__setattr__(self, "_samples", tuple(
                EopOperator._new(h, t) for h, t in zip(self.heads, self.tails)))
        return self._samples

    @property
    def m(self):
        return self.heads.shape[1]

    @property
    def p(self):
        return self.tails.shape[1]

    def __len__(self):
        return self.heads.shape[0]

    def adjoint(self):
        """The loop of the adjoint samples, in the same order."""
        return UnitaryLoop._from_own_stacks(
            np.conjugate(self.heads.transpose(0, 2, 1), order="C"),
            np.conjugate(self.tails.transpose(0, 2, 1), order="C"))

    def concatenate(self, other):
        """Run this loop, then the other; windings add."""
        return UnitaryLoop(self.samples + other.samples)


def _round_integer(x, what):
    rounded = np.round(x)
    if np.max(np.abs(x - rounded)) > 1e-6:
        raise StepTooLarge(f"{what} did not close up to an integer")
    return rounded.astype(int)


def loop_winding(loop, kind):
    """Winding data of a closed loop, computed on its head and tail stacks.

    Only ``heads`` and ``tails`` are read, so a loop made from stacks never
    builds its sample views here.

    ``kind='diagonal'`` needs exactly diagonal samples (``loop.diagonal``)
    and returns one integer per head entry and per tail residue
    (accumulated principal phase increments over the loop).
    ``kind='compact'`` needs samples with tail equal to the identity and
    returns the winding of det(head), accumulated through the eigenphases of
    each consecutive ratio so no step can alias.  The ratios are formed in
    chunks of at most ``CHUNK_CELLS`` cells; on a diagonal loop a ratio is
    diagonal, its eigenvalues are its entries conj(h[k]) h[k+1], and their
    phases are taken directly, with no eigensolver.  Increments are summed
    in sample order, as a running total would be.
    """
    n, m = len(loop), loop.m
    if kind == "diagonal":
        if not loop.diagonal:
            raise KindMismatch("diagonal winding needs diagonal samples")
        entries = _diagonal_entries(loop.heads, loop.tails)
        increments = np.angle(_next_samples(entries) / entries)
        total = np.cumsum(increments, axis=0)[-1]
        winding = _round_integer(total / (2.0 * np.pi), "diagonal winding")
        return winding[:m].copy(), winding[m:].copy()
    if kind == "compact":
        eye_t = np.eye(loop.p, dtype=np.complex128)
        if float(np.max(np.abs(loop.tails - eye_t))) > 1e-9:
            raise KindMismatch("compact winding needs tail = identity")
        if loop.diagonal:
            h = np.diagonal(loop.heads, axis1=1, axis2=2)
            sums = np.sum(np.angle(np.conjugate(h) * _next_samples(h)), axis=1)
        else:
            sums = np.concatenate([eigenphase_sums(loop.heads[here], loop.heads[after])
                                   for here, after in _chunks(n, m)])
        total = float(np.cumsum(sums)[-1])
        winding = _round_integer(np.array([total / (2.0 * np.pi)]), "det winding")
        return int(winding[0])
    raise KindMismatch(f"unknown loop kind {kind!r}")


def bundle_section(u):
    """Section of the product fibration on the ball of radius 2 around I.

    Returns (D, V) with D a diagonal unitary, V a unitary whose tail is
    exactly the identity, and D V = U.
    """
    require_unitary(u)
    if not is_dpk_member(u):
        raise NotInDpk("operand is not a model D+K element")
    if operator_norm(u - identity()) >= 2.0 - 1e-9:
        raise NotInBall("unitary is not inside the ball of radius 2 around I")
    z = log_unitary(u)
    d = Diagonal(
        np.exp(1j * np.diagonal(z.head).real),
        np.exp(1j * np.diagonal(z.tail).real),
    )
    v_head = (d.conj().to_operator() @ u).head
    v = EopOperator(v_head, np.eye(u.p, dtype=np.complex128))
    return d, v


@dataclass(frozen=True)
class K0Class:
    """(tail pattern, index against the canonical diagonal representative)."""

    tail_pattern: Tuple[int, ...]
    z_part: int

    def to_obj(self):
        return {"tail_pattern": list(self.tail_pattern), "z_part": self.z_part}


def k0_class(p):
    """Projection class invariant, stable under model inner conjugation."""
    if not p.is_member():
        raise NotInDpk("projection is not a model D+K element")
    pattern = p.pattern()
    e_can = _canonical_diagonal(pattern, p.m)
    z = pair_index(p, ModelProjection(e_can.to_operator()))
    return K0Class(tuple(int(b) for b in pattern), int(z))


def k0_add(a, b):
    """Class of an orthogonal sum; patterns must stay 0/1 entrywise."""
    p_new = math.lcm(len(a.tail_pattern), len(b.tail_pattern))
    pat_a = list(a.tail_pattern) * (p_new // len(a.tail_pattern))
    pat_b = list(b.tail_pattern) * (p_new // len(b.tail_pattern))
    summed = [x + y for x, y in zip(pat_a, pat_b)]
    if any(s > 1 for s in summed):
        raise NotOrthogonalPatterns("pattern sum leaves 0/1 range")
    return K0Class(tuple(summed), a.z_part + b.z_part)
