"""Test-side oracles, implemented independently of the library internals."""

import numpy as np

from dpk.autos import permutation_unitary
from dpk.core import Diagonal, EopOperator, align, operator_norm
from dpk.errors import KindMismatch, StepTooLarge
from dpk.factor import exp_ih, require_unitary
from dpk.linalg import svmax
from dpk.topology import UnitaryLoop


def dense_embed(op, n):
    """Top-left n x n corner of the infinite matrix, built entry by entry."""
    m, p = op.m, op.p
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i < m and j < m:
                out[i, j] = op.head[i, j]
            elif i >= m and j >= m and (i - m) // p == (j - m) // p:
                out[i, j] = op.tail[(i - m) % p, (j - m) % p]
    return out


def dense_operator_norm(op, n):
    d = dense_embed(op, n)
    return float(np.linalg.svd(d, compute_uv=False)[0]) if d.size else 0.0


def dense_null_dim(op, n, tol=1e-10):
    d = dense_embed(op, n)
    if d.size == 0:
        return 0
    s = np.linalg.svd(d, compute_uv=False)
    return int(np.count_nonzero(s <= tol))


def commutator_probe(op):
    """True iff every residue diagonal projection commutes with op mod tail.

    The tail of the commutator with the r-th residue projection vanishes
    exactly when row and column r of the tail block are diagonal.
    """
    p = op.p
    for r in range(p):
        proj_tail = np.zeros((p, p), dtype=complex)
        proj_tail[r, r] = 1.0
        lhs = op.tail @ proj_tail - proj_tail @ op.tail
        if np.any(lhs != 0):
            return False
    return True


def principal_angles(p_head, q_head):
    """Angles between the ranges of two projection matrices (ascending)."""
    wp, vp = np.linalg.eigh((p_head + p_head.conj().T) / 2)
    wq, vq = np.linalg.eigh((q_head + q_head.conj().T) / 2)
    bp = vp[:, wp > 0.5]
    bq = vq[:, wq > 0.5]
    if bp.shape[1] == 0 or bq.shape[1] == 0:
        return np.zeros(0)
    s = np.linalg.svd(bp.conj().T @ bq, compute_uv=False)
    return np.sort(np.arccos(np.clip(s, 0.0, 1.0)))


def grid_chebyshev_value(points, step=1e-4, refine_from=1e-2):
    """Two-stage grid minimization of max distance to a point set.

    Each stage evaluates max |pts - lam| at every grid point lam = x + iy at
    once (x-major, as nested loops over x then y would) and keeps the first
    minimum.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    radius = float(np.max(np.abs(pts))) + 0.5

    def sweep(cx, cy, half, h):
        xs = np.arange(cx - half, cx + half + h / 2, h)
        ys = np.arange(cy - half, cy + half + h / 2, h)
        lam = np.empty((xs.size, ys.size), dtype=complex)
        lam.real = xs[:, None]
        lam.imag = ys[None, :]
        lam = lam.ravel()
        values = np.max(np.abs(pts[:, None] - lam), axis=0)
        best = int(np.argmin(values))
        return float(values[best]), complex(lam[best])

    _, lam1 = sweep(0.0, 0.0, radius, refine_from)
    best, _ = sweep(lam1.real, lam1.imag, 2 * refine_from, step)
    return best


# Per-sample reference for the stacked topology.UnitaryLoop / loop_winding:
# the sample-by-sample implementation they replaced, kept verbatim.  Unlike
# the oracles above it builds on the library's align, operator_norm and
# require_unitary, one sample at a time.

REF_MAX_LOOP_STEP = 0.5


class ReferenceUnitaryLoop:
    """Closed loop of model unitaries, aligned to a common grid on creation."""

    __slots__ = ("samples", "max_step")

    def __init__(self, samples):
        samples = list(samples)
        if len(samples) < 2:
            raise StepTooLarge("a loop needs at least two samples")
        base = samples[0]
        for s in samples[1:]:
            base, _ = align(base, s)
        aligned = []
        for s in samples:
            a, _ = align(s, base)
            require_unitary(a, 1e-9)
            aligned.append(a)
        steps = [
            operator_norm(aligned[(k + 1) % len(aligned)] - aligned[k])
            for k in range(len(aligned))
        ]
        worst = max(steps)
        if worst >= REF_MAX_LOOP_STEP:
            raise StepTooLarge(f"largest sample gap {worst:.3f} >= {REF_MAX_LOOP_STEP}")
        self.samples = tuple(aligned)
        self.max_step = worst

    @property
    def m(self):
        return self.samples[0].m

    @property
    def p(self):
        return self.samples[0].p

    def __len__(self):
        return len(self.samples)


def _phase_increment_sum(values_from, values_to):
    return np.angle(values_to / values_from)


def _round_integer(x, what):
    rounded = np.round(x)
    if np.max(np.abs(x - rounded)) > 1e-6:
        raise StepTooLarge(f"{what} did not close up to an integer")
    return rounded.astype(int)


def reference_loop_winding(loop, kind):
    """Winding data of a closed loop, one sample at a time."""
    n = len(loop)
    if kind == "diagonal":
        for s in loop.samples:
            if not s.is_diagonal():
                raise KindMismatch("diagonal winding needs diagonal samples")
        entries = np.stack(
            [
                np.concatenate([np.diagonal(s.head), np.diagonal(s.tail)])
                for s in loop.samples
            ]
        )
        total = np.zeros(entries.shape[1])
        for k in range(n):
            total += _phase_increment_sum(entries[k], entries[(k + 1) % n])
        winding = _round_integer(total / (2.0 * np.pi), "diagonal winding")
        return winding[: loop.m].copy(), winding[loop.m :].copy()
    if kind == "compact":
        eye_t = np.eye(loop.p, dtype=np.complex128)
        for s in loop.samples:
            if float(np.max(np.abs(s.tail - eye_t))) > 1e-9:
                raise KindMismatch("compact winding needs tail = identity")
        total = 0.0
        for k in range(n):
            if loop.m == 0:
                break
            ratio = loop.samples[k].head.conj().T @ loop.samples[(k + 1) % n].head
            total += float(np.sum(np.angle(np.linalg.eigvals(ratio))))
        winding = _round_integer(np.array([total / (2.0 * np.pi)]), "det winding")
        return int(winding[0])
    raise KindMismatch(f"unknown loop kind {kind!r}")


# Per-sample reference for the topology suite's loop generators, which now
# fill the stacks directly: the sample-by-sample builders, kept verbatim.

def reference_generator_loop(m, p, j, turns=1, samples=64):
    ts = np.linspace(0.0, 1.0, samples, endpoint=False)
    ops = []
    for t in ts:
        head = np.ones(m, dtype=complex)
        head[j] = np.exp(2j * np.pi * turns * t)
        ops.append(Diagonal(head, np.ones(p, dtype=complex)).to_operator())
    return UnitaryLoop(ops)


def reference_combo_loop(ks, samples=48):
    ts = np.linspace(0.0, 1.0, samples, endpoint=False)
    ops = []
    for t in ts:
        head = np.exp(2j * np.pi * np.asarray(ks) * t)
        ops.append(Diagonal(head, np.ones(1, dtype=complex)).to_operator())
    return UnitaryLoop(ops)


# Block-by-block reference for autos.PermutationSpec.expand, which now
# builds the re-headed permutation with one broadcast: the loop version it
# replaced, kept verbatim apart from returning the two index arrays.

def reference_permutation_expand(spec, m_new, p_new):
    m, p = spec.m, spec.p
    head = np.empty(m_new, dtype=int)
    head[:m] = spec.head_perm
    for j in range((m_new - m) // p):
        s = m + j * p
        head[s : s + p] = s + spec.tail_perm
    tail = np.empty(p_new, dtype=int)
    for j in range(p_new // p):
        s = j * p
        tail[s : s + p] = s + spec.tail_perm
    return head, tail


# Uncached references for autos.apply_automorphism, which now reuses the
# word's kept U and U*, and for the automorphism suite's _apply_generators,
# which now takes each generator's (U, U*) built once per trial: the code
# they replaced, kept verbatim apart from rebuilding U where it used to.

def reference_unitary(word):
    """U = D_w exp(iX) U_sigma, built afresh from the word's parts."""
    return (
        word.w.to_operator()
        @ exp_ih(word.exponent)
        @ permutation_unitary(word.sigma)
    )


def reference_apply_automorphism(word, t):
    u, tt = align(reference_unitary(word), t)
    return u @ tt @ u.adjoint()


def reference_apply_generators(gens, t):
    out = t
    for gen in reversed(gens):
        if isinstance(gen, Diagonal):
            u = gen.to_operator()
        elif isinstance(gen, EopOperator):
            u = exp_ih(gen)
        else:
            u = permutation_unitary(gen)
        uu, tt = align(u, out)
        out = uu @ tt @ uu.adjoint()
    return out


# Reference for autos.stampfli_derivation_norm, which now runs Nelder-Mead
# with a certifying dual bound: the nested golden-section search and
# compass polish it replaced, kept verbatim (it returns a bare float).

def _golden_min(f, lo, hi, xtol):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > xtol:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    mid = (lo + hi) / 2.0
    return mid, f(mid)


def _nested_golden(objective, x_box, y_box, xtol):
    def best_over_y(x):
        return _golden_min(lambda y: objective(x, y), y_box[0], y_box[1], xtol)

    x_star, _ = _golden_min(lambda x: best_over_y(x)[1], x_box[0], x_box[1], xtol)
    y_star, value = best_over_y(x_star)
    return x_star, y_star, value


def reference_stampfli_derivation_norm(a, tol=1e-8):
    """Norm of the inner derivation of ``a``: twice the distance to scalars.

    Minimizes max(sigma_max(head - z), sigma_max(tail - z)) over complex z
    by nested golden-section search on the box |Re z|, |Im z| <= norm(a)
    (the minimizer lies in the closure of the numerical range), followed by
    a compass polish.  The objective is jointly convex, hence unimodal
    along every line.
    """
    radius = operator_norm(a)
    if radius == 0.0:
        return 0.0

    head, tail = a.head, a.tail
    eye_h = np.eye(a.m, dtype=np.complex128)
    eye_t = np.eye(a.p, dtype=np.complex128)

    def objective(x, y):
        lam = complex(x, y)
        vals = [svmax(tail - lam * eye_t)]
        if a.m:
            vals.append(svmax(head - lam * eye_h))
        return max(vals)

    x_star, y_star, value = _nested_golden(
        objective, (-radius, radius), (-radius, radius), tol
    )

    step = 16.0 * tol
    while step > tol / 4.0:
        moved = False
        for dx, dy in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            cand = objective(x_star + dx, y_star + dy)
            if cand < value:
                x_star, y_star, value = x_star + dx, y_star + dy, cand
                moved = True
                break
        if not moved:
            step /= 2.0
    return 2.0 * value
