"""Automorphism generators, their normal form, and distance machinery.

Three families generate the automorphisms the model can represent:
conjugation by diagonal unitaries, by exponentials of compact Hermitians,
and by permutation unitaries (a head permutation plus a residue permutation
acting inside every tail block).  Any word in the generators folds into the
normal form theta_w theta_X theta_sigma.

The permutation convention is U_sigma e_n = e_{sigma(n)}, under which
conjugation carries the diagonal entry at position n to position sigma(n).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Diagonal,
    EopOperator,
    _Frozen,
    _check_expand,
    _check_grid,
    _freeze,
    align,
    delta,
    operator_norm,
    zero_tail,
)
from .errors import (
    ConfigError,
    ModelViolation,
    NotDpkAutomorphism,
    NotUnitary,
)
from .factor import exp_ih, require_unitary
from .linalg import eigh_sorted, herm, log_unitary_matrix, polar_unitary, svmax


def _as_perm(values, what):
    """Integer copy of a permutation of 0..n-1; an empty one (n = 0) may
    come as any empty vector, e.g. ``[]``."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ModelViolation(f"{what} is not a permutation")
    # np.asarray turns [True, 0] into integers, so bools are looked for
    # among the entries themselves.
    if arr.size and (arr.dtype.kind not in "iu" or any(
            isinstance(v, (bool, np.bool_)) for v in values)):
        raise ModelViolation(f"{what} entries must be integers")
    arr = arr.astype(int)
    if sorted(arr.tolist()) != list(range(arr.size)):
        raise ModelViolation(f"{what} is not a permutation")
    return arr


class PermutationSpec(_Frozen):
    """Head permutation plus a residue permutation of the tail grid.

    The induced operator permutes the first m basis vectors by ``head_perm``
    and acts inside every tail block by ``tail_perm``; its support is
    infinite exactly when the residue permutation is nontrivial.  Immutable.
    """

    __slots__ = ("head_perm", "tail_perm")

    def __init__(self, head_perm, tail_perm):
        head = _as_perm(head_perm, "head permutation")
        tail = _as_perm(tail_perm, "tail residue permutation")
        _check_grid(head.size, tail.size)
        object.__setattr__(self, "head_perm", _freeze(head))
        object.__setattr__(self, "tail_perm", _freeze(tail))

    @property
    def m(self):
        return self.head_perm.size

    @property
    def p(self):
        return self.tail_perm.size

    def __repr__(self):
        return f"PermutationSpec(m={self.m}, p={self.p})"

    @staticmethod
    def identity_spec(m, p):
        return PermutationSpec(np.arange(m), np.arange(p))

    def expand(self, m_new, p_new):
        if (m_new, p_new) == (self.m, self.p):
            return self
        _check_expand(self, m_new, p_new)
        # Beyond the original head the infinite permutation acts per block by
        # the residue permutation; re-heading keeps that action literal.
        blocks = np.arange(self.m, m_new, self.p)[:, None] + self.tail_perm
        head = np.concatenate([self.head_perm, blocks.ravel()])
        tail = np.arange(0, p_new, self.p)[:, None] + self.tail_perm
        return PermutationSpec(head, tail.ravel())

    def compose(self, other):
        """self after other: (self*other)(n) = self(other(n))."""
        a, b = align(self, other)
        return PermutationSpec(a.head_perm[b.head_perm], a.tail_perm[b.tail_perm])

    def inverse(self):
        return PermutationSpec(np.argsort(self.head_perm), np.argsort(self.tail_perm))


def permutation_unitary(spec):
    """The unitary with U e_n = e_{sigma(n)}; in D+K iff the tail part is trivial."""
    head = np.zeros((spec.m, spec.m), dtype=np.complex128)
    head[spec.head_perm, np.arange(spec.m)] = 1.0
    tail = np.zeros((spec.p, spec.p), dtype=np.complex128)
    tail[spec.tail_perm, np.arange(spec.p)] = 1.0
    return EopOperator(head, tail)


def permute_diagonal(spec, d):
    """Conjugation action on diagonals: entry n moves to position sigma(n)."""
    s, dd = align(spec, d)
    head = np.empty(s.m, dtype=np.complex128)
    head[s.head_perm] = dd.head_entries
    tail = np.empty(s.p, dtype=np.complex128)
    tail[s.tail_perm] = dd.tail_pattern
    return Diagonal(head, tail)


def conjugate_exponent_by_perm(spec, x):
    """U_sigma X U_sigma* for a zero-tail Hermitian X."""
    s, xx = align(spec, x)
    head = np.zeros((s.m, s.m), dtype=np.complex128)
    head[np.ix_(s.head_perm, s.head_perm)] = xx.head
    return zero_tail(head, s.p)


def _unit_phases(values):
    mags = np.abs(values)
    if values.size and (np.max(np.abs(mags - 1.0)) > 1e-9):
        raise NotUnitary("diagonal word entries must have unit modulus")
    return values / np.where(mags == 0, 1.0, mags)


class AutomorphismWord(_Frozen):
    """Normal form theta_w theta_X theta_sigma.

    Acts on T as U T U* with U = D_w exp(iX) U_sigma; w has unit-modulus
    entries, X is Hermitian with exactly zero tail.  A word is immutable
    (assigning an attribute raises AttributeError), so U and U* are computed
    once, on first use, and kept on the word: applying a word again costs no
    further exp(iX).
    """

    __slots__ = ("w", "exponent", "sigma", "_u", "_u_adjoint")

    def __init__(self, w, exponent, sigma):
        w = Diagonal(_unit_phases(np.asarray(w.head_entries)),
                     _unit_phases(np.asarray(w.tail_pattern)))
        if svmax(exponent.head - exponent.head.conj().T) > 1e-10:
            raise ModelViolation("word exponent must be Hermitian")
        if np.any(exponent.tail != 0):
            raise ModelViolation("word exponent must have exactly zero tail")
        for name, value in (("w", w), ("exponent", exponent), ("sigma", sigma),
                            ("_u", None), ("_u_adjoint", None)):
            object.__setattr__(self, name, value)

    def __repr__(self):
        return f"AutomorphismWord(m={self.sigma.m}, p={self.sigma.p})"

    @staticmethod
    def identity_word(m=0, p=1):
        return AutomorphismWord(
            Diagonal(np.ones(m, dtype=complex), np.ones(p, dtype=complex)),
            zero_tail(np.zeros((m, m)), p),
            PermutationSpec.identity_spec(m, p),
        )

    def unitary(self):
        """U = D_w exp(iX) U_sigma, on the word's grid."""
        if self._u is None:
            u = (
                self.w.to_operator()
                @ exp_ih(self.exponent)
                @ permutation_unitary(self.sigma)
            )
            object.__setattr__(self, "_u", u)
        return self._u

    def unitary_adjoint(self):
        """U*, on the word's grid."""
        if self._u_adjoint is None:
            object.__setattr__(self, "_u_adjoint", self.unitary().adjoint())
        return self._u_adjoint


def apply_automorphism(word, t):
    """theta_w theta_X theta_sigma applied to t."""
    u, ua, tt = align(word.unitary(), word.unitary_adjoint(), t)
    return u @ tt @ ua


def _fold_exponents(x, y):
    """Hermitian log of exp(iX) exp(iY); both zero-tail, so is the result."""
    a, b = align(x, y)
    return zero_tail(log_unitary_matrix((exp_ih(a) @ exp_ih(b)).head), a.p)


def normal_form(generators):
    """Fold a generator list (Diagonal | Hermitian EopOperator | PermutationSpec)
    into a single word acting identically.

    Uses the commutation rules: a permutation moves past a diagonal by
    permuting its entries, past an exponential by conjugating the exponent;
    two exponentials merge through the logarithm of the product unitary.
    """
    word = AutomorphismWord.identity_word()
    w, x, sigma = word.w, word.exponent, word.sigma
    for gen in generators:
        if isinstance(gen, Diagonal):
            moved = permute_diagonal(sigma, gen)
            w = w * moved
            # exp(iX) D = D (D* exp(iX) D); conjugate the exponent.
            mh, xh = align(moved.to_operator(), x)
            x = zero_tail(mh.head.conj().T @ xh.head @ mh.head, xh.p)
        elif isinstance(gen, EopOperator):
            if svmax(gen.head - gen.head.conj().T) > 1e-10 or np.any(gen.tail != 0):
                raise ModelViolation(
                    "exponent generators must be Hermitian with zero tail"
                )
            x = _fold_exponents(x, conjugate_exponent_by_perm(sigma, gen))
        elif isinstance(gen, PermutationSpec):
            sigma = sigma.compose(gen)
        else:
            raise TypeError(f"unsupported generator type {type(gen)!r}")
    return AutomorphismWord(*align(w, x, sigma))


def is_dpk_automorphism(u):
    """Decide whether Ad(u) preserves the model D+K, with a tail witness.

    True exactly when the tail block factors as (diagonal unitary) times
    (permutation matrix); returns (flag, (phases, tail_perm)) with the
    witness None on failure.
    """
    require_unitary(u)
    t = u.tail
    p = u.p
    perm = np.full(p, -1, dtype=int)
    phases = np.zeros(p, dtype=np.complex128)
    for j in range(p):
        col = t[:, j]
        i = int(np.argmax(np.abs(col)))
        val = col[i]
        rest = np.abs(np.delete(col, i))
        if abs(abs(val) - 1.0) > 1e-8 or (rest.size and np.max(rest) > 1e-8):
            return False, None
        perm[j] = i
        phases[i] = val
    if sorted(perm.tolist()) != list(range(p)):
        return False, None
    return True, (phases, perm)


# Work cap of one stampfli_derivation_norm call, summed over its restarts:
# objective evaluations (one SVD per block) plus dual bounds (one SVD with
# vectors per block).  A tol out of reach ends here, with the gap reached.
STAMPFLI_BUDGET = 1000
# The dual bound takes, per block, the right singular vectors of B - z whose
# singular value is within NEAR_TOP (relative) of the objective, at most
# MAX_VECTORS of them, plus SUPPORT_DIRECTIONS support points of the
# numerical range of B - z compressed to their span.  The cap keeps the
# exact search over mixtures of three states to at most C(80, 3) = 82,160
# candidates however large the head.
NEAR_TOP = 1e-3
MAX_VECTORS = 32
SUPPORT_DIRECTIONS = 8


@dataclass(frozen=True, eq=False)
class DerivationNorm:
    """Certified derivation norm: ``value - gap <= ||delta_a|| <= value``.

    ``value`` is 2 max(sigma_max(head - z), sigma_max(tail - z)) at
    z = ``center``.  The lower bound is 2 sqrt(sum_k t_k a_k - |sum_k t_k
    b_k|^2), the variance of ``a`` in the mixed state with weights
    t_k = ``weights[k]`` over the vector states ``states[k] = (block, x_k)``,
    where a_k = ||(B - z) x_k||^2, b_k = <(B - z) x_k, x_k> and B is the named
    block ("head" or "tail").  The variance does not depend on z, and no
    scalar comes closer than its square root.  ``evaluations`` counts the
    work spent (see STAMPFLI_BUDGET).
    """

    value: float
    center: complex
    gap: float
    states: tuple = field(repr=False)
    weights: tuple
    evaluations: int

    def to_obj(self):
        return {
            "derivation_norm": self.value,
            "gap": self.gap,
            "center": [self.center.real, self.center.imag],
            "evaluations": self.evaluations,
        }


def _nelder_mead(f, z0, f0, scale, ftol, budget):
    """Minimize f over the complex plane from the simplex z0, z0 + scale,
    z0 + i scale, where f(z0) = f0 is known; a complex scale also turns the
    simplex.

    Stops once the vertex values spread by at most ftol, the simplex has
    collapsed to one point, or another step (at most 3 evaluations) would
    spend more than ``budget`` evaluations in all.  Vertices are ordered by
    a stable sort, so ties keep their order and reruns are bit for bit
    equal.  Returns (best z, its value, evaluations, distance from the best
    vertex to the farthest).
    """
    pts = [z0, z0 + scale, z0 + 1j * scale]
    vals = [f0, f(pts[1]), f(pts[2])]
    evals = 2
    while True:
        order = sorted(range(3), key=vals.__getitem__)
        pts = [pts[k] for k in order]
        vals = [vals[k] for k in order]
        size = max(abs(pts[1] - pts[0]), abs(pts[2] - pts[0]))
        if vals[2] - vals[0] <= ftol or size == 0.0 or evals + 3 > budget:
            return pts[0], vals[0], evals, size
        mid = (pts[0] + pts[1]) / 2.0
        reflected = 2.0 * mid - pts[2]
        f_r = f(reflected)
        evals += 1
        if f_r < vals[0]:
            expanded = 3.0 * mid - 2.0 * pts[2]
            f_e = f(expanded)
            evals += 1
            pts[2], vals[2] = (expanded, f_e) if f_e < f_r else (reflected, f_r)
        elif f_r < vals[1]:
            pts[2], vals[2] = reflected, f_r
        else:
            inner = (mid + (reflected if f_r < vals[2] else pts[2])) / 2.0
            f_c = f(inner)
            evals += 1
            if f_c < min(f_r, vals[2]):
                pts[2], vals[2] = inner, f_c
            else:
                for k in (1, 2):
                    pts[k] = (pts[0] + pts[k]) / 2.0
                    vals[k] = f(pts[k])
                evals += 2


def _best_mixture(a, b):
    """Weights t on the simplex maximizing t.a - |t.b|^2, and that maximum.

    The objective depends on t through (t.a, t.b), a point of R^3 whose
    best position lies on a face of the upper convex hull, spanned by at
    most 3 states (Caratheodory in the b-plane).  So the maximum is the best
    stationary point over all supports of one, two or three states; the
    degenerate supports (coincident or collinear b) are covered by the
    smaller ones.
    """
    n = a.size
    r = np.arange(n)
    lt = r[:, None] < r
    supports = [((r,), (np.ones(n),))]
    # On a segment i-j the concave quadratic in t_j = s peaks at s below.
    i, j = np.nonzero(lt)
    d = b[j] - b[i]
    dd = np.abs(d) ** 2
    s = ((a[j] - a[i]) / 2.0 - (b[i].conj() * d).real) / np.where(dd > 0.0, dd, 1.0)
    s = np.clip(np.where(dd > 0.0, s, 0.0), 0.0, 1.0)
    supports.append(((i, j), (1.0 - s, s)))
    # On a triangle i-j-k the stationary point is the radical centre
    # beta = b_i + q, where a_l - 2<beta, b_l> is equal at the three
    # vertices; the weights are its barycentric coordinates.
    i, j, k = np.nonzero(lt[:, :, None] & lt)
    e1, e2 = b[j] - b[i], b[k] - b[i]
    det = (e1.conj() * e2).imag
    flat = det == 0.0
    det = np.where(flat, 1.0, det)
    r1 = (a[j] - a[i]) / 2.0 - (b[i].conj() * e1).real
    r2 = (a[k] - a[i]) / 2.0 - (b[i].conj() * e2).real
    q = ((r1 * e2.imag - r2 * e1.imag) + 1j * (e1.real * r2 - e2.real * r1)) / det
    tj, tk = (q.conj() * e2).imag / det, (e1.conj() * q).imag / det
    ti = 1.0 - tj - tk
    inside = ~flat & (ti >= 0.0) & (tj >= 0.0) & (tk >= 0.0)
    supports.append(((i[inside], j[inside], k[inside]), (ti[inside], tj[inside], tk[inside])))

    best_value, best_t = -np.inf, None
    for idx, w in supports:
        values = (sum(wl * a[il] for il, wl in zip(idx, w))
                  - np.abs(sum(wl * b[il] for il, wl in zip(idx, w))) ** 2)
        if values.size and values.max() > best_value:
            pick = int(np.argmax(values))
            best_value, best_t = float(values[pick]), np.zeros(n)
            for il, wl in zip(idx, w):
                best_t[il[pick]] += wl[pick]
    return best_t, best_value


def _variance_bound(blocks, z, fz):
    """(lower bound, states, weights, step) from the near-top vector states
    of the shifted blocks B - z, where fz is the objective at z.  The step
    t.b moves z to the scalar closest to the mixture."""
    states, a_parts, b_parts = [], [], []
    for name, block, eye in blocks:
        shifted = block - z * eye
        _, sv, vh = np.linalg.svd(shifted)
        x = vh[: MAX_VECTORS][sv[: MAX_VECTORS] >= (1.0 - NEAR_TOP) * fz].conj().T
        if x.shape[1] > 1:
            # Support points of the numerical range of the compression: at
            # a minimizer where sigma_max is multiple, the singular vectors
            # alone may not surround 0.
            c = x.conj().T @ shifted @ x
            turns = np.exp(-2j * np.pi * np.arange(SUPPORT_DIRECTIONS) / SUPPORT_DIRECTIONS)
            _, vecs = eigh_sorted(herm(turns[:, None, None] * c))
            x = np.concatenate([x, x @ vecs[:, :, -1].T], axis=1)
        y = shifted @ x
        a_parts.append(np.sum(np.abs(y) ** 2, axis=0))
        b_parts.append(np.sum(x.conj() * y, axis=0))
        states += [(name, x[:, k]) for k in range(x.shape[1])]
    b = np.concatenate(b_parts)
    t, variance = _best_mixture(np.concatenate(a_parts), b)
    keep = np.flatnonzero(t)
    return (2.0 * math.sqrt(max(variance, 0.0)),
            tuple((states[k][0], _freeze(states[k][1].copy())) for k in keep),
            tuple(float(t[k]) for k in keep), complex(t @ b))


def stampfli_derivation_norm(a, tol=1e-8):
    """Norm of the inner derivation of ``a``: twice the distance to scalars
    (Stampfli), with a certificate of how close.

    The primal minimizes f(z) = max(sigma_max(head - z), sigma_max(tail - z))
    by Nelder-Mead in the plane, from a simplex at the mean diagonal entry
    z0 with scale f(z0)/2 (the minimizer lies within f(z0) of z0, in the
    closure of the numerical range).  The dual is the mixed-state variance
    bound ||a - z||^2 >= rho(a* a) - |rho(a)|^2 (Bjorck-Thomee-Istratescu),
    with rho the best mixture of vector states taken at the primal point.
    Nelder-Mead restarts from its best point until the gap between the two
    is at most ``tol``, or the work reaches STAMPFLI_BUDGET.  Returns a
    DerivationNorm.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"tol must be finite and positive, got {tol!r}")
    blocks = tuple((name, b, np.eye(b.shape[0])) for name, b in (("head", a.head), ("tail", a.tail))
                   if b.size)

    def objective(z):
        return max(svmax(b - z * eye) for _, b, eye in blocks)

    z = complex(np.mean(np.concatenate([np.diagonal(b) for _, b, _ in blocks])))
    fz = objective(z)
    lower, states, weights, _ = _variance_bound(blocks, z, fz)
    evaluations = 2
    # The value is 2 f, so a first run that ends with f spread over tol / 8
    # leaves the value within tol / 4 of its best.
    scale, ftol = fz / 2.0, tol / 8.0
    gap = max(2.0 * fz - lower, 0.0)
    while gap > tol and evaluations + 3 <= STAMPFLI_BUDGET:
        z, fz, used, size = _nelder_mead(objective, z, fz, scale, ftol,
                                         STAMPFLI_BUDGET - evaluations - 1)
        bound, bound_states, bound_weights, step = _variance_bound(blocks, z, fz)
        evaluations += used + 1
        if bound > lower:
            lower, states, weights = bound, bound_states, bound_weights
        gap = max(2.0 * fz - lower, 0.0)
        # Not certified yet: restart from the best point with a tighter
        # spread target, the simplex spanned along the dual step (which
        # leads out of the valleys where Nelder-Mead stalls) or, when that
        # step is shorter than the last simplex, no smaller than the gap.
        scale = step if abs(step) > size else max(size, gap / 2.0)
        ftol *= min(0.25, tol / max(gap, tol))
    return DerivationNorm(2.0 * fz, z, gap, states, weights, evaluations)


def _cluster_diagonal_values(d, tol=1e-8):
    """Group the entries of a diagonal into clusters of equal spectral value."""
    entries = d.all_entries()
    reps = []
    labels = np.empty(entries.size, dtype=int)
    for i, z in enumerate(entries):
        for k, r in enumerate(reps):
            if abs(z - r) <= tol:
                labels[i] = k
                break
        else:
            labels[i] = len(reps)
            reps.append(z)
    return reps, labels[: d.m], labels[d.m :]


def match_finite_spectrum_conjugation(u, d0):
    """Reproduce Ad(u) on a finite-spectrum diagonal by a model word.

    Requires ``u`` to implement a model automorphism (tail = diagonal times
    permutation).  The returned word (w = 1, X, sigma) matches the spectral
    projections of d0 one at a time: sigma carries the tail witness, and X
    is the Hermitian log of the head unitary that maps each diagonal
    eigenprojection onto its conjugated image.
    """
    if not isinstance(d0, Diagonal):
        raise TypeError("d0 must be a Diagonal")
    ok, witness = is_dpk_automorphism(u)
    if not ok:
        raise NotDpkAutomorphism("tail block is not diagonal-times-permutation")

    d0_op, u_al = align(d0.to_operator(), u)
    d0_al = delta(d0_op)
    m, p = u_al.m, u_al.p
    if u_al is not u:
        ok, witness = is_dpk_automorphism(u_al)
        if not ok:
            raise NotDpkAutomorphism("tail witness lost under alignment")
    _, tail_perm = witness
    sigma = PermutationSpec(np.arange(m), tail_perm)

    _, head_labels, tail_labels = _cluster_diagonal_values(d0_al)
    n_values = max(head_labels.tolist() + tail_labels.tolist()) + 1

    u_al_adjoint = u_al.adjoint()
    blocks = []
    for k in range(n_values):
        support = np.flatnonzero(head_labels == k)
        mask_head = np.zeros(m, dtype=complex)
        mask_head[support] = 1.0
        mask_tail = (tail_labels == k).astype(complex)
        e_k = Diagonal(mask_head, mask_tail).to_operator()
        p_k = u_al @ e_k @ u_al_adjoint
        rank = support.size
        basis_src = np.eye(m, dtype=np.complex128)[:, support]
        w_eig, v_eig = eigh_sorted(herm(p_k.head))
        keep = np.flatnonzero(w_eig > 0.5)
        if keep.size != rank:
            raise ModelViolation(
                "conjugated eigenprojection changed head rank; model invariant broken"
            )
        blocks.append((basis_src, v_eig[:, keep]))

    y = np.zeros((m, m), dtype=np.complex128)
    for basis_src, basis_dst in blocks:
        y += basis_dst @ basis_src.conj().T
    y = polar_unitary(y)
    x = zero_tail(log_unitary_matrix(y), p)

    word = AutomorphismWord(
        Diagonal(np.ones(m, dtype=complex), np.ones(p, dtype=complex)), x, sigma
    )
    target = u_al @ d0_op @ u_al_adjoint
    residual = operator_norm(apply_automorphism(word, d0_op) - target)
    if residual > 1e-8:
        raise ModelViolation(f"conjugation matching residual {residual:.3e} too large")
    return word
