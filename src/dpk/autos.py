"""Automorphism generators, their normal form, and distance machinery.

Three families generate the automorphisms the model can represent:
conjugation by diagonal unitaries, by exponentials of compact Hermitians,
and by permutation unitaries (a head permutation plus a residue permutation
acting inside every tail block).  Any word in the generators folds into the
normal form theta_w theta_X theta_sigma.

The permutation convention is U_sigma e_n = e_{sigma(n)}, under which
conjugation carries the diagonal entry at position n to position sigma(n).
"""

import numpy as np

from .core import (
    Diagonal,
    EopOperator,
    _check_expand,
    _check_grid,
    _freeze,
    align,
    delta,
    operator_norm,
    zero_tail,
)
from .errors import (
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


class _Frozen:
    """Base of immutable values: assigning or deleting an attribute raises
    AttributeError.  ``__init__``, and caches filled on first use, write
    through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


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


def stampfli_derivation_norm(a, tol=1e-8):
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
