"""Seeded verification suites driving every module's invariants.

Each suite runs ``config.trials`` deterministic cases (per-trial RNG from the
documented seed mix), records named residuals, and reports pass/fail counts
plus the worst residual seen per name.  Reports serialize to canonical JSON;
with metadata suppressed, reruns of the same config are byte-identical.
"""

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from . import autos, factor, fredholm, projections, quotient, topology
from .core import (
    Diagonal,
    EopOperator,
    align,
    canonical_decompose,
    delta,
    identity,
    is_dpk_member,
    operator_norm,
    zero_tail,
)
from .errors import (
    ConfigError,
    DpkError,
    IndexNotZero,
    NoConvergence,
    NotComparable,
    NotOrthogonalPatterns,
)
from .generate import (
    ExperimentConfig,
    random_compact_hermitian,
    random_general,
    random_member,
    random_operator,
    random_pattern,
    random_phases,
    random_positive_member,
    random_projection,
    random_unitary_member,
    trial_rng,
)
from .linalg import herm, matrix_rank_tol, polar_unitary
from .oracles import (
    chebyshev_radius_of_spectrum,
    dense_norm,
    dense_nullity,
)
from .serial import canonical_dumps


@dataclass
class SuiteReport:
    suite: str
    trials: int
    passes: int
    failures: int
    worst: Dict[str, float]
    wall_time_s: float
    cases: List[dict] = field(repr=False, default_factory=list)

    def to_obj(self, no_meta=False):
        obj = {
            "suite": self.suite,
            "trials": self.trials,
            "passes": self.passes,
            "failures": self.failures,
            "worst_residuals": {k: self.worst[k] for k in sorted(self.worst)},
            "cases": self.cases,
        }
        if not no_meta:
            obj["wall_time_s"] = self.wall_time_s
        return obj

    def to_json(self, no_meta=False):
        return canonical_dumps(self.to_obj(no_meta=no_meta))

    def to_csv(self, no_meta=False):
        names = sorted({k for c in self.cases for k in c["residuals"]})
        lines = ["trial,ok," + ",".join(names)]
        for c in self.cases:
            row = [str(c["trial"]), "1" if c["ok"] else "0"]
            row += [repr(c["residuals"].get(n, "")) for n in names]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


class _Case:
    """Accumulates named residuals and pass/fail notes for one trial."""

    def __init__(self, trial):
        self.trial = trial
        self.ok = True
        self.residuals = {}
        self.notes = []

    def check_le(self, name, value, bound):
        value = float(value)
        self.residuals[name] = max(self.residuals.get(name, 0.0), value)
        if not value <= bound:
            self.ok = False
            self.notes.append(f"{name}={value:.6e} exceeds {bound:.6e}")

    def check_ge(self, name, value, bound):
        # Recorded as the deficit bound - value, so larger means worse.
        value = float(value)
        self.residuals[name] = max(self.residuals.get(name, -np.inf), bound - value)
        if not value >= bound:
            self.ok = False
            self.notes.append(f"{name}={value:.6e} below {bound:.6e}")

    def check_true(self, name, flag):
        if not flag:
            self.ok = False
            self.notes.append(name)

    def check_exact(self, name, a, b):
        same = a == b if not isinstance(a, np.ndarray) else np.array_equal(a, b)
        if not same:
            self.ok = False
            self.notes.append(f"{name}: {a!r} != {b!r}")

    def to_obj(self):
        return {
            "trial": self.trial,
            "ok": self.ok,
            "residuals": {k: self.residuals[k] for k in sorted(self.residuals)},
            "notes": self.notes,
        }


def _collect(config, case_fn, trials=None):
    n = trials if trials is not None else config.trials
    cases = []
    for trial in range(n):
        case = _Case(trial)
        rng = trial_rng(config.seed, trial)
        try:
            case_fn(case, rng, trial)
        except DpkError as exc:
            case.ok = False
            case.notes.append(f"{type(exc).__name__}: {exc}")
        cases.append(case)
    return cases


# ----------------------------------------------------------------- suites


def _suite_delta_contractive(config):
    m, p = config.head_size, config.period

    def run(case, rng, trial):
        t = random_operator(rng, trial, m, p)
        d = delta(t).to_operator()
        case.check_le("contractivity", operator_norm(d) - operator_norm(t), 1e-12)
        case.check_le(
            "dense_oracle_gap", operator_norm(d) - dense_norm(t, m + 5 * p), 1e-10
        )
        case.check_exact("idempotent", np.array_equal(delta(d).to_operator().head, d.head)
                         and np.array_equal(delta(d).to_operator().tail, d.tail), True)
        compact = zero_tail(t.head, p)
        case.check_exact(
            "preserves_compacts", bool(np.all(delta(compact).tail_pattern == 0)), True
        )

    return _collect(config, run)


def _suite_closure(config):
    m, p = config.head_size, config.period

    def run(case, rng, trial):
        a = random_operator(rng, trial, m, p)
        b_period = 2 * p if (trial % 3 == 0 and m % (2 * p) == 0) else p
        b = (random_member(rng, m, b_period) if trial % 2
             else random_general(rng, m, b_period))
        for name, value in (
            ("sum", a + b),
            ("product", a @ b),
            ("adjoint", a.adjoint()),
            ("scaled", (1.5 - 0.5j) * a),
        ):
            case.check_true(f"{name}_finite", bool(np.all(np.isfinite(value.head)))
                            and bool(np.all(np.isfinite(value.tail))))
            case.check_exact(f"{name}_grid", value.m % value.p, 0)
        if is_dpk_member(a) and is_dpk_member(b):
            case.check_exact("member_closed", is_dpk_member(a + b) and is_dpk_member(a @ b), True)
        size = (a @ b).m + 3 * (a @ b).p
        dense_prod = a.dense(size) @ b.dense(size)
        case.check_le(
            "product_dense_gap",
            float(np.max(np.abs((a @ b).dense(size) - dense_prod))),
            1e-12 * max(1.0, operator_norm(a) * operator_norm(b)),
        )

    return _collect(config, run)


def _suite_norm_cstar(config):
    m, p = config.head_size, config.period

    def run(case, rng, trial):
        a = random_operator(rng, trial, m, p)
        b = random_general(rng, m, p)
        na, nb = operator_norm(a), operator_norm(b)
        case.check_le("cstar_identity", abs(operator_norm(a.adjoint() @ a) - na * na), 1e-12 * max(1.0, na * na))
        case.check_le("submultiplicative", operator_norm(a @ b) - na * nb, 1e-12)
        case.check_le("dense_agreement", abs(na - dense_norm(a, m + 5 * p)), 1e-10)

    return _collect(config, run)


def _suite_canonical(config):
    m, p = config.head_size, config.period

    def run(case, rng, trial):
        hermitian = trial % 2 == 1
        t = random_member(rng, m, p, hermitian=hermitian)
        dec = canonical_decompose(t)
        k = dec.compact_part
        case.check_exact("delta_of_compact_zero",
                         float(np.max(np.abs(np.diagonal(k.head)))) if m else 0.0, 0.0)
        case.check_exact("compact_tail_zero", bool(np.all(k.tail == 0)), True)
        recon = dec.total()
        case.check_exact("reconstruction_bits",
                         np.array_equal(recon.head, t.head) and np.array_equal(recon.tail, t.tail),
                         True)
        case.check_le("contractivity",
                      operator_norm(dec.diagonal_part.to_operator()) - operator_norm(t),
                      1e-12)
        if hermitian:
            case.check_exact("diagonal_part_real",
                             bool(np.all(dec.diagonal_part.all_entries().imag == 0)), True)
            case.check_exact("compact_part_hermitian",
                             np.array_equal(k.head, k.head.conj().T), True)

    return _collect(config, run)


def _commutator_probe_member(s):
    """Exhaustive commutator test over the residue diagonal projections."""
    m, p = s.m, s.p
    for r in range(p):
        head_bits = np.zeros(m, dtype=complex)
        head_bits[np.arange(m) % p == r] = 1.0
        tail_bits = np.zeros(p, dtype=complex)
        tail_bits[r] = 1.0
        proj = Diagonal(head_bits, tail_bits).to_operator()
        comm = s @ proj - proj @ s
        if np.any(comm.tail != 0):
            return False
    return True


def _suite_membership(config):
    m, p = config.head_size, config.period

    def run(case, rng, trial):
        s = random_operator(rng, trial, m, p)
        case.check_exact("probe_agreement", is_dpk_member(s), _commutator_probe_member(s))
        d = Diagonal(rng.standard_normal(m) + 1j * rng.standard_normal(m),
                     rng.standard_normal(p) + 1j * rng.standard_normal(p))
        if is_dpk_member(s):
            # General diagonals commute up to matmul roundoff (the exact-zero
            # guarantee holds for the 0/1 residue projections above).
            comm = s @ d.to_operator() - d.to_operator() @ s
            case.check_le("diagonal_commutator_tail",
                          float(np.max(np.abs(comm.tail))), 1e-13)
        if trial % 5 == 0:
            # 100 random 0/1 diagonal projections give the same verdict
            # (entries 0 and 1 multiply exactly, so the check stays exact).
            verdict = True
            for _ in range(100):
                bits = Diagonal(rng.integers(0, 2, m).astype(complex),
                                rng.integers(0, 2, p).astype(complex)).to_operator()
                if np.any((s @ bits - bits @ s).tail != 0):
                    verdict = False
                    break
            case.check_exact("random_projection_probe", verdict, is_dpk_member(s))

    return _collect(config, run)


def _suite_fredholm(config):
    m, p = config.head_size, config.period

    def run(case, rng, trial):
        mode = trial % 5
        if mode == 0:
            t = random_member(rng, m, p)
        elif mode == 4:
            # Singular head, invertible tail: Fredholm with nonzero kernel.
            t = random_member(rng, m, p)
            head = t.head.copy()
            head[:, 0] = 0.0
            pattern = np.diagonal(t.tail).copy()
            pattern[np.abs(pattern) < 0.2] = 0.5
            t = EopOperator(head, np.diag(pattern))
        elif mode == 1:
            t = random_general(rng, m, p)
        elif mode == 2:
            pattern = rng.standard_normal(p) + 1j * rng.standard_normal(p)
            pattern[rng.integers(0, p)] = 0.0  # singular tail: not Fredholm
            t = EopOperator(
                (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(m),
                np.diag(pattern),
            )
        else:
            t = zero_tail(
                (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(m), p
            )
        fd = fredholm.fredholm_data(t)
        case.check_exact("fredholm_iff_tail_invertible", fd.is_fredholm,
                         fd.tail_min_singular_value > 1e-10)
        ok, inverse = fredholm.is_invertible(t)
        case.check_exact("invertible_iff_fredholm_injective",
                         ok, bool(fd.is_fredholm and fd.kernel_dim == 0))
        if ok:
            case.check_le("inverse_residual",
                          operator_norm(t @ inverse - identity()), 1e-9)
        if fd.is_fredholm:
            case.check_exact("index_zero", fd.index, 0)
            for size in (m, m + p, m + 2 * p):
                case.check_exact(f"dense_nullity_{size}",
                                 dense_nullity(t, size), fd.kernel_dim)
        if trial % 5 == 0:
            u = random_unitary_member(rng, m, p)
            case.check_exact("unitary_classified",
                             fredholm.isometry_classify(u), fredholm.IsometryKind.UNITARY)
            case.check_exact("scaled_identity_rejected",
                             fredholm.isometry_classify(2.0 * identity(m, p)),
                             fredholm.IsometryKind.NOT_ISOMETRY)

    return _collect(config, run)


def _suite_stable_rank(config):
    m, p = config.head_size, config.period

    def run(case, rng, trial):
        hermitian = trial % 2 == 1
        t = random_member(rng, m, p, hermitian=hermitian)
        for eps in (1e-1, 1e-3):
            out = fredholm.invertible_approx(t, eps)
            ok, _ = fredholm.is_invertible(out)
            case.check_true(f"invertible_{eps:g}", ok)
            case.check_le(f"distance_over_3eps_{eps:g}",
                          operator_norm(t - out) / (3.0 * eps), 1.0 - 1e-12)
            if hermitian:
                case.check_exact(f"hermitian_preserved_{eps:g}",
                                 np.array_equal(out.head, out.head.conj().T)
                                 and np.array_equal(out.tail, out.tail.conj().T), True)

    return _collect(config, run)


def _suite_unitary_factorization(config):
    m, p = config.head_size, config.period

    def run(case, rng, trial):
        u = random_unitary_member(rng, m, p)
        fac = factor.unitary_factorize(u)
        x = fac.exponent
        case.check_le("reconstruction", operator_norm(fac.reconstruct() - u), 1e-9)
        case.check_exact("exponent_tail_zero", bool(np.all(x.tail == 0)), True)
        case.check_le("exponent_hermitian", operator_norm(x - x.adjoint()), 1e-12)
        case.check_le("exponent_norm", operator_norm(x), np.pi + 1e-9)
        d_star_u = fac.diagonal_unitary.conj().to_operator() @ u
        case.check_le("i_plus_compact_structure",
                      float(np.max(np.abs(d_star_u.tail - np.eye(p)))), 1e-12)
        if trial % 10 == 0:
            grid = np.linspace(0.0, 1.0, 11)
            pts = [factor.unitary_path(u, t) for t in grid]
            case.check_le("path_start", operator_norm(pts[0] - identity(m, p)), 1e-9)
            case.check_le("path_end", operator_norm(pts[-1] - u), 1e-9)
            worst_unitarity = max(factor.unitarity_defect(q) for q in pts)
            case.check_le("path_unitarity", worst_unitarity, 1e-9)
            lip = np.pi * (1.0 + operator_norm(x))
            worst_step = max(
                operator_norm(pts[k + 1] - pts[k]) for k in range(len(pts) - 1)
            )
            case.check_le("path_lipschitz", worst_step, lip / 10.0 + 1e-9)

    return _collect(config, run)


def _suite_porta_recht(config):
    p = config.period
    m = min(config.head_size, (16 // p) * p) or p
    state = {"rate_failures": 0}

    def run(case, rng, trial):
        if trial == 0:
            a = Diagonal(np.abs(rng.standard_normal(m)) + 0.5,
                         np.abs(rng.standard_normal(p)) + 0.5).to_operator()
        else:
            a = random_positive_member(rng, m, p)
        try:
            first = factor.porta_recht(a, tol=1e-10)
        except NoConvergence:
            state["rate_failures"] += 1
            case.residuals["no_convergence"] = 1.0
            return
        case.check_le("reconstruction", operator_norm(first.reconstruct() - a), 1e-8)
        case.check_le("zero_diagonal",
                      float(np.max(np.abs(np.diagonal(first.exponent.head).real)))
                      if m else 0.0, 1e-8)
        case.check_exact("exponent_tail_zero", bool(np.all(first.exponent.tail == 0)), True)
        case.check_le("exponent_hermitian",
                      operator_norm(first.exponent - first.exponent.adjoint()), 1e-10)
        case.check_exact("tail_forced",
                         np.array_equal(first.diagonal.tail_pattern, np.diagonal(a.tail)),
                         True)
        try:
            second = factor.porta_recht(a, tol=1e-10, init_log_diagonal=np.zeros(m))
        except NoConvergence:
            state["rate_failures"] += 1
            case.residuals["no_convergence"] = 1.0
            return
        gap_d = float(np.max(np.abs(first.diagonal.all_entries()
                                    - second.diagonal.all_entries())))
        gap_z = operator_norm(first.exponent - second.exponent)
        case.check_le("uniqueness_probe", max(gap_d, gap_z), 1e-6)
        if trial == 0:
            case.check_le("diagonal_input_exponent", operator_norm(first.exponent), 1e-10)

    cases = _collect(config, run)
    summary = _Case(-1)
    rate = state["rate_failures"] / max(1, config.trials)
    summary.check_le("no_convergence_rate", rate, 0.02 - 1e-12)
    cases.append(summary)
    return cases


def _multiplicative_unital_survivors(p):
    """Brute force over 0/1 coefficient vectors on the period-p quotient."""
    survivors = []
    for bits in itertools.product((0, 1), repeat=p):
        c = np.array(bits, dtype=complex)
        if abs(np.sum(c) - 1.0) > 1e-12:
            continue
        ok = True
        for r in range(p):
            for s in range(p):
                lhs = c[r] if r == s else 0.0
                if abs(lhs - c[r] * c[s]) > 1e-12:
                    ok = False
        if ok:
            survivors.append(bits)
    return survivors


def _suite_quotient(config):
    m, p = config.head_size, config.period

    def run(case, rng, trial):
        s = random_member(rng, m, p)
        t = random_member(rng, m, p)
        qs, qt = quotient.quotient_class(s), quotient.quotient_class(t)
        qprod = quotient.quotient_class(s @ t)
        case.check_le("product_law",
                      float(np.max(np.abs(qprod.values - qs.values * qt.values))), 1e-13)
        case.check_le("contractive", qs.norm - operator_norm(s), 1e-12)
        compact = zero_tail(s.head, p)
        case.check_exact("kills_compacts", quotient.quotient_class(compact).norm, 0.0)
        case.check_exact("ideal_shadow",
                         quotient.quotient_class(compact).norm == 0.0,
                         bool(np.all(compact.tail == 0)))
        r = int(rng.integers(0, p))
        case.check_le("character_product",
                      abs(quotient.character_eval(s @ t, r)
                          - quotient.character_eval(s, r) * quotient.character_eval(t, r)),
                      1e-13)
        case.check_exact("character_unital", quotient.character_eval(identity(m, p), r), 1 + 0j)
        case.check_exact("character_kills_compacts",
                         quotient.character_eval(compact, r), 0j)
        # Essential norm: the infimum over compact perturbations is attained
        # by zeroing the head.
        perturbed = [operator_norm(s + random_compact_hermitian(rng, m, p))
                     for _ in range(50)]
        zero_head = EopOperator(np.zeros((m, m)), s.tail)
        perturbed.append(operator_norm(zero_head))
        case.check_le("essential_norm", abs(min(perturbed) - qs.norm), 1e-6)

        phi = quotient.PositiveFunctional(
            _psd(rng, min(m, 6)), np.abs(rng.standard_normal(p))
        )
        normal, singular = quotient.functional_decompose(phi)
        pos = s.adjoint() @ s
        val = phi.evaluate(pos)
        case.check_le("decompose_recomposes",
                      abs(val - normal.evaluate(pos) - singular.evaluate(pos)), 1e-12)
        case.check_ge("normal_positive", normal.evaluate(pos).real, -1e-10)
        case.check_ge("singular_positive", singular.evaluate(pos).real, -1e-10)
        case.check_le("positive_imag", abs(val.imag), 1e-10)
        case.check_exact("singular_kills_compacts", singular.evaluate(compact), 0j)
        case.check_le("unit_mass",
                      abs(phi.evaluate(identity(m, p)) - phi.total_mass()), 1e-12)

        if trial == 0:
            for pp in (2, 3):
                expected = sorted(
                    tuple(1 if i == r else 0 for i in range(pp)) for r in range(pp)
                )
                case.check_exact(f"characters_p{pp}",
                                 sorted(_multiplicative_unital_survivors(pp)), expected)

        fixed = {r for r in range(p) if rng.random() < 0.3}
        free = [r for r in range(p) if r not in fixed]
        targets = list(rng.permutation(p))[: len(free)]
        endo = quotient.endomorphism_from_characters(
            p, fixed, dict(zip(free, targets)), anchor=int(rng.integers(0, p))
        )
        lhs = endo(s @ t)
        rhs = endo(s) @ endo(t)
        case.check_le("endomorphism_product",
                      operator_norm(lhs - rhs), 1e-12)
        case.check_le("endomorphism_star",
                      operator_norm(endo(s.adjoint()) - endo(s).adjoint()), 1e-12)
        case.check_exact("endomorphism_kills_compacts",
                         operator_norm(endo(compact)), 0.0)

    return _collect(config, run)


def _psd(rng, n):
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / max(
        1.0, np.sqrt(n)
    )
    return g.conj().T @ g


def _comparable_pair(rng, m, p, pattern=None, equal_rank=False):
    if pattern is None:
        pattern = random_pattern(rng, p)
    bits_p = rng.integers(0, 2, size=m)
    if equal_rank:
        bits_q = np.asarray(rng.permutation(bits_p))
    else:
        bits_q = rng.integers(0, 2, size=m)
    pr = random_projection(rng, m, p, pattern=pattern, head_bits=bits_p)
    qr = random_projection(rng, m, p, pattern=pattern, head_bits=bits_q)
    return pr, qr, int(bits_p.sum() - bits_q.sum())


def _suite_index(config):
    m, p = config.head_size, config.period

    def run(case, rng, trial):
        pr, qr, expected = _comparable_pair(rng, m, p)
        idx = projections.pair_index(pr, qr)
        case.check_exact("index_value", idx, expected)
        case.check_exact("antisymmetry", projections.pair_index(qr, pr), -idx)
        e0 = projections.zero_index_diagonal(pr)
        e0_proj = projections.ModelProjection(e0.to_operator())
        case.check_exact("zero_index", projections.pair_index(pr, e0_proj), 0)
        geo = projections.conjugating_exponential(pr, e0)
        case.check_le("conjugating_norm", geo.length, np.pi / 2 + 1e-9)
        case.check_exact("conjugating_tail_zero",
                         bool(np.all(geo.exponent.tail == 0)), True)

        e, k = projections.projection_diag_decompose(pr)
        w = np.linalg.eigvalsh(herm(k.head))
        plus = int(np.count_nonzero(np.abs(w - 1.0) <= 1e-8))
        minus = int(np.count_nonzero(np.abs(w + 1.0) <= 1e-8))
        e_proj = projections.ModelProjection(e.to_operator())
        rank_p = pr.head_rank()
        rank_e = e_proj.head_rank()
        tol = projections.PRODUCT_RANK_TOL
        dim_rp_ne = rank_p - matrix_rank_tol(e_proj.head @ pr.head, tol)
        dim_np_re = rank_e - matrix_rank_tol(pr.head @ e_proj.head, tol)
        case.check_exact("grassmann_plus", dim_rp_ne, plus)
        case.check_exact("grassmann_minus", dim_np_re, minus)

        if trial % 3 == 0:
            pattern = random_pattern(rng, p)
            pr2, qr2, _ = _comparable_pair(rng, m, p, pattern=pattern)
            rr2 = random_projection(rng, m, p, pattern=pattern)
            lhs = projections.pair_index(pr2, rr2)
            rhs = (projections.pair_index(pr2, qr2)
                   + projections.pair_index(qr2, rr2))
            case.check_exact("additivity", lhs, rhs)

        if trial % 20 == 0:
            pattern = random_pattern(rng, p)
            bits = rng.integers(0, 2, size=m)
            e_diag = projections.diagonal_projection(bits, pattern)
            x = random_compact_hermitian(rng, m, p, 1.5)
            for tt in (0.25, 0.5, 0.75, 1.0):
                u = factor.exp_ih(tt * x)
                moved = projections.ModelProjection(u @ e_diag.op @ u.adjoint())
                case.check_exact(f"invariance_t{tt:g}",
                                 projections.pair_index(e_diag, moved), 0)

    return _collect(config, run)


def _suite_index_additivity(config):
    m, p = config.head_size, config.period

    def run(case, rng, trial):
        pattern = random_pattern(rng, p)
        pr, qr, _ = _comparable_pair(rng, m, p, pattern=pattern)
        rr = random_projection(rng, m, p, pattern=pattern)
        lhs = projections.pair_index(pr, rr)
        rhs = projections.pair_index(pr, qr) + projections.pair_index(qr, rr)
        case.check_exact("additivity", lhs, rhs)

    return _collect(config, run)


def _suite_geodesic(config):
    m, p = config.head_size, config.period

    def run(case, rng, trial):
        if trial % 10 == 5 and m >= 2:
            # Orthogonal rank-one swap: gap exactly one, length exactly pi/2.
            bits_p = np.zeros(m)
            bits_q = np.zeros(m)
            bits_p[0] = 1.0
            bits_q[1] = 1.0
            pr = projections.diagonal_projection(bits_p, np.zeros(p))
            qr = projections.diagonal_projection(bits_q, np.zeros(p))
        else:
            pr, qr, _ = _comparable_pair(rng, m, p, equal_rank=True)
        gap = operator_norm(pr.op - qr.op)
        geo = projections.minimal_geodesic(pr, qr)
        x = geo.exponent
        eye = identity(x.m, x.p)
        case.check_le("codiagonal_p",
                      max(operator_norm(pr.op @ x @ pr.op),
                          operator_norm((eye - pr.op) @ x @ (eye - pr.op))), 1e-9)
        case.check_le("codiagonal_q",
                      max(operator_norm(qr.op @ x @ qr.op),
                          operator_norm((eye - qr.op) @ x @ (eye - qr.op))), 1e-9)
        # Near the snap window of the +-1 eigenvalue clustering the arcsin
        # relation is ill-conditioned, so the length checks apply only on
        # the two well-posed sides of it.
        if gap <= 1.0 - 1e-4:
            case.check_le("arcsin_formula", abs(geo.length - np.arcsin(gap)), 1e-7)
        elif gap > 1.0 - 1e-9:
            case.check_le("endpoint_length", abs(geo.length - np.pi / 2), 1e-9)
        if trial % 5 == 0:
            other = random_projection(rng, m, p,
                                      pattern=random_pattern(rng, p, forbid_constant=(p > 1)))
            same = projections.same_component(pr, other)
            try:
                projections.minimal_geodesic(pr, other)
                reached = True
            except (IndexNotZero, NotComparable):
                reached = False
            case.check_exact("orbit_matches_component", reached, same)

    return _collect(config, run)


def _five_tail_nontrivial_sigmas(m, p):
    if p < 2:
        raise ConfigError("separation suite needs period >= 2")
    tails = [np.array(t) for t in itertools.permutations(range(p))
             if list(t) != list(range(p))]
    specs = []
    k = 0
    while len(specs) < 5:
        tail = tails[k % len(tails)]
        head = np.arange(m)
        if k >= len(tails):
            # Rotate the head to keep the five specs distinct for small p.
            shift = k // len(tails)
            head = np.roll(head, shift)
        specs.append(autos.PermutationSpec(head, tail))
        k += 1
    return specs


def _random_normal_operator(rng, m, p):
    def normal_block(n):
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u = polar_unitary(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return u @ np.diag(vals) @ u.conj().T

    return EopOperator(normal_block(m), normal_block(p))


def _suite_separation(config):
    m, p = config.head_size, config.period
    sigmas = _five_tail_nontrivial_sigmas(m, p)

    def run(case, rng, trial):
        sigma = sigmas[trial % 5]
        u_sigma = autos.permutation_unitary(sigma)
        t = random_member(rng, m, p)
        case.check_ge("member_distance", operator_norm(u_sigma - t), 1.0 - 1e-9)
        w = random_unitary_member(rng, m, p)
        case.check_ge("unitary_distance", operator_norm(u_sigma - w), np.sqrt(2.0) - 1e-9)
        if trial % 6 == 0:
            other = sigmas[(trial // 6 + 1) % 5]
            if not np.array_equal(other.tail_perm, sigma.tail_perm):
                v = random_unitary_member(rng, m, p)
                lhs = operator_norm(u_sigma @ w - autos.permutation_unitary(other) @ v)
                case.check_ge("union_discreteness", lhs, np.sqrt(2.0) - 1e-9)
        if trial % 3 == 0:
            val = autos.stampfli_derivation_norm(w.adjoint() @ u_sigma).value
            case.check_ge("automorphism_distance", val, 2.0 - 1e-6)
        if trial % 6 == 3:
            a = _random_normal_operator(rng, m, p)
            val = autos.stampfli_derivation_norm(a).value
            case.check_le("stampfli_vs_circle",
                          abs(val - 2.0 * chebyshev_radius_of_spectrum(a)), 1e-6)

    return _collect(config, run)


def _probe_operators(m, p):
    probes = []
    for i in range(min(m, 3)):
        for j in range(min(m, 3)):
            head = np.zeros((m, m), dtype=complex)
            head[i, j] = 1.0
            probes.append(zero_tail(head, p))
    for r in range(p):
        head_bits = np.zeros(m, dtype=complex)
        head_bits[np.arange(m) % p == r] = 1.0
        tail_bits = np.zeros(p, dtype=complex)
        tail_bits[r] = 1.0
        probes.append(Diagonal(head_bits, tail_bits).to_operator())
    return probes


def _random_word_generators(rng, m, p, count=5):
    gens = []
    for k in range(count):
        pick = int(rng.integers(0, 3))
        if pick == 0:
            gens.append(Diagonal(random_phases(rng, m), random_phases(rng, p)))
        elif pick == 1:
            gens.append(random_compact_hermitian(rng, m, p, 1.5))
        else:
            head = rng.permutation(m)
            tail = rng.permutation(p)
            gens.append(autos.PermutationSpec(head, tail))
    return gens


def _generator_unitaries(gens):
    """(U, U*) of each generator, built once and shared by every probe."""
    pairs = []
    for gen in gens:
        if isinstance(gen, Diagonal):
            u = gen.to_operator()
        elif isinstance(gen, EopOperator):
            u = factor.exp_ih(gen)
        else:
            u = autos.permutation_unitary(gen)
        pairs.append((u, u.adjoint()))
    return pairs


def _apply_generators(pairs, t):
    """Conjugate t by each generator in turn, the last one first."""
    out = t
    for u, ua in reversed(pairs):
        uu, uua, tt = align(u, ua, out)
        out = uu @ tt @ uua
    return out


def _suite_automorphism(config):
    m, p = config.head_size, config.period

    def run(case, rng, trial):
        gens = _random_word_generators(rng, m, p)
        word = autos.normal_form(gens)
        pairs = _generator_unitaries(gens)
        for probe in _probe_operators(min(m, 3 * p), p):
            direct = _apply_generators(pairs, probe)
            folded = autos.apply_automorphism(word, probe)
            case.check_le("normal_form_probe", operator_norm(direct - folded), 1e-9)
        t = random_member(rng, m, p, hermitian=(trial % 2 == 0))
        s = random_member(rng, m, p)
        image_t = autos.apply_automorphism(word, t)
        case.check_le("norm_preserved",
                      abs(operator_norm(image_t) - operator_norm(t)), 1e-10)
        case.check_le("star_preserved",
                      operator_norm(autos.apply_automorphism(word, t.adjoint())
                                    - image_t.adjoint()), 1e-10)
        case.check_le("multiplicative",
                      operator_norm(autos.apply_automorphism(word, t @ s)
                                    - image_t @ autos.apply_automorphism(word, s)), 1e-9)
        case.check_exact("member_preserved", is_dpk_member(image_t), True)
        compact = zero_tail(t.head, p)
        case.check_exact("compacts_preserved",
                         bool(np.all(autos.apply_automorphism(word, compact).tail == 0)),
                         True)
        if trial % 2 == 0:
            w_t = np.sort(np.linalg.eigvalsh(herm(t.head)))
            w_i = np.sort(np.linalg.eigvalsh(herm(image_t.head)))
            case.check_le("spectrum_preserved", float(np.max(np.abs(w_t - w_i))), 1e-9)

        u = word.unitary()
        ok, witness = autos.is_dpk_automorphism(u)
        case.check_exact("witness_found", ok, True)
        if ok:
            phases, perm = witness
            case.check_exact("witness_perm",
                             np.array_equal(perm, word.sigma.tail_perm), True)
        rot = np.eye(p, dtype=complex)
        if p >= 2:
            c, s_ = np.cos(np.pi / 4), np.sin(np.pi / 4)
            rot[:2, :2] = np.array([[c, -s_], [s_, c]])
            bad = EopOperator(np.eye(m, dtype=complex), rot)
            flag, _ = autos.is_dpk_automorphism(bad)
            case.check_exact("rotation_rejected", flag, False)

        values = rng.standard_normal(3)
        d0 = Diagonal(values[rng.integers(0, 3, size=m)].astype(complex),
                      values[rng.integers(0, 3, size=p)].astype(complex))
        matched = autos.match_finite_spectrum_conjugation(u, d0)
        target = u @ d0.to_operator() @ word.unitary_adjoint()
        case.check_le("conjugation_match",
                      operator_norm(autos.apply_automorphism(matched, d0.to_operator())
                                    - target), 1e-8)

    return _collect(config, run)


def _generator_loop(m, p, j, turns=1, samples=64):
    # The order 2j*pi*turns*t keeps the phases bit-equal to building each
    # sample's Diagonal (tests/_oracles.reference_generator_loop).
    ts = np.linspace(0.0, 1.0, samples, endpoint=False)
    heads = np.tile(np.eye(m, dtype=complex), (samples, 1, 1))
    heads[:, j, j] = np.exp(2j * np.pi * turns * ts)
    tails = np.broadcast_to(np.eye(p, dtype=complex), (samples, p, p))
    return topology.UnitaryLoop.from_stacks(heads, tails)


def _combo_loop(ks, samples=48):
    # The order 2j*pi*ks*t keeps the phases bit-equal to building each
    # sample's Diagonal (tests/_oracles.reference_combo_loop).
    ts = np.linspace(0.0, 1.0, samples, endpoint=False)
    phases = np.exp(2j * np.pi * np.asarray(ks) * ts[:, None])
    diag = np.arange(len(ks))
    heads = np.zeros((samples, len(ks), len(ks)), dtype=complex)
    heads[:, diag, diag] = phases
    return topology.UnitaryLoop.from_stacks(heads, np.ones((samples, 1, 1), dtype=complex))


def _suite_topology(config):
    m, p = config.head_size, config.period

    def run(case, rng, trial):
        z0 = _random_member_hermitian_bounded(rng, m, p, 0.9 * np.pi)
        u = factor.exp_ih(z0)
        d, v = topology.bundle_section(u)
        case.check_le("section_reconstructs",
                      operator_norm(d.to_operator() @ v - u), 1e-9)
        case.check_exact("fiber_tail_identity",
                         np.array_equal(v.tail, np.eye(p, dtype=complex)), True)
        case.check_le("fiber_unitary", factor.unitarity_defect(v), 1e-9)

        j = trial % min(5, m)
        loop = _generator_loop(m, p, j)
        head_w, tail_w = topology.loop_winding(loop, "diagonal")
        expected = np.zeros(m, dtype=int)
        expected[j] = 1
        case.check_exact("generator_winding", np.array_equal(head_w, expected), True)
        case.check_exact("generator_tail_winding", bool(np.all(tail_w == 0)), True)
        case.check_exact("fiber_det_winding",
                         topology.loop_winding(loop.adjoint(), "compact"), -1)

        if trial == 0:
            seen = {}
            for ks in itertools.product(range(-3, 4), repeat=3):
                lp = _combo_loop(ks)
                hw, tw = topology.loop_winding(lp, "diagonal")
                det = topology.loop_winding(lp.adjoint(), "compact")
                case.check_exact(f"combo_{ks}", tuple(hw), ks)
                case.check_exact(f"combo_det_{ks}", det, -sum(ks))
                seen[ks] = (tuple(hw), det)
            case.check_exact("injectivity", len(set(seen.values())), len(seen))

        if trial % 10 == 1:
            l1 = _generator_loop(m, p, j)
            l2 = _generator_loop(m, p, (j + 1) % m)
            both = l1.concatenate(l2)
            hw, _ = topology.loop_winding(both, "diagonal")
            expected2 = np.zeros(m, dtype=int)
            expected2[j] += 1
            expected2[(j + 1) % m] += 1
            case.check_exact("winding_additivity", np.array_equal(hw, expected2), True)

        pr = random_projection(rng, m, p)
        cls = topology.k0_class(pr)
        x = random_compact_hermitian(rng, m, p, 1.5)
        uu = factor.exp_ih(x)
        moved = projections.ModelProjection(uu @ pr.op @ uu.adjoint())
        case.check_exact("k0_invariant", topology.k0_class(moved), cls)

        if trial % 5 == 0:
            bits = np.zeros(m)
            bits[int(rng.integers(0, m))] = 1.0
            pattern = random_pattern(rng, p)
            base = projections.diagonal_projection(bits, pattern)
            flipped_bits = bits.copy()
            zeros_at = np.flatnonzero(flipped_bits == 0)
            flipped_bits[zeros_at[0]] = 1.0
            flipped = projections.diagonal_projection(flipped_bits, pattern)
            case.check_exact("z_flip",
                             topology.k0_class(flipped).z_part
                             - topology.k0_class(base).z_part, 1)
        if trial % 7 == 0 and p >= 2:
            pat_a = np.zeros(p)
            pat_a[0] = 1
            pat_b = np.zeros(p)
            pat_b[1] = 1
            bits_a = (np.arange(m) % p == 0).astype(float)
            bits_b = (np.arange(m) % p == 1).astype(float)
            pa = projections.diagonal_projection(bits_a, pat_a)
            pb = projections.diagonal_projection(bits_b, pat_b)
            x2 = random_compact_hermitian(rng, m, p, 1.0)
            u2 = factor.exp_ih(x2)
            ca = topology.k0_class(projections.ModelProjection(u2 @ pa.op @ u2.adjoint()))
            cb = topology.k0_class(projections.ModelProjection(u2 @ pb.op @ u2.adjoint()))
            csum = topology.k0_class(
                projections.ModelProjection(u2 @ (pa.op + pb.op) @ u2.adjoint())
            )
            case.check_exact("k0_additive", topology.k0_add(ca, cb), csum)
            overlap_raises = False
            try:
                topology.k0_add(ca, ca)
            except NotOrthogonalPatterns:
                overlap_raises = True
            case.check_exact("k0_overlap_rejected", overlap_raises, True)

    return _collect(config, run)


def _random_member_hermitian_bounded(rng, m, p, cap):
    t = random_member(rng, m, p, hermitian=True)
    scale = operator_norm(t)
    if scale == 0.0:
        return t
    return t * float(rng.uniform(0.2, 1.0) * cap / scale)


def _suite_determinism(config):
    inner = ExperimentConfig(
        seed=config.seed,
        trials=min(config.trials, 50),
        head_size=config.head_size,
        period=config.period,
        suite="delta-contractive",
    )

    def run(case, rng, trial):
        first = run_suite(inner).to_json(no_meta=True)
        second = run_suite(inner).to_json(no_meta=True)
        case.check_exact("byte_identical", first == second, True)

    return _collect(config, run, trials=1)


SUITES = {
    "delta-contractive": _suite_delta_contractive,
    "closure": _suite_closure,
    "norm-cstar": _suite_norm_cstar,
    "canonical-decomposition": _suite_canonical,
    "membership": _suite_membership,
    "fredholm": _suite_fredholm,
    "stable-rank": _suite_stable_rank,
    "unitary-factorization": _suite_unitary_factorization,
    "porta-recht": _suite_porta_recht,
    "quotient": _suite_quotient,
    "index": _suite_index,
    "index-additivity": _suite_index_additivity,
    "geodesic": _suite_geodesic,
    "separation": _suite_separation,
    "automorphism": _suite_automorphism,
    "topology": _suite_topology,
    "determinism": _suite_determinism,
}


def run_suite(config):
    """Execute the suite named in the config and assemble its report."""
    name = config.suite
    if name not in SUITES:
        raise ConfigError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    start = time.perf_counter()
    raw_cases = SUITES[name](config)
    elapsed = time.perf_counter() - start
    cases = [c.to_obj() for c in raw_cases]
    passes = sum(1 for c in cases if c["ok"])
    worst = {}
    for c in raw_cases:
        for k, v in c.residuals.items():
            worst[k] = max(worst.get(k, float("-inf")), float(v))
    return SuiteReport(
        suite=name,
        trials=len(cases),
        passes=passes,
        failures=len(cases) - passes,
        worst=worst,
        wall_time_s=elapsed,
        cases=cases,
    )
