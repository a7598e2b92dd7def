import gc

import numpy as np
import pytest

from dpk import autos
from dpk.autos import (
    AutomorphismWord,
    PermutationSpec,
    apply_automorphism,
    conjugate_exponent_by_perm,
    is_dpk_automorphism,
    match_finite_spectrum_conjugation,
    normal_form,
    permutation_unitary,
    permute_diagonal,
    stampfli_derivation_norm,
)
from dpk.core import (
    Diagonal,
    EopOperator,
    align,
    construct,
    identity,
    is_dpk_member,
    operator_norm,
)
from dpk.errors import AlignmentError, ConfigError, ModelViolation, NotUnitary
from dpk.factor import exp_ih
from dpk.generate import (
    random_compact_hermitian,
    random_general,
    random_member,
    random_phases,
    random_unitary_member,
    trial_rng,
)
from dpk.generate import ExperimentConfig
from dpk.suites import (
    _apply_generators,
    _generator_unitaries,
    _random_word_generators,
    run_suite,
)

from _oracles import (
    grid_chebyshev_value,
    reference_apply_automorphism,
    reference_apply_generators,
    reference_permutation_expand,
    reference_stampfli_derivation_norm,
    reference_unitary,
)


def test_permutation_unitary_identity_and_membership():
    spec = PermutationSpec.identity_spec(4, 2)
    assert operator_norm(permutation_unitary(spec) - identity(4, 2)) == 0.0

    swap_head = PermutationSpec([1, 0, 2, 3], [0, 1])
    u = permutation_unitary(swap_head)
    assert is_dpk_member(u)

    swap_tail = PermutationSpec([0, 1], [1, 0])
    assert not is_dpk_member(permutation_unitary(swap_tail))


def test_permutation_conjugates_diagonals():
    rng = trial_rng(9, 0)
    spec = PermutationSpec(rng.permutation(6), rng.permutation(3))
    u = permutation_unitary(spec)
    d = Diagonal(rng.standard_normal(6).astype(complex),
                 rng.standard_normal(3).astype(complex))
    conj = u @ d.to_operator() @ u.adjoint()
    expected = permute_diagonal(spec, d).to_operator()
    assert operator_norm(conj - expected) == 0.0
    # Entry n lands at position sigma(n).
    assert conj.head[spec.head_perm[0], spec.head_perm[0]] == d.head_entries[0]


def test_apply_identity_word():
    rng = trial_rng(9, 1)
    t = random_member(rng, 6, 3)
    word = AutomorphismWord.identity_word(6, 3)
    assert operator_norm(apply_automorphism(word, t) - t) <= 1e-12


def test_apply_preserves_norm_star_products_membership():
    rng = trial_rng(9, 2)
    word = AutomorphismWord(
        Diagonal(random_phases(rng, 6), random_phases(rng, 3)),
        random_compact_hermitian(rng, 6, 3, 1.5),
        PermutationSpec(rng.permutation(6), rng.permutation(3)),
    )
    for _ in range(25):
        t = random_member(rng, 6, 3)
        s = random_member(rng, 6, 3)
        image = apply_automorphism(word, t)
        assert abs(operator_norm(image) - operator_norm(t)) <= 1e-10
        assert operator_norm(apply_automorphism(word, t.adjoint()) - image.adjoint()) <= 1e-10
        assert operator_norm(
            apply_automorphism(word, t @ s) - image @ apply_automorphism(word, s)
        ) <= 1e-9
        assert is_dpk_member(image)
        compact = construct(t.head, np.zeros((3, 3)))
        assert np.all(apply_automorphism(word, compact).tail == 0)


def test_normal_form_single_commutation():
    rng = trial_rng(9, 3)
    sigma = PermutationSpec(rng.permutation(4), rng.permutation(2))
    w = Diagonal(random_phases(rng, 4), random_phases(rng, 2))
    word = normal_form([sigma, w])
    moved = permute_diagonal(sigma, w)
    assert np.max(np.abs(word.w.head_entries - moved.head_entries)) <= 1e-12
    assert np.max(np.abs(word.w.tail_pattern - moved.tail_pattern)) <= 1e-12
    assert operator_norm(word.exponent) <= 1e-9
    np.testing.assert_array_equal(word.sigma.head_perm, sigma.head_perm)
    np.testing.assert_array_equal(word.sigma.tail_perm, sigma.tail_perm)


def test_normal_form_two_diagonals():
    rng = trial_rng(9, 4)
    w1 = Diagonal(random_phases(rng, 4), random_phases(rng, 2))
    w2 = Diagonal(random_phases(rng, 4), random_phases(rng, 2))
    word = normal_form([w1, w2])
    prod = w1 * w2
    assert np.max(np.abs(word.w.head_entries - prod.head_entries)) <= 1e-12
    assert operator_norm(word.exponent) <= 1e-9
    np.testing.assert_array_equal(word.sigma.head_perm, np.arange(4))


def test_normal_form_random_words_match_action():
    rng = trial_rng(9, 5)
    for _ in range(10):
        gens = []
        for _ in range(5):
            pick = int(rng.integers(0, 3))
            if pick == 0:
                gens.append(Diagonal(random_phases(rng, 6), random_phases(rng, 3)))
            elif pick == 1:
                gens.append(random_compact_hermitian(rng, 6, 3, 1.2))
            else:
                gens.append(PermutationSpec(rng.permutation(6), rng.permutation(3)))
        word = normal_form(gens)
        for _ in range(5):
            probe = random_member(rng, 6, 3)
            direct = reference_apply_generators(gens, probe)
            assert operator_norm(direct - apply_automorphism(word, probe)) <= 1e-9


def test_permutation_composition_law():
    rng = trial_rng(9, 6)
    s1 = PermutationSpec(rng.permutation(6), rng.permutation(3))
    s2 = PermutationSpec(rng.permutation(6), rng.permutation(3))
    lhs = permutation_unitary(s1) @ permutation_unitary(s2)
    rhs = permutation_unitary(s1.compose(s2))
    assert operator_norm(lhs - rhs) == 0.0


def test_is_dpk_automorphism_witness():
    rng = trial_rng(9, 7)
    w = Diagonal(random_phases(rng, 6), random_phases(rng, 3))
    ok, witness = is_dpk_automorphism(w.to_operator())
    assert ok
    phases, perm = witness
    np.testing.assert_array_equal(perm, np.arange(3))

    sigma = PermutationSpec(rng.permutation(6), np.array([2, 0, 1]))
    u = w.to_operator() @ exp_ih(random_compact_hermitian(rng, 6, 3, 1.0)) \
        @ permutation_unitary(sigma)
    ok, witness = is_dpk_automorphism(u)
    assert ok
    _, perm = witness
    np.testing.assert_array_equal(perm, sigma.tail_perm)

    with pytest.raises(NotUnitary):
        is_dpk_automorphism(2.0 * identity(2, 1))


def test_rotation_tail_is_not_an_automorphism():
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    u = construct(np.eye(2, dtype=complex), rot)
    ok, witness = is_dpk_automorphism(u)
    assert not ok and witness is None
    # Conjugation indeed moves a residue diagonal out of the model.
    probe = Diagonal([1.0, 0.0], [1.0, 0.0]).to_operator()
    moved = u @ probe @ u.adjoint()
    assert not is_dpk_member(moved)


def test_stampfli_identity_and_chebyshev_example():
    assert stampfli_derivation_norm(identity(2, 1)).value <= 1e-6
    a = EopOperator(np.diag([0.0, 2.0]), np.eye(1))
    val = stampfli_derivation_norm(a).value
    assert abs(val - 2.0) <= 1e-6
    # Brute-force grid oracle over the spectrum {0, 1, 2}.
    oracle = 2.0 * grid_chebyshev_value([0.0, 1.0, 2.0])
    assert abs(val - oracle) <= 1e-3


def test_stampfli_matches_enclosing_circle_on_normal_inputs():
    from dpk.oracles import chebyshev_radius_of_spectrum

    rng = trial_rng(9, 8)
    for _ in range(5):
        def normal_block(n):
            vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q, _ = np.linalg.qr(g)
            return q @ np.diag(vals) @ q.conj().T

        a = EopOperator(normal_block(6), normal_block(3))
        val = stampfli_derivation_norm(a).value
        assert abs(val - 2.0 * chebyshev_radius_of_spectrum(a)) <= 1e-6


def test_separation_bounds():
    rng = trial_rng(9, 9)
    sigma = PermutationSpec(np.arange(6), np.array([1, 0, 2]))
    u_sigma = permutation_unitary(sigma)
    for _ in range(40):
        t = random_member(rng, 6, 3)
        assert operator_norm(u_sigma - t) >= 1.0 - 1e-9
        w = random_unitary_member(rng, 6, 3)
        assert operator_norm(u_sigma - w) >= np.sqrt(2.0) - 1e-9


def test_union_discreteness():
    rng = trial_rng(9, 10)
    s1 = PermutationSpec(np.arange(6), np.array([1, 0, 2]))
    s2 = PermutationSpec(np.arange(6), np.array([2, 1, 0]))
    for _ in range(10):
        v = random_unitary_member(rng, 6, 3)
        w = random_unitary_member(rng, 6, 3)
        gap = operator_norm(permutation_unitary(s1) @ v - permutation_unitary(s2) @ w)
        assert gap >= np.sqrt(2.0) - 1e-9


def test_automorphism_distance_bound():
    rng = trial_rng(9, 11)
    sigma = PermutationSpec(np.arange(6), np.array([2, 0, 1]))
    for _ in range(3):
        u = random_unitary_member(rng, 6, 3)
        val = stampfli_derivation_norm(u.adjoint() @ permutation_unitary(sigma)).value
        assert val >= 2.0 - 1e-6


def _variance_lower(a, res):
    """2 sqrt(variance) of the mixed state a stampfli result returns,
    recomputed from its states and weights at its centre."""
    blocks = {"head": a.head, "tail": a.tail}
    moment, mean = 0.0, 0j
    for (name, x), t in zip(res.states, res.weights):
        y = (blocks[name] - res.center * np.eye(x.size)) @ x
        moment += t * np.vdot(y, y).real
        mean += t * np.vdot(x, y)
    return 2.0 * np.sqrt(max(moment - abs(mean) ** 2, 0.0))


def _check_certificate(a, tol=1e-8):
    """lower <= new <= lower + gap with lower recomputed from the returned
    state, gap <= tol, and the golden-section value no lower than lower."""
    res = stampfli_derivation_norm(a, tol)
    assert 0.0 <= res.gap <= tol
    assert min(res.weights) > 0.0 and abs(sum(res.weights) - 1.0) <= 1e-12
    lower = _variance_lower(a, res)
    assert lower <= res.value + 1e-12
    assert res.value <= lower + res.gap + 1e-12
    old = reference_stampfli_derivation_norm(a)
    assert old >= lower - 1e-12
    return res


def test_stampfli_certificate_on_separation_operators(monkeypatch):
    seen = []

    def record(a, tol=1e-8):
        seen.append(a)
        return stampfli_derivation_norm(a, tol)

    monkeypatch.setattr(autos, "stampfli_derivation_norm", record)
    config = ExperimentConfig(seed=20260808, trials=12, head_size=24, period=3,
                              suite="separation")
    assert run_suite(config).failures == 0
    assert len(seen) == 6
    for a in seen:
        _check_certificate(a)


def _unitary(rng, phases):
    n = len(phases)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (q * np.exp(1j * np.asarray(phases))) @ q.conj().T


def _adversarial_operators():
    rng = trial_rng(11, 3)
    cube_roots = 2.0 * np.pi * np.arange(3) / 3.0
    return {
        # Three tight clusters around the cube roots of unity: the top
        # singular values of both blocks tie at the minimizer z = 0.
        "clustered_unitary": (EopOperator(
            _unitary(rng, np.repeat(cube_roots, 2) + 1e-7 * np.arange(6)),
            _unitary(rng, cube_roots + 1e-9)), 2.0),
        # The tail's spectrum {0, 1, i} alone sets the minimizer (1 + i)/2;
        # the head stays within 0.6 of it.
        "tail_alone": (EopOperator(
            0.5 * np.eye(6) + 0.1 * _unitary(rng, rng.uniform(0.0, 6.0, 6)),
            np.diag([0.0, 1.0, 1j])), np.sqrt(2.0)),
        "empty_head": (EopOperator(
            np.zeros((0, 0)), rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))),
            None),
        "scalar": ((2.0 - 1j) * identity(6, 3), 0.0),
    }


@pytest.mark.parametrize("name", sorted(_adversarial_operators()))
def test_stampfli_certificate_holds_at_30_digits(name):
    mp = pytest.importorskip("mpmath").mp
    a, expected = _adversarial_operators()[name]
    res = _check_certificate(a)
    if expected is not None:
        assert abs(res.value - expected) <= 1e-8
    if name == "tail_alone":
        assert {block for block, _ in res.states} == {"tail"}
    blocks = {"head": a.head, "tail": a.tail}
    with mp.workdps(30):
        z = mp.mpc(res.center.real, res.center.imag)

        def shifted(block):
            return mp.matrix(block.tolist()) - z * mp.eye(block.shape[0])

        upper = 2 * max(max(mp.svd_c(shifted(b), compute_uv=False))
                        for b in blocks.values() if b.size)
        total = mp.fsum(res.weights)
        moment, mean = mp.mpf(0), mp.mpc(0)
        for (block, x), t in zip(res.states, res.weights):
            xv = mp.matrix(x.tolist())
            xv /= mp.norm(xv)
            y = shifted(blocks[block]) * xv
            moment += t / total * mp.norm(y) ** 2
            mean += t / total * (xv.H * y)[0]
        lower = 2 * mp.sqrt(moment - abs(mean) ** 2)
        assert lower <= upper
        assert abs(upper - res.value) <= 1e-13 * max(1.0, res.value)
        assert upper - lower <= res.gap + 1e-13 * max(1.0, res.value)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
def test_stampfli_rejects_bad_tol(tol):
    with pytest.raises(ConfigError):
        stampfli_derivation_norm(identity(2, 1), tol)


def test_stampfli_unreachable_tol_ends_at_the_budget(monkeypatch):
    a, _ = _adversarial_operators()["empty_head"]
    monkeypatch.setattr(autos, "STAMPFLI_BUDGET", 30)
    res = stampfli_derivation_norm(a, 1e-14)
    assert 28 <= res.evaluations <= 30
    assert res.gap > 1e-14
    assert res.value - res.gap <= reference_stampfli_derivation_norm(a) + 1e-12


def test_match_finite_spectrum_conjugation_cases():
    rng = trial_rng(9, 12)
    values = np.array([0.5, -1.0, 2.0])

    def random_d0():
        return Diagonal(values[rng.integers(0, 3, 6)].astype(complex),
                        values[rng.integers(0, 3, 3)].astype(complex))

    # Pure permutation.
    sigma = PermutationSpec(rng.permutation(6), np.array([1, 2, 0]))
    u = permutation_unitary(sigma)
    d0 = random_d0()
    word = match_finite_spectrum_conjugation(u, d0)
    target = u @ d0.to_operator().expand(6, 3) @ u.adjoint()
    assert operator_norm(apply_automorphism(word, d0.to_operator()) - target) <= 1e-8
    np.testing.assert_array_equal(word.sigma.tail_perm, sigma.tail_perm)

    # Pure inner exponential: identity residue permutation.
    u = exp_ih(random_compact_hermitian(rng, 6, 3, 1.2))
    d0 = random_d0()
    word = match_finite_spectrum_conjugation(u, d0)
    target = u @ d0.to_operator() @ u.adjoint()
    assert operator_norm(apply_automorphism(word, d0.to_operator()) - target) <= 1e-8
    np.testing.assert_array_equal(word.sigma.tail_perm, np.arange(3))

    # Full composite.
    for _ in range(5):
        u = (Diagonal(random_phases(rng, 6), random_phases(rng, 3)).to_operator()
             @ exp_ih(random_compact_hermitian(rng, 6, 3, 1.0))
             @ permutation_unitary(PermutationSpec(rng.permutation(6),
                                                   rng.permutation(3))))
        d0 = random_d0()
        word = match_finite_spectrum_conjugation(u, d0)
        target = u @ d0.to_operator() @ u.adjoint()
        assert operator_norm(apply_automorphism(word, d0.to_operator()) - target) <= 1e-8
        assert np.all(word.exponent.tail == 0)


def test_match_rejects_non_automorphism():
    from dpk.errors import NotDpkAutomorphism

    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    u = construct(np.eye(2, dtype=complex), rot)
    with pytest.raises(NotDpkAutomorphism):
        match_finite_spectrum_conjugation(u, Diagonal([1.0, 0.0], [1.0, 0.0]))


# The grid rule (p >= 1, p | m; expand only to a coarser grid) is shared by
# operators, diagonals and permutations.

KINDS = ("operator", "diagonal", "permutation")


def _gridded(kind, rng, m, p):
    if kind == "operator":
        return random_general(rng, m, p)
    if kind == "diagonal":
        return Diagonal(random_phases(rng, m), random_phases(rng, p))
    return PermutationSpec(rng.permutation(m), rng.permutation(p))


def _dense(value, n):
    if isinstance(value, PermutationSpec):
        return permutation_unitary(value).dense(n)
    if isinstance(value, Diagonal):
        return value.to_operator().dense(n)
    return value.dense(n)


@pytest.mark.parametrize("kind", KINDS)
def test_align_three_periods_keeps_action(kind):
    rng = trial_rng(9, 20)
    values = [_gridded(kind, rng, m, p) for m, p in ((4, 2), (3, 3), (5, 5))]
    aligned = align(*values)
    assert len(aligned) == 3
    for before, after in zip(values, aligned):
        assert type(after) is type(before)
        assert (after.m, after.p) == (30, 30)
        np.testing.assert_array_equal(_dense(after, 90), _dense(before, 90))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("grid", [(4, 3), (6, 4), (2, 2), (8, 0), (4, -2)],
                         ids=["period_not_multiple", "head_off_grid", "head_shrinks",
                              "zero_period", "negative_period"])
def test_expand_to_bad_grid_raises(kind, grid):
    value = _gridded(kind, trial_rng(9, 21), 4, 2)
    with pytest.raises(AlignmentError):
        value.expand(*grid)


@pytest.mark.parametrize("make", [
    lambda m, p: EopOperator(np.eye(m), np.eye(p)),
    lambda m, p: Diagonal(np.ones(m), np.ones(p)),
    lambda m, p: PermutationSpec(np.arange(m), np.arange(p)),
], ids=KINDS)
@pytest.mark.parametrize("grid", [(2, 0), (0, 0), (3, 2)],
                         ids=["empty_tail", "empty", "period_not_dividing"])
def test_constructors_reject_bad_grid(make, grid):
    with pytest.raises(AlignmentError):
        make(*grid)


@pytest.mark.parametrize("m, p, m_new, p_new", [
    (4, 2, 4, 2), (4, 2, 8, 2), (4, 2, 6, 6), (0, 3, 6, 3), (0, 1, 0, 4), (3, 3, 12, 6),
])
def test_permutation_expand_matches_reference(m, p, m_new, p_new):
    rng = trial_rng(9, 22)
    spec = PermutationSpec(rng.permutation(m), rng.permutation(p))
    out = spec.expand(m_new, p_new)
    head, tail = reference_permutation_expand(spec, m_new, p_new)
    np.testing.assert_array_equal(out.head_perm, head)
    np.testing.assert_array_equal(out.tail_perm, tail)


def _mixed_period_operands():
    """A period-2 permutation with a nontrivial tail and period-3 operands;
    the common grid is (6, 6), so dense corners of size 18 end on a block."""
    rng = trial_rng(9, 23)
    sigma = PermutationSpec(rng.permutation(4), [1, 0])
    tau = PermutationSpec(rng.permutation(3), [2, 0, 1])
    d = Diagonal(random_phases(rng, 3), random_phases(rng, 3))
    x = random_compact_hermitian(rng, 6, 3, 1.0)
    return sigma, tau, d, x


def _conjugate_dense(u, t):
    return u @ t @ u.conj().T


def test_permutation_actions_on_mixed_periods_match_dense():
    sigma, tau, d, x = _mixed_period_operands()
    n = 18
    u = _dense(sigma, n)
    moved = permute_diagonal(sigma, d)
    np.testing.assert_array_equal(_dense(moved, n), _conjugate_dense(u, _dense(d, n)))
    conj_x = conjugate_exponent_by_perm(sigma, x)
    np.testing.assert_array_equal(conj_x.dense(n), _conjugate_dense(u, x.dense(n)))
    composed = sigma.compose(tau)
    np.testing.assert_array_equal(_dense(composed, n), u @ _dense(tau, n))


def test_normal_form_on_mixed_periods_matches_dense():
    sigma, tau, d, x = _mixed_period_operands()
    gens = [sigma, d, x, tau, d.conj()]
    word = normal_form(gens)
    assert (word.sigma.m, word.sigma.p) == (6, 6)
    n = 18
    product = np.eye(n, dtype=complex)
    for gen in gens:
        product = product @ (exp_ih(gen).dense(n) if isinstance(gen, EopOperator)
                             else _dense(gen, n))
    np.testing.assert_allclose(word.unitary().dense(n), product, atol=1e-9)
    probe = random_member(trial_rng(9, 24), 3, 3)
    np.testing.assert_allclose(apply_automorphism(word, probe).dense(n),
                               _conjugate_dense(product, probe.dense(n)), atol=1e-9)


# A word keeps U and U*; these tests check the kept values against the
# uncached code they replaced, bit for bit, and guard against a stale cache.

def _random_word(rng, m, p):
    return AutomorphismWord(
        Diagonal(random_phases(rng, m), random_phases(rng, p)),
        random_compact_hermitian(rng, m, p, 1.5),
        PermutationSpec(rng.permutation(m), rng.permutation(p)),
    )


def _assert_bit_equal(a, b):
    assert (a.m, a.p) == (b.m, b.p)
    assert np.array_equal(a.head, b.head)
    assert np.array_equal(a.tail, b.tail)


# (word grid, operand grid): one grid; a period-2 word on a period-3
# operand, where U and U* both expand; a word with an empty head.
GRID_CASES = [((6, 3), (6, 3)), ((4, 2), (3, 3)), ((0, 2), (4, 2))]
GRID_IDS = ["same_grid", "mixed_grids", "empty_head"]


@pytest.mark.parametrize("word_grid, operand_grid", GRID_CASES, ids=GRID_IDS)
def test_apply_automorphism_bit_equal_to_uncached(word_grid, operand_grid):
    rng = trial_rng(9, 30)
    word = _random_word(rng, *word_grid)
    for _ in range(3):
        t = random_member(rng, *operand_grid)
        _assert_bit_equal(apply_automorphism(word, t), reference_apply_automorphism(word, t))


@pytest.mark.parametrize("word_grid, operand_grid", GRID_CASES, ids=GRID_IDS)
def test_suite_generator_action_bit_equal_to_per_probe(word_grid, operand_grid):
    rng = trial_rng(9, 31)
    gens = _random_word_generators(rng, *word_grid)
    pairs = _generator_unitaries(gens)
    for _ in range(3):
        t = random_member(rng, *operand_grid)
        _assert_bit_equal(_apply_generators(pairs, t), reference_apply_generators(gens, t))


@pytest.mark.parametrize("kind", ["word", "spec"])
def test_word_and_spec_refuse_attribute_assignment(kind):
    word = _random_word(trial_rng(9, 32), 6, 3)
    value = word if kind == "word" else word.sigma
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_kept_unitaries_stay_equal_to_fresh_ones():
    rng = trial_rng(9, 33)
    t = random_member(rng, 6, 3)

    def check(word):
        fresh = reference_unitary(word)
        _assert_bit_equal(word.unitary(), fresh)
        _assert_bit_equal(word.unitary_adjoint(), fresh.adjoint())

    words = [_random_word(rng, 6, 3) for _ in range(4)]
    for k in (0, 2, 1, 3, 2, 0):
        apply_automorphism(words[k], t)
        for word in words:
            check(word)
    # New words may reuse the memory, and so the id(), of dropped ones.
    del words[1:3]
    gc.collect()
    words += [_random_word(rng, 6, 3) for _ in range(3)]
    for k in (4, 0, 2, 1, 3, 0):
        apply_automorphism(words[k], t)
        for word in words:
            check(word)


def test_applying_a_word_builds_its_exponential_once(monkeypatch):
    calls = []
    real = autos.exp_ih

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(autos, "exp_ih", counted)
    rng = trial_rng(9, 34)
    word = _random_word(rng, 6, 3)
    t = random_member(rng, 6, 3)
    for _ in range(5):
        apply_automorphism(word, t)
    assert len(calls) == 1


@pytest.mark.parametrize("d0_grid, checks", [((6, 3), 1), ((4, 2), 2)],
                         ids=["u_on_common_grid", "u_expanded"])
def test_match_checks_the_aligned_unitary_only_when_it_expands(monkeypatch, d0_grid,
                                                                checks):
    calls = []
    real = autos.is_dpk_automorphism

    def counted(u):
        calls.append(u)
        return real(u)

    monkeypatch.setattr(autos, "is_dpk_automorphism", counted)
    rng = trial_rng(9, 35)
    u = _random_word(rng, 6, 3).unitary()
    m, p = d0_grid
    d0 = Diagonal(rng.choice([0.5, -1.0], m).astype(complex),
                  rng.choice([0.5, -1.0], p).astype(complex))
    word = match_finite_spectrum_conjugation(u, d0)
    assert len(calls) == checks
    target = u @ d0.to_operator() @ u.adjoint()
    assert operator_norm(apply_automorphism(word, d0.to_operator()) - target) <= 1e-8


@pytest.mark.parametrize("head, tail", [
    ([0.7, 1.2, 2.9], [0.2]),
    ([True, False], [0]),
    (["1", "0"], [0]),
    ([0, True], [0]),
    (np.array([1.0, 0.0]), [0]),
    ([1, 0], [0.0]),
    ([1, 0], [False]),
    ([1, 0], ["0"]),
], ids=["floats", "bools", "strings", "int_and_bool", "float_array", "float_tail",
        "bool_tail", "string_tail"])
def test_permutation_entries_must_be_integers(head, tail):
    with pytest.raises(ModelViolation):
        PermutationSpec(head, tail)


@pytest.mark.parametrize("head", [[], (), np.arange(0), np.zeros(0)],
                         ids=["list", "tuple", "int_array", "float_array"])
def test_empty_head_permutation_accepted(head):
    spec = PermutationSpec(head, [1, 0])
    assert (spec.m, spec.p) == (0, 2)
    assert spec.head_perm.dtype == int


def test_permutation_accepts_numpy_integers():
    spec = PermutationSpec([np.int64(1), 0], np.array([0, 1], dtype=np.uint8))
    np.testing.assert_array_equal(spec.head_perm, [1, 0])
    np.testing.assert_array_equal(spec.tail_perm, [0, 1])
