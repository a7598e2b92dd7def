import numpy as np
import pytest

from dpk.core import (
    Diagonal,
    EopOperator,
    align,
    canonical_decompose,
    construct,
    delta,
    finite_spectrum_approx,
    identity,
    is_dpk_member,
    operator_norm,
    operators_close,
    spectrum,
    zero,
)
from dpk.errors import AlignmentError, NonFiniteEntry, NotInDpk
from dpk.generate import random_general, random_member, trial_rng
from dpk.serial import dump_operator, load_operator, operator_to_obj

from _oracles import commutator_probe, dense_embed, dense_operator_norm


def test_construct_identity_case():
    one = construct(np.zeros((0, 0)), [[1.0]])
    assert one.m == 0 and one.p == 1
    assert operator_norm(one) == 1.0


def test_construct_zero_tail_is_member_and_compact():
    k = construct([[1.0, 2.0], [3.0, 4.0]], [[0.0]])
    assert is_dpk_member(k)
    assert np.all(k.tail == 0)


def test_construct_rejects_misaligned_grid():
    with pytest.raises(AlignmentError):
        construct(np.eye(3), np.eye(2))


def test_construct_rejects_nonfinite():
    with pytest.raises(NonFiniteEntry):
        construct([[np.nan]], [[1.0]])
    with pytest.raises(NonFiniteEntry):
        Diagonal([np.inf], [1.0])


def test_align_trivial_and_mixed_periods():
    a = construct(np.eye(2), [[1.0]])
    b = identity(0, 1)
    x, y = align(a, b)
    assert (x.m, x.p) == (2, 1) and (y.m, y.p) == (2, 1)

    a = EopOperator(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    b = EopOperator(5.0 * np.eye(3), 7.0 * np.eye(3))
    x, y = align(a, b)
    assert (x.m, x.p) == (6, 6) and (y.m, y.p) == (6, 6)
    # Expansion preserves the infinite matrix: dense corners agree at 18.
    np.testing.assert_array_equal(dense_embed(a, 18), dense_embed(x, 18))
    np.testing.assert_array_equal(dense_embed(b, 18), dense_embed(y, 18))


def test_align_idempotent_on_equal_grids():
    rng = trial_rng(1, 0)
    a = random_member(rng, 6, 3)
    x, y = align(a, a)
    assert x is a and y is a


def test_algebra_identities():
    rng = trial_rng(1, 1)
    t = random_general(rng, 6, 3)
    assert operator_norm(t + (-1.0) * t) == 0.0
    assert operators_close(identity(6, 3) @ t, t, 0.0)


def test_product_matches_dense_corner():
    rng = trial_rng(1, 2)
    for trial in range(20):
        a = random_general(rng, 6, 3)
        b = random_member(rng, 6, 3)
        prod = a @ b
        n = prod.m + 3 * prod.p
        gap = np.max(np.abs(dense_embed(prod, n) - dense_embed(a, n) @ dense_embed(b, n)))
        assert gap <= 1e-12


def test_delta_identity_and_zero_diagonal():
    assert operators_close(delta(identity(2, 1)).to_operator(), identity(2, 1))
    nil = construct([[0.0, 1.0], [0.0, 0.0]], [[0.0]])
    assert operator_norm(delta(nil).to_operator()) == 0.0


def test_delta_contractive_and_idempotent():
    rng = trial_rng(2, 0)
    for trial in range(100):
        t = random_general(rng, 6, 3)
        d = delta(t).to_operator()
        assert operator_norm(d) <= dense_operator_norm(t, 6 + 5 * 3) + 1e-10
        again = delta(d)
        np.testing.assert_array_equal(again.head_entries, np.diagonal(d.head))
        np.testing.assert_array_equal(again.tail_pattern, np.diagonal(d.tail))


def test_canonical_decompose_diagonal_and_compact():
    d = Diagonal([1.0, 2.0j], [3.0]).to_operator()
    dec = canonical_decompose(d)
    assert operator_norm(dec.compact_part) == 0.0

    k = construct([[1.0, 2.0], [3.0, 4.0]], [[0.0]])
    dec = canonical_decompose(k)
    assert np.all(dec.compact_part.tail == 0)
    assert np.all(np.diagonal(dec.compact_part.head) == 0)


def test_canonical_decompose_exact_and_selfadjoint():
    rng = trial_rng(2, 1)
    for trial in range(50):
        t = random_member(rng, 6, 3, hermitian=(trial % 2 == 0))
        dec = canonical_decompose(t)
        recon = dec.total()
        np.testing.assert_array_equal(recon.head, t.head)
        np.testing.assert_array_equal(recon.tail, t.tail)
        if trial % 2 == 0:
            k = dec.compact_part
            np.testing.assert_array_equal(k.head, k.head.conj().T)
            assert np.all(dec.diagonal_part.all_entries().imag == 0)


def test_canonical_decompose_rejects_nonmember():
    bad = construct(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NotInDpk):
        canonical_decompose(bad)


def test_operator_norm_basics_and_dense_oracle():
    assert operator_norm(identity(3, 1)) == 1.0
    t = EopOperator(np.diag([3.0]), np.diag([2.0]))
    assert operator_norm(t) == 3.0
    rng = trial_rng(2, 2)
    for _ in range(25):
        s = random_general(rng, 6, 3)
        assert abs(operator_norm(s) - dense_operator_norm(s, 6 + 5 * 3)) <= 1e-10


def test_spectrum_identity_projection_and_oracle():
    pts, ess = spectrum(identity(2, 1))
    np.testing.assert_allclose(pts, [1.0])
    np.testing.assert_allclose(ess, [1.0])

    proj = Diagonal([1.0, 0.0], [1.0, 0.0]).to_operator()
    pts, _ = spectrum(proj)
    assert all(min(abs(z), abs(z - 1)) <= 1e-12 for z in pts)

    rng = trial_rng(2, 3)
    t = random_general(rng, 6, 3)
    pts, ess = spectrum(t)
    for n in (6, 9, 12):
        eigs = np.linalg.eigvals(dense_embed(t, n))
        for z in eigs:
            assert min(abs(z - w) for w in pts) <= 1e-8
    # Essential points gain multiplicity with the embedding size.
    for z in ess:
        counts = [
            int(np.sum(np.abs(np.linalg.eigvals(dense_embed(t, n)) - z) < 1e-6))
            for n in (9, 12, 15)
        ]
        assert counts[0] <= counts[1] <= counts[2]
        assert counts[-1] >= 2


def test_membership_examples_and_probe():
    assert is_dpk_member(Diagonal([1.0], [2.0]).to_operator())
    perm_tail = construct(np.zeros((0, 0)), [[0.0, 1.0], [1.0, 0.0]])
    assert not is_dpk_member(perm_tail)
    rng = trial_rng(2, 4)
    for trial in range(100):
        s = random_member(rng, 6, 3) if trial % 2 else random_general(rng, 6, 3)
        assert is_dpk_member(s) == commutator_probe(s)


def test_finite_spectrum_approx_grid_and_distance():
    on_grid = Diagonal([1.0, 0.0], [0.5]).to_operator()
    out = finite_spectrum_approx(on_grid, 0.25)
    assert operators_close(out, on_grid, 0.0)

    rng = trial_rng(2, 5)
    for trial in range(20):
        t = random_member(rng, 6, 3, hermitian=(trial % 2 == 0))
        out = finite_spectrum_approx(t, 1e-3)
        assert operator_norm(t - out) <= 1e-3
        entries = delta(out).all_entries()
        assert np.allclose(entries.real, np.round(entries.real / 1e-3) * 1e-3)
        if trial % 2 == 0:
            assert np.all(entries.imag == 0)
    with pytest.raises(NotInDpk):
        finite_spectrum_approx(random_general(rng, 6, 3), 1e-3)


def test_normalize_shrinks_redundant_representation():
    rng = trial_rng(2, 6)
    t = random_member(rng, 6, 3)
    big = t.expand(12, 6)
    back = big.normalize()
    assert (back.m, back.p) == (6, 3) or operators_close(back, t, 0.0)
    assert operators_close(back, t, 0.0)


def test_equality_tolerance():
    t = identity(2, 1)
    bumped = construct(np.eye(2) + 1e-13, np.eye(1))
    assert operators_close(t, bumped)
    assert not operators_close(t, construct(np.eye(2) + 1e-10, np.eye(1)))


def test_json_roundtrip_and_canonical_form():
    rng = trial_rng(2, 7)
    t = random_member(rng, 6, 3)
    text = dump_operator(t.expand(12, 6))
    back = load_operator(text)
    assert operators_close(back, t, 0.0)
    # Writer emits the normalized representation.
    obj = operator_to_obj(t.expand(12, 6))
    assert (obj["m"], obj["p"]) == (6, 3)


def test_json_reader_validates():
    from dpk.errors import IoError

    with pytest.raises(IoError):
        load_operator("not json")
    with pytest.raises(IoError):
        load_operator('{"head": [[[0, 0]]]}')
    with pytest.raises(AlignmentError):
        load_operator(
            '{"m": 3, "p": 2, "head": [[[1,0],[0,0],[0,0]],[[0,0],[1,0],[0,0]],'
            '[[0,0],[0,0],[1,0]]], "tail": [[[1,0],[0,0]],[[0,0],[1,0]]]}'
        )


@pytest.mark.parametrize("declared", ['"m": "x"', '"p": "x"', '"m": null', '"p": [1]',
                                      '"m": 1e999'])
def test_json_reader_rejects_non_integer_sizes(declared):
    from dpk.errors import IoError

    text = f'{{{declared}, "head": [[[1, 0]]], "tail": [[[1, 0]]]}}'
    with pytest.raises(IoError):
        load_operator(text)


def test_values_are_immutable():
    t = identity(2, 1)
    with pytest.raises(ValueError):
        t.head[0, 0] = 5.0
    d = delta(t)
    with pytest.raises(ValueError):
        d.head_entries[0] = 5.0


def test_zero_helper():
    z = zero(2, 1)
    assert operator_norm(z) == 0.0
