import numpy as np
import pytest

from dpk.core import (
    GRID_CELL_BUDGET,
    Diagonal,
    EopOperator,
    align,
    canonical_decompose,
    common_grid,
    construct,
    delta,
    finite_spectrum_approx,
    identity,
    is_dpk_member,
    operator_norm,
    operators_close,
    spectrum,
    zero,
    zero_tail,
)
from dpk.errors import AlignmentError, NonFiniteEntry, NotInDpk
from dpk.generate import random_general, random_member, trial_rng
from dpk.linalg import block_norm, exactly_diagonal
from dpk.serial import dump_operator, load_operator, operator_to_obj

from _oracles import commutator_probe, dense_embed, dense_operator_norm


def test_construct_identity_case():
    one = construct(np.zeros((0, 0)), [[1.0]])
    assert one.m == 0 and one.p == 1
    assert operator_norm(one) == 1.0


def test_construct_zero_tail_is_member_and_compact():
    for k in (construct([[1.0, 2.0], [3.0, 4.0]], [[0.0]]),
              zero_tail([[1.0, 2.0], [3.0, 4.0]], 2)):
        assert is_dpk_member(k)
        assert np.all(k.tail == 0) and k.tail.dtype == np.complex128
    with pytest.raises(AlignmentError):
        zero_tail(np.eye(3), 2)
    with pytest.raises(NonFiniteEntry):
        zero_tail([[np.inf]], 1)


def _old_exactly_diagonal(a):
    return bool(np.all(a == np.diag(np.diagonal(a))))


def _signed_zero_blocks():
    """Blocks whose off-diagonal entries are zeros of every sign, real and
    complex, next to blocks with one nonzero off-diagonal entry."""
    zeros = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)]
    blocks = [np.zeros((0, 0), dtype=complex), np.array([[-0.0]], dtype=complex)]
    for k, z in enumerate(zeros):
        b = np.diag(np.array([1.5, -0.0, 2j], dtype=complex))
        b[0, 2] = z
        b[2, 1] = zeros[-1 - k]
        blocks.append(b)
        off = b.copy()
        off[1, 0] = 1e-300
        blocks.append(off)
    return blocks


def test_exactly_diagonal_matches_the_equality_test_on_blocks():
    rng = trial_rng(3, 0)
    blocks = _signed_zero_blocks()
    for _ in range(20):
        t = random_member(rng, 6, 3)
        blocks += [t.head, t.tail, np.diag(np.diagonal(t.head))]
    for b in blocks:
        assert exactly_diagonal(b) == _old_exactly_diagonal(b), b
    t = random_member(rng, 6, 3)
    assert type(is_dpk_member(t)) is bool and type(t.is_diagonal()) is bool


def test_exactly_diagonal_stacked_matches_each_block():
    blocks = [b for b in _signed_zero_blocks() if b.shape == (3, 3)]
    stack = np.stack(blocks)
    np.testing.assert_array_equal(exactly_diagonal(stack),
                                  [_old_exactly_diagonal(b) for b in blocks])
    assert exactly_diagonal(np.zeros((4, 0, 0))).tolist() == [True] * 4


def test_exactly_diagonal_counts_nan_on_the_diagonal_as_diagonal():
    # Validated operators are finite, so only arithmetic that overflows puts
    # NaN on a diagonal (inf - inf).  The equality test called such a tail
    # non-diagonal; the nonzero count calls it diagonal.
    with np.errstate(over="ignore", invalid="ignore"):
        big = construct(np.eye(2), np.diag([1e308, 1.0])) * 10.0
        t = big - big
        u = construct(np.eye(2), np.eye(2)) * np.inf
    assert np.isnan(t.tail[0, 0]) and np.all(t.tail[[0, 1, 1], [1, 0, 1]] == 0)
    assert is_dpk_member(t) and not _old_exactly_diagonal(t.tail)
    # NaN off the diagonal is not diagonal under either test.
    assert np.isnan(u.tail[0, 1]) and not is_dpk_member(u)


def test_block_norm_of_exactly_diagonal_blocks_takes_the_largest_modulus():
    assert block_norm(np.diag([3.0, -4.0j])) == 4.0
    b = np.diag([3.0, -4.0j])
    b[0, 1] = -0.0
    assert block_norm(b) == 4.0
    b[0, 1] = 1.0
    assert block_norm(b) == pytest.approx(np.linalg.norm(b, 2), rel=1e-12)


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


def test_common_grid_budget_refuses_before_allocating():
    import tracemalloc

    # Coprime periods 97 and 89 would align on an 8633 x 8633 tail (1.19 GB).
    a, b = identity(0, 97), identity(0, 89)
    tracemalloc.start()
    try:
        with pytest.raises(AlignmentError, match="cells"):
            align(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_common_grid_budget_boundary():
    from types import SimpleNamespace as Grid

    side = int(GRID_CELL_BUDGET ** 0.5)
    assert side * side == GRID_CELL_BUDGET
    assert common_grid([Grid(m=0, p=side)]) == (0, side)
    with pytest.raises(AlignmentError):
        common_grid([Grid(m=0, p=side + 1)])
    with pytest.raises(AlignmentError):
        common_grid([Grid(m=side, p=1), Grid(m=0, p=1)])
    # Desk-scale grids, and the 60 x 60 ceiling of the benchmark's request
    # stream, are far inside the budget.
    assert common_grid([Grid(m=24, p=3), Grid(m=60, p=60)]) == (60, 60)
    assert 2 * 60 * 60 * 100 < GRID_CELL_BUDGET


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
