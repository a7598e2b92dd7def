import itertools

import numpy as np
import pytest

from dpk.core import Diagonal, EopOperator, construct, identity, operator_norm
from dpk.errors import AlignmentError, BadResidue, NotInDpk, NotPositive
from dpk.generate import random_member, trial_rng
from dpk.quotient import (
    PositiveFunctional,
    QuotientClass,
    character_eval,
    endomorphism_from_characters,
    functional_decompose,
    quotient_class,
)
from dpk.serial import functional_from_obj, functional_to_obj


def test_quotient_class_compact_and_identity():
    k = construct(np.eye(3), [[0.0]])
    assert quotient_class(k).norm == 0.0
    q = quotient_class(identity(3, 3))
    np.testing.assert_array_equal(q.values, np.ones(3))


def test_quotient_class_product_law():
    rng = trial_rng(8, 0)
    for _ in range(50):
        s = random_member(rng, 6, 3)
        t = random_member(rng, 6, 3)
        lhs = quotient_class(s @ t).values
        rhs = quotient_class(s).values * quotient_class(t).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_quotient_class_alignment_equality():
    a = QuotientClass([1.0, 2.0])
    b = QuotientClass([1.0, 2.0, 1.0, 2.0])
    assert a.isclose(b)
    assert a.norm == 2.0


def test_quotient_class_coprime_periods_align_on_the_lcm():
    a = QuotientClass([1.0, 2.0])
    b = QuotientClass([1.0, 3.0, 5.0])
    assert (a.m, a.p) == (0, 2)
    assert a.isclose(QuotientClass([1.0, 2.0] * 3))
    assert not a.isclose(b)
    np.testing.assert_array_equal((a * b).values, [1.0, 6.0, 5.0, 2.0, 3.0, 10.0])
    assert (b * a).isclose(a * b)


def test_quotient_class_expand_needs_a_multiple_period():
    a = QuotientClass([1.0, 2.0])
    assert a.expand(0, 2) is a
    np.testing.assert_array_equal(a.expand(0, 4).values, [1.0, 2.0, 1.0, 2.0])
    with pytest.raises(AlignmentError):
        a.expand(0, 3)


def test_quotient_rejects_nonmember():
    with pytest.raises(NotInDpk):
        quotient_class(construct(np.zeros((0, 0)), [[0.0, 1.0], [1.0, 0.0]]))


def test_character_basics():
    t = Diagonal([9.0, 9.0, 9.0], [5.0, 6.0, 7.0]).to_operator()
    assert character_eval(t, 1) == 6.0
    assert character_eval(identity(3, 3), 2) == 1.0
    k = construct(np.eye(3), np.zeros((3, 3)))
    assert character_eval(k, 0) == 0.0
    with pytest.raises(BadResidue):
        character_eval(t, 3)


def test_character_multiplicative():
    rng = trial_rng(8, 1)
    for _ in range(100):
        s = random_member(rng, 6, 3)
        t = random_member(rng, 6, 3)
        r = int(rng.integers(0, 3))
        lhs = character_eval(s @ t, r)
        rhs = character_eval(s, r) * character_eval(t, r)
        assert abs(lhs - rhs) <= 1e-13


def test_characters_are_exactly_residue_evaluations():
    # Brute force over the finite-dimensional commutative quotient: a linear
    # functional on C^p given by coefficients c is multiplicative and unital
    # iff c is a standard basis vector.
    for p in (2, 3):
        survivors = []
        for bits in itertools.product((0, 1), repeat=p):
            c = np.array(bits, dtype=float)
            unital = abs(c.sum() - 1.0) <= 1e-12
            multiplicative = all(
                abs((c[r] if r == s else 0.0) - c[r] * c[s]) <= 1e-12
                for r in range(p)
                for s in range(p)
            )
            if unital and multiplicative:
                survivors.append(bits)
        expected = sorted(tuple(np.eye(p, dtype=int)[r]) for r in range(p))
        assert sorted(survivors) == expected


def test_functional_validation():
    with pytest.raises(NotPositive):
        PositiveFunctional(-np.eye(2), [0.0])
    with pytest.raises(NotPositive):
        PositiveFunctional(np.eye(2), [-1.0])
    with pytest.raises(NotPositive):
        PositiveFunctional([[0.0, 1.0], [0.0, 0.0]], [1.0])


def test_functional_decomposition_parts():
    rng = trial_rng(8, 2)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    phi = PositiveFunctional(a.conj().T @ a, [0.5, 0.0, 1.5])
    normal, singular = functional_decompose(phi)

    s = random_member(rng, 6, 3)
    pos = s.adjoint() @ s
    total = phi.evaluate(pos)
    assert abs(total - normal.evaluate(pos) - singular.evaluate(pos)) <= 1e-12
    assert normal.evaluate(pos).real >= -1e-10
    assert singular.evaluate(pos).real >= -1e-10

    compact = construct(s.head, np.zeros((3, 3)))
    assert singular.evaluate(compact) == 0.0
    assert abs(phi.evaluate(identity(6, 3)) - phi.total_mass()) <= 1e-12


def test_functional_zero_parts():
    phi = PositiveFunctional(np.zeros((0, 0)), [1.0, 2.0])
    normal, singular = functional_decompose(phi)
    t = Diagonal([3.0, 4.0], [3.0, 4.0]).to_operator()
    assert normal.evaluate(t) == 0.0
    assert singular.evaluate(t) == phi.evaluate(t)

    psi = PositiveFunctional(np.eye(2), [0.0, 0.0])
    _, sing = functional_decompose(psi)
    assert sing.evaluate(t) == 0.0
    assert sing.evaluate(construct(np.eye(2), np.zeros((1, 1)))) == 0.0


def test_functional_period_alignment():
    phi = PositiveFunctional(np.zeros((0, 0)), [1.0, 2.0])
    fine = Diagonal([1.0, 2.0], [5.0]).to_operator()  # period 1 divides 2
    assert phi.evaluate(fine) == 15.0
    coarse = Diagonal([1.0] * 4, [1.0, 2.0, 3.0, 4.0]).to_operator()
    with pytest.raises(AlignmentError):
        phi.evaluate(coarse)


def test_functional_serialization_roundtrip():
    phi = PositiveFunctional(np.eye(2), [0.25, 0.75])
    back = functional_from_obj(functional_to_obj(phi))
    np.testing.assert_array_equal(back.trace_matrix, phi.trace_matrix)
    np.testing.assert_array_equal(back.weights, phi.weights)


def test_endomorphism_constant_pattern():
    endo = endomorphism_from_characters(3, {0, 1, 2}, {}, anchor=1)
    t = Diagonal([0.0, 0.0, 0.0], [5.0, 6.0, 7.0]).to_operator()
    out = endo(t)
    np.testing.assert_array_equal(np.diagonal(out.tail), [6.0, 6.0, 6.0])


def test_endomorphism_identity_assignment():
    endo = endomorphism_from_characters(3, set(), {0: 0, 1: 1, 2: 2})
    t = Diagonal([9.0, 8.0, 7.0], [5.0, 6.0, 7.0]).to_operator()
    out = endo(t)
    np.testing.assert_array_equal(np.diagonal(out.tail), [5.0, 6.0, 7.0])
    # Output is the diagonal built from the tail pattern: compacts die.
    compact = construct(np.eye(3), np.zeros((3, 3)))
    assert operator_norm(endo(compact)) == 0.0


def test_endomorphism_product_and_star():
    rng = trial_rng(8, 3)
    endo = endomorphism_from_characters(3, {1}, {0: 2, 2: 0}, anchor=0)
    for _ in range(30):
        s = random_member(rng, 6, 3)
        t = random_member(rng, 6, 3)
        assert operator_norm(endo(s @ t) - endo(s) @ endo(t)) <= 1e-12
        assert operator_norm(endo(s.adjoint()) - endo(s).adjoint()) <= 1e-12


def test_endomorphism_validation():
    with pytest.raises(BadResidue):
        endomorphism_from_characters(3, {5}, {})
    with pytest.raises(BadResidue):
        endomorphism_from_characters(3, set(), {0: 0, 1: 0, 2: 2})
    with pytest.raises(BadResidue):
        endomorphism_from_characters(3, {0}, {1: 1})


def test_essential_norm_infimum():
    rng = trial_rng(8, 4)
    from dpk.generate import random_compact_hermitian

    s = random_member(rng, 6, 3)
    q = quotient_class(s)
    candidates = [operator_norm(s + random_compact_hermitian(rng, 6, 3))
                  for _ in range(50)]
    candidates.append(operator_norm(EopOperator(np.zeros((6, 6)), s.tail)))
    assert abs(min(candidates) - q.norm) <= 1e-6
