"""Degenerate grids: empty heads, period one, and tiny blocks."""

import numpy as np
import pytest

from dpk import factor, fredholm, projections, quotient, topology
from dpk.core import (
    canonical_decompose,
    construct,
    identity,
    is_dpk_member,
    operator_norm,
    operators_close,
    spectrum,
)
from dpk.errors import ConfigError
from dpk.generate import ExperimentConfig
from dpk.suites import run_suite


def _pure_tail(pattern):
    return construct(np.zeros((0, 0)), np.diag(np.asarray(pattern, dtype=complex)))


def test_pure_tail_algebra_and_norm():
    t = _pure_tail([2.0, 0.5 + 0.5j])
    assert t.m == 0
    assert operator_norm(t) == 2.0
    assert is_dpk_member(t)
    assert operator_norm(canonical_decompose(t).compact_part) == 0.0
    pts, ess = spectrum(t)
    assert pts.size == ess.size == 2


def test_pure_tail_inversion_and_fredholm():
    t = _pure_tail([2.0, 0.5])
    ok, inv = fredholm.is_invertible(t)
    assert ok
    assert operator_norm(t @ inv - identity()) <= 1e-12
    fd = fredholm.fredholm_data(t)
    assert fd.is_fredholm and fd.kernel_dim == 0


SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_empty_head_exp_ih_with_non_diagonal_tail():
    u = factor.exp_ih(construct(np.zeros((0, 0)), SWAP))
    assert u.m == 0
    expected = np.cos(1.0) * np.eye(2) + 1j * np.sin(1.0) * SWAP
    np.testing.assert_allclose(u.tail, expected, atol=1e-15)


def test_empty_head_is_invertible_with_non_diagonal_tail():
    t = construct(np.zeros((0, 0)), [[1.0, 2.0], [3.0, 4.0]])
    ok, inv = fredholm.is_invertible(t)
    assert ok and inv.m == 0
    assert operator_norm(t @ inv - identity()) <= 1e-12
    assert not fredholm.is_invertible(construct(np.zeros((0, 0)), SWAP - SWAP))[0]


def test_empty_head_invertible_approx():
    t = _pure_tail([0.0, 2.0])
    out = fredholm.invertible_approx(t, 0.1)
    assert out.m == 0 and fredholm.is_invertible(out)[0]
    np.testing.assert_array_equal(np.diagonal(out.tail), [0.1, 2.0])
    assert operator_norm(out - t) < 3 * 0.1


def test_empty_head_operators_close():
    t = _pure_tail([1.0, 2.0])
    assert operators_close(t, _pure_tail([1.0, 2.0 + 1e-13]))
    assert not operators_close(t, _pure_tail([1.0, 2.1]))


def test_empty_head_rank():
    assert projections.ModelProjection(_pure_tail([1.0, 0.0])).head_rank() == 0


def test_pure_tail_factorizations():
    u = _pure_tail(np.exp(1j * np.array([0.3, -2.0])))
    fac = factor.unitary_factorize(u)
    assert fac.exponent.m == 0
    assert operator_norm(fac.reconstruct() - u) <= 1e-12

    a = _pure_tail([1.5, 2.5])
    pr = factor.porta_recht(a)
    assert pr.iterations == 0
    assert operator_norm(pr.reconstruct() - a) <= 1e-12


def test_pure_tail_projection_machinery():
    p0 = projections.ModelProjection(_pure_tail([1.0, 0.0]))
    assert topology.k0_class(p0).tail_pattern == (1, 0)
    assert projections.classify_component(p0).kind == "infinite"
    e0 = projections.zero_index_diagonal(p0)
    assert projections.pair_index(
        p0, projections.ModelProjection(e0.to_operator())
    ) == 0
    assert projections.minimal_geodesic(p0, p0).length == 0.0


def test_pure_tail_quotient_and_section():
    t = _pure_tail([2.0, 0.5 + 0.5j])
    np.testing.assert_array_equal(quotient.quotient_class(t).values,
                                  [2.0, 0.5 + 0.5j])
    u = _pure_tail(np.exp(1j * np.array([0.4, -0.9])))
    d, v = topology.bundle_section(u)
    assert operator_norm(d.to_operator() @ v - u) <= 1e-12


def test_period_one_suites_run_clean():
    for name in ("canonical-decomposition", "index", "topology"):
        cfg = ExperimentConfig(seed=77, trials=6, head_size=6, period=1, suite=name)
        assert run_suite(cfg).failures == 0


def test_separation_requires_period_two():
    cfg = ExperimentConfig(seed=77, trials=5, head_size=6, period=1,
                           suite="separation")
    with pytest.raises(ConfigError):
        run_suite(cfg)


def test_identity_smallest_representation():
    one = identity(0, 1)
    assert (one.m, one.p) == (0, 1)
    assert operator_norm(one @ one - one) == 0.0
