import numpy as np
import pytest

from dpk.core import Diagonal, EopOperator, identity, operator_norm
from dpk.errors import (
    DpkError,
    KindMismatch,
    NotInBall,
    NotUnitary,
    NotOrthogonalPatterns,
    StepTooLarge,
)
from dpk.factor import exp_ih, unitarity_defect
from dpk.generate import (
    random_compact_hermitian,
    random_member,
    random_projection,
    trial_rng,
)
from dpk.projections import ModelProjection, diagonal_projection
from dpk.topology import (
    K0Class,
    UnitaryLoop,
    bundle_section,
    k0_add,
    k0_class,
    loop_winding,
)

from _oracles import ReferenceUnitaryLoop, reference_loop_winding


def _phase_loop(m, p, j, turns=1, samples=64):
    ops = []
    for t in np.linspace(0.0, 1.0, samples, endpoint=False):
        head = np.ones(m, dtype=complex)
        head[j] = np.exp(2j * np.pi * turns * t)
        ops.append(Diagonal(head, np.ones(p, dtype=complex)).to_operator())
    return UnitaryLoop(ops)


def test_section_identity_and_diagonal():
    d, v = bundle_section(identity(4, 2))
    assert np.all(d.all_entries() == 1.0)
    assert operator_norm(v - identity(4, 2)) == 0.0

    rng = trial_rng(14, 0)
    diag_u = Diagonal(np.exp(1j * rng.uniform(-2.0, 2.0, 4)),
                      np.exp(1j * rng.uniform(-2.0, 2.0, 2))).to_operator()
    d, v = bundle_section(diag_u)
    assert operator_norm(d.to_operator() - diag_u) <= 1e-12
    assert operator_norm(v - identity(4, 2)) <= 1e-12


def test_section_roundtrip_random():
    rng = trial_rng(14, 1)
    for _ in range(25):
        h = random_member(rng, 6, 3, hermitian=True)
        h = h * (0.9 * np.pi * rng.uniform(0.1, 1.0) / max(operator_norm(h), 1e-12))
        u = exp_ih(h)
        d, v = bundle_section(u)
        assert operator_norm(d.to_operator() @ v - u) <= 1e-9
        np.testing.assert_array_equal(v.tail, np.eye(3))
        assert unitarity_defect(v) <= 1e-9


def test_section_rejects_antipode():
    with pytest.raises(NotInBall):
        bundle_section(-1.0 * identity(2, 1))


def test_loop_validation():
    far = [identity(2, 1), -1.0 * identity(2, 1)]
    with pytest.raises(StepTooLarge):
        UnitaryLoop(far)
    with pytest.raises(StepTooLarge):
        UnitaryLoop([identity(2, 1)])


def test_constant_loop_winds_zero():
    loop = UnitaryLoop([identity(3, 1)] * 8)
    head_w, tail_w = loop_winding(loop, "diagonal")
    assert np.all(head_w == 0) and np.all(tail_w == 0)


def test_generator_loop_windings():
    loop = _phase_loop(4, 2, j=1)
    head_w, tail_w = loop_winding(loop, "diagonal")
    np.testing.assert_array_equal(head_w, [0, 1, 0, 0])
    np.testing.assert_array_equal(tail_w, [0, 0])

    double = _phase_loop(4, 2, j=0, turns=2, samples=128)
    head_w, _ = loop_winding(double, "diagonal")
    np.testing.assert_array_equal(head_w, [2, 0, 0, 0])


def test_fiber_generator_image():
    # The fiber generator at entry j maps to diagonal winding e_j together
    # with determinant winding -1 of the compact factor.
    loop = _phase_loop(4, 2, j=2)
    head_w, tail_w = loop_winding(loop, "diagonal")
    np.testing.assert_array_equal(head_w, [0, 0, 1, 0])
    conj = UnitaryLoop([s.adjoint() for s in loop.samples])
    assert loop_winding(conj, "compact") == -1


def test_winding_kind_mismatch():
    rng = trial_rng(14, 2)
    x = random_compact_hermitian(rng, 4, 2, 0.05)
    nondiag = [exp_ih(x * t) for t in np.linspace(0, 1, 8)]
    with pytest.raises(KindMismatch):
        loop_winding(UnitaryLoop(nondiag), "diagonal")

    diag_tail_loop = []
    for t in np.linspace(0.0, 1.0, 32, endpoint=False):
        tail = np.exp(1j * 0.3 * np.sin(2 * np.pi * t)) * np.ones(2)
        diag_tail_loop.append(Diagonal(np.ones(4, dtype=complex), tail).to_operator())
    with pytest.raises(KindMismatch):
        loop_winding(UnitaryLoop(diag_tail_loop), "compact")
    with pytest.raises(KindMismatch):
        loop_winding(UnitaryLoop(diag_tail_loop), "nonsense")


def test_winding_additivity_under_concatenation():
    l1 = _phase_loop(4, 2, j=0)
    l2 = _phase_loop(4, 2, j=1)
    both = l1.concatenate(l2)
    head_w, _ = loop_winding(both, "diagonal")
    np.testing.assert_array_equal(head_w, [1, 1, 0, 0])


def test_k0_class_basics():
    zero_proj = diagonal_projection([0, 0], [0])
    assert k0_class(zero_proj) == K0Class((0,), 0)
    e_can = diagonal_projection([1, 0, 1, 0], [1, 0])
    assert k0_class(e_can) == K0Class((1, 0), 0)


def test_k0_invariance_and_flip():
    rng = trial_rng(14, 3)
    for _ in range(20):
        p = random_projection(rng, 6, 3)
        cls = k0_class(p)
        u = exp_ih(random_compact_hermitian(rng, 6, 3, 1.2))
        moved = ModelProjection(u @ p.op @ u.adjoint())
        assert k0_class(moved) == cls

    base = diagonal_projection([1, 0, 0, 0], [1, 0])
    flipped = diagonal_projection([1, 1, 0, 0], [1, 0])
    assert k0_class(flipped).z_part - k0_class(base).z_part == 1


def test_k0_additivity_and_orthogonality():
    pa = diagonal_projection([1, 0, 0, 0], [1, 0])
    pb = diagonal_projection([0, 1, 0, 1], [0, 1])
    summed = ModelProjection(pa.op + pb.op)
    assert k0_add(k0_class(pa), k0_class(pb)) == k0_class(summed)
    with pytest.raises(NotOrthogonalPatterns):
        k0_add(k0_class(pa), k0_class(pa))


def test_k0_add_aligns_periods():
    a = K0Class((1, 0), 2)
    b = K0Class((0, 1, 0, 1), -1)
    combined = k0_add(a, b)
    assert combined.tail_pattern == (1, 1, 1, 1)
    assert combined.z_part == 1


# Batched loops against the per-sample reference in _oracles.

def _regrid(ops, grids):
    """Represent each operator on the next (m, p) grid in turn."""
    return [op.expand(*grids[k % len(grids)]) for k, op in enumerate(ops)]


def _mixed_period_samples():
    # Head entry 0 winds once, tail residue 0 of a period-2 pattern winds
    # twice; the samples come on grids of periods 2, 4 and 6.
    ops = []
    for t in np.linspace(0.0, 1.0, 96, endpoint=False):
        head = np.array([np.exp(2j * np.pi * t), 1.0])
        tail = np.array([np.exp(4j * np.pi * t), 1.0])
        ops.append(Diagonal(head, tail).to_operator())
    return _regrid(ops, [(2, 2), (4, 4), (6, 6)])


def _mixed_period_compact_samples():
    # Non-diagonal heads, tail = identity, on grids of periods 1, 2 and 3.
    x = random_compact_hermitian(trial_rng(15, 0), 3, 1, 0.4)
    ops = [exp_ih(x * np.sin(2 * np.pi * t))
           for t in np.linspace(0.0, 1.0, 40, endpoint=False)]
    return _regrid(ops, [(3, 1), (4, 2), (6, 3)])


def _empty_head_samples():
    return [Diagonal(np.zeros(0), np.array([np.exp(2j * np.pi * t), 1.0])).to_operator()
            for t in np.linspace(0.0, 1.0, 32, endpoint=False)]


def _nondiagonal_tail_samples():
    ops = []
    for t in np.linspace(0.0, 1.0, 32, endpoint=False):
        c, s = np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)
        ops.append(EopOperator(np.eye(2), np.array([[c, -s], [s, c]])))
    return ops


def _open_at_the_end_samples():
    # Every step is small except the wrap-around from last to first.
    return [Diagonal(np.array([np.exp(1.8j * np.pi * t)]), np.ones(1)).to_operator()
            for t in np.linspace(0.0, 1.0, 64)]


def _one_non_unitary_sample():
    ops = [Diagonal(np.array([np.exp(2j * np.pi * t), 1.0]), np.ones(1)).to_operator()
           for t in np.linspace(0.0, 1.0, 32, endpoint=False)]
    ops[16] = ops[16] * 1.001
    return ops


def _compact_with_tail_samples():
    x = random_compact_hermitian(trial_rng(15, 1), 4, 2, 0.3)
    tail = Diagonal(np.ones(4), np.array([1.0, 1j])).to_operator()
    return [tail @ exp_ih(x * np.sin(2 * np.pi * t))
            for t in np.linspace(0.0, 1.0, 24, endpoint=False)]


LOOP_CASES = {
    "mixed_periods": _mixed_period_samples,
    "mixed_periods_compact": _mixed_period_compact_samples,
    "empty_head": _empty_head_samples,
    "nondiagonal_tail": _nondiagonal_tail_samples,
    "open_at_the_end": _open_at_the_end_samples,
    "one_non_unitary": _one_non_unitary_sample,
    "compact_with_tail": _compact_with_tail_samples,
}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DpkError as exc:
        return type(exc)


@pytest.mark.parametrize("case", sorted(LOOP_CASES))
def test_batched_loop_matches_reference(case):
    samples = LOOP_CASES[case]()
    batched = _outcome(UnitaryLoop, samples)
    ref = _outcome(ReferenceUnitaryLoop, samples)
    if isinstance(ref, type):
        assert batched is ref
        return
    assert batched.max_step == ref.max_step
    assert (batched.m, batched.p) == (ref.m, ref.p)
    for got, want in zip(batched.samples, ref.samples, strict=True):
        np.testing.assert_array_equal(got.head, want.head)
        np.testing.assert_array_equal(got.tail, want.tail)
    for kind in ("diagonal", "compact", "nonsense"):
        got = _outcome(loop_winding, batched, kind)
        want = _outcome(reference_loop_winding, ref, kind)
        if isinstance(want, tuple):
            for g, w in zip(got, want, strict=True):
                np.testing.assert_array_equal(g, w)
        else:
            assert got == want


def test_loop_cases_cover_each_outcome():
    outcomes = {case: _outcome(UnitaryLoop, make()) for case, make in LOOP_CASES.items()}
    assert outcomes["open_at_the_end"] is StepTooLarge
    assert outcomes["one_non_unitary"] is NotUnitary
    head_w, tail_w = loop_winding(outcomes["mixed_periods"], "diagonal")
    assert head_w.tolist() == [1, 0] + [2, 0] * 5 and tail_w.tolist() == [2, 0] * 6
    assert _outcome(loop_winding, outcomes["empty_head"], "diagonal")[1].tolist() == [1, 0]
    assert _outcome(loop_winding, outcomes["empty_head"], "compact") is KindMismatch
    assert _outcome(loop_winding, outcomes["nondiagonal_tail"], "diagonal") is KindMismatch
    assert _outcome(loop_winding, outcomes["compact_with_tail"], "compact") is KindMismatch
    assert loop_winding(outcomes["mixed_periods_compact"], "compact") == 0


def test_loop_samples_are_read_only_views():
    samples = _mixed_period_samples()
    loop = UnitaryLoop(samples)
    assert (loop.heads.shape, loop.tails.shape) == ((96, 12, 12), (96, 12, 12))
    for s, view in zip(samples, loop.samples, strict=True):
        expanded = s.expand(loop.m, loop.p)
        np.testing.assert_array_equal(view.head, expanded.head)
        np.testing.assert_array_equal(view.tail, expanded.tail)
        assert np.shares_memory(view.head, loop.heads)
        with pytest.raises(ValueError):
            view.head[0, 0] = 0.0
        with pytest.raises(ValueError):
            view.tail[0, 0] = 0.0
