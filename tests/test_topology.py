import itertools

import numpy as np
import pytest

from dpk.core import Diagonal, EopOperator, common_grid, identity, operator_norm
from dpk.errors import (
    AlignmentError,
    DpkError,
    KindMismatch,
    NonFiniteEntry,
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
from dpk.linalg import all_exactly_diagonal
from dpk.projections import ModelProjection, diagonal_projection
from dpk.suites import _combo_loop, _generator_loop
from dpk.topology import (
    MAX_LOOP_STEP,
    K0Class,
    UnitaryLoop,
    _chunked_max_step,
    bundle_section,
    k0_add,
    k0_class,
    loop_winding,
)

from _oracles import (
    ReferenceUnitaryLoop,
    reference_combo_loop,
    reference_generator_loop,
    reference_loop_winding,
)

# The per-sample builder of a loop winding `turns` times around head entry j.
_phase_loop = reference_generator_loop


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


def _assert_same_windings(got, want, want_winding=loop_winding):
    for kind in ("diagonal", "compact", "nonsense"):
        a, b = _outcome(loop_winding, got, kind), _outcome(want_winding, want, kind)
        if isinstance(b, tuple):
            for x, y in zip(a, b, strict=True):
                np.testing.assert_array_equal(x, y)
        else:
            assert a == b


def _assert_matches_reference(batched, ref):
    assert batched.max_step == ref.max_step
    assert (batched.m, batched.p) == (ref.m, ref.p)
    for got, want in zip(batched.samples, ref.samples, strict=True):
        np.testing.assert_array_equal(got.head, want.head)
        np.testing.assert_array_equal(got.tail, want.tail)
    _assert_same_windings(batched, ref, reference_loop_winding)


@pytest.mark.parametrize("case", sorted(LOOP_CASES))
def test_batched_loop_matches_reference(case):
    samples = LOOP_CASES[case]()
    batched = _outcome(UnitaryLoop, samples)
    ref = _outcome(ReferenceUnitaryLoop, samples)
    if isinstance(ref, type):
        assert batched is ref
        return
    _assert_matches_reference(batched, ref)


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
    _assert_read_only_views(loop, samples)


def _assert_read_only_views(loop, samples):
    for s, view in zip(samples, loop.samples, strict=True):
        expanded = s.expand(loop.m, loop.p)
        np.testing.assert_array_equal(view.head, expanded.head)
        np.testing.assert_array_equal(view.tail, expanded.tail)
        assert np.shares_memory(view.head, loop.heads)
        with pytest.raises(ValueError):
            view.head[0, 0] = 0.0
        with pytest.raises(ValueError):
            view.tail[0, 0] = 0.0


# Loops built from stacks.

def _stacks(samples):
    """Head and tail stacks of the samples on their common grid."""
    m, p = common_grid(samples)
    expanded = [s.expand(m, p) for s in samples]
    return np.stack([e.head for e in expanded]), np.stack([e.tail for e in expanded])


def _assert_same_loop(got, want):
    np.testing.assert_array_equal(got.heads, want.heads)
    np.testing.assert_array_equal(got.tails, want.tails)
    assert got.max_step == want.max_step


@pytest.mark.parametrize("case", sorted(LOOP_CASES))
def test_from_stacks_matches_samples(case):
    samples = LOOP_CASES[case]()
    from_samples = _outcome(UnitaryLoop, samples)
    from_stacks = _outcome(UnitaryLoop.from_stacks, *_stacks(samples))
    if isinstance(from_samples, type):
        assert from_stacks is from_samples
        return
    _assert_same_loop(from_stacks, from_samples)
    _assert_same_loop(UnitaryLoop.from_stacks(from_samples.heads, from_samples.tails),
                      from_samples)
    _assert_same_windings(from_stacks, from_samples)


@pytest.mark.parametrize("case", sorted(LOOP_CASES))
def test_adjoint_matches_reference(case):
    samples = LOOP_CASES[case]()
    loop = _outcome(UnitaryLoop, samples)
    if isinstance(loop, type):
        return
    got = _outcome(UnitaryLoop.adjoint, loop)
    want = _outcome(ReferenceUnitaryLoop,
                    [s.adjoint() for s in ReferenceUnitaryLoop(samples).samples])
    if isinstance(want, type):
        assert got is want
        return
    _assert_matches_reference(got, want)


def _phase_stacks(n=16, m=4, p=2):
    heads, tails = _stacks(_phase_loop(m, p, j=0, samples=n).samples)
    return heads.copy(), tails.copy()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("where", ["heads", "tails"])
def test_from_stacks_rejects_non_finite(bad, where):
    heads, tails = _phase_stacks()
    samples = [EopOperator(h, t) for h, t in zip(heads, tails)]
    (heads if where == "heads" else tails)[3, 1, 1] = bad
    with pytest.raises(NonFiniteEntry):
        UnitaryLoop.from_stacks(heads, tails)
    # Scaling skips validation, so a sample can carry non-finite entries.
    with np.errstate(invalid="ignore"):  # inf * 0 is nan, which is the point
        samples[3] = samples[3] * bad
    with pytest.raises(NonFiniteEntry):
        UnitaryLoop(samples)


def test_from_stacks_rejects_bad_shapes():
    heads, tails = _phase_stacks()
    with pytest.raises(AlignmentError):
        UnitaryLoop.from_stacks(heads[:, :, :3], tails)  # non-square heads
    with pytest.raises(AlignmentError):
        UnitaryLoop.from_stacks(heads, tails[:, :1, :])  # non-square tails
    with pytest.raises(AlignmentError):
        UnitaryLoop.from_stacks(heads[0], tails[0])  # not a stack
    with pytest.raises(AlignmentError):
        UnitaryLoop.from_stacks(heads, tails[:-1])  # lengths differ
    with pytest.raises(AlignmentError):
        UnitaryLoop.from_stacks(heads[:, :3, :3], tails)  # p does not divide m
    with pytest.raises(AlignmentError):
        UnitaryLoop.from_stacks(heads, np.zeros((16, 0, 0)))  # empty tail blocks
    for n in (0, 1):
        with pytest.raises(StepTooLarge):
            UnitaryLoop.from_stacks(heads[:n], tails[:n])


def test_from_stacks_unitarity_before_steps():
    heads, tails = _phase_stacks()
    heads[8] = -heads[8]  # steps of norm 2 into and out of sample 8
    with pytest.raises(StepTooLarge):
        UnitaryLoop.from_stacks(heads, tails)
    heads[12] *= 1.001
    with pytest.raises(NotUnitary):
        UnitaryLoop.from_stacks(heads, tails)


def test_from_stacks_owns_read_only_views():
    samples = _mixed_period_samples()
    heads, tails = _stacks(samples)
    loop = UnitaryLoop.from_stacks(heads, tails)
    heads[:] = 0.0  # the loop keeps its own copy
    assert loop.heads.flags.c_contiguous and loop.heads.dtype == np.complex128
    assert loop.tails.flags.c_contiguous and loop.tails.dtype == np.complex128
    assert loop.samples is loop.samples
    assert len(loop.samples) == len(loop) == len(samples)
    _assert_read_only_views(loop, samples)
    with pytest.raises(ValueError):
        loop.heads[0, 0, 0] = 0.0


def test_from_stacks_stores_strided_input_in_c_order():
    heads, tails = _phase_stacks()
    # Diagonal samples, so the transposed blocks are the same loop, laid out
    # column-major.
    loop = UnitaryLoop.from_stacks(heads.transpose(0, 2, 1), tails.transpose(0, 2, 1))
    assert loop.heads.flags.c_contiguous and loop.tails.flags.c_contiguous
    _assert_same_loop(loop, UnitaryLoop.from_stacks(heads, tails))


@pytest.mark.parametrize("grids", [((4, 2), (4, 2)), ((4, 2), (6, 3))],
                         ids=["same_grid", "across_grids"])
def test_concatenate_matches_reference(grids):
    l1 = _phase_loop(*grids[0], j=0)
    l2 = _phase_loop(*grids[1], j=1)
    _assert_matches_reference(l1.concatenate(l2),
                              ReferenceUnitaryLoop(list(l1.samples) + list(l2.samples)))


GENERATOR_LOOPS = [(24, 3, 0, 1, 64), (24, 3, 4, 1, 64), (6, 2, 5, 2, 128),
                   (4, 4, 1, -1, 64), (5, 1, 2, 3, 192), (1, 1, 0, 1, 16)]


@pytest.mark.parametrize("m,p,j,turns,samples", GENERATOR_LOOPS)
def test_generator_loop_matches_per_sample_builder(m, p, j, turns, samples):
    got = _generator_loop(m, p, j, turns, samples)
    want = reference_generator_loop(m, p, j, turns, samples)
    _assert_same_loop(got, want)
    _assert_same_loop(got.adjoint(), UnitaryLoop([s.adjoint() for s in want.samples]))


@pytest.mark.parametrize("ks", [(0, 0, 0), (1, -2, 3), (-3, -3, -3), (3, 0, -1), (2,),
                                (-1, 1, -2, 2)])
def test_combo_loop_matches_per_sample_builder(ks):
    got = _combo_loop(ks)
    want = reference_combo_loop(ks)
    _assert_same_loop(got, want)
    _assert_same_loop(got.adjoint(), UnitaryLoop([s.adjoint() for s in want.samples]))
    _assert_same_windings(got, want)


def test_loop_is_immutable():
    loop = _combo_loop((1, 0, -1))
    heads, tails, step = loop.heads, loop.tails, loop.max_step
    other = _combo_loop((0, 0, 0))
    for name, value in (("heads", other.heads), ("tails", other.tails),
                        ("max_step", 0.0), ("diagonal", False), ("_samples", ())):
        with pytest.raises(AttributeError):
            setattr(loop, name, value)
        with pytest.raises(AttributeError):
            delattr(loop, name)
    with pytest.raises(AttributeError):
        loop.extra = 1
    assert loop.heads is heads and loop.tails is tails and loop.max_step == step
    assert loop.diagonal is True
    assert loop.samples is loop.samples  # the sample views are still kept


# Exactly diagonal loops are checked and wound through their diagonal
# entries; the general route checks the blocks.  Both must give the same
# outcome, max_step bit for bit.

def _diagonal_samples(head_entries, tail_entries):
    return [Diagonal(h, t).to_operator() for h, t in zip(head_entries, tail_entries)]


def _winding_entries(turns, n=32):
    ts = np.linspace(0.0, 1.0, n, endpoint=False)
    return np.exp(2j * np.pi * np.asarray(turns, dtype=float) * ts[:, None])


def _defect_samples(defect):
    # Sample 5's first head entry has |d|^2 = 1 + defect.
    heads = _winding_entries([1, 0])
    heads[5, 0] *= np.sqrt(1.0 + defect)
    return _diagonal_samples(heads, np.ones((32, 1)))


def _step_samples(half_gap):
    # Entries a + ib and a - ib alternate: every step, the wrap-around
    # included, is exactly 2 * half_gap in norm.
    a = np.sqrt(1.0 - half_gap * half_gap)
    heads = np.ones((4, 2), dtype=complex)
    heads[:, 0] = [complex(a, half_gap), complex(a, -half_gap)] * 2
    return _diagonal_samples(heads, np.ones((4, 1)))


def _off_diagonal_samples(value):
    # A diagonal loop with head entry (0, 1) of sample 3 set to ``value``.
    ops = _diagonal_samples(_winding_entries([1, -1]), np.ones((32, 1)))
    head = ops[3].head.copy()
    head[0, 1] = value
    ops[3] = EopOperator(head, ops[3].tail)
    return ops


def _wide_tail_samples():
    # Head and period-3 tail entries winding by different amounts.
    entries = _winding_entries([1, 0, -1, 0, 2, -1], n=96)
    return _diagonal_samples(entries[:, :3], entries[:, 3:])


DIAGONAL_CASES = {
    # name: (samples, whether the whole loop is exactly diagonal)
    "defect_just_under": (lambda: _defect_samples(0.999e-9), True),
    "defect_just_over": (lambda: _defect_samples(1.001e-9), True),
    "step_just_under_half": (lambda: _step_samples(0.25 - 2.0 ** -40), True),
    "step_at_half": (lambda: _step_samples(0.25), True),
    "empty_head": (_empty_head_samples, True),
    "negative_zero_off_diagonal": (lambda: _off_diagonal_samples(-0.0), True),
    "tiny_off_diagonal": (lambda: _off_diagonal_samples(1e-300), False),
    "wide_tail": (_wide_tail_samples, True),
    "mixed_periods": (_mixed_period_samples, True),
}


@pytest.mark.parametrize("case", sorted(DIAGONAL_CASES))
def test_diagonal_route_matches_general_route(case):
    make, diagonal = DIAGONAL_CASES[case]
    samples = make()
    heads, tails = _stacks(samples)
    assert (all_exactly_diagonal(heads) and all_exactly_diagonal(tails)) is diagonal
    batched = _outcome(UnitaryLoop, samples)
    general = _outcome(_chunked_max_step, heads, tails)
    if not isinstance(general, type) and general >= MAX_LOOP_STEP:
        general = StepTooLarge
    ref = _outcome(ReferenceUnitaryLoop, samples)
    if isinstance(ref, type):
        assert batched is ref and general is ref
        return
    assert batched.diagonal is diagonal
    assert batched.max_step == general
    _assert_matches_reference(batched, ref)
    adjoint = batched.adjoint()
    assert adjoint.diagonal is diagonal
    _assert_matches_reference(adjoint,
                              ReferenceUnitaryLoop([s.adjoint() for s in ref.samples]))


def test_diagonal_cases_cover_each_outcome():
    outcomes = {case: _outcome(UnitaryLoop, make()) for case, (make, _) in
                DIAGONAL_CASES.items()}
    assert outcomes["defect_just_over"] is NotUnitary
    assert outcomes["step_at_half"] is StepTooLarge
    assert outcomes["step_just_under_half"].max_step == 0.5 - 2.0 ** -39
    assert outcomes["defect_just_under"].max_step > 0.0
    assert loop_winding(outcomes["negative_zero_off_diagonal"], "diagonal")[0].tolist() == [1, -1]
    assert _outcome(loop_winding, outcomes["tiny_off_diagonal"], "diagonal") is KindMismatch
    head_w, tail_w = loop_winding(outcomes["wide_tail"], "diagonal")
    assert head_w.tolist() == [1, 0, -1] and tail_w.tolist() == [0, 2, -1]


def test_diagonal_compact_winding_matches_eigvals_route():
    for ks in itertools.product(range(-3, 4), repeat=3):
        adjoint = _combo_loop(ks).adjoint()
        assert adjoint.diagonal
        assert loop_winding(adjoint, "compact") == reference_loop_winding(adjoint, "compact")
        assert loop_winding(adjoint, "compact") == -sum(ks)
    for args in GENERATOR_LOOPS:
        for loop in (_generator_loop(*args), _generator_loop(*args).adjoint()):
            assert loop.diagonal
            assert loop_winding(loop, "compact") == reference_loop_winding(loop, "compact")


def test_diagonal_loops_call_no_dense_kernel(monkeypatch):
    calls = []
    for name in ("svd", "eigvals"):
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    loop = _combo_loop((1, -2, 3))
    assert loop_winding(loop, "diagonal")[0].tolist() == [1, -2, 3]
    assert loop_winding(loop.adjoint(), "compact") == -2
    assert calls == []
    # The counters see a loop that is not diagonal.
    loop_winding(UnitaryLoop(_mixed_period_compact_samples()), "compact")
    assert "svd" in calls and "eigvals" in calls
