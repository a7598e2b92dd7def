"""Acceptance gate: one test per criterion, at desk scale, pinned tolerances.

Each criterion drives a named verification suite with its required trial
count and asserts zero failures; the suites themselves hold the tolerance
constants (1e-12 contractivity, 1e-9 reconstructions, exact integer index
arithmetic, and so on).  A PASS line is printed per criterion so a plain
``pytest -s tests/test_acceptance.py`` reads as a checklist.
"""

from dpk.generate import ExperimentConfig
from dpk.suites import run_suite

SEED = 20260808


def _drive(criterion, suite, trials, head=24, period=3, seed=SEED):
    config = ExperimentConfig(seed=seed, trials=trials, head_size=head,
                              period=period, suite=suite)
    report = run_suite(config)
    failed = [c for c in report.cases if not c["ok"]]
    detail = "; ".join(str(c["notes"][:2]) for c in failed[:5])
    assert report.failures == 0, (
        f"criterion {criterion}: {report.failures} failures in suite "
        f"{suite!r}: {detail}"
    )
    print(f"PASS criterion {criterion}: suite={suite} trials={report.trials} "
          f"failures=0 wall={report.wall_time_s:.1f}s")
    return report


def test_criterion_01_canonical_decomposition():
    # 1000 random members: delta of the compact part is exactly zero, the
    # reconstruction is bit-exact, contractivity within 1e-12, self-adjoint
    # inputs split into self-adjoint parts.
    _drive(1, "canonical-decomposition", trials=1000)


def test_criterion_02_membership_equivalence():
    # 500 random operators: structural membership agrees with the exhaustive
    # residue-projection commutator probe with zero disagreements.
    _drive(2, "membership", trials=500)


def test_criterion_03_fredholm():
    # 500 random operators: Fredholm iff the tail block is invertible, index
    # exactly zero, kernel dimensions match the dense rank oracle at three
    # embedding sizes.
    _drive(3, "fredholm", trials=500)


def test_criterion_04_stable_rank_one():
    # 500 trials at eps in {1e-1, 1e-3}: invertible output strictly within
    # 3 eps, self-adjointness preserved.
    _drive(4, "stable-rank", trials=500)


def test_criterion_05_unitary_factorization():
    # 500 random model unitaries: reconstruction within 1e-9, Hermitian
    # exponent with exactly zero tail and norm at most pi + 1e-9.
    _drive(5, "unitary-factorization", trials=500)


def test_criterion_06_porta_recht():
    # 200 positive definite instances with head at most 16: reconstruction
    # within 1e-8, zero diagonal within 1e-8, two starts agree within 1e-6,
    # non-convergence rate below 2 percent.
    _drive(6, "porta-recht", trials=200, head=15)


def test_criterion_07_index_machinery():
    # 1000 comparable pairs: both index routes agree exactly; additivity on
    # over 300 random triples; zero-index diagonals always reach index 0;
    # conjugating exponentials reconstruct within 1e-8 with norm <= pi/2.
    _drive(7, "index", trials=1000)


def test_criterion_08_geodesic_length():
    # 300 same-component pairs: arcsin length formula within 1e-7 away from
    # the gap-one window, codiagonality within 1e-9, unit-gap cases at pi/2.
    _drive(8, "geodesic", trials=300)


def test_criterion_09_separation_bounds():
    # Five tail-nontrivial permutations: distance at least 1 - 1e-9 to 300
    # members and sqrt(2) - 1e-9 to 300 model unitaries; derivation-norm
    # distance of the twisted automorphism at least 2 - 1e-6 on 100 pairs;
    # certified derivation-norm value matches the enclosing-circle oracle
    # within 1e-6.
    _drive(9, "separation", trials=300)


def test_criterion_10_topology():
    # 300 in-ball unitaries reconstruct through the bundle section with the
    # fiber factor's tail exactly the identity; fiber generator windings are
    # exact for the first five entries; the projection class is invariant
    # under at least 200 inner conjugations.
    _drive(10, "topology", trials=300)


def test_criterion_11_determinism():
    # Reruns with the same seed produce byte-identical reports once
    # wall-time metadata is stripped.
    for suite, trials in (("canonical-decomposition", 120),
                          ("index-additivity", 60),
                          ("membership", 80)):
        config = ExperimentConfig(seed=SEED, trials=trials, head_size=12,
                                  period=3, suite=suite)
        first = run_suite(config).to_json(no_meta=True)
        second = run_suite(config).to_json(no_meta=True)
        assert first == second, f"suite {suite} rerun differed"
    print("PASS criterion 11: byte-identical reports on rerun for 3 suites")
