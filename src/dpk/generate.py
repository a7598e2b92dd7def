"""Seeded instance generation for experiments and verification sweeps.

Per-trial randomness is derived from the 64-bit mix documented in the
README: trial seed = splitmix64(seed + (trial + 1) * GOLDEN mod 2^64),
fed to numpy's PCG64.  Identical configs therefore reproduce identical
instances, trial by trial.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autos import PermutationSpec
from .core import Diagonal, EopOperator, zero_tail
from .errors import ConfigError
from .factor import exp_ih
from .linalg import herm
from .projections import ModelProjection
from .quotient import PositiveFunctional

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

KINDS = ("operator", "unitary", "projection", "positive", "functional", "permutation")


def splitmix64(z):
    z &= MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return (z ^ (z >> 31)) & MASK64


def trial_seed(seed, trial):
    return splitmix64((seed + (trial + 1) * GOLDEN) & MASK64)


def trial_rng(seed, trial):
    return np.random.Generator(np.random.PCG64(trial_seed(seed, trial)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep parameters; head_size must be a multiple of period."""

    seed: int = 0
    trials: int = 300
    head_size: int = 24
    period: int = 3
    suite: Optional[str] = None

    def __post_init__(self):
        if not 0 <= int(self.seed) <= MASK64:
            raise ConfigError("seed must fit in 64 bits")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.period < 1 or self.head_size < 0:
            raise ConfigError("period must be >= 1 and head_size >= 0")
        if self.head_size % self.period:
            raise ConfigError(
                f"head_size {self.head_size} is not a multiple of period {self.period}"
            )


def _complex_gaussian(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_member(rng, m, p, hermitian=False):
    """Random model D+K element: dense head, diagonal tail."""
    head = _complex_gaussian(rng, (m, m), 1.0 / max(1.0, np.sqrt(m)))
    pattern = _complex_gaussian(rng, (p,), 0.7)
    if hermitian:
        head = herm(head)
        pattern = pattern.real.astype(np.complex128)
    return EopOperator(head, np.diag(pattern))


def random_general(rng, m, p):
    """Random block-periodic operator with a dense (non-member) tail."""
    head = _complex_gaussian(rng, (m, m), 1.0 / max(1.0, np.sqrt(m)))
    tail = _complex_gaussian(rng, (p, p), 1.0 / max(1.0, np.sqrt(p)))
    return EopOperator(head, tail)


def random_operator(rng, trial, m, p):
    """Member on even trials (Hermitian when trial % 6 == 4), general-tail
    operator on odd ones, so sweeps see both."""
    if trial % 2 == 0:
        return random_member(rng, m, p, hermitian=(trial % 6 == 4))
    return random_general(rng, m, p)


def random_compact_hermitian(rng, m, p, norm_cap=2.5):
    """Hermitian with exactly zero tail, norm uniform in (0.1, norm_cap)."""
    if m == 0:
        return zero_tail(np.zeros((0, 0)), p)
    raw = herm(_complex_gaussian(rng, (m, m)))
    top = float(np.max(np.abs(np.linalg.eigvalsh(raw)))) or 1.0
    target = rng.uniform(min(0.1, norm_cap / 2.0), norm_cap)
    return zero_tail(raw * (target / top), p)


def random_phases(rng, n):
    return np.exp(1j * rng.uniform(-np.pi, np.pi, size=n))


def random_unitary_member(rng, m, p, spread=2.5):
    """D_w exp(iX): diagonal phases times a compact-exponential unitary."""
    w = Diagonal(random_phases(rng, m), random_phases(rng, p))
    x = random_compact_hermitian(rng, m, p, spread)
    return w.to_operator() @ exp_ih(x)


def random_pattern(rng, p, forbid_constant=False):
    while True:
        bits = rng.integers(0, 2, size=p)
        if not forbid_constant or (bits.min() == 0 and bits.max() == 1):
            return bits


def random_projection(rng, m, p, pattern=None, head_bits=None):
    """Conjugated diagonal projection; tail pattern survives conjugation exactly."""
    if pattern is None:
        pattern = random_pattern(rng, p)
    if head_bits is None:
        head_bits = rng.integers(0, 2, size=m)
    e = Diagonal(np.asarray(head_bits, dtype=complex), np.asarray(pattern, dtype=complex))
    u = exp_ih(random_compact_hermitian(rng, m, p, 1.5))
    return ModelProjection(u @ e.to_operator() @ u.adjoint())


def random_positive_member(rng, m, p, floor=0.1):
    """S*S + floor*I for a random member S; positive definite by construction."""
    s = random_member(rng, m, p)
    eye = EopOperator(np.eye(m, dtype=complex), np.eye(p, dtype=complex))
    return s.adjoint() @ s + floor * eye


def random_functional(rng, n, p):
    g = _complex_gaussian(rng, (n, n), 1.0 / max(1.0, np.sqrt(n)))
    a = g.conj().T @ g
    w = np.abs(rng.standard_normal(p))
    return PositiveFunctional(a, w)


def random_permutation_spec(rng, m, p, tail_nontrivial=False):
    head = rng.permutation(m)
    while True:
        tail = rng.permutation(p)
        if not tail_nontrivial or p == 1 or np.any(tail != np.arange(p)):
            break
    return PermutationSpec(head, tail)


def generate(config, kind, trial=0):
    """Deterministic instance of the requested kind for (config.seed, trial)."""
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}; choose from {KINDS}")
    rng = trial_rng(config.seed, trial)
    m, p = config.head_size, config.period
    if kind == "operator":
        return random_operator(rng, trial, m, p)
    if kind == "unitary":
        return random_unitary_member(rng, m, p)
    if kind == "projection":
        return random_projection(rng, m, p)
    if kind == "positive":
        return random_positive_member(rng, m, p)
    if kind == "functional":
        return random_functional(rng, min(m, 8) or 1, p)
    if kind == "permutation":
        return random_permutation_spec(rng, m, p)
    raise ConfigError(f"unhandled kind {kind!r}")
