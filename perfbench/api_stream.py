"""Request stream of the ``api`` workload and the independent checks.

A request carries its operands as JSON wire-format texts.  Serving it means
parsing the operands with ``dpk.serial.load_operator``, making one public
dpk call on a product or sum of them, and serializing the answer with
``dpk.serial``.  Only that part is timed.

Operands are generated with numpy alone, one fresh set per request, so no
two requests share an operand text and the request stream never touches
dpk outside the timed part.  (The worker serves each request once per pass
and keeps the median; a cache keyed on operand text would hit on those
repeats and would show in ``peak_rss_mb``.)  The two operands of a request
always have different periods (2 to 6), so ``align``/``expand`` does real
expansion; the aligned head and period stay at or below ``GRID_LIMIT``.

Every response is checked by parsing the wire text back with ``json`` and
comparing it against numpy computations on dense corners of the operands:
singular values, eigenvalues, a hand-built ``exp(iX)``, tiled tail patterns
and head-bit counts.  No check calls into dpk.
"""

import json
import math
import time

import numpy as np

PERIODS = (2, 3, 4, 5, 6)
HEAD_MIN, HEAD_MAX = 12, 30
GRID_LIMIT = 60
KINDS = ("norm", "spectrum", "decompose", "fredholm", "factor", "quotient",
         "character", "index")
# Base tail patterns for comparable projection pairs and the periods each
# may be written with: a pattern of period d repeated a times.
PROJECTION_BASES = {1: (2, 3, 4, 5, 6), 2: (2, 4, 6), 3: (3, 6)}
SINGULAR_TOL = 1e-10


def _aligned(pa, ma, pb, mb):
    period = math.lcm(pa, pb)
    head = -(-max(ma, mb) // period) * period
    return head, period


# Every period pair must align within the grid limit at the largest head.
assert all(
    max(_aligned(a, HEAD_MAX, b, HEAD_MAX)) <= GRID_LIMIT
    for a in PERIODS for b in PERIODS
)


class Operand:
    """A generated operator: numpy head/tail plus its wire-format text."""

    __slots__ = ("head", "tail", "text")

    def __init__(self, head, tail):
        self.head = head
        self.tail = tail
        self.text = json.dumps({
            "m": head.shape[0],
            "p": tail.shape[0],
            "head": _pairs(head),
            "tail": _pairs(tail),
        })

    @property
    def m(self):
        return self.head.shape[0]

    @property
    def p(self):
        return self.tail.shape[0]


class Request:
    __slots__ = ("index", "kind", "operands", "residue", "expected_index")

    def __init__(self, index, kind, operands, residue=None, expected_index=None):
        self.index = index
        self.kind = kind
        self.operands = operands
        self.residue = residue
        self.expected_index = expected_index


def _pairs(a):
    """[re, im] nesting of the wire format, for a vector or a matrix."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack((a.real, a.imag), axis=-1).tolist()


def _gauss(rng, shape, scale):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _expi(h):
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return (v * np.exp(1j * w)) @ v.conj().T


def _compact_hermitian(rng, m, cap):
    raw = _gauss(rng, (m, m), 1.0)
    raw = (raw + raw.conj().T) / 2
    top = float(np.max(np.abs(np.linalg.eigvalsh(raw)))) or 1.0
    return raw * (rng.uniform(0.1, cap) / top)


def general(rng, m, p):
    return Operand(_gauss(rng, (m, m), 1 / np.sqrt(m)), _gauss(rng, (p, p), 1 / np.sqrt(p)))


def member(rng, m, p):
    return Operand(_gauss(rng, (m, m), 1 / np.sqrt(m)), np.diag(_gauss(rng, (p,), 0.7)))


def masked(rng, m, p, zero_tail=False):
    """Member with zero head rows; with zero_tail, one tail pattern entry is 0."""
    rows = rng.random(m) < 0.25
    rows[int(rng.integers(0, m))] = True
    head = _gauss(rng, (m, m), 1 / np.sqrt(m))
    head[rows] = 0.0
    pattern = _gauss(rng, (p,), 0.7)
    if zero_tail:
        pattern[int(rng.integers(0, p))] = 0.0
    return Operand(head, np.diag(pattern))


def unitary(rng, m, p):
    """D_w exp(iX): diagonal phases times the exponential of a compact Hermitian."""
    phases_h = np.exp(1j * rng.uniform(-np.pi, np.pi, m))
    phases_t = np.exp(1j * rng.uniform(-np.pi, np.pi, p))
    head = phases_h[:, None] * _expi(_compact_hermitian(rng, m, 2.5))
    return Operand(head, np.diag(phases_t))


def projection(rng, m, base, p):
    """U E U* with E diagonal (random head bits, tail = base pattern tiled)."""
    bits = rng.integers(0, 2, size=m).astype(float)
    u = _expi(_compact_hermitian(rng, m, 1.5))
    head = (u * bits) @ u.conj().T
    tail = np.diag(np.tile(base, p // base.size).astype(np.complex128))
    return Operand(head, tail), bits


def _pairs_of(periods):
    return [(a, b) for a in periods for b in periods if a != b]


PERIOD_PAIRS = _pairs_of(PERIODS)
PROJECTION_PAIRS = {d: _pairs_of(ps) for d, ps in PROJECTION_BASES.items()}


def _head(p, j):
    """The j-th head size for period p, cycling through the multiples of p
    in [HEAD_MIN, HEAD_MAX]."""
    sizes = range(-(-HEAD_MIN // p) * p, HEAD_MAX + 1, p)
    return sizes[j % len(sizes)]


def make_request(seed, index):
    """The index-th request of the stream for this seed (deterministic).

    Kinds, periods, head sizes and operand variants follow a fixed cycle, the
    same for every seed, so that request cost does not depend on the seed;
    the seed draws the matrix entries.
    """
    rng = np.random.default_rng([seed, index])
    kind = KINDS[index % len(KINDS)]
    j = index // len(KINDS)  # position among requests of this kind
    if kind == "index":
        return index_pair(rng, j, index)
    pa, pb = PERIOD_PAIRS[j % len(PERIOD_PAIRS)]
    ma, mb = _head(pa, j), _head(pb, j + 1)
    variant = (j // len(PERIOD_PAIRS)) % 2
    if kind in ("norm", "spectrum"):
        ops = [(general, member)[variant](rng, ma, pa), (member, general)[variant](rng, mb, pb)]
        return Request(index, kind, ops)
    if kind in ("decompose", "quotient", "character"):
        ops = [member(rng, ma, pa), (member, masked)[variant](rng, mb, pb)]
        return Request(index, kind, ops, residue=j % math.lcm(pa, pb))
    if kind == "fredholm":
        return Request(index, kind, [masked(rng, ma, pa, zero_tail=bool(variant)),
                                     (general, member)[j % 2](rng, mb, pb)])
    return Request(index, kind, [unitary(rng, ma, pa), unitary(rng, mb, pb)])


def index_pair(rng, j, index=None):
    """Two comparable projections of different periods and their pair index."""
    d = 1 + j % len(PROJECTION_BASES)
    pp, pq = PROJECTION_PAIRS[d][(j // len(PROJECTION_BASES)) % len(PROJECTION_PAIRS[d])]
    base = rng.integers(0, 2, size=d)
    op_p, bits_p = projection(rng, _head(pp, j), base, pp)
    op_q, bits_q = projection(rng, _head(pq, j + 1), base, pq)
    m_new, _ = _aligned(pp, op_p.m, pq, op_q.m)

    def head_rank(bits):
        # Rank of the diagonal projection's head on the aligned grid.
        return int(bits.sum()) + int(base.sum()) * (m_new - bits.size) // base.size

    return Request(index, "index", [op_p, op_q],
                   expected_index=head_rank(bits_p) - head_rank(bits_q))


# --------------------------------------------------------------------------
# Serving (timed)


def _diag_obj(d):
    return {"head": _pairs(np.asarray(d.head_entries)),
            "tail": _pairs(np.asarray(d.tail_pattern))}


def serve(dpk, serial, req):
    """Parse, call, serialize.  Returns the response text."""
    kind = req.kind
    if kind == "index":
        p = dpk.ModelProjection(serial.load_operator(req.operands[0].text))
        q = dpk.ModelProjection(serial.load_operator(req.operands[1].text))
        return serial.canonical_dumps({"index": dpk.pair_index(p, q)})
    a = serial.load_operator(req.operands[0].text)
    b = serial.load_operator(req.operands[1].text)
    if kind == "norm":
        return serial.canonical_dumps({"norm": dpk.operator_norm(a @ b)})
    if kind == "spectrum":
        points, ess = dpk.spectrum(a + b)
        return serial.canonical_dumps({"essential": _pairs(ess), "points": _pairs(points)})
    if kind == "decompose":
        dec = dpk.canonical_decompose(a @ b)
        return ('{"compact":' + serial.dump_operator(dec.compact_part)
                + ',"diagonal":' + serial.canonical_dumps(_diag_obj(dec.diagonal_part)) + "}")
    if kind == "fredholm":
        return serial.canonical_dumps(dpk.fredholm_data(a @ b).to_obj())
    if kind == "factor":
        fac = dpk.unitary_factorize(a @ b)
        return ('{"diagonal_unitary":' + serial.canonical_dumps(_diag_obj(fac.diagonal_unitary))
                + ',"exponent":' + serial.dump_operator(fac.exponent) + "}")
    if kind == "quotient":
        return serial.canonical_dumps({"values": _pairs(dpk.quotient_class(a @ b).values)})
    if kind == "character":
        z = dpk.character_eval(a @ b, req.residue)
        return serial.canonical_dumps({"value": [z.real, z.imag]})
    raise ValueError(f"unknown request kind {kind!r}")


def serve_timed(dpk, serial, req):
    """Serve one request; returns (seconds, response text or None, failure note)."""
    t0 = time.perf_counter()
    try:
        text = serve(dpk, serial, req)
    except Exception as exc:  # any raise is a failed request, not a crash
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, text, None


def verify(req, text):
    """Failure note for a response text that fails its check, else None."""
    return _safe_check(check, text, req)


def _safe_check(fn, text, *args):
    try:
        return fn(json.loads(text), *args)
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers bad JSON
        return f"malformed response: {type(exc).__name__}: {exc}"


# --------------------------------------------------------------------------
# Cold CLI launches: one file-based command per case


class CliCase:
    __slots__ = ("argv", "files", "check")

    def __init__(self, argv, files, check):
        self.argv = argv
        self.files = files
        self.check = check


def cli_cases(seed):
    """Fixed set of ``python -m dpk`` commands: one needs scipy's Schur form
    (``factor-unitary``), the others do not."""
    rng = np.random.default_rng([seed, 2**32])
    u, a, q = unitary(rng, 24, 4), masked(rng, 18, 3), member(rng, 20, 5)
    pair = index_pair(rng, 1)
    n = u.m + u.p
    return [
        CliCase(["factor-unitary", "u.json"], {"u.json": u.text},
                lambda r: _check_factor(r, _corner(u.head, u.tail, n), n)),
        CliCase(["fredholm", "a.json"], {"a.json": a.text},
                lambda r: _check_fredholm(r, a.head, a.tail)),
        CliCase(["quotient", "q.json"], {"q.json": q.text},
                lambda r: _check_values(r, np.diagonal(q.tail), 1.0)),
        CliCase(["proj", "index", "p.json", "pp.json"],
                {"p.json": pair.operands[0].text, "pp.json": pair.operands[1].text},
                lambda r: check(r, pair)),
    ]


def check_cli(case, stdout):
    return _safe_check(case.check, stdout)


# --------------------------------------------------------------------------
# Independent checks (untimed, numpy only)


def _cplx(obj):
    arr = np.array(obj, dtype=float).reshape(-1, 2)
    return arr[:, 0] + 1j * arr[:, 1]


def _corner(head, tail, n):
    out = np.zeros((n, n), dtype=np.complex128)
    k = min(head.shape[0], n)
    out[:k, :k] = head[:k, :k]
    pos, p = head.shape[0], tail.shape[0]
    while pos < n:
        k = min(p, n - pos)
        out[pos:pos + k, pos:pos + k] = tail[:k, :k]
        pos += p
    return out


def _operator_corner(obj, n):
    return _corner(_cplx(obj["head"]).reshape(obj["m"], obj["m"]),
                   _cplx(obj["tail"]).reshape(obj["p"], obj["p"]), n)


def _diag_corner(obj, n):
    return _corner(np.diag(_cplx(obj["head"])), np.diag(_cplx(obj["tail"])), n)


def _sets_match(a, b, tol):
    if a.size == 0 or b.size == 0:
        return a.size == b.size
    dist = np.abs(a[:, None] - b[None, :])
    return bool(dist.min(axis=1).max() <= tol and dist.min(axis=0).max() <= tol)


def _tail_pattern(op, period):
    return np.tile(np.diagonal(op.tail), period // op.p)


def check(resp, req):
    """None when the response agrees with the independent route, else a note."""
    kind = req.kind
    if kind == "index":
        got = resp["index"]
        return None if got == req.expected_index else f"index {got} != {req.expected_index}"
    a, b = req.operands
    m_new, period = _aligned(a.p, a.m, b.p, b.m)
    n = m_new + period
    ca, cb = _corner(a.head, a.tail, n), _corner(b.head, b.tail, n)
    t = ca + cb if kind == "spectrum" else ca @ cb
    scale = max(1.0, float(np.max(np.abs(t))))
    if kind == "norm":
        want = float(np.linalg.svd(t, compute_uv=False)[0])
        return None if abs(resp["norm"] - want) <= 1e-10 * scale else "norm differs from dense SVD"
    if kind == "spectrum":
        tol = 1e-7 * scale
        if not _sets_match(_cplx(resp["points"]), np.linalg.eigvals(t), tol):
            return "point spectrum differs from dense eigenvalues"
        if not _sets_match(_cplx(resp["essential"]), np.linalg.eigvals(t[m_new:, m_new:]), tol):
            return "essential spectrum differs from tail eigenvalues"
        return None
    if kind == "decompose":
        comp = resp["compact"]
        k_head = _cplx(comp["head"]).reshape(comp["m"], comp["m"])
        if np.any(_cplx(comp["tail"]) != 0) or np.any(np.diagonal(k_head) != 0):
            return "compact part has a nonzero diagonal or tail"
        total = _diag_corner(resp["diagonal"], n) + _operator_corner(comp, n)
        return None if np.max(np.abs(total - t)) <= 1e-12 * scale else "D + K != T"
    if kind == "fredholm":
        return _check_fredholm(resp, t[:m_new, :m_new], t[m_new:, m_new:])
    if kind == "factor":
        return _check_factor(resp, t, n)
    pattern = _tail_pattern(a, period) * _tail_pattern(b, period)
    if kind == "quotient":
        return _check_values(resp, pattern, scale)
    if kind == "character":
        got = complex(*resp["value"])
        return None if abs(got - pattern[req.residue]) <= 1e-13 * scale else "character value differs"
    return f"no check for kind {kind!r}"


def _check_values(resp, pattern, scale):
    got = _cplx(resp["values"])
    ok = got.shape == pattern.shape and np.max(np.abs(got - pattern)) <= 1e-13 * scale
    return None if ok else "quotient values differ from the tail pattern"


def _check_fredholm(resp, head, tail):
    s_tail = float(np.linalg.svd(tail, compute_uv=False)[-1])
    if abs(resp["tail_min_singular_value"] - s_tail) > 1e-12:
        return "tail_min_singular_value differs"
    if s_tail <= SINGULAR_TOL:
        ok = resp["is_fredholm"] is False and resp["kernel_dim"] is None
        return None if ok else "singular tail reported Fredholm"
    k = int(np.count_nonzero(np.linalg.svd(head, compute_uv=False) <= SINGULAR_TOL))
    want = {"is_fredholm": True, "index": 0, "kernel_dim": k, "cokernel_dim": k}
    got = {key: resp[key] for key in want}
    return None if got == want else f"fredholm data {got} != {want}"


def _check_factor(resp, u, n):
    x = resp["exponent"]
    x_head = _cplx(x["head"]).reshape(x["m"], x["m"])
    if np.any(_cplx(x["tail"]) != 0):
        return "exponent tail is not zero"
    if np.max(np.abs(x_head - x_head.conj().T), initial=0.0) > 1e-12:
        return "exponent is not Hermitian"
    expo = _corner(_expi(x_head), np.eye(x["p"], dtype=np.complex128), n)
    recon = _diag_corner(resp["diagonal_unitary"], n) @ expo
    return None if np.max(np.abs(recon - u)) <= 1e-9 else "D exp(iX) != U"
