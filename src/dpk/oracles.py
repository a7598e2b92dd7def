"""Independent oracle computations used by the verification suites.

These deliberately take different routes from the library implementations
they check: norms and ranks via dense embeddings of the infinite matrix,
and Chebyshev centers via exhaustive smallest-enclosing-circle search over
eigenvalues.
"""

import itertools

import numpy as np


def dense_norm(t, size):
    """Largest singular value of the top-left size x size corner."""
    d = t.dense(size)
    if d.size == 0:
        return 0.0
    return float(np.linalg.svd(d, compute_uv=False)[0])


def dense_nullity(t, size, tol=1e-10):
    d = t.dense(size)
    if d.size == 0:
        return 0
    s = np.linalg.svd(d, compute_uv=False)
    return int(np.count_nonzero(s <= tol))


def _circle_two(a, b):
    center = (a + b) / 2.0
    return center, abs(a - center)


def _circle_three(a, b, c):
    # Circumcenter via the perpendicular-bisector linear system.
    ax, ay, bx, by, cx, cy = a.real, a.imag, b.real, b.imag, c.real, c.imag
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-14:
        return None, None
    ux = (
        (ax * ax + ay * ay) * (by - cy)
        + (bx * bx + by * by) * (cy - ay)
        + (cx * cx + cy * cy) * (ay - by)
    ) / d
    uy = (
        (ax * ax + ay * ay) * (cx - bx)
        + (bx * bx + by * by) * (ax - cx)
        + (cx * cx + cy * cy) * (bx - ax)
    ) / d
    center = complex(ux, uy)
    return center, abs(a - center)


def smallest_enclosing_circle(points):
    """Exact smallest enclosing circle by pair/triple enumeration.

    Quadratic-cubic in the number of points, which is fine at desk scale;
    the optimum circle is determined by two or three of the points.
    """
    pts = [complex(z) for z in np.asarray(points).ravel()]
    if not pts:
        return 0j, 0.0
    if len(pts) == 1:
        return pts[0], 0.0
    best = None
    slack = 1e-12

    def covers(center, radius):
        return all(abs(z - center) <= radius + slack for z in pts)

    for a, b in itertools.combinations(pts, 2):
        center, radius = _circle_two(a, b)
        if covers(center, radius) and (best is None or radius < best[1]):
            best = (center, radius)
    if best is not None:
        return best
    for a, b, c in itertools.combinations(pts, 3):
        center, radius = _circle_three(a, b, c)
        if center is None:
            continue
        if covers(center, radius) and (best is None or radius < best[1]):
            best = (center, radius)
    if best is None:
        raise ValueError("no enclosing circle found; degenerate input")
    return best


def chebyshev_radius_of_spectrum(t):
    """Radius of the smallest circle enclosing all block eigenvalues."""
    eigs = [np.linalg.eigvals(t.tail)]
    if t.m:
        eigs.append(np.linalg.eigvals(t.head))
    _, radius = smallest_enclosing_circle(np.concatenate(eigs))
    return radius

