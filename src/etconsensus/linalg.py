"""Deterministic dense linear algebra for small symmetric matrices.

Eigenvalues come from cyclic Jacobi sweeps (Golub & Van Loan, 8.5), not LAPACK,
so they do not depend on LAPACK's algorithm choices or thread count. Rotation
products go through numpy ``matmul`` (BLAS dgemm, with fused multiply-adds), so
the bits are those of one numpy/BLAS build; the golden-output digests pin them.

``_jacobi`` steps a stack in lockstep: each matrix computes its own angle for a
pair (p, q) in Python floats, and a pair all of them rotate takes one stacked
product. ``graph.spectral_bounds`` so solves L and L22 bordered by zeros. Each
matrix keeps its bits alone by construction: its own norm, thresholds and
per-sweep off-diagonal norm; it leaves when that converges; the border stays
+0.0 (c*0 + (-s)*0 rounds to +0.0), so its pairs are skipped. The oracle tests
pin what the BLAS build decides: a stacked ``matmul`` gives each matrix its own
product's bits, and a dgemm column does not depend on the column count. At
N = 80 the two solves take 0.24-0.36 s on a 2-vCPU Xeon, two loops 0.36-0.53 s.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError

_MAX_SWEEPS = 64


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending, via cyclic Jacobi sweeps.

    The matrix must be bitwise symmetric (``a == a.T`` exactly, as
    ``is_symmetric`` checks): each rotation computes rows p and q and mirrors
    them into columns p and q, which for such a matrix equals the column
    product ``a[:, [p, q]] @ rot`` element by element. A 2x2 matrix is exempt,
    since its rotation rewrites every entry.

    A stack of shape (K, n, n) gives a (K, n) array whose rows are bit for bit
    the eigenvalues of each matrix alone; a 2x2 stack takes one vectorized
    rotation, a larger one the lockstep of ``_jacobi``. A lone 2x2 matrix is
    a stack of one.
    """
    a = np.array(a, dtype=float)
    if a.ndim == 3 and a.shape[1] == a.shape[2]:
        if a.shape[1] == 2:
            return _jacobi_2x2(a)
        return np.array(_jacobi(a, [a.shape[1]] * len(a))).reshape(a.shape[:2])
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 2:
        return _jacobi_2x2(a[None])[0]
    return _jacobi(a[None], [a.shape[0]])[0]


def _jacobi(a: np.ndarray, sizes) -> list:
    """Ascending eigenvalues of each ``a[k, :sizes[k], :sizes[k]]``, bit for bit as alone.

    ``a`` (K, n, n) is overwritten; entries outside a smaller matrix's block
    must be +0.0. A 1x1 matrix is copied.
    """
    n = a.shape[1]
    out: list = [None] * len(a)
    blocks, limits = {}, {}  # limits: the converged and negligible thresholds
    for k, m in enumerate(sizes):
        b = a[k, :m, :m]
        scale = np.sqrt((b * b).sum()) if m > 1 else 0.0
        if np.isnan(scale):  # no sweep can converge
            raise NumericsError("Jacobi eigenvalue iteration did not converge")
        if scale == 0.0:
            out[k] = b[0].copy() if m == 1 else np.zeros(m)
        else:
            blocks[k], limits[k] = b, (1e-15 * scale, 1e-18 * float(scale))
    rot, rows, pair = np.empty((len(a), 2, 2)), np.empty((len(a), 2, n)), np.empty((len(a), 2, 2))
    rots, off = rot.reshape(-1), pair.reshape(-1, 4)[:, 1:3]  # off: each pair's off-diagonal
    stacked = (a, rot.transpose(0, 2, 1), rot, rows, rows.transpose(0, 2, 1), pair, off)
    alone = {k: (b, rot[k].T, rot[k], rows[k, :, : len(b)], rows[k, :, : len(b)].T, pair[k], off[k])
             for k, b in blocks.items()}
    live = list(blocks)
    for _ in range(_MAX_SWEEPS):
        live = [k for k in live
                if not np.sqrt(2.0 * (np.triu(blocks[k], 1) ** 2).sum()) <= limits[k][0]]
        if not live:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                pq = slice(p, q + 1, q - p)  # rows or columns p and q
                entries = a[:, pq, pq].tolist()
                turning, angles = [], []
                for k in live:
                    (app, apq), (_, aqq) = entries[k]
                    if abs(apq) <= limits[k][1]:
                        continue
                    theta = (aqq - app) / (2.0 * apq)
                    t = 1.0 if theta == 0.0 else (
                        math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0)))
                    c = 1.0 / math.sqrt(t * t + 1.0)
                    s = t * c
                    turning.append(k)
                    angles += (c, s, -s, c)
                if len(turning) == len(a):
                    rots[:] = angles
                    _rotate(pq, *stacked)
                    continue
                for j, k in enumerate(turning):
                    rots[4 * k : 4 * k + 4] = angles[4 * j : 4 * j + 4]
                    _rotate(pq, *alone[k])
    else:
        raise NumericsError("Jacobi eigenvalue iteration did not converge")
    for k, b in blocks.items():
        out[k] = np.sort(np.diag(b))
    return out


def _rotate(pq, a, rot_t, rot, rows, rows_t, pair, off) -> None:
    """Rotate rows and columns p and q (the slice ``pq``) of a matrix or a stack."""
    both = a[..., pq, :]
    np.matmul(rot_t, both, rows)
    both[...] = rows
    a[..., pq] = rows_t
    # The diagonal pair follows the row product by the column one.
    np.matmul(rows[..., pq], rot, pair)
    off[...] = 0.0
    a[..., pq, pq] = pair


def _jacobi_2x2(a: np.ndarray) -> np.ndarray:
    """The sweep loop of ``eigvalsh`` on a (K, 2, 2) stack, with its arithmetic.

    A 2x2 matrix converges after at most one rotation, so one vectorized
    rotation of the matrices the loop would rotate replaces the loop. It
    raises where the loop would not converge: on a NaN norm.
    """
    scale = np.sqrt((a * a).sum(axis=(1, 2)))
    if np.isnan(scale).any():
        raise NumericsError("Jacobi eigenvalue iteration did not converge")
    apq = a[:, 0, 1]
    off = np.sqrt(2.0 * (apq * apq))
    rotate = ~(off <= 1e-15 * scale) & ~(np.abs(apq) <= 1e-18 * scale)
    if rotate.any():
        r = a[rotate]
        theta = (r[:, 1, 1] - r[:, 0, 0]) / (2.0 * r[:, 0, 1])
        t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
        t[theta == 0.0] = 1.0
        c = 1.0 / np.sqrt(t * t + 1.0)
        s = t * c
        rot = np.empty(r.shape)
        rot[:, 0, 0] = rot[:, 1, 1] = c
        rot[:, 0, 1] = s
        rot[:, 1, 0] = -s
        r = np.matmul(np.matmul(rot.transpose(0, 2, 1), r), rot)
        r[:, 0, 1] = 0.0
        r[:, 1, 0] = 0.0
        a[rotate] = r
    ev = np.sort(np.diagonal(a, axis1=1, axis2=2), axis=1)
    ev[scale == 0.0] = 0.0
    return ev


def spectral_norm(a: np.ndarray) -> float | np.ndarray:
    """Largest singular value of a (any rectangular shape).

    A stack of shape (K, m, n) gives the K norms as an array.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    at = np.swapaxes(a, -1, -2)
    gram = np.matmul(at, a) if a.shape[-2] >= a.shape[-1] else np.matmul(a, at)
    top = eigvalsh(gram)[..., -1]
    norm = np.sqrt(np.where(top < 0.0, 0.0, top))
    return float(norm) if norm.ndim == 0 else norm


def is_symmetric(a: np.ndarray) -> bool:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return bool(np.array_equal(a, a.T))
