"""Deterministic dense linear algebra for small symmetric matrices.

Eigenvalues are computed with cyclic Jacobi rotation sweeps instead of a
LAPACK call, so they do not depend on LAPACK's algorithm choices or thread
count. The rotation products go through numpy ``matmul``, that is the BLAS
dgemm kernel (OpenBLAS, with fused multiply-adds), whose rounding an
elementwise ``c*x - s*y`` does not reproduce. Results are therefore bit for
bit deterministic for a fixed numpy/BLAS build; the golden-output digests in
the tests pin that build's bits. Every matrix handled by this package is tiny
(a few tens of rows), where Jacobi is both fast and accurate to machine
precision.
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
    the eigenvalues of each matrix alone; 2x2 stacks take one vectorized
    rotation instead of a Python loop per matrix.
    """
    a = np.array(a, dtype=float)
    if a.ndim == 3 and a.shape[1] == a.shape[2]:
        if a.shape[1] == 2:
            return _jacobi_2x2(a)
        return np.array([eigvalsh(m) for m in a]).reshape(a.shape[:2])
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 1:
        return a[0].copy()
    scale = np.sqrt((a * a).sum())
    if np.isnan(scale):  # no sweep can converge
        raise NumericsError("Jacobi eigenvalue iteration did not converge")
    if scale == 0.0:
        return np.zeros(n)
    converged = 1e-15 * scale
    negligible = 1e-18 * float(scale)
    item = a.item
    for _ in range(_MAX_SWEEPS):
        off = np.sqrt(2.0 * (np.triu(a, 1) ** 2).sum())
        if off <= converged:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = item(p, q)
                if abs(apq) <= negligible:
                    continue
                theta = (item(q, q) - item(p, p)) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                pq = slice(p, q + 1, q - p)  # rows or columns p and q
                rows = rot.T @ a[pq]
                a[pq] = rows
                a[:, pq] = rows.T
                # The diagonal pair follows the row product by the column one.
                block = rows[:, pq] @ rot
                a[p, p] = block[0, 0]
                a[q, q] = block[1, 1]
                a[p, q] = 0.0
                a[q, p] = 0.0
    else:
        raise NumericsError("Jacobi eigenvalue iteration did not converge")
    return np.sort(np.diag(a))


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
        rot = np.stack([np.stack([c, s], axis=1), np.stack([-s, c], axis=1)], axis=1)
        r = np.matmul(np.matmul(np.swapaxes(rot, 1, 2), r), rot)
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


def min_eig(a: np.ndarray) -> float:
    return float(eigvalsh(a)[0])


def max_eig(a: np.ndarray) -> float:
    return float(eigvalsh(a)[-1])


def is_symmetric(a: np.ndarray, tol: float = 0.0) -> bool:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    if tol == 0.0:
        return bool(np.array_equal(a, a.T))
    return bool(np.abs(a - a.T).max() <= tol)
