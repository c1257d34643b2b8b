"""Batched exact linear algebra over a finite field.

All functions operate on numpy arrays of element indices whose last two
axes are the matrix axes, so a stack of shape (N, m, n) is N matrices
processed in lockstep.  Everything is pure and allocation-local.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DomainTooLarge
from .fields import Field

# inverse() uses the adjugate up to this size and RREF([A | I]) above it;
# at 4 x 4 the adjugate's cofactor work already costs more than elimination
ADJUGATE_MAX = 3


def matmul(field: Field, A, B):
    """(..., m, t) @ (..., t, n) elementwise over the batch.

    Odd prime fields sum the t raw products in an int32 (or, when
    (p - 1)^2 t could overflow that, int64) accumulator and reduce once per
    entry; other fields add table products term by term.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    t = A.shape[-1]
    if B.shape[-2] != t:
        raise ValueError("inner dimensions disagree")
    if field.k == 1 and field.p > 2:
        p = field.p
        A = A.astype(np.int32 if (p - 1) ** 2 * t < 2**31 else np.int64)
        out = A[..., :, 0, None] * B[..., None, 0, :]
        for s in range(1, t):
            out += A[..., :, s, None] * B[..., None, s, :]
        out %= p
        return out.astype(field._arith_dtype, copy=False)
    out = field.vmul(A[..., :, 0, None], B[..., None, 0, :])
    for s in range(1, t):
        out = field.vadd(out, field.vmul(A[..., :, s, None], B[..., None, s, :]))
    return out


def identity(field: Field, m: int):
    out = np.zeros((m, m), dtype=field.dtype)
    np.fill_diagonal(out, 1)
    return out


def rref(field: Field, mats):
    """Reduced row echelon form of each matrix in the stack.

    Returns (R, rank) where R has the same shape as the input and rank is
    the per-matrix rank vector.  Pivots are the first nonzero entry of each
    unfinished column, so the result is the canonical RREF.
    """
    M = np.array(mats, dtype=field.dtype, copy=True)
    single = M.ndim == 2
    if single:
        M = M[None]
    N, m, n = M.shape
    rc = np.zeros(N, dtype=np.int64)
    rows = np.arange(m)
    ar = np.arange(N)
    for j in range(n):
        col = M[:, :, j]
        cand = (col != 0) & (rows[None, :] >= rc[:, None])
        has = cand.any(axis=1)
        if not has.any():
            continue
        idx = np.nonzero(has)[0]
        r0 = rc[idx]
        r1 = np.argmax(cand[idx], axis=1)
        swap = M[idx, r0].copy()
        M[idx, r0] = M[idx, r1]
        M[idx, r1] = swap
        pinv = field.inv_table[M[idx, r0, j]].astype(field.dtype)
        M[idx, r0] = field.vmul(M[idx, r0], pinv[:, None])
        factors = M[idx, :, j].copy()
        factors[np.arange(idx.size), r0] = 0
        piv_rows = M[idx, r0]
        M[idx] = field.vsub(M[idx], field.vmul(factors[:, :, None], piv_rows[:, None, :]))
        rc[idx] += 1
        if (rc == m).all():
            break
    if single:
        return M[0], int(rc[0])
    return M, rc


def rank(field: Field, mats):
    _, r = rref(field, mats)
    return r


def nonzero_mask(mats):
    mats = np.asarray(mats)
    return mats.any(axis=(-2, -1))


def rank_le1_mask(field: Field, mats):
    """True where the matrix has rank <= 1 (every 2x2 minor vanishes)."""
    M = np.asarray(mats)
    m, n = M.shape[-2:]
    ok = np.ones(M.shape[:-2], dtype=bool)
    for i in range(m - 1):
        for i2 in range(i + 1, m):
            for j in range(n - 1):
                for j2 in range(j + 1, n):
                    d = field.vsub(field.vmul(M[..., i, j], M[..., i2, j2]),
                                   field.vmul(M[..., i, j2], M[..., i2, j]))
                    ok &= d == 0
    return ok


def adjacent_mask(field: Field, diffs):
    """True where the difference matrix has rank exactly 1."""
    return rank_le1_mask(field, diffs) & nonzero_mask(diffs)


def det(field: Field, mats):
    """Determinants of a stack of square matrices, cofactor expansion."""
    M = np.asarray(mats)
    m = M.shape[-1]
    if M.shape[-2] != m:
        raise ValueError("determinant needs square matrices")
    if m == 1:
        return M[..., 0, 0]
    if m == 2:
        return field.vsub(field.vmul(M[..., 0, 0], M[..., 1, 1]),
                          field.vmul(M[..., 0, 1], M[..., 1, 0]))
    cols = np.arange(m)
    out = None
    for j in range(m):
        minor = M[..., 1:, :][..., :, cols != j]
        term = field.vmul(M[..., 0, j], det(field, minor))
        if j % 2 == 1:
            term = field.vneg(term)
        out = term if out is None else field.vadd(out, term)
    return out


def invertible_mask(field: Field, mats):
    M = np.asarray(mats)
    if M.shape[-1] <= 4:
        return det(field, M) != 0
    return rank(field, M) == M.shape[-1]


def full_rank_mask(field: Field, mats):
    """True where the m x w matrix (m <= w) has rank m, i.e. where some
    m x m minor is nonzero; exact, and cheaper than rref for small m."""
    M = np.asarray(mats)
    m, w = M.shape[-2:]
    ok = np.zeros(M.shape[:-2], dtype=bool)
    for cols in itertools.combinations(range(w), m):
        ok |= det(field, M[..., list(cols)]) != 0
    return ok


def _adjugate(field: Field, M):
    """adj(M) of a stack of k x k matrices, k <= 3: M adj(M) = det(M) I.

    For k = 3 the minor on rows i+1, i+2 and columns j+1, j+2 (mod 3) is
    already the signed cofactor C_ij, so one det call gives all nine.
    """
    k = M.shape[-1]
    if k == 1:
        return np.ones_like(M)
    if k == 2:
        # [[a, b], [c, d]] -> [[d, b], [c, a]], then negate b and c
        adj = np.swapaxes(M[..., ::-1, ::-1], -2, -1).copy()
        adj[..., 0, 1] = field.vneg(adj[..., 0, 1])
        adj[..., 1, 0] = field.vneg(adj[..., 1, 0])
        return adj
    cyc = np.array([[1, 2], [2, 0], [0, 1]])
    cof = det(field, M[..., cyc[:, None, :, None], cyc[None, :, None, :]])
    return np.swapaxes(cof, -2, -1)


def _rref_inverse(field: Field, M):
    """Inverses of a stack of square matrices from RREF([A | I])."""
    N, m, _ = M.shape
    aug = np.concatenate([M, np.broadcast_to(identity(field, m), M.shape)], axis=2)
    R, _ = rref(field, aug)
    # A is invertible iff the reduced left block is the identity
    if np.any(R[:, :, :m] != identity(field, m)):
        raise ZeroDivisionError("singular matrix in inverse()")
    return R[:, :, m:]


def inverse(field: Field, mats, dets=None):
    """Inverses of a stack (or one) of invertible square matrices.

    Up to ADJUGATE_MAX this is the adjugate times det^-1 (Cramer's rule);
    dets, if given, are the determinants already known for the stack.
    Above it, RREF([A | I]).  A singular member raises ZeroDivisionError.
    """
    M = np.asarray(mats)
    if M.shape[-1] <= ADJUGATE_MAX:
        d = np.asarray(det(field, M) if dets is None else dets)
        if not d.all():
            raise ZeroDivisionError("singular matrix in inverse()")
        dinv = field.inv_table[d].astype(field.dtype)
        return field.vmul(_adjugate(field, M), dinv[..., None, None]).astype(
            field.dtype, copy=False)
    if M.ndim == 2:
        return _rref_inverse(field, M[None])[0]
    return _rref_inverse(field, M)


def solve_affine(field: Field, A, b):
    """All solutions of A x = b over the field.

    Returns (particular, basis) where basis rows span the solution space of
    the homogeneous system, or None when the system is inconsistent.
    """
    A = np.asarray(A, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n = A.shape[1]
    R, r = rref(field, np.concatenate([A, b[:, None]], axis=1))
    R = R[:r]
    pivots = np.argmax(R != 0, axis=1)
    if np.any(pivots == n):
        return None
    x = np.zeros(n, dtype=np.int64)
    x[pivots] = R[:, n]
    free = np.setdiff1d(np.arange(n), pivots)
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = field.vneg(R[:, free]).T
    return x, basis


# ---------------------------------------------------------------------------
# monic normalisation
# ---------------------------------------------------------------------------

def monic(field: Field, vecs):
    """Scale each vector (last axis) so its first nonzero entry is 1.

    This is the lexicographically smallest representative of the spanned
    1-dimensional space.
    """
    V = np.asarray(vecs)
    W = V.reshape(-1, V.shape[-1])
    lead = W[np.arange(len(W)), np.argmax(W != 0, axis=1)]
    if not lead.all():
        raise ValueError("zero vector spans nothing")
    scale = field.inv_table[lead].astype(field.dtype)
    return field.vmul(V, scale.reshape(V.shape[:-1] + (1,)))


def generators(field: Field, mats, axis: str):
    """Monic column-space ("col") or row-space ("row") generator per matrix.

    The generator is the first nonzero column (row), normalised; for a
    rank-1 matrix it spans the whole column (row) space.
    """
    M = np.asarray(mats)
    if axis == "row":
        M = np.swapaxes(M, -2, -1)
    flat = M.reshape((-1,) + M.shape[-2:])
    j = np.argmax(flat.any(axis=1), axis=1)
    return monic(field, flat[np.arange(len(flat)), :, j].reshape(M.shape[:-1]))


# ---------------------------------------------------------------------------
# dense encodings of whole matrix spaces
# ---------------------------------------------------------------------------

def encode(field: Field, mats):
    """Pack matrices into integer codes, big-endian over row-major entries.

    The (0, 0) entry is the most significant digit, so the code order agrees
    with lexicographic order on the row-major entry sequence.  Raises
    DomainTooLarge when the codes would not fit in int64.
    """
    M = np.asarray(mats, dtype=np.int64)
    m, n = M.shape[-2:]
    if field.q ** (m * n) > 2**63:
        raise DomainTooLarge(f"q^(m*n) = {field.q}^{m * n} codes overflow int64")
    w = field.q ** np.arange(m * n - 1, -1, -1, dtype=np.int64)
    return M.reshape(M.shape[:-2] + (m * n,)) @ w


def decode(field: Field, codes, m: int, n: int):
    codes = np.asarray(codes, dtype=np.int64)
    out = np.empty(codes.shape + (m * n,), dtype=field.dtype)
    rem = codes.copy()
    for t in range(m * n - 1, -1, -1):
        out[..., t] = rem % field.q
        rem //= field.q
    return out.reshape(codes.shape + (m, n))


def all_matrices(field: Field, m: int, n: int, limit: int = 1 << 20):
    count = field.q ** (m * n)
    if count > limit:
        raise MemoryError(f"matrix space of size {count} exceeds limit {limit}")
    return decode(field, np.arange(count), m, n)
