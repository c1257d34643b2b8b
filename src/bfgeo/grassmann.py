"""Grassmann flats, their rank metric, and stratum rigidity sweeps.

A flat is an m-dimensional subspace of the (m+n)-dimensional space,
represented by a full-rank matrix: rows spanning (side LEFT, an
m x (m+n) representation) or columns spanning (side RIGHT, (m+n) x m).
The arithmetic distance between two flats is the rank of their combined
representation minus m, and embedding a matrix X as the row space of
(I | X) turns matrix rank distance into flat distance isometrically.

The rigidity sweeps exhaustively verify, over desk-scale fields, that a
flat within distance 1 of every unit perturbation of a stratum point A
must be the graph flat of A itself (Y = X A with X invertible), up to the
documented extra branch Y = 0 on the top stratum with k = 2.
"""

from __future__ import annotations

import enum
import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import _bulk
from .errors import (BudgetExceeded, PreconditionViolated, ShapeMismatch,
                     TheoremViolated)
from .fields import Field, FieldHom
from .matrices import Mat, space

X_SPACE_BUDGET = 1 << 20


class Side(enum.Enum):
    LEFT = "left"    # rows span; representations differ by G @ rep
    RIGHT = "right"  # columns span; representations differ by rep @ G


class Flat:
    """A point of the Grassmann space, stored in echelon-canonical form."""

    def __init__(self, field: Field, rep: Mat, side: Side = Side.LEFT):
        self.field = field
        self.side = side
        work = rep.a if side is Side.LEFT else rep.a.T
        R, rank = _bulk.rref(field, work)
        m = work.shape[0]
        if rank != m:
            raise ValueError("flat representation must have full row/column rank")
        self.m = m
        self.ambient = work.shape[1]
        canon = R if side is Side.LEFT else R.T
        self.rep = Mat(field, canon)

    def __eq__(self, other):
        return (isinstance(other, Flat) and self.field == other.field
                and self.side == other.side and self.rep == other.rep)

    def __hash__(self):
        return hash((self.field, self.side, self.rep))

    def __repr__(self):
        return f"Flat({self.side.value}, m={self.m}, ambient={self.ambient})"


def flat_ad(W1: Flat, W2: Flat) -> int:
    """Rank of the combined representations minus m; 0 iff equal flats."""
    if (W1.field, W1.side, W1.m, W1.ambient) != (W2.field, W2.side, W2.m, W2.ambient):
        raise ShapeMismatch("flats have different parameters")
    if W1.side is Side.LEFT:
        stack = Mat.vstack(W1.rep, W2.rep)
    else:
        stack = Mat.hstack(W1.rep, W2.rep)
    return stack.rank() - W1.m


def embed_graph_point(X: Mat) -> Flat:
    """The LEFT flat with representation (I_m | X)."""
    rep = Mat.hstack(Mat.identity(X.field, X.m), X)
    return Flat(X.field, rep, Side.LEFT)


# ---------------------------------------------------------------------------
# strata of matrices by nonzero-row count and rank
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _strata_keys(field: Field, m: int, n: int, axis: str):
    """(rank, nonzero row or column count) of every m x n matrix, in code
    order; a sweep takes two strata of one space from a single rank pass."""
    entries = space(field, m, n).entries
    return (_bulk.rank(field, entries),
            entries.any(axis=2 if axis == "row" else 1).sum(axis=1))


def stratum(field: Field, m: int, n: int, k: int, r: int, axis: str) -> np.ndarray:
    """All m x n matrices of rank r with exactly k nonzero rows ("row") or
    columns ("col"), in code order."""
    ranks, nonzero = _strata_keys(field, m, n, axis)
    return space(field, m, n).entries[(ranks == r) & (nonzero == k)]


# ---------------------------------------------------------------------------
# rigidity sweeps
# ---------------------------------------------------------------------------

def _survivors_for_center(field: Field, A, Bs, m: int, n: int):
    """All (X, Y) with rank(Y - X B) = 1 for every B in Bs.

    The first B pins Y to X B_1 + (rank-1); the remaining B filter.  All
    filtering runs on packed matrix codes, so each candidate costs a few
    integer gathers.  Returns (X_stack, Y_stack); the representation-rank
    filter is the caller's job.
    """
    sp_y = space(field, m, n)
    r1codes = sp_y.rank1_codes
    r1mask = np.zeros(sp_y.count, dtype=bool)
    r1mask[r1codes] = True
    xs = _bulk.all_matrices(field, m, m, X_SPACE_BUDGET)
    NX, K = len(xs), len(r1codes)
    # all products X B as codes, one row per pencil member
    XBcodes = np.empty((len(Bs), NX), dtype=np.int64)
    for t, B in enumerate(Bs):
        XBcodes[t] = _bulk.encode(field, _bulk.matmul(field, xs, B[None]))

    out_x, out_y = [], []
    chunk = max(1, (1 << 22) // max(K, 1))
    for lo in range(0, NX, chunk):
        hi = min(NX, lo + chunk)
        xi = np.repeat(np.arange(lo, hi), K)
        Yc = sp_y.code_add(XBcodes[0, lo:hi][:, None],
                           r1codes[None, :]).reshape(-1).astype(np.int64)
        for t in range(1, len(Bs)):
            if xi.size == 0:
                break
            keep = r1mask[sp_y.code_sub(Yc, XBcodes[t, xi])]
            xi = xi[keep]
            Yc = Yc[keep]
        out_x.append(xi)
        out_y.append(Yc)
    xi = np.concatenate(out_x)
    Yc = np.concatenate(out_y)
    return xs[xi], _bulk.decode(field, Yc, m, n)


def _check_center(field: Field, A, Bs, m: int, n: int, top: bool, k: int):
    """Survivor classification for one stratum center.

    Returns (y_eq_xa, y_zero, counterexamples) tallies for the center.
    """
    X, Y = _survivors_for_center(field, A, Bs, m, n)
    # only full-rank (X | Y) are flat representations
    rep_rank = _bulk.rank(field, np.concatenate([X, Y], axis=2))
    X, Y = X[rep_rank == m], Y[rep_rank == m]
    inv = _bulk.invertible_mask(field, X)
    XA = _bulk.matmul(field, X, np.broadcast_to(A, X.shape[:1] + A.shape))
    eq_xa = inv & (Y == XA).all(axis=(1, 2))
    zero = inv & ~Y.any(axis=(1, 2)) if (top and k == 2) else np.zeros(len(X), bool)
    bad = ~(eq_xa | zero)
    ces = []
    if bad.any():
        FA = Mat(field, A)
        for i in np.nonzero(bad)[0]:
            ces.append((FA.to_text(), Mat(field, X[i]).to_text(),
                        Mat(field, Y[i]).to_text()))
    return int(eq_xa.sum()), int(zero.sum()), ces


def _spot_check_flat_distance(field: Field, A, Bs, m: int, n: int, rng):
    """Cross-check: the sweep's rank shortcut equals the flat distance."""
    X = Mat(field, rng.integers(0, field.q, size=(m, m)).astype(field.dtype))
    Y = Mat(field, rng.integers(0, field.q, size=(m, n)).astype(field.dtype))
    if Mat.hstack(X, Y).rank() != m:
        return
    B = Mat(field, Bs[rng.integers(len(Bs))])
    lhs = flat_ad(Flat(field, Mat.hstack(X, Y)),
                  Flat(field, Mat.hstack(Mat.identity(field, m), B)))
    rhs = (Y - X @ B).rank()
    if lhs != rhs:
        raise TheoremViolated("flat distance disagrees with its rank reduction")


def _run_rigidity(ctxE: Field, homEtoD: FieldHom, m: int, n: int, k: int,
                  r: int | None, transposed: bool, a_sample=None, seed: int = 0,
                  workers: int = 1):
    if homEtoD.src != ctxE:
        raise PreconditionViolated("embedding must start at the small field")
    if ctxE.q <= 2:
        raise PreconditionViolated("the small field must have more than 2 elements")
    D = homEtoD.dst
    top = r is None
    orig_m, orig_n = m, n
    if transposed:
        m, n = n, m  # work in row convention on the transposed space
    if top:
        if not (k >= 2 and m >= k and n >= k):
            raise PreconditionViolated("need m, n >= k >= 2")
    else:
        if not (m >= k > r >= 1 and n > r):
            raise PreconditionViolated("need m >= k > r >= 1 and n > r")
    # sweeps enumerate all of D^(m x m); keep that desk-scale
    if D.q ** (m * m) > X_SPACE_BUDGET:
        raise BudgetExceeded(f"X-space of size {D.q ** (m * m)} over budget")

    center_rank = k if top else r
    nbr_k = k - 1 if top else k
    nbr_rank = k - 1 if top else r + 1
    # the column strata of the original space, transposed into row convention
    axis = "col" if transposed else "row"
    centers = stratum(ctxE, orig_m, orig_n, k, center_rank, axis)
    nbrs = stratum(ctxE, orig_m, orig_n, nbr_k, nbr_rank, axis)
    if transposed:
        centers, nbrs = np.swapaxes(centers, 1, 2), np.swapaxes(nbrs, 1, 2)
    centers = homEtoD.vapply(centers)
    nbrs = homEtoD.vapply(nbrs)

    rng = np.random.default_rng(seed)
    if a_sample is not None and a_sample < len(centers):
        take = rng.choice(len(centers), size=a_sample, replace=False)
        centers = centers[np.sort(take)]

    def bs_for(A):
        keep = _bulk.adjacent_mask(D, D.vsub(nbrs, A))
        return nbrs[keep]

    vacuous = []
    total_eq = total_zero = 0
    counterexamples = []
    jobs = []
    for A in centers:
        Bs = bs_for(A)
        if len(Bs) == 0:
            vacuous.append(Mat(D, A).to_text())
            continue
        jobs.append((A, Bs))

    def work(job):
        A, Bs = job
        return _check_center(D, A, Bs, m, n, top, k)

    threads = min(workers, os.cpu_count() or 1, len(jobs))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, jobs))
    else:
        results = [work(j) for j in jobs]
    for eq, zero, ces in results:
        total_eq += eq
        total_zero += zero
        counterexamples.extend(ces)

    if jobs:
        _spot_check_flat_distance(D, jobs[0][0], jobs[0][1], m, n,
                                  np.random.default_rng(seed))

    return {
        "lemma": ("flat-rigidity-top" if top else "flat-rigidity-step")
                 + ("-cols" if transposed else ""),
        "params": {"E": ctxE.name, "D": D.name, "m": orig_m, "n": orig_n, "k": k,
                   **({} if top else {"r": r}),
                   "sampled": a_sample is not None, "seed": seed},
        "strata_checked": len(jobs),
        "vacuous": vacuous,
        "branch_counts": {"y_eq_xa": total_eq, "y_zero": total_zero},
        "counterexamples": sorted(counterexamples),
    }


def check_rigidity_top(ctxE: Field, homEtoD: FieldHom, m: int, n: int, k: int,
                       **kw):
    """Exhaustive sweep of the full-rank row stratum (k nonzero rows, rank k).

    Verifies that every flat (X, Y) at distance 1 from (I, B) for all unit
    perturbations B of each stratum center A satisfies: X invertible and
    Y = X A, or (k = 2 only) Y = 0.  Reports branch counts and any
    counterexamples (expected none).
    """
    return _run_rigidity(ctxE, homEtoD, m, n, k, None, False, **kw)


def check_rigidity_step(ctxE: Field, homEtoD: FieldHom, m: int, n: int, k: int,
                        r: int, **kw):
    """Same sweep on the rank-r stratum against its rank-(r+1) perturbations."""
    return _run_rigidity(ctxE, homEtoD, m, n, k, r, False, **kw)


def check_rigidity_top_cols(ctxE: Field, homEtoD: FieldHom, m: int, n: int,
                            k: int, **kw):
    """Column-space mirror of the top sweep, realized by transposition."""
    return _run_rigidity(ctxE, homEtoD, m, n, k, None, True, **kw)


def check_rigidity_step_cols(ctxE: Field, homEtoD: FieldHom, m: int, n: int,
                             k: int, r: int, **kw):
    return _run_rigidity(ctxE, homEtoD, m, n, k, r, True, **kw)
