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

# Byte budget for one block of rigidity centres: the X B codes of the union
# of the block's pencils (members x X-space points, 8 bytes a code).  With
# the chunks below it bounds a sweep's working memory whatever the shape.
_RIGIDITY_BLOCK_BYTES = 8 << 20
# Chunk for every other per-block array: (X, rank-1) candidates of the
# survivor scan, and bytes of the entry stacks and of the W-row gathers.
_CHUNK = 1 << 22


def _blocks(jobs, nx: int, threads: int):
    """Consecutive runs of the (A, pencil) jobs, each run's pencil union
    within the block budget at nx codes a member, and at most
    ceil(jobs / threads) jobs a run, so every thread gets one."""
    most = -(-len(jobs) // threads)
    blocks, union = [], set()
    for job in jobs:
        pencil = set(job[1].tolist())
        if (blocks and len(blocks[-1]) < most
                and len(union | pencil) * nx * 8 <= _RIGIDITY_BLOCK_BYTES):
            blocks[-1].append(job)
            union |= pencil
        else:
            blocks.append([job])
            union = pencil
    return blocks


def _flat_table(field: Field, xs, r1):
    """Whether (X | R) has full rank m, for each singular X of xs and each
    rank-1 R of r1, read through the column space of X.

    rank(X | R) = dim(col X + col R), so it depends on X only through
    col X.  The singular xs are grouped by the RREF of their transposes,
    one class per proper subspace of D^m, and the transpose of each
    distinct RREF, whose columns span that subspace, is tested against
    every R.  Returns (cls, table): cls[x] is the class of xs[x] (-1 where
    X is invertible), table[c, j] the rank test of class c against r1[j].
    """
    m = xs.shape[1]
    sing = np.flatnonzero(~_bulk.invertible_mask(field, xs))
    R, _ = _bulk.rref(field, np.swapaxes(xs[sing], 1, 2))
    codes, inverse = np.unique(_bulk.encode(field, R), return_inverse=True)
    cls = np.full(len(xs), -1, dtype=np.int64)
    cls[sing] = inverse
    reps = np.swapaxes(_bulk.decode(field, codes, m, m), 1, 2)
    pairs = np.concatenate([np.broadcast_to(reps[:, None], (len(reps), len(r1), m, m)),
                            np.broadcast_to(r1[None], (len(reps),) + r1.shape)], axis=3)
    return cls, _bulk.full_rank_mask(field, pairs)


def _check_block(field: Field, xs, nbrs, block, m: int, n: int, top: bool, k: int):
    """Survivor classification for a block of stratum centres.

    block holds (A, pencil) pairs, the pencil indexing A's B_t in nbrs.  A
    flat (X | Y) at distance 1 from (I | B_1) has Y = X B_1 + R_j with R_j
    of rank 1, and Y - X B_t = R_j - (X B_t - X B_1).  So j survives for X
    iff W[X B_t - X B_1, j] for every further member B_t, where W[d, j]
    says R_j - d has rank 1 (R_j is a common neighbour of 0 and d).  The
    X B codes are packed once for the union of the block's pencils, and W
    has rows only for the differences that occur.

    A survivor is a flat iff (X | Y) has rank m.  With X invertible it has.
    With X singular, two identities reduce the test to a table lookup:
    (X | X B_1 + R_j) = (X | R_j) [[I, B_1], [0, I]], so the rank drops B_1
    and the centre; and rank(X | R_j) = dim(col X + col R_j), so it
    depends only on col X and j (see _flat_table).  The first singular-X
    survivor of the block is also tested on its own (X | Y), and a
    disagreement raises TheoremViolated.

    Returns the block's (y_eq_xa, y_zero, counterexamples) tallies.
    """
    sp_y = space(field, m, n)
    r1codes = sp_y.rank1_codes
    NX, K = len(xs), len(r1codes)
    union, member = np.unique(np.concatenate([p for _, p in block]),
                              return_inverse=True)
    members = np.split(member, np.cumsum([len(p) for _, p in block])[:-1])
    XB = np.empty((len(union), NX), dtype=np.int64)
    step = max(1, _CHUNK // (8 * NX * m * n))
    for lo in range(0, len(union), step):
        XB[lo:lo + step] = _bulk.encode(field, _bulk.matmul(
            field, xs[None], nbrs[union[lo:lo + step], None]))

    def diffs(idx):
        return sp_y.code_sub(XB[idx[1:]], XB[idx[0]])

    # W, bit-packed over j, with one row per difference code in slot
    slot = np.zeros(sp_y.count, dtype=np.int64)
    for idx in members:
        slot[diffs(idx)] = 1
    dcodes = np.flatnonzero(slot)
    slot[dcodes] = np.arange(len(dcodes))
    r1mask = np.zeros(sp_y.count, dtype=bool)
    r1mask[r1codes] = True
    W = np.empty((len(dcodes), -(-K // 8)), dtype=np.uint8)
    step = max(1, _CHUNK // K)
    for lo in range(0, len(dcodes), step):
        W[lo:lo + step] = np.packbits(r1mask[sp_y.code_sub(
            r1codes, dcodes[lo:lo + step, None])], axis=1)

    # only full-rank (X | Y) are flats: X invertible, or else (X | R_j) of
    # rank m, read from the (col X, j) table; Y = X A and Y = 0 are read
    # off the codes
    cls, table = _flat_table(field, xs, sp_y.rank1)
    inv = cls < 0
    cross_checked = False
    eq = zero = 0
    ces = []
    for (A, _), idx in zip(block, members):
        rows = slot[diffs(idx)]
        XA = _bulk.encode(field, _bulk.matmul(field, xs, A[None]))
        for lo in range(0, NX, step):
            r = rows[:, lo:lo + step]
            keep = np.full((r.shape[1], W.shape[1]), 0xFF, dtype=np.uint8)
            per = max(1, _CHUNK // keep.size)  # members a gather
            for t in range(0, len(r), per):
                keep &= np.bitwise_and.reduce(W[r[t:t + per]], axis=0)
            xi, j = np.divmod(np.flatnonzero(np.unpackbits(keep, axis=1, count=K)), K)
            xi += lo
            Yc = sp_y.code_add(XB[idx[0], xi], r1codes[j])
            flat = inv[xi]
            sing = np.flatnonzero(~flat)
            flat[sing] = table[cls[xi[sing]], j[sing]]
            if len(sing) and not cross_checked:
                s = sing[0]
                direct = _bulk.full_rank_mask(field, np.concatenate(
                    [xs[xi[s]], _bulk.decode(field, Yc[s], m, n)], axis=1))
                if bool(direct) != bool(flat[s]):
                    raise TheoremViolated("the (col X, R_j) flat table disagrees with "
                                          "the rank of (X | Y)")
                cross_checked = True
            eq_xa = inv[xi] & (Yc == XA[xi])
            y_zero = inv[xi] & (Yc == 0) & (top and k == 2)
            eq += int(eq_xa.sum())
            zero += int(y_zero.sum())
            bad = flat & ~(eq_xa | y_zero)
            ces.extend((Mat(field, A).to_text(), Mat(field, xs[x]).to_text(),
                        sp_y.mat(int(y)).to_text()) for x, y in zip(xi[bad], Yc[bad]))
    return eq, zero, ces


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
    # sweeps enumerate all of D^(m x m); keep that desk-scale.  As q >= 2,
    # m*m is bounded before the power, so a huge m builds no huge integer
    if m * m > X_SPACE_BUDGET.bit_length() or D.q ** (m * m) > X_SPACE_BUDGET:
        raise BudgetExceeded(
            f"X-space of size q^(m*m) = {D.q}^{m * m} over the budget {X_SPACE_BUDGET}")

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

    vacuous = []
    jobs = []  # (A, pencil): the indices in nbrs of A's unit perturbations
    for A in centers:
        pencil = np.flatnonzero(_bulk.adjacent_mask(D, D.vsub(nbrs, A)))
        if len(pencil) == 0:
            vacuous.append(Mat(D, A).to_text())
            continue
        jobs.append((A, pencil))

    xs = _bulk.all_matrices(D, m, m, X_SPACE_BUDGET)

    def work(block):
        return _check_block(D, xs, nbrs, block, m, n, top, k)

    threads = min(workers, os.cpu_count() or 1, len(jobs))
    blocks = _blocks(jobs, len(xs), max(threads, 1))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, blocks))
    else:
        results = [work(b) for b in blocks]

    if jobs:
        _spot_check_flat_distance(D, jobs[0][0], nbrs[jobs[0][1]], m, n,
                                  np.random.default_rng(seed))

    return {
        "lemma": ("flat-rigidity-top" if top else "flat-rigidity-step")
                 + ("-cols" if transposed else ""),
        "params": {"E": ctxE.name, "D": D.name, "m": orig_m, "n": orig_n, "k": k,
                   **({} if top else {"r": r}),
                   "sampled": a_sample is not None, "seed": seed},
        "strata_checked": len(jobs),
        "vacuous": vacuous,
        "branch_counts": {"y_eq_xa": sum(r[0] for r in results),
                          "y_zero": sum(r[1] for r in results)},
        "counterexamples": sorted(ce for r in results for ce in r[2]),
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
