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
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import _bulk
from .errors import PreconditionViolated, ShapeMismatch, TheoremViolated
from .fields import Field, FieldHom
from .matrices import Mat, _row_blocks, space


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

def stratum(field: Field, m: int, n: int, k: int, r: int, axis: str) -> np.ndarray:
    """All m x n matrices of rank r with exactly k nonzero rows ("row") or
    columns ("col"), in code order: the ranks are the space's cached
    ``MatrixSpace.ranks``, so a sweep's two strata share one rank pass."""
    sp = space(field, m, n)
    nonzero = sp.entries.any(axis=2 if axis == "row" else 1).sum(axis=1)
    return sp.entries[(sp.ranks == r) & (nonzero == k)]


# ---------------------------------------------------------------------------
# rigidity sweeps
# ---------------------------------------------------------------------------

# Byte budget for one block of rigidity centres: one row of X-space codes
# (8 bytes a code) per member of the union of the block's pencils (X B), per
# distinct (B_1, B_t) pair (X B_t - X B_1) and per centre (X (A - B_1)).
# A centre whose pencil alone passes it gets a block of its own, so there its
# own rows are the bound (15.5 MB a block on GF(3) 3x3 with k = 3).
_RIGIDITY_BLOCK_BYTES = 8 << 20
# Chunk for every other per-block array: bytes of the entry stacks and of
# the W rows, and (a quarter of it) of one chunk's packed survivor words.
_CHUNK = 1 << 22


def _blocks(jobs, nx: int, threads: int):
    """Consecutive runs of the (A, pencil) jobs, each run's rows (see the
    budget) within the block budget at nx codes a row, and at most
    ceil(jobs / threads) jobs a run, so every thread gets one."""
    most = -(-len(jobs) // threads)
    blocks, seen = [], set()  # members, and (B_1, B_t) pairs as tuples
    for job in jobs:
        pencil = job[1].tolist()
        own = set(pencil) | {(pencil[0], b) for b in pencil[1:]}
        seen |= own
        if (blocks and len(blocks[-1]) < most
                and (len(seen) + len(blocks[-1]) + 1) * nx * 8 <= _RIGIDITY_BLOCK_BYTES):
            blocks[-1].append(job)
        else:
            blocks.append([job])
            seen = own
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


# Survivor sets over the K rank-1 matrices are packed K bits a row into
# little-endian 64-bit words: bit j is bit j % 64 of word j // 64.

def _pack_bits(bits, words: int):
    out = np.zeros(bits.shape[:-1] + (8 * words,), dtype=np.uint8)
    packed = np.packbits(bits, axis=-1, bitorder="little")
    out[..., :packed.shape[-1]] = packed
    return out.view("<u8")


def _set_bits(packed):
    """Index arrays (..., j) of every set bit of a packed array, row-major."""
    *lead, w = np.nonzero(packed)
    bits = np.unpackbits(packed[(*lead, w)][:, None].view(np.uint8), axis=1,
                         bitorder="little")
    row, b = np.nonzero(bits)
    return (*(i[row] for i in lead), 64 * w[row] + b)


def _take_bits(keep, *columns):
    """For each (centres, X) array of columns j (-1 for none), the number of
    rows of keep whose bit j is set; then clears all of those bits."""
    words = keep.reshape(-1)
    base = np.arange(0, words.size, keep.shape[-1])
    picks = []
    for j in columns:
        j = j.reshape(-1)
        bit = np.where(j >= 0, np.left_shift(np.uint64(1), (j & 63).astype(np.uint64)), 0)
        # j = -1 reads a word of its own row and clears no bit: the words
        # of one column stay distinct, as the in-place clear needs
        picks.append((base + np.maximum(j, 0) // 64, bit))
    counts = [int(np.count_nonzero(words[at] & bit)) for at, bit in picks]
    for at, bit in picks:
        words[at] &= ~bit
    return counts


def _pencil_and(W, D, pairs, valid):
    """keep[c, x]: the AND of W rows D[pairs[c, t], x] over the further
    members t of centre c's pencil, a machine word at a time."""
    keep = np.empty(pairs.shape[:1] + D.shape[1:] + W.shape[1:], dtype=W.dtype)
    if not pairs.shape[1]:
        keep[...] = valid
        return keep
    np.take(W, D[pairs[:, 0]], axis=0, out=keep)
    gather = np.empty_like(keep)
    for t in range(1, pairs.shape[1]):
        np.take(W, D[pairs[:, t]], axis=0, out=gather)
        keep &= gather
    return keep


def _branch_columns(sp_y, r1index, XAB, XB1, inv, zero_branch: bool):
    """Columns j of the two documented branches, for each (centre, X) of a
    chunk: Y = X A iff R_j = X (A - B_1), whose codes XAB holds, and Y = 0
    iff R_j = -X B_1 (top, k = 2 only).  -1 where X is singular or the
    branch is off; r1index maps a rank-1 code to its j."""
    j_eq = np.where(inv, r1index[XAB], -1)
    if not zero_branch:
        return j_eq, np.full_like(j_eq, -1)
    return j_eq, np.where(inv, r1index[sp_y.code_sub(0, XB1)], -1)


def _codes_of_products(field: Field, xs, mats):
    """out[i, x]: the code of xs[x] mats[i], a chunk of mats at a time (the
    product's temporaries and encode's int64 copy within _CHUNK)."""
    out = np.empty((len(mats), len(xs)), dtype=np.int64)
    for run in _row_blocks(len(mats), 32 * mats[0].size * len(xs), _CHUNK):
        out[run] = _bulk.encode(field, _bulk.matmul(field, xs[None], mats[run, None]))
    return out


def _check_block(field: Field, xs, nbrs, block, m: int, n: int, top: bool, k: int):
    """Survivor classification for a block of stratum centres.

    block holds (A, pencil) pairs, the pencil indexing A's B_t in nbrs.  A
    flat (X | Y) at distance 1 from (I | B_1) has Y = X B_1 + R_j with R_j
    of rank 1, and Y - X B_t = R_j - (X B_t - X B_1).  So j survives for X
    iff W[X B_t - X B_1, j] for every further member B_t, where W[d, j]
    says R_j - d has rank 1 (R_j is a common neighbour of 0 and d).  The
    X B codes are packed once for the union of the block's pencils, the
    differences once per distinct (B_1, B_t) pair, and W has rows only for
    the differences that occur.  Centres of one pencil size are taken a
    chunk at a time, and a chunk's survivor sets are the word-level AND of
    its members' W rows, one row of 64-bit words per (centre, X).

    A survivor is a flat iff (X | Y) has rank m.  With X invertible it has.
    With X singular, two identities reduce the test to a table lookup:
    (X | X B_1 + R_j) = (X | R_j) [[I, B_1], [0, I]], so the rank drops B_1
    and the centre; and rank(X | R_j) = dim(col X + col R_j), so it
    depends only on col X and j (see _flat_table).  Survivors are
    classified on their bits: Y = X A and Y = 0 are one column each per
    invertible X (see _branch_columns), counted and cleared, and any bit
    still set under the flat mask is a counterexample, the only survivors
    decoded.  The first singular-X and the first invertible-X survivor of
    the block are also tested on their own Y, and a disagreement raises
    TheoremViolated.

    Returns the block's (y_eq_xa, y_zero, counterexamples) tallies.
    """
    sp_y = space(field, m, n)
    r1codes = sp_y.rank1_codes
    NX, K = len(xs), len(r1codes)
    words = -(-K // 64)
    union, member = np.unique(np.concatenate([p for _, p in block]),
                              return_inverse=True)
    sizes = np.array([len(p) for _, p in block])
    starts = np.cumsum(sizes) - sizes
    first = member[starts]  # B_1 of each centre, as an index into union
    XB = _codes_of_products(field, xs, nbrs[union])

    # X B_t - X B_1 once per distinct (B_1, B_t), pair_of listing each
    # centre's further members in turn; W, bit-packed over j, has one row
    # per difference code in slot, and D holds the W row of each pair and
    # X (a space has at most SPACE_LIMIT codes, so the rows fit int32)
    further = np.ones(len(member), dtype=bool)
    further[starts] = False
    pair_keys, pair_of = np.unique((np.repeat(first, sizes) * len(union) + member)[further],
                                   return_inverse=True)
    b1, bt = np.divmod(pair_keys, len(union))
    runs = _row_blocks(len(pair_keys), 64 * NX, _CHUNK)  # code_sub takes int64 temporaries

    def diffs(run):
        return sp_y.code_sub(XB[bt[run]], XB[b1[run]])

    slot = np.zeros(sp_y.count, dtype=np.int32)
    for run in runs:
        slot[diffs(run)] = 1
    dcodes = np.flatnonzero(slot)
    slot[dcodes] = np.arange(len(dcodes))
    D = np.empty((len(pair_keys), NX), dtype=np.int32)
    for run in runs:
        D[run] = slot[diffs(run)]
    r1mask = np.zeros(sp_y.count, dtype=bool)
    r1mask[r1codes] = True
    W = np.empty((len(dcodes), words), dtype="<u8")
    for run in _row_blocks(len(dcodes), K, _CHUNK):
        W[run] = _pack_bits(r1mask[sp_y.code_sub(r1codes, dcodes[run, None])], words)

    # only full-rank (X | Y) are flats: every j for X invertible, else the
    # (col X, j) table row
    cls, table = _flat_table(field, xs, sp_y.rank1)
    inv = cls < 0
    table = _pack_bits(table, words)
    valid = _pack_bits(np.ones(K, dtype=bool), words)
    # X (A - B_1) once per distinct A - B_1 of the block
    As = np.stack([A for A, _ in block])
    offsets, off_of = np.unique(_bulk.encode(field, field.vsub(As, nbrs[union[first]])),
                                return_inverse=True)
    XAB = _codes_of_products(field, xs, _bulk.decode(field, offsets, m, n))
    r1index = np.full(sp_y.count, -1, dtype=np.int64)
    r1index[r1codes] = np.arange(K)

    unchecked = {False, True}  # X invertible: the first survivor of each kind
    eq = zero = 0
    ces = []
    # a chunk is (centres of one pencil size) x (a run of X), within a
    # quarter of _CHUNK (larger chunks measured no faster): the survivor
    # words twice, and 8 int64 rows, a (centre, X)
    cell = 8 * (2 * words + 8)
    xstep = max(1, min(NX, _CHUNK // 4 // cell))
    per = max(1, _CHUNK // 4 // (cell * xstep))
    for size in np.unique(sizes):
        group = np.flatnonzero(sizes == size)
        for lo in range(0, len(group), per):
            cs = group[lo:lo + per]
            pairs = pair_of[(starts[cs] - cs)[:, None] + np.arange(size - 1)]
            for x0 in range(0, NX, xstep):
                xr = slice(x0, x0 + xstep)
                keep = _pencil_and(W, D[:, xr], pairs, valid)
                XB1 = XB[first[cs], xr]
                j_eq, j_zero = _branch_columns(sp_y, r1index, XAB[off_of[cs], xr], XB1,
                                               inv[xr], top and k == 2)

                alive = keep.any(axis=-1) if unchecked else None
                for invertible in list(unchecked):
                    hit = np.flatnonzero(alive & (inv[xr] == invertible))
                    if not len(hit):
                        continue
                    c, x = divmod(int(hit[0]), keep.shape[1])
                    j = int(_set_bits(keep[c, x])[0][0])
                    Y = int(sp_y.code_add(XB1[c, x], r1codes[j]))
                    X = xs[x0 + x]
                    if invertible:
                        XA = int(_bulk.encode(field, _bulk.matmul(field, X, As[cs[c]])))
                        agree = ((Y == XA) == (j == j_eq[c, x])
                                 and (top and k == 2 and Y == 0) == (j == j_zero[c, x]))
                    else:
                        direct = _bulk.full_rank_mask(field, np.concatenate(
                            [X, _bulk.decode(field, Y, m, n)], axis=1))
                        bit = table[cls[x0 + x], j // 64] >> np.uint64(j % 64) & 1
                        agree = bool(direct) == bool(bit)
                    if not agree:
                        raise TheoremViolated(
                            "the Y = X A and Y = 0 columns disagree with Y itself" if invertible
                            else "the (col X, R_j) flat table disagrees with the rank of (X | Y)")
                    unchecked.discard(invertible)

                hit_eq, hit_zero = _take_bits(keep, j_eq, j_zero)
                eq += hit_eq
                zero += hit_zero
                # what is left under the flat mask is a counterexample
                keep &= np.where(inv[xr, None], ~np.uint64(0), table[cls[xr]])
                if keep.any():
                    c, x, j = _set_bits(keep)
                    Yc = sp_y.code_add(XB1[c, x], r1codes[j])
                    ces.extend((Mat(field, As[cs[ci]]).to_text(),
                                Mat(field, xs[x0 + xi]).to_text(), sp_y.mat(int(y)).to_text())
                               for ci, xi, y in zip(c, x, Yc))
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
    # sweeps enumerate all of D^(m x m), bounded before the strata are built
    xs = space(D, m, m).entries

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
    for run in _row_blocks(len(centers), 8 * m * n * max(1, len(nbrs)), _CHUNK):
        chunk = centers[run]
        adjacent = _bulk.adjacent_mask(D, D.vsub(nbrs[None], chunk[:, None]))
        for A, row in zip(chunk, adjacent):
            pencil = np.flatnonzero(row)
            if len(pencil) == 0:
                vacuous.append(Mat(D, A).to_text())
                continue
            jobs.append((A, pencil))

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
