"""Exact parameter recovery for standard-form adjacency preservers.

Given a map table that satisfies the standard-form hypotheses (graph
homomorphism, non-degenerate, zero fixed, full-dimensional images of the
two axis cliques), reconstruct (orientation, P, Q, tau, L) so that the
standard form reproduces the table pointwise.  The pipeline mirrors the
constructive normalization: align the two image cliques onto the standard
axes, fit every row clique restriction and the column axis as weighted
semi-affine maps, read the twist matrix off the row cliques' denominators
and the frames off the two axis fits; the result is verified by exact
functional equality over the whole domain.

Parameters are not unique; only functional equality is promised.  One
normalization is pinned down here: denominators are scaled so their
constant term is 1, which is always possible since a denominator never
vanishes, in particular not at 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _bulk
from .cliques import VertexSet, _adjacent_sets
from .errors import (Degenerate, DimDeficient, InvalidParams, NoFit, NotHom,
                     PreconditionViolated, UnsupportedField)
from .fields import Field, FieldHom, enumerate_homs
from .homs import (MapTable, Orientation, StandardHomParams, is_degenerate,
                   is_graph_hom, standard_table)
from .matrices import Mat, space


@dataclass(frozen=True)
class WeightedSemiAffine:
    """g(x) = k(x)^-1 x^tau P with k(x) = sum_i x_i^tau a_i + b, never 0."""

    tau: FieldHom
    P: Mat                 # n x n' over the target field
    a: tuple              # n denominator coefficients
    b: int

    def k_values(self, xs):
        """Denominator at a stack of source row vectors (N, n)."""
        F = self.tau.dst
        xt = self.tau.vapply(np.asarray(xs))
        dot = _bulk.matmul(F, xt, np.array(self.a, dtype=np.int64)[:, None])[:, 0]
        return F.vadd(dot, np.int64(self.b)).astype(np.int64)

    def evaluate(self, xs):
        """(N, n) source rows -> (N, n') images."""
        F = self.tau.dst
        xt = self.tau.vapply(np.asarray(xs))
        k = self.k_values(xs)
        if np.any(k == 0):
            raise ZeroDivisionError("denominator vanishes inside the domain")
        num = _bulk.matmul(F, xt[:, None, :], self.P.a[None])[:, 0, :]
        return F.vmul(F.inv_table[k][:, None].astype(np.int64), num)


_NO_FIT = "table is not weighted semi-affine in the required form"


def fit_semiaffine(src_field: Field, dst_field: Field, table,
                   tau: FieldHom | None = None) -> WeightedSemiAffine:
    """Fit a table D^n -> D'^n' as a weighted semi-affine map.

    The table rows are images in source code order and must send 0 to 0.
    With the constant denominator term pinned to 1, the relation
    k(x) g(x) = x^tau P is linear in the unknowns (a, P); the exact systems
    of all candidate tau are solved as one stack and each solution verified
    pointwise, candidate by candidate.
    Raises NoFit when no parameterization reproduces the table.
    """
    table = np.asarray(table)
    _table_width(src_field, table)  # refused even where no tau exists
    taus = [tau] if tau is not None else enumerate_homs(src_field, dst_field)
    for wsa in _fit_tables(src_field, dst_field, [table] * len(taus), taus):
        if wsa is not None:
            return wsa
    raise NoFit(_NO_FIT)


def _table_width(field: Field, table) -> int:
    """n for a table of q^n rows that sends 0 to 0; ValueError otherwise."""
    n, c = 0, 1
    while c < len(table):
        c *= field.q
        n += 1
    if c != len(table):
        raise ValueError("table length is not a power of the field order")
    if table[0].any():
        raise ValueError("fit requires g(0) = 0")
    return n


def _fit_tables(src_field: Field, dst_field: Field, tables, taus) -> list:
    """The first verified fit per (table, tau) pair, None where none
    verifies.  The systems of pairs of one shape are solved as one stack:
    a canonical RREF is unique, so each solution equals its own solve."""
    F = dst_field
    xss = [space(src_field, 1, _table_width(src_field, t)).entries[:, 0, :] for t in tables]
    systems = [_fit_system(F, tau.vapply(xs).astype(np.int64), t)
               for t, tau, xs in zip(tables, taus, xss)]
    groups = {}
    for t, (A, _) in enumerate(systems):
        groups.setdefault(A.shape, []).append(t)
    sols = [None] * len(systems)
    for group in groups.values():
        A, b = (np.stack(part) for part in zip(*(systems[t] for t in group)))
        for t, sol in zip(group, _bulk.solve_affine(F, A, b)):
            sols[t] = sol
    return [_verified_fit(F, *job) for job in zip(taus, xss, tables, sols)]


def _fit_system(F: Field, xt, table):
    """(A, b) of k(x) g(x) = x^tau P at the rows xt = x^tau, one block of
    rows per output coordinate j; unknowns [a_0 .. a_{n-1}, P_00 .. P_{0,n'-1},
    P_10, ...]."""
    count, n = xt.shape
    n2 = table.shape[1]
    cols = table.T.astype(np.int64)
    denom = F.vmul(xt[None], cols[:, :, None])  # (n', count, n): x_i^tau g_j(x)
    numer = np.zeros((n2, count, n, n2), dtype=np.int64)
    numer[np.arange(n2), :, :, np.arange(n2)] = F.vneg(xt)  # -x_i^tau at P_ij
    A = np.concatenate([denom, numer.reshape(n2, count, n * n2)], axis=2)
    return A.reshape(n2 * count, -1), F.vneg(cols).reshape(-1).astype(np.int64)


def _verified_fit(F: Field, tau: FieldHom, xs, table, sol):
    """The first point of the solution coset sol (x0 alone when the coset
    is too large to scan) whose map reproduces the table, or None.

    The candidates are checked together: their denominators k as one
    (N, C) product, and, for those whose k never vanishes, k(x) g(x) =
    x^tau P as one stack of numerators against the table.

    The scan stays for GF(2) sources, where x^tau has 0/1 entries and the
    degree-2 terms of k(x) g(x) = x^tau P no longer pin the solution: the
    table [[0],[7],[6],[0],[6],[0],[0],[7]] of GF(2)^3 -> GF(8) has x0 =
    (a = (1,1,1), P = 0), whose k vanishes at x = (1,0,0), and the coset
    point a = (2,2,5), P = (1;1;1) fits.  For q >= 3 those terms force
    two solutions to share P, and a too unless P = 0.
    """
    if sol is None:
        return None
    x0, basis = sol
    n, n2 = xs.shape[1], table.shape[1]
    if len(basis) == 0 or F.q ** len(basis) > 256:
        candidates = x0[None]
    else:
        coeffs = _bulk.decode(F, np.arange(F.q ** len(basis)), 1, len(basis))[:, 0, :]
        candidates = F.vadd(x0[None], _bulk.matmul(F, coeffs.astype(np.int64), basis))
    xt = tau.vapply(xs).astype(np.int64)
    k = F.vadd(_bulk.matmul(F, xt, candidates[:, :n].T), np.int64(1))  # (N, C)
    good = np.flatnonzero(k.all(axis=0))
    P = candidates[good, n:].reshape(len(good), n, n2)
    num = _bulk.matmul(F, xt, P)  # (C', N, n2): x^tau P
    lhs = F.vmul(k[:, good].T[..., None], table.astype(np.int64))  # k(x) g(x)
    fits = good[(lhs == num).all(axis=(1, 2))]
    if len(fits) == 0:
        return None
    u = candidates[fits[0]]
    return WeightedSemiAffine(tau, Mat(F, u[n:].reshape(n, n2)),
                              tuple(int(t) for t in u[:n]), 1)


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecoveryResult:
    params: StandardHomParams
    residual_checked: bool


def _axis_codes(f: MapTable, kind: str, i: int):
    """Codes of the matrices supported on row i (or column i)."""
    F = f.src_field
    if kind == "row":
        xs = space(F, 1, f.n).entries[:, 0, :]
        mats = np.zeros((len(xs), f.m, f.n), dtype=F.dtype)
        mats[:, i, :] = xs
    else:
        ys = space(F, 1, f.m).entries[:, 0, :]
        mats = np.zeros((len(ys), f.m, f.n), dtype=F.dtype)
        mats[:, :, i] = ys
    return _bulk.encode(F, mats)


def _complete_col(field: Field, u) -> Mat:
    """Invertible matrix whose first column is u, then the standard basis
    columns but the one at u's first nonzero entry."""
    eye = np.eye(len(u), dtype=field.dtype)
    return Mat(field, np.column_stack([u, np.delete(eye, np.argmax(u != 0), axis=1)]))


def _complete_rows(field: Field, rows_mat) -> Mat:
    """Extend full-row-rank (r, c) to an invertible c x c (rows on top).

    Below the rows come the unit rows e_j, j ascending, for every j that is
    not a pivot of the RREF of the rows with their columns reversed: e_j is
    outside the span of the rows and e_0 .. e_{j-1} iff the rows' projection
    onto coordinates j .. c - 1 has no pivot at j, so these are the e_j a
    greedy scan over ascending j would take.
    """
    rows_mat = np.asarray(rows_mat)
    r, c = rows_mat.shape
    R, rank = _bulk.rref(field, rows_mat[:, ::-1])
    if rank != r:
        raise PreconditionViolated("rows to complete are linearly dependent")
    free = np.setdiff1d(np.arange(c), c - 1 - np.argmax(R[:r] != 0, axis=1))
    return Mat(field, np.concatenate([rows_mat, np.eye(c, dtype=rows_mat.dtype)[free]]))


def recover_standard(f: MapTable) -> RecoveryResult:
    """Reconstruct standard-form parameters reproducing the table exactly.

    Pipeline: exhaustive homomorphism check, degeneracy check, image-clique
    dimension check, orientation detection, axis normalization, then per
    tau one stack of weighted semi-affine fits (the m row cliques, whose
    denominators are the twist matrix, and the column axis) and one exact
    verification over the whole domain.
    The transposed form is the straight one with (Q^t, P^t, L^t) on the
    transposed images, so it is fitted straight on the swapped image stack.
    """
    if f.src_field.q < 4:
        raise UnsupportedField("recovery requires a source field with >= 4 elements")
    if f.images[0].any():
        raise PreconditionViolated("recovery requires f(0) = 0")
    ok, witness = is_graph_hom(f, "exhaustive")
    if not ok:
        raise NotHom("not a graph homomorphism", witness=witness)
    deg, dwitness = is_degenerate(f)
    if deg:
        raise Degenerate("map is degenerate", witness=dwitness)

    F2 = f.dst_field
    rows = np.stack([_axis_codes(f, "row", i) for i in range(f.m)])
    m1, n1 = rows[0], _axis_codes(f, "col", 0)

    # one clique test over both axis images (f(0) = 0 is the first point of
    # each) gives their dimensions and generators.  Orientation: the kind of
    # clique hosting the row-axis image.  On the straight or swapped view
    # that makes it column-kind, P0 completes its column generator and Q0
    # the row generator w of the column-axis image
    dims, u, v = _adjacent_sets(F2, [f.images[m1], f.images[n1]])
    dim_m1, dim_n1 = dims.tolist()
    if dim_m1 != f.n:
        raise DimDeficient(f"row axis image has dimension {dim_m1}, need {f.n}",
                           witness=("row_axis", dim_m1))
    if dim_n1 != f.m:
        raise DimDeficient(f"column axis image has dimension {dim_n1}, need {f.m}",
                           witness=("col_axis", dim_n1))
    straight = bool(u[0].any())
    w = v[1] if straight else u[1]
    if not w.any():
        raise NoFit("axis images do not align with opposite clique kinds")
    P0 = _complete_col(F2, u[0] if straight else v[0])
    Q0 = _complete_col(F2, w).T
    images = f.images if straight else np.swapaxes(f.images, 1, 2)
    # only the m row cliques and the column axis are read, in that order
    img1 = _bulk.matmul(F2, P0.inverse().a, _bulk.matmul(
        F2, images[np.concatenate([rows.ravel(), n1])], Q0.inverse().a))

    failures = []
    for tau in enumerate_homs(f.src_field, F2):
        try:
            P, Q, L = _fit_straight(f, img1, P0, Q0, tau)
        except NoFit as e:
            failures.append(f"{tau!r}: {e}")
            continue
        if straight:
            params = StandardHomParams(Orientation.STRAIGHT, P, Q, tau, L, f.m, f.n)
        else:
            params = StandardHomParams(Orientation.TRANSPOSED, Q.T, P.T, tau,
                                       L.T, f.m, f.n)
        try:
            images = standard_table(params).images
        except InvalidParams:  # the fitted twist leaves a denominator singular
            images = None
        if np.array_equal(images, f.images):
            return RecoveryResult(params, True)
        failures.append(f"{tau!r}: assembled parameters failed the final verification")
    raise NoFit("no field homomorphism fits the table: " + "; ".join(failures))


def _fit_straight(f: MapTable, img1, P0: Mat, Q0: Mat, tau: FieldHom):
    """Straight (P, Q, L) for one tau from one stack of fits on the
    axis-aligned images img1 of the m row cliques, then of the column axis
    (straight or swapped; m' and n' are read from its shape).

    On row clique i the standard form is x -> (P e_i) x^tau Q_top /
    (1 + x^tau L[:, i]), so every row its image block uses is weighted
    semi-affine with that denominator: the block is fitted at its first
    used row, and the fit's denominator is L[:, i].  P completes the
    column-axis fit; Q completes the row-axis fit with its rows scaled by
    s^-1, s its P[0, 0].  Both axis fits take the image of E_00, so s is
    nonzero once neither axis leaks and both fits have full rank.
    """
    F2 = f.dst_field
    m, n, n2 = f.m, f.n, img1.shape[2]
    k = f.src_field.q ** n
    blocks, gN = img1[:m * k].reshape(m, k, *img1.shape[1:]), img1[m * k:]
    if blocks[0, :, 1:].any():
        raise NoFit("row-axis image leaks outside the standard row clique")
    used = [blocks[i, :, r] for i, r in enumerate(blocks.any(axis=(1, 3)).argmax(axis=1))]
    *fits, fitN = _fit_tables(f.src_field, F2, used + [gN[:, :, 0]], [tau] * (m + 1))
    if fits[0] is None:
        raise NoFit(_NO_FIT)
    try:
        Q2 = _complete_rows(F2, fits[0].P.a)
    except PreconditionViolated:
        raise NoFit("row-axis fit is rank deficient") from None
    if gN[:, :, 1:].any():
        raise NoFit("column-axis image leaks outside the standard column clique")
    if fitN is None:
        raise NoFit(_NO_FIT)
    try:
        P2 = _complete_rows(F2, fitN.P.a).T
    except PreconditionViolated:
        raise NoFit("column-axis fit is rank deficient") from None
    if any(fit is None for fit in fits):
        raise NoFit(_NO_FIT)

    s = int(fits[0].P.a[0, 0])
    L = Mat(F2, np.array([fit.a for fit in fits]).T)
    return P0 @ P2, Mat.diag(F2, [F2.inv(s)] * n + [1] * (n2 - n)) @ Q2 @ Q0, L


# ---------------------------------------------------------------------------
# dimension bound
# ---------------------------------------------------------------------------

def dim_bound_check(f: MapTable, S: VertexSet) -> bool:
    """dim of the image adjacent set never exceeds dim of the source set."""
    if (S.field, S.m, S.n) != (f.src_field, f.m, f.n):
        raise PreconditionViolated("vertex set outside the table domain")
    if not np.isin(0, S.codes):
        raise PreconditionViolated("the set must contain 0")
    if f.images[0].any():
        raise PreconditionViolated("the table must fix 0")
    return bool(_dim_bound_holds(f, [S.codes])[0])


def _dim_bound_holds(f: MapTable, code_sets) -> np.ndarray:
    """:func:`dim_bound_check` of each array of source codes in the list,
    past its preconditions: the image sets' dimensions in one batched call,
    then the source sets'."""
    sizes = np.cumsum([len(c) for c in code_sets])[:-1]
    src = np.split(_bulk.decode(f.src_field, np.concatenate(code_sets), f.m, f.n), sizes)
    img = _adjacent_sets(f.dst_field, [f.images[c] for c in code_sets])[0]
    return img <= _adjacent_sets(f.src_field, src)[0]
