"""Exact parameter recovery for standard-form adjacency preservers.

Given a map table that satisfies the standard-form hypotheses (graph
homomorphism, non-degenerate, zero fixed, full-dimensional images of the
two axis cliques), reconstruct (orientation, P, Q, tau, L) so that the
standard form reproduces the table pointwise.  The pipeline mirrors the
constructive normalization: align the two image cliques onto the standard
axes, fit every row clique restriction as a weighted semi-affine map, read
the twist matrix off the denominator coefficients, and fix the remaining
diagonal freedom; the result is verified by exact functional equality over
the whole domain.

Parameters are not unique; only functional equality is promised.  One
normalization is pinned down here: denominators are scaled so their
constant term is 1, which is always possible since a denominator never
vanishes, in particular not at 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _bulk
from .cliques import (VertexSet, _clique_test, complete_to_invertible_col,
                      complete_to_invertible_row, dim_adjacent_entries,
                      dim_adjacent_set)
from .errors import (Degenerate, DimDeficient, NoFit, NotHom,
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


def fit_semiaffine(src_field: Field, dst_field: Field, table,
                   tau: FieldHom | None = None) -> WeightedSemiAffine:
    """Fit a table D^n -> D'^n' as a weighted semi-affine map.

    The table rows are images in source code order and must send 0 to 0.
    With the constant denominator term pinned to 1, the relation
    k(x) g(x) = x^tau P is linear in the unknowns (a, P); the exact system
    is solved per candidate tau and each solution verified pointwise.
    Raises NoFit when no parameterization reproduces the table.
    """
    table = np.asarray(table)
    count, n2 = table.shape
    n = 0
    c = 1
    while c < count:
        c *= src_field.q
        n += 1
    if c != count:
        raise ValueError("table length is not a power of the field order")
    if table[0].any():
        raise ValueError("fit requires g(0) = 0")
    xs = space(src_field, 1, n).entries[:, 0, :]
    taus = [tau] if tau is not None else enumerate_homs(src_field, dst_field)
    F = dst_field
    for cand in taus:
        xt = cand.vapply(xs).astype(np.int64)
        # unknowns: [a_0 .. a_{n-1}, P_00 .. P_{0,n2-1}, P_10, ...]
        nunk = n + n * n2
        rows = []
        rhs = []
        for j in range(n2):
            block = np.zeros((count, nunk), dtype=np.int64)
            block[:, :n] = F.vmul(xt, table[:, j][:, None].astype(np.int64))
            for i in range(n):
                block[:, n + i * n2 + j] = F.vneg(xt[:, i])
            rows.append(block)
            rhs.append(F.vneg(table[:, j]).astype(np.int64))
        A_sys = np.concatenate(rows, axis=0)
        b_sys = np.concatenate(rhs, axis=0)
        sol = _bulk.solve_affine(F, A_sys, b_sys)
        if sol is None:
            continue
        x0, basis = sol
        # enumerate the solution coset when it is small enough to scan
        if len(basis) == 0:
            candidates = x0[None]
        elif F.q ** len(basis) <= 256:
            coeffs = _bulk.decode(F, np.arange(F.q ** len(basis)), 1, len(basis))[:, 0, :]
            candidates = F.vadd(x0[None], _bulk.matmul(F, coeffs.astype(np.int64), basis))
        else:
            candidates = x0[None]
        for u in candidates:
            wsa = WeightedSemiAffine(cand, Mat(F, u[n:].reshape(n, n2)),
                                     tuple(int(t) for t in u[:n]), 1)
            if np.any(wsa.k_values(xs) == 0):
                continue
            if np.array_equal(np.asarray(wsa.evaluate(xs), dtype=np.int64),
                              table.astype(np.int64)):
                return wsa
    raise NoFit("table is not weighted semi-affine in the required form")


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


def _complete_rows(field: Field, rows_mat) -> Mat:
    """Extend full-row-rank (r, c) to an invertible c x c (rows on top)."""
    rows_mat = np.asarray(rows_mat)
    r, c = rows_mat.shape
    out = [rows_mat[i] for i in range(r)]
    for j in range(c):
        cand = np.zeros(c, dtype=field.dtype)
        cand[j] = 1
        trial = np.stack(out + [cand])
        if int(_bulk.rank(field, trial[None])[0]) == len(out) + 1:
            out.append(cand)
            if len(out) == c:
                break
    M = Mat(field, np.stack(out))
    if M.rank() != c:
        raise PreconditionViolated("rows to complete are linearly dependent")
    return M


def recover_standard(f: MapTable) -> RecoveryResult:
    """Reconstruct standard-form parameters reproducing the table exactly.

    Pipeline: exhaustive homomorphism check, degeneracy check, image-clique
    dimension check, orientation detection, axis normalization, per-clique
    weighted semi-affine fits assembling the twist matrix, diagonal
    correction, and one exact verification over the whole domain.
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
    dim_m1 = dim_adjacent_entries(F2, f.images[m1])
    if dim_m1 != f.n:
        raise DimDeficient(f"row axis image has dimension {dim_m1}, need {f.n}",
                           witness=("row_axis", dim_m1))
    dim_n1 = dim_adjacent_entries(F2, f.images[n1])
    if dim_n1 != f.m:
        raise DimDeficient(f"column axis image has dimension {dim_n1}, need {f.m}",
                           witness=("col_axis", dim_n1))

    # orientation: the kind of clique hosting the row-axis image (f(0) = 0
    # is its first point).  On the straight or swapped view that makes it
    # column-kind, P0 completes its column generator and Q0 the row
    # generator w of the column-axis image
    ok_m, u, v = (a[0] for a in _clique_test(F2, f.images[m1[None, 1:]]))
    straight = bool(u.any())
    images = f.images if straight else np.swapaxes(f.images, 1, 2)
    ok_n, _, w = (a[0] for a in _clique_test(F2, images[n1[None, 1:]]))
    if not (ok_m and ok_n and w.any()):
        raise NoFit("axis images do not align with opposite clique kinds")
    P0 = complete_to_invertible_col(F2, u if straight else v)
    Q0 = complete_to_invertible_row(F2, w)
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
        if np.array_equal(standard_table(params).images, f.images):
            return RecoveryResult(params, True)
        failures.append(f"{tau!r}: assembled parameters failed the final verification")
    raise NoFit("no field homomorphism fits the table: " + "; ".join(failures))


def _fit_straight(f: MapTable, img1, P0: Mat, Q0: Mat, tau: FieldHom):
    """Straight (P, Q, L) for one tau, fitted on the axis-aligned images
    img1 of the m row cliques, then of the column axis (straight or swapped;
    m' and n' are read from its shape)."""
    F2 = f.dst_field
    m, n, m2, n2 = f.m, f.n, *img1.shape[1:]
    k = f.src_field.q ** n

    # first-stage fits on the two axis cliques pin down the inner frames
    g1 = img1[:k]
    if g1[:, 1:, :].any():
        raise NoFit("row-axis image leaks outside the standard row clique")
    fit1 = fit_semiaffine(f.src_field, F2, g1[:, 0, :], tau=tau)
    if fit1.P.rank() != n:
        raise NoFit("row-axis fit is rank deficient")
    Q2 = _complete_rows(F2, fit1.P.a)

    gN = img1[m * k:]
    if gN[:, :, 1:].any():
        raise NoFit("column-axis image leaks outside the standard column clique")
    fitN = fit_semiaffine(f.src_field, F2, gN[:, :, 0], tau=tau)
    if fitN.P.rank() != m:
        raise NoFit("column-axis fit is rank deficient")
    P2 = _complete_rows(F2, fitN.P.a).T

    img2 = _bulk.matmul(F2, P2.inverse().a, _bulk.matmul(F2, img1[:m * k], Q2.inverse().a))

    # every axis clique must now map into its standard counterpart
    L = np.zeros((n, m), dtype=np.int64)
    dref = None
    pscale = np.zeros(m, dtype=np.int64)
    for i in range(m):
        block = img2[i * k:(i + 1) * k]
        other = np.arange(m2) != i
        if block[:, other, :].any():
            raise NoFit(f"row clique {i} does not align with its axis")
        fit_i = fit_semiaffine(f.src_field, F2, block[:, i, :], tau=tau)
        Pi = fit_i.P.a.astype(np.int64)
        if Pi[:, n:].any() or np.any((Pi[:, :n] != 0) & ~np.eye(n, dtype=bool)):
            raise NoFit(f"row clique {i} fit is not diagonal")
        diag = Pi[np.arange(n), np.arange(n)]
        if np.any(diag == 0):
            raise NoFit(f"row clique {i} fit has a vanishing diagonal entry")
        if dref is None:
            dref = diag
            pscale[i] = 1
        else:
            ratio = F2.mul(int(diag[0]), F2.inv(int(dref[0])))
            if np.any(diag != F2.vmul(dref, np.int64(ratio))):
                raise NoFit(f"row clique {i} fit is not proportional to the first")
            pscale[i] = ratio
        L[:, i] = fit_i.a

    Pstar = Mat.diag(F2, [int(p) for p in pscale] + [1] * (m2 - m))
    Qstar = Mat.diag(F2, [int(d) for d in dref] + [1] * (n2 - n))
    return P0 @ P2 @ Pstar, Qstar @ Q2 @ Q0, Mat(F2, L)


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
    return dim_adjacent_entries(f.dst_field, f.images[S.codes]) <= dim_adjacent_set(S)
