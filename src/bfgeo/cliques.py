"""Maximal cliques of the matrix graph, their intersections and lines.

Every maximal pairwise-adjacent set of GF(q)^(m x n) is a coset of rank-1
matrices sharing either a common column space (kind ONE, cardinality q^n)
or a common row space (kind TWO, cardinality q^m).  This module builds
them in canonical form, classifies explicit vertex sets against that
structure, and provides an independent brute-force clique enumeration for
cross-checking.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from . import _bulk
from .errors import (Disjoint, NotAdjacent, NotAdjacentSet, NotMaximal,
                     PreconditionViolated, ShapeMismatch, TheoremViolated,
                     WrongKinds, ZeroNotMember)
from .fields import Field
from .matrices import Mat, adjacent, space


class Kind(enum.Enum):
    ONE = "type_one"   # common column space: rows of P^-1 (X - A) vanish below row 1
    TWO = "type_two"   # common row space: columns of (X - A) Q^-1 vanish beyond col 1

    def other(self) -> "Kind":
        return Kind.TWO if self is Kind.ONE else Kind.ONE


def complete_to_invertible_col(field: Field, u) -> Mat:
    """Invertible matrix whose first column is u, rest standard basis columns."""
    u = np.asarray(u)
    m = len(u)
    i = int(np.nonzero(u)[0][0])
    cols = [u] + [np.eye(m, dtype=field.dtype)[:, j] for j in range(m) if j != i]
    return Mat(field, np.stack(cols, axis=1))


def complete_to_invertible_row(field: Field, v) -> Mat:
    return complete_to_invertible_col(field, v).T


class MaximalSet:
    """A maximal clique P M1 + A (kind ONE) or N1 Q + A (kind TWO)."""

    def __init__(self, kind: Kind, transform: Mat, offset: Mat):
        self.kind = kind
        self.transform = transform
        self.offset = offset
        m, n = offset.shape
        want = m if kind is Kind.ONE else n
        if transform.shape != (want, want):
            raise ShapeMismatch("transform size disagrees with the offset shape")
        self._tinv = transform.inverse()  # also certifies invertibility

    @staticmethod
    def through(kind: Kind, direction, offset: Mat) -> "MaximalSet":
        """The clique of this kind through offset whose defining space the
        direction spans, with the canonical completion as transform."""
        if kind is Kind.ONE:
            return MaximalSet(kind, complete_to_invertible_col(offset.field, direction), offset)
        return MaximalSet(kind, complete_to_invertible_row(offset.field, direction), offset)

    @property
    def field(self) -> Field:
        return self.offset.field

    @property
    def m(self) -> int:
        return self.offset.m

    @property
    def n(self) -> int:
        return self.offset.n

    @functools.cached_property
    def direction(self) -> np.ndarray:
        """Monic generator of the defining 1-dimensional space."""
        if self.kind is Kind.ONE:
            return _bulk.monic(self.field, self.transform.col(0))
        return _bulk.monic(self.field, self.transform.row(0))

    def cardinality(self) -> int:
        return self.field.q ** (self.n if self.kind is Kind.ONE else self.m)

    def contains(self, X: Mat) -> bool:
        if X.field != self.field or X.shape != self.offset.shape:
            raise ShapeMismatch("candidate lives in a different space")
        return bool(self.contains_batch(X.a[None])[0])

    def contains_batch(self, entries) -> np.ndarray:
        """Vectorized membership on a (N, m, n) stack."""
        F = self.field
        diff = F.vsub(entries, self.offset.a)
        if self.kind is Kind.ONE:
            local = _bulk.matmul(F, self._tinv.a, diff)
            return ~local[..., 1:, :].any(axis=(-2, -1))
        local = _bulk.matmul(F, diff, self._tinv.a)
        return ~local[..., :, 1:].any(axis=(-2, -1))

    def point_entries(self) -> np.ndarray:
        """(cardinality, m, n) stack of all members, in parameter order."""
        F = self.field
        if self.kind is Kind.ONE:
            xs = _bulk.all_matrices(F, 1, self.n)
            pts = F.vmul(self.direction[None, :, None], xs)
        else:
            ys = _bulk.all_matrices(F, self.m, 1)
            pts = F.vmul(ys, self.direction[None, None, :])
        return F.vadd(pts, self.offset.a)

    @functools.cached_property
    def codes(self) -> np.ndarray:
        """Sorted codes of all members, read-only."""
        codes = np.sort(_bulk.encode(self.field, self.point_entries()))
        codes.setflags(write=False)
        return codes

    def points(self) -> "VertexSet":
        return VertexSet._from_sorted(self.field, self.m, self.n, self.codes)

    def key(self):
        """Canonical identity: kind, defining space, lex-min member."""
        u = self.direction
        return (self.kind, tuple(int(c) for c in u), int(self.codes[0]))

    def canonical(self) -> "MaximalSet":
        """Same set with the completion transform and lex-min offset."""
        off = Mat.decode(self.field, int(self.codes[0]), self.m, self.n)
        return MaximalSet.through(self.kind, self.direction, off)

    def __eq__(self, other):
        return isinstance(other, MaximalSet) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        u = ",".join(str(int(c)) for c in self.direction)
        return f"MaximalSet({self.kind.value}, dir=[{u}], offset={self.offset.to_text()!r})"


class VertexSet:
    """An explicit set of matrices of one shape, stored as sorted codes."""

    def __init__(self, field: Field, m: int, n: int, codes):
        self.field = field
        self.m = m
        self.n = n
        self.codes = np.unique(np.asarray(codes, dtype=np.int64))

    @classmethod
    def _from_sorted(cls, field: Field, m: int, n: int, codes) -> "VertexSet":
        """A set on int64 codes already sorted and unique: no np.unique."""
        out = cls.__new__(cls)
        out.field, out.m, out.n, out.codes = field, m, n, codes
        return out

    @staticmethod
    def from_mats(mats) -> "VertexSet":
        mats = list(mats)
        if not mats:
            raise ValueError("empty vertex set has no shape")
        first = mats[0]
        return VertexSet(first.field, first.m, first.n,
                         [M.encode() for M in mats])

    @staticmethod
    def from_entries(field: Field, entries) -> "VertexSet":
        entries = np.asarray(entries)
        return VertexSet(field, entries.shape[-2], entries.shape[-1],
                         _bulk.encode(field, entries))

    def entries(self) -> np.ndarray:
        return _bulk.decode(self.field, self.codes, self.m, self.n)

    def mats(self):
        return [Mat.decode(self.field, int(c), self.m, self.n) for c in self.codes]

    def contains(self, X: Mat) -> bool:
        return bool(np.isin(X.encode(), self.codes))

    def __len__(self):
        return len(self.codes)

    def __iter__(self):
        return iter(self.mats())

    def __eq__(self, other):
        return (isinstance(other, VertexSet)
                and (self.field, self.m, self.n) == (other.field, other.m, other.n)
                and np.array_equal(self.codes, other.codes))

    def __repr__(self):
        return f"VertexSet(GF({self.field.q})^({self.m}x{self.n}), {len(self)} points)"


# ---------------------------------------------------------------------------
# construction through adjacent pairs
# ---------------------------------------------------------------------------

def maximal_sets_through(A: Mat, B: Mat):
    """The two maximal cliques containing an adjacent pair, one per kind.

    Kind ONE collects every X with column space of (X - A) inside that of
    (B - A); kind TWO is the row-space analogue.  Offsets are A itself,
    transforms are canonical completions of the monic space generators.
    """
    if not adjacent(A, B):
        raise NotAdjacent("inputs are not at arithmetic distance 1")
    D = (B - A).a
    F = A.field
    return (MaximalSet.through(Kind.ONE, _bulk.generators(F, D, "col"), A),
            MaximalSet.through(Kind.TWO, _bulk.generators(F, D, "row"), A))


def intersect(M: MaximalSet, N: MaximalSet) -> VertexSet:
    """Exact intersection; may be empty for parallel cliques."""
    if (M.field, M.m, M.n) != (N.field, N.m, N.n):
        raise ShapeMismatch("cliques live in different spaces")
    return VertexSet._from_sorted(M.field, M.m, M.n,
                                  np.intersect1d(M.codes, N.codes, assume_unique=True))


# ---------------------------------------------------------------------------
# classification of explicit cliques
# ---------------------------------------------------------------------------

def _clique_test(field: Field, D):
    """(passes, u, v) per item of the (B, K, m, n) stack of differences
    from one point, K >= 1.

    Two rank-1 matrices differ in rank <= 1 iff they share a generator, and
    if every pair does, all share one.  So the item's points are pairwise
    adjacent (passes) iff its differences have rank 1, share one column or
    one row generator, and are distinct.  u (B, m): the shared monic column
    generator; v (B, n): the shared monic row generator; each is zero where
    none is shared.  A passing item with both lies on one line.  The name
    stays private: perfbench's tracer wraps public functions only, and its
    self-test expects ``adjacent_mask`` directly under ``is_graph_hom``.
    """
    B, K, m, n = D.shape
    idx = np.nonzero(_bulk.adjacent_mask(field, D).all(axis=1))[0]
    Dk = D[idx]
    gu, gv = (_bulk.generators(field, Dk, axis) for axis in ("col", "row"))
    col = (gu == gu[:, :1]).all(axis=(1, 2))
    row = (gv == gv[:, :1]).all(axis=(1, 2))
    # distinct: an item fails where two of its rows meet after a lexsort
    flat = Dk.reshape(len(idx) * K, m * n)
    item = np.repeat(np.arange(len(idx)), K)
    order = np.lexsort(tuple(flat[:, e] for e in range(m * n - 1, -1, -1)) + (item,))
    flat, item = flat[order], item[order]
    dup = (flat[1:] == flat[:-1]).all(axis=1) & (item[1:] == item[:-1])
    distinct = np.ones(len(idx), dtype=bool)
    distinct[item[1:][dup]] = False
    passes = np.zeros(B, dtype=bool)
    passes[idx] = (col | row) & distinct
    u, v = np.zeros((B, m), dtype=field.dtype), np.zeros((B, n), dtype=field.dtype)
    u[idx[col]] = gu[col, 0]
    v[idx[row]] = gv[row, 0]
    return passes, u, v


def _clique_host(field: Field, pts):
    """(kind, monic generator) of the clique form hosting the (N, m, n)
    stack, N >= 2, from the clique test on its differences from pts[0].

    A failing stack is scanned pair by pair: NotAdjacentSet when some pair
    is not adjacent.  Every pairwise-adjacent set fits one of the two coset
    forms, so an adjacent set failing the test is a broken theorem.
    """
    passes, u, v = _clique_test(field, field.vsub(pts[None, 1:], pts[0]))
    if passes[0]:
        return (Kind.ONE, u[0]) if u[0].any() else (Kind.TWO, v[0])
    _check_pairwise_adjacent(field, pts)
    raise TheoremViolated("adjacent set outside both clique forms")


def _check_pairwise_adjacent(field: Field, pts):
    """NotAdjacentSet unless every pair of the (N, m, n) stack is at distance 1."""
    diffs_all = field.vsub(pts[:, None], pts[None, :])
    off = ~np.eye(len(pts), dtype=bool)
    if not _bulk.adjacent_mask(field, diffs_all[off]).all():
        raise NotAdjacentSet("some pair is not at distance 1")


def classify_clique(S: VertexSet) -> MaximalSet:
    """Classify a pairwise-adjacent set; canonical form if maximal.

    Raises NotAdjacentSet when some pair is not adjacent, and NotMaximal
    (with a concrete extension witness) when the clique is proper.
    """
    if len(S) == 0:
        raise NotAdjacentSet("empty set")
    F = S.field
    pts = S.entries()
    A = Mat(F, pts[0])  # codes are sorted, so this is the lex-min member
    if len(S) == 1:
        host = MaximalSet.through(Kind.ONE, np.eye(S.m, dtype=F.dtype)[:, 0], A)
    else:
        host = MaximalSet.through(*_clique_host(F, pts), A)

    if len(S) == host.cardinality():
        return host.canonical()
    missing = np.setdiff1d(host.codes, S.codes, assume_unique=True)
    witness = Mat.decode(F, int(missing[0]), S.m, S.n)
    raise NotMaximal("clique extends to a larger one", witness=witness)


# ---------------------------------------------------------------------------
# lines
# ---------------------------------------------------------------------------

class Line:
    """An affine line inside a maximal clique: q points, parametrized."""

    def __init__(self, host: MaximalSet, alpha, beta):
        self.host = host
        self.alpha = np.asarray(alpha, dtype=host.field.dtype)
        self.beta = np.asarray(beta, dtype=host.field.dtype)
        if not self.alpha.any():
            raise ValueError("line direction must be nonzero")

    def point_entries(self) -> np.ndarray:
        F = self.host.field
        lam = np.arange(F.q, dtype=np.int64)
        coords = F.vadd(F.vmul(lam[:, None], self.alpha[None, :]), self.beta)
        P = self.host.transform
        if self.host.kind is Kind.ONE:
            block = np.zeros((F.q, self.host.m, self.host.n), dtype=F.dtype)
            block[:, 0, :] = coords
            out = _bulk.matmul(F, P.a, block)
        else:
            block = np.zeros((F.q, self.host.m, self.host.n), dtype=F.dtype)
            block[:, :, 0] = coords
            out = _bulk.matmul(F, block, P.a)
        return F.vadd(out, self.host.offset.a)

    def points(self) -> VertexSet:
        return VertexSet.from_entries(self.host.field, self.point_entries())

    def __len__(self):
        return self.host.field.q


def _host_coords(M: MaximalSet, pts) -> np.ndarray:
    """Coordinates of member points in M's parameter space."""
    F = M.field
    diff = F.vsub(pts, M.offset.a)
    if M.kind is Kind.ONE:
        return _bulk.matmul(F, M._tinv.a, diff)[:, 0, :]
    return _bulk.matmul(F, diff, M._tinv.a)[:, :, 0]


def line_through(M: MaximalSet, N: MaximalSet) -> Line:
    """The line M cap N when the kinds differ and they meet."""
    if M.kind == N.kind:
        raise WrongKinds("a line needs one clique of each kind")
    pts = intersect(M, N)
    if len(pts) == 0:
        raise Disjoint("cliques do not meet")
    if len(pts) != M.field.q:
        raise TheoremViolated("opposite-kind cliques meet in q points")
    coords = _host_coords(M, pts.entries())
    beta = coords[0]
    alpha = _bulk.monic(M.field, M.field.vsub(coords[1], coords[0]))
    return Line(M, alpha, beta)


# ---------------------------------------------------------------------------
# dimension of adjacent sets and unit balls
# ---------------------------------------------------------------------------

def dim_adjacent_set(S: VertexSet) -> int:
    """Rank of the clique through 0 as a family of parameter vectors."""
    return dim_adjacent_entries(S.field, S.entries())


def dim_adjacent_entries(field: Field, entries) -> int:
    """:func:`dim_adjacent_set` of the set of matrices in an (N, m, n) stack.

    Works on entries alone, repeats dropped, so it needs no code for the
    points and takes matrices of any space, past the int64 code range too.
    """
    # row-major lex = code order, so 0, if present, comes first
    pts = np.unique(np.asarray(entries), axis=0)
    m, n = pts.shape[1:]
    if pts[0].any():
        raise ZeroNotMember("dimension is defined for sets through 0")
    if len(pts) < 2:
        raise NotAdjacentSet("need at least two points")
    kind, g = _clique_host(field, pts)
    nonzero = pts[1:] if kind is Kind.ONE else np.swapaxes(pts[1:], 1, 2)
    # coordinates x with X = g x (or X^t = g x): g is monic, so the row of
    # X at g's leading 1 is x itself
    i = int(np.argmax(g != 0))
    dim = int(_bulk.rank(field, nonzero[None, :, i, :])[0])
    if dim > max(m, n):
        raise TheoremViolated("adjacent set dimension exceeds max(m, n)")
    return dim


def unit_ball(A: Mat) -> VertexSet:
    """All matrices at arithmetic distance <= 1 from A."""
    sp, a = space(A.field, A.m, A.n), A.encode()
    return VertexSet(A.field, A.m, A.n, np.r_[a, sp.code_add(a, sp.rank1_codes)])


# ---------------------------------------------------------------------------
# the two-pencil support constraint
# ---------------------------------------------------------------------------

def two_pencil_constraint(A: Mat, B1: Mat, B2: Mat, rows, cols) -> bool:
    """Support dichotomy forced on a common neighbor of two pencil members.

    B1 != B2 must both be supported on rows x cols (a proper pencil), and A
    adjacent to both.  Returns whether A vanishes off the given rows or off
    the given columns; sweeps elsewhere assert this is always true.
    """
    rows = sorted(set(rows))
    cols = sorted(set(cols))
    m, n = A.shape
    if not rows or not cols or len(rows) >= min(m, n) or len(cols) >= min(m, n):
        raise PreconditionViolated("index sets must be nonempty and proper")
    if B1 == B2:
        raise PreconditionViolated("pencil members must differ")
    row_mask = np.zeros(m, dtype=bool)
    row_mask[rows] = True
    col_mask = np.zeros(n, dtype=bool)
    col_mask[cols] = True
    for B in (B1, B2):
        if B.a[~row_mask].any() or B.a[:, ~col_mask].any():
            raise PreconditionViolated("pencil member supported outside rows x cols")
    if not (adjacent(A, B1) and adjacent(A, B2)):
        raise PreconditionViolated("A must be adjacent to both pencil members")
    off_rows_vanish = not A.a[~row_mask].any()
    off_cols_vanish = not A.a[:, ~col_mask].any()
    return off_rows_vanish or off_cols_vanish


def two_pencil_sweep(field: Field, m: int, n: int, rows, cols):
    """Exhaustively scan all qualifying (A, B1, B2) triples.

    Returns (checked, violations) where violations lists the offending A
    codes; the expected result is an empty list.
    """
    sp = space(field, m, n)
    rows = sorted(set(rows))
    cols = sorted(set(cols))
    # pencil members: all matrices supported on rows x cols
    support = [(i, j) for i in rows for j in cols]
    K = len(support)
    pencil = np.zeros((field.q**K, m, n), dtype=field.dtype)
    combos = _bulk.decode(field, np.arange(field.q**K), 1, K)[:, 0, :]
    for t, (i, j) in enumerate(support):
        pencil[:, i, j] = combos[:, t]

    all_entries = sp.entries
    checked = 0
    violations = []
    row_mask = np.zeros(m, dtype=bool)
    row_mask[rows] = True
    col_mask = np.zeros(n, dtype=bool)
    col_mask[cols] = True
    adj_to = []
    for B in pencil:
        diffs = field.vsub(all_entries, B)
        adj_to.append(_bulk.adjacent_mask(field, diffs))
    adj_to = np.stack(adj_to)  # (pencil, space)
    off_rows_ok = ~all_entries[:, ~row_mask, :].any(axis=(1, 2))
    off_cols_ok = ~all_entries[:, :, ~col_mask].any(axis=(1, 2))
    good = off_rows_ok | off_cols_ok
    for b1 in range(len(pencil)):
        for b2 in range(b1 + 1, len(pencil)):
            qualifying = adj_to[b1] & adj_to[b2]
            checked += int(qualifying.sum())
            bad = qualifying & ~good
            if bad.any():
                violations.extend(int(c) for c in np.nonzero(bad)[0])
    return checked, sorted(set(violations))


# ---------------------------------------------------------------------------
# structural enumeration and the independent brute-force oracle
# ---------------------------------------------------------------------------

def all_maximal_sets(field: Field, m: int, n: int):
    """Every maximal clique of the space, one canonical object per set.

    Per direction, codes are visited in ascending order and a clique is
    built only at a code no earlier clique of that direction holds.  That
    code is the clique's lex-min member, so the clique is already in
    canonical form, and every coset of the direction is built once.
    """
    sp = space(field, m, n)
    out = []
    for kind, dirs in ((Kind.ONE, sp.monic_cols), (Kind.TWO, sp.monic_rows)):
        for d in dirs:
            covered = np.zeros(sp.count, dtype=bool)
            for code in range(sp.count):
                if covered[code]:
                    continue
                ms = MaximalSet.through(kind, d, Mat.decode(field, code, m, n))
                covered[ms.codes] = True
                out.append(ms)
    return out


def bron_kerbosch_cliques(field: Field, m: int, n: int):
    """All maximal cliques by pure graph search (no structure consulted).

    Returns a list of frozensets of matrix codes.  Intended as an
    independent oracle at small sizes.
    """
    sp = space(field, m, n)
    if sp.count > 4096:
        raise MemoryError("brute-force clique search is for small spaces")
    perms = sp.neighbor_perms
    nbrs = [frozenset(int(c) for c in perms[:, v]) for v in range(sp.count)]
    out = []

    def expand(R, P, X):
        if not P and not X:
            out.append(frozenset(R))
            return
        pivot = max(P | X, key=lambda v: len(P & nbrs[v]))
        for v in list(P - nbrs[pivot]):
            expand(R | {v}, P & nbrs[v], X & nbrs[v])
            P = P - {v}
            X = X | {v}

    expand(set(), set(range(sp.count)), set())
    return out


def clique_number(field: Field, m: int, n: int) -> int:
    """Clique number by exhaustive search (independent of the coset theory)."""
    return max(len(c) for c in bron_kerbosch_cliques(field, m, n))
