"""Maximal cliques of the matrix graph, their intersections and lines.

Every maximal pairwise-adjacent set of GF(q)^(m x n) is a coset of rank-1
matrices sharing either a common column space (kind ONE, cardinality q^n)
or a common row space (kind TWO, cardinality q^m).  This module builds
them in canonical form, classifies explicit vertex sets against that
structure, and certifies from the neighbour structure alone that the
listed cosets are every maximal clique.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from . import _bulk
from .errors import (Disjoint, NotAdjacent, NotAdjacentSet, NotMaximal, ShapeMismatch,
                     TheoremViolated, WrongKinds, ZeroNotMember)
from .fields import Field, _check_indices
from .matrices import Mat, _row_blocks, adjacent, bounded_power, check_codes, space


class Kind(enum.Enum):
    ONE = "type_one"   # common column space u: A + u (x) GF(q)^(1 x n)
    TWO = "type_two"   # common row space v: A + GF(q)^(m x 1) (x) v


class MaximalSet:
    """A maximal clique A + u (x) GF(q)^(1 x n) (kind ONE, u of length m)
    or A + GF(q)^(m x 1) (x) v (kind TWO, v of length n): its kind, its
    direction u or v, stored monic, and its offset A."""

    def __init__(self, kind: Kind, direction, offset: Mat):
        self.kind = kind
        self.offset = offset
        F = offset.field
        direction = np.asarray(direction)
        if direction.shape != (offset.m if kind is Kind.ONE else offset.n,):
            raise ShapeMismatch("direction length disagrees with the offset shape")
        message = "direction entry outside the field"
        self.direction = _bulk.monic(F, _check_indices(direction, F.q, message))

    @property
    def field(self) -> Field:
        return self.offset.field

    @property
    def m(self) -> int:
        return self.offset.m

    @property
    def n(self) -> int:
        return self.offset.n

    def cardinality(self) -> int:
        return self.field.q ** (self.n if self.kind is Kind.ONE else self.m)

    def contains(self, X: Mat) -> bool:
        if X.field != self.field or X.shape != self.offset.shape:
            raise ShapeMismatch("candidate lives in a different space")
        return bool(self.contains_batch(X.a[None])[0])

    def _coords(self, entries) -> np.ndarray:
        """The coefficient vector w of X - A per item of an (N, m, n) stack,
        read at the direction's leading 1: the row of X - A there (kind
        ONE), or the column (kind TWO).  X is a member iff X = A + u (x) w
        (or A + w (x) v)."""
        i = int(np.argmax(self.direction != 0))
        entries, A = np.asarray(entries), self.offset.a
        if self.kind is Kind.ONE:
            return self.field.vsub(entries[..., i, :], A[i])
        return self.field.vsub(entries[..., :, i], A[:, i])

    def _members(self, w) -> np.ndarray:
        """A + u (x) w (kind ONE) or A + w (x) v (kind TWO) per coefficient
        vector of the (N, n) (or (N, m)) stack w."""
        F, d = self.field, self.direction
        if self.kind is Kind.ONE:
            pts = F.vmul(d[:, None], w[..., None, :])
        else:
            pts = F.vmul(w[..., :, None], d[None, :])
        return F.vadd(pts, self.offset.a)

    def contains_batch(self, entries) -> np.ndarray:
        """Vectorized membership on a (N, m, n) stack."""
        return (self._members(self._coords(entries)) == entries).all(axis=(-2, -1))

    def point_entries(self) -> np.ndarray:
        """(cardinality, m, n) stack of all members, in parameter order."""
        width = self.n if self.kind is Kind.ONE else self.m
        return self._members(space(self.field, 1, width).entries[:, 0, :])

    @functools.cached_property
    def codes(self) -> np.ndarray:
        """Sorted codes of all members, read-only."""
        codes = np.sort(_bulk.encode(self.field, self.point_entries()))
        codes.setflags(write=False)
        return codes

    def points(self) -> "VertexSet":
        return VertexSet(self.field, self.m, self.n, self.codes)

    def key(self):
        """Canonical identity: kind, defining space, lex-min member."""
        u = self.direction
        return (self.kind, tuple(int(c) for c in u), int(self.codes[0]))

    def canonical(self) -> "MaximalSet":
        """Same set with the lex-min member as offset."""
        off = Mat.decode(self.field, int(self.codes[0]), self.m, self.n)
        return MaximalSet(self.kind, self.direction, off)

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
        self.codes = check_codes(field, m, n, np.unique(np.asarray(codes, dtype=np.int64)))

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
    directions the monic generators of those spaces.
    """
    if not adjacent(A, B):
        raise NotAdjacent("inputs are not at arithmetic distance 1")
    D = (B - A).a
    F = A.field
    return (MaximalSet(Kind.ONE, _bulk.generators(F, D, "col"), A),
            MaximalSet(Kind.TWO, _bulk.generators(F, D, "row"), A))


def intersect(M: MaximalSet, N: MaximalSet) -> VertexSet:
    """Exact intersection; may be empty for parallel cliques."""
    if (M.field, M.m, M.n) != (N.field, N.m, N.n):
        raise ShapeMismatch("cliques live in different spaces")
    return VertexSet(M.field, M.m, M.n, np.intersect1d(M.codes, N.codes, assume_unique=True))


# ---------------------------------------------------------------------------
# classification of explicit cliques
# ---------------------------------------------------------------------------

def _clique_test(field: Field, P, pad=None):
    """(passes, u, v) per item of the (m, n, B, K) entry planes of B items'
    differences from one point, K >= 1: P[i, j] is the (B, K) plane of
    entry (i, j), so D_k of item b is P[:, :, b, k] and every comparison
    below runs its inner loop over the K members.  pad, a (B, K) mask,
    marks slots that only fill an item up to K, each a copy of its D_0.

    Two rank-1 matrices differ in rank <= 1 iff they share a generator, and
    if every pair does, all share one.  So the item's points are pairwise
    adjacent (passes) iff its differences have rank 1, share one column or
    one row generator, and are distinct.  u (B, m): the shared monic column
    generator; v (B, n): the shared monic row generator; each is zero where
    none is shared.  A passing item with both lies on one line.  The name
    stays private: perfbench's tracer wraps public functions only, and its
    self-test expects ``adjacent_mask`` directly under ``is_graph_hom``.

    The rank is checked on D_0 alone.  Its first nonzero row i_0 and column
    j_0 give, one gather each, the coefficient rows R_k = D_k[i_0, :] and
    columns C_k = D_k[:, j_0], and the generators u_0 = C_0 and v_0 = R_0
    scaled by 1 / D_0[i_0, j_0].  D_k shares u_0 iff D_k = u_0 (x) R_k,
    which bounds its rank by 1, so rank exactly 1 is a nonzero R_k;
    likewise v_0 with D_k = C_k (x) v_0.  Routing gives each item one full
    m x n comparison at most: C_k = a_k u_0, a_k = D_k[i_0, j_0], is
    necessary for sharing u_0 and costs m planes, and only the items it
    holds on take the full column comparison.  One of them that fails it
    shares no v_0 either, as D_k = C_k (x) v_0 would be u_0 (x) a_k v_0; a
    column item shares v_0 iff R_k = a_k v_0.  The other items take the
    full row comparison.  Distinctness is a per-item sort of the
    coefficient vectors' ids (rows where u_0 is shared, else columns);
    padded slots take distinct negative ids, so they never repeat.  A copy
    of D_0 passes every other check.
    """
    m, n, B, K = P.shape
    idx = np.nonzero(_bulk.adjacent_mask(field, np.moveaxis(P[..., 0], -1, 0)))[0]
    nz, items = P[:, :, idx, 0] != 0, np.arange(len(idx))
    i0, j0 = np.argmax(nz.any(axis=1), axis=0), np.argmax(nz.any(axis=0), axis=0)
    R = P[i0, np.arange(n)[:, None], idx]  # (n, B', K): D_k[i_0, :]
    C = P[np.arange(m)[:, None], j0, idx]  # (m, B', K): D_k[:, j_0]
    lead = C[i0, items]  # (B', K): D_k[i_0, j_0]
    scale = field.inv_table[lead[:, :1]].astype(field.dtype)  # keeps full products narrow
    U, V = field.vmul(C[..., :1], scale), field.vmul(R[..., :1], scale)  # (m | n, B', 1)

    def part(a, sel):  # a on the selected items (axis -2), uncopied when that is all
        return a if len(sel) == a.shape[-2] else a[..., sel, :]

    col, row = np.zeros(len(idx), dtype=bool), np.zeros(len(idx), dtype=bool)
    ids = np.empty((len(idx), K), dtype=np.int64)
    cand = (field.vmul(U, lead) == C).all(axis=(0, 2))
    sel, full = np.nonzero(cand)[0], np.nonzero(~cand)[0]
    if len(sel):
        r = part(R, sel)
        ids[sel] = _vector_ids(field, r)
        col[sel] = (field.vmul(part(U, sel)[:, None], r) == part(P, idx[sel])).all(axis=(0, 1, 3))
        col[sel] &= (ids[sel] != 0).all(axis=1)
        short = sel[col[sel]]
        row[short] = (field.vmul(part(V, short), part(lead, short)) == part(R, short)).all(axis=(0, 2))
    if len(full):
        c = part(C, full)
        ids[full] = _vector_ids(field, c)
        row[full] = (field.vmul(c[:, None], part(V, full)) == part(P, idx[full])).all(axis=(0, 1, 3))
        row[full] &= (ids[full] != 0).all(axis=1)
    if pad is not None:
        ids = np.where(pad[idx], -1 - np.arange(K), ids)
    ids.sort(axis=1)
    passes = np.zeros(B, dtype=bool)
    passes[idx] = (col | row) & (ids[:, 1:] != ids[:, :-1]).all(axis=1)
    u, v = np.zeros((B, m), dtype=field.dtype), np.zeros((B, n), dtype=field.dtype)
    u[idx[col]] = U[:, col, 0].T
    v[idx[row]] = V[:, row, 0].T
    return passes, u, v


def _vector_ids(field: Field, V):
    """One int64 per vector V[:, ...] along the first axis of V, equal iff
    the vectors are and 0 for the zero vector: its Horner code over that
    axis while it fits int64, else a dense id from np.unique over the
    vectors and a zero vector, which sorts first."""
    V, length = np.asarray(V, dtype=np.int64), len(V)
    if field.q ** length <= 2**63:
        ids = V[0].copy()
        for plane in V[1:]:
            ids *= field.q
            ids += plane
        return ids
    flat = np.concatenate([np.zeros((1, length), V.dtype), V.reshape(length, -1).T])
    return np.unique(flat, axis=0, return_inverse=True)[1][1:].reshape(V.shape[1:])


# Byte budget for one block of a clique test's or a pair scan's difference
# stack (items x points x entries, sized at 8 bytes an entry): it bounds
# their working memory whatever the input's size, unless one item's stack
# (one row of the pair scan) alone is larger.
_CLIQUE_BLOCK_BYTES = 2 << 20


def _first_torn_pair(field: Field, pts, stop=None):
    """The first pair (i, j), i < j, of the (N, m, n) stack whose points are
    not adjacent, scanning rows i < stop (all by default); None if none is.
    A block of rows at a time keeps each difference stack within
    _CLIQUE_BLOCK_BYTES."""
    for block in _row_blocks(len(pts) if stop is None else stop, pts.size * 8,
                             _CLIQUE_BLOCK_BYTES):
        rows = np.arange(block.start, block.stop)
        D = field.vsub(pts[None, :], pts[rows, None])
        torn = ~_bulk.adjacent_mask(field, D) & (np.arange(len(pts)) > rows[:, None])
        if torn.any():
            i, j = np.unravel_index(np.argmax(torn), torn.shape)
            return block.start + int(i), int(j)
    return None


def _clique_failure(field: Field, pts):
    """Raise for an (N, m, n) stack of distinct points that failed the
    clique test: NotAdjacentSet when the pair scan finds a pair that is not
    adjacent.  Every pairwise-adjacent set fits one of the two coset forms,
    so an adjacent set failing the test is a broken theorem."""
    if _first_torn_pair(field, pts) is not None:
        raise NotAdjacentSet("some pair is not at distance 1")
    raise TheoremViolated("adjacent set outside both clique forms")


def classify_clique(S: VertexSet) -> MaximalSet:
    """Classify a pairwise-adjacent set; canonical form if maximal.

    Raises NotAdjacentSet when some pair is not adjacent, and NotMaximal
    (with a concrete extension witness) when the clique is proper.  The
    host's generators are those :func:`_adjacent_sets` reads off the set
    translated to 0 by its first point.
    """
    if len(S) == 0:
        raise NotAdjacentSet("empty set")
    F = S.field
    pts = S.entries()
    A = Mat(F, pts[0])  # codes are sorted, so this is the lex-min member
    u, v = np.eye(S.m, dtype=F.dtype)[0], None  # a single point: any host
    if len(S) > 1:
        _, (u,), (v,) = _adjacent_sets(F, [F.vsub(pts, A.a)])
    host = MaximalSet(Kind.ONE, u, A) if u.any() else MaximalSet(Kind.TWO, v, A)

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
        """The host's members at coefficient vectors lambda alpha + beta,
        lambda = 0, ..., q - 1."""
        F = self.host.field
        lam = np.arange(F.q, dtype=np.int64)
        return self.host._members(F.vadd(F.vmul(lam[:, None], self.alpha[None, :]), self.beta))

    def points(self) -> VertexSet:
        return VertexSet.from_entries(self.host.field, self.point_entries())

    def __len__(self):
        return self.host.field.q


def line_through(M: MaximalSet, N: MaximalSet) -> Line:
    """The line M cap N when the kinds differ and they meet."""
    if M.kind == N.kind:
        raise WrongKinds("a line needs one clique of each kind")
    pts = intersect(M, N)
    if len(pts) == 0:
        raise Disjoint("cliques do not meet")
    if len(pts) != M.field.q:
        raise TheoremViolated("opposite-kind cliques meet in q points")
    coords = M._coords(pts.entries())  # the points in M's parameter space
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
    return int(_adjacent_sets(field, [entries])[0][0])


def _adjacent_sets(field: Field, sets):
    """(dims, u, v) of the (N, m, n) stacks in the list, by one clique test
    and one rank over all of them: each set's :func:`dim_adjacent_entries`
    and the monic column (u, m entries) and row (v, n entries) generators
    its points share, zero where none is shared.

    Each set drops its repeats by its :func:`_unique_points`, which leaves
    its points in code order, so 0, if present, comes first.  The
    differences from 0 of every set are one (sets, K, m, n) stack, which
    the clique test takes as its (m, n, sets, K) entry planes: a short set
    is filled up with copies of its first one, masked as padding for the
    clique test, and a repeated row leaves a rank unchanged.  The
    dimension is the rank of the coefficient vectors: the rows at u's
    leading 1 where u is shared, else the columns at v's, zero-filled to
    max(m, n) entries.  The first failing set in order raises what it
    would alone.
    """
    pts = _unique_points(field, [np.asarray(s) for s in sets])
    ok = next((i for i, p in enumerate(pts) if len(p) < 2 or p[0].any()), len(pts))
    if ok:
        sizes = np.array([len(p) - 1 for p in pts[:ok]])
        k = np.arange(sizes.max())
        pad = k >= sizes[:, None]
        start = np.cumsum(sizes) - sizes
        D = np.concatenate([p[1:] for p in pts[:ok]])[start[:, None] + np.where(pad, 0, k)]
        passes, u, v = _clique_test(field, np.moveaxis(D, (0, 1), (2, 3)), pad)
        if not passes.all():
            _clique_failure(field, pts[int(np.argmin(passes))])
    if ok < len(pts):
        if len(pts[ok]) and pts[ok][0].any():
            raise ZeroNotMember("dimension is defined for sets through 0")
        raise NotAdjacentSet("need at least two points")
    B, K, m, n = D.shape
    items, col = np.arange(B), u.any(axis=1)
    w = np.zeros((B, K, max(m, n)), dtype=D.dtype)
    w[col, :, :n] = D[items, :, np.argmax(u != 0, axis=1)][col]
    w[~col, :, :m] = D[items, :, :, np.argmax(v != 0, axis=1)][~col]
    return _bulk.rank(field, w), u, v


def _unique_points(field: Field, stacks):
    """Each (N, m, n) stack's distinct matrices in code order, by the
    :func:`_vector_ids` of their entries, all taken at once."""
    m, n = stacks[0].shape[-2:]
    ids = _vector_ids(field, np.concatenate(stacks).reshape(-1, m * n).T)
    ids = np.split(ids, np.cumsum([len(s) for s in stacks])[:-1])
    return [s[np.unique(i, return_index=True)[1]] for s, i in zip(stacks, ids)]


def unit_ball(A: Mat) -> VertexSet:
    """All matrices at arithmetic distance <= 1 from A."""
    sp, a = space(A.field, A.m, A.n), A.encode()
    return VertexSet(A.field, A.m, A.n, np.r_[a, sp.code_add(a, sp.rank1_codes)])


# ---------------------------------------------------------------------------
# the listed maximal cliques, certified
# ---------------------------------------------------------------------------

CLIQUE_NUMBER_LIMIT = 1 << 12


def clique_certificate(sp) -> list:
    """The failed steps of a proof that ``sp.maximal_cliques`` of the two
    kinds are exactly the maximal cliques of sp, each listed once; empty
    when it holds.

    X ~ Y iff X - Y is in R1, ``sp.rank1_codes``, so every translation is
    an automorphism and the proof runs at 0.  It reads R1, ``code_add``,
    ``code_sub`` and the listed rows, nothing of the coset theory.  S are
    the kind ONE rows whose member 0 is code 0, T the kind TWO ones:
    (a) each S and T is a clique: every member difference is in R1;
    (b) each is maximal: no point of R1 (the neighbours of 0) outside it
        is adjacent to all its members;
    (c') each R in R1 lies in exactly one S and exactly one T;
    (c) 0 and each R in R1 have q^m + q^n - q - 2 common neighbours, and
        each S meets each T in q points;
    (d) no point of S - T is adjacent to a point of T - S, for each pair;
    (e) each listed row less its member 0 is an S (kind ONE) or T row;
    (f) each S and T is closed under ``code_add``;
    (g) the rows of each set S (or T) by (e) have distinct keys (the index
        of S, the lex-min member), and there are count / |S| of them.
    A maximal clique K on an edge (a, a + R): K - a is a clique on 0 and R,
    so by (a), (c') and (c) it lies in the union of the S and T holding R,
    which is 0, R and their q^m + q^n - q - 2 common neighbours; by (d) it
    lies in one of the two, and as K is maximal it is that set.  So the
    maximal cliques are the translates of S and T.  A finite set closed
    under addition is a subgroup, so by (f) and (e) each listed row r_0 + S
    is a coset of S.  Two cosets are equal or disjoint, and equal ones
    share their lex-min member, so by (g) the rows of S are count / |S|
    distinct cosets: every coset of S, each once.
    """
    q, m, n = sp.field.q, sp.m, sp.n
    r1 = sp.rank1_codes
    adj = np.zeros(sp.count, dtype=bool)
    adj[r1] = True
    fails, through0, inside = [], [], []
    for kind, axis in ((Kind.ONE, "col"), (Kind.TWO, "row")):
        rows = sp.maximal_cliques(axis)
        Z = np.sort(rows[rows[:, 0] == 0], axis=1)
        held, sets = np.zeros((len(Z), sp.count), dtype=bool), np.arange(len(Z))[:, None]
        held[sets, Z] = True
        through0.append(Z)
        inside.append(held)
        pairs = adj[sp.code_sub(Z[:, :, None], Z[:, None, :])] | np.eye(Z.shape[1], dtype=bool)
        if not pairs.all():
            fails.append(f"certificate (a): a {kind.value} set through 0 is no clique")
        if (adj[sp.code_sub(r1, Z[:, 1:, None])].all(axis=1) & ~held[:, r1]).any():
            fails.append(f"certificate (b): a {kind.value} set through 0 is not maximal")
        if (held[:, r1].sum(axis=0) != 1).any():
            fails.append(f"certificate (c'): a rank-1 point in other than one {kind.value} set")
        if not held[sets[..., None], sp.code_add(Z[:, :, None], Z[:, None, :])].all():
            fails.append(f"certificate (f): a {kind.value} set through 0 not closed under addition")
        # the set through 0 holding a translate's first nonzero member
        t = np.sort(sp.code_sub(rows, rows[:, :1]), axis=1)
        which = held.argmax(axis=0)[t[:, 1]] if len(Z) else np.zeros(len(rows), dtype=np.int64)
        if not len(Z) or not (t == Z[which]).all():
            fails.append(f"certificate (e): a {kind.value} row is no translate of a set through 0")
        keys = which * sp.count + rows.min(axis=1)
        if (len(np.unique(keys)) < len(rows)
                or (np.bincount(which, minlength=len(Z)) != sp.count // Z.shape[1]).any()):
            fails.append(f"certificate (g): a {kind.value} coset listed twice or not at all")
    S, T = through0
    if (adj[sp.code_sub(r1[:, None], r1)].sum(axis=1) != q**m + q**n - q - 2).any():
        fails.append("certificate (c): 0 and a rank-1 point with a wrong common-neighbour count")
    s_out, t_out = ~inside[1][:, S], ~inside[0][:, T].swapaxes(0, 1)  # (|T|, |S|, size)
    if (s_out.shape[2] - s_out.sum(axis=2) != q).any():
        fails.append("certificate (c): sets through 0 of two kinds meeting in other than q points")
    cross = adj[sp.code_sub(S[None, :, :, None], T[:, None, None, :])]
    if (cross & s_out[..., :, None] & t_out[..., None, :]).any():
        fails.append("certificate (d): a point of S - T adjacent to a point of T - S")
    return fails


def clique_number(field: Field, m: int, n: int) -> int:
    """q^max(m,n), on a space whose listed maximal cliques pass
    :func:`clique_certificate`, TheoremViolated where a step fails.  A
    1 x n or m x 1 space is one complete graph, its count - 1 nonzero
    points all rank 1, so the answer is its count.  DomainTooLarge past
    CLIQUE_NUMBER_LIMIT points."""
    bounded_power(field.q, m * n, "q^(m*n)", CLIQUE_NUMBER_LIMIT, "clique-number bound {}")
    sp = space(field, m, n)
    if min(m, n) == 1:
        if np.setdiff1d(sp.rank1_codes, 0).size != sp.count - 1:
            raise TheoremViolated("a 1 x n space with a nonzero point not of rank 1")
        return sp.count
    fails = clique_certificate(sp)
    if fails:
        raise TheoremViolated("; ".join(fails))
    return field.q ** max(m, n)
