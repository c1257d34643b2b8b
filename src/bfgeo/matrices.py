"""Dense matrices over a finite field, rank metric, and the matrix graph.

A matrix space GF(q)^(m x n) is both a metric space under
``arithmetic_distance`` (rank of the difference) and a graph whose edges
join matrices at distance 1.  ``graph_distance`` walks that graph by
breadth-first search without ever computing a rank, so the two notions can
be compared against each other by independent routes.

Canonical encoding: a matrix is packed into an integer code big-endian
over its row-major entries ((0,0) most significant), so code order equals
lexicographic order on the entry sequence.  All enumeration, tie-breaking
and table indexing in the package uses this one order.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _bulk
from .errors import DomainTooLarge, ShapeMismatch, Singular
from .fields import Field, _check_indices, _mod

SPACE_LIMIT = 1 << 20
# entries of one map table's image stack, q^(m*n) * m' * n', and of its
# m' x m' and n' x n' factors
TABLE_LIMIT = 1 << 24
# 2x2 minors of one m' x n' image, C(m',2) * C(n',2): the rank-1 test of a
# table's differences takes them one at a time
MINOR_LIMIT = 1 << 14
_GROUP_TABLE_LIMIT = 1 << 20  # int16 entries: code tables hold <= 2 MiB a space


class Mat:
    """Immutable m x n matrix over a Field.  Entries are element indices."""

    __slots__ = ("field", "a")

    def __init__(self, field: Field, entries):
        self.field = field
        raw = np.asarray(entries)
        if raw.ndim != 2 or raw.size == 0:
            raise ShapeMismatch("Mat needs a nonempty 2-d entry array")
        a = _check_indices(raw, field.q, "entry index out of range for the field")
        a = a.astype(field.dtype)
        a.setflags(write=False)
        self.a = a

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zeros(field: Field, m: int, n: int) -> "Mat":
        return Mat(field, np.zeros((m, n), dtype=field.dtype))

    @staticmethod
    def identity(field: Field, m: int) -> "Mat":
        return Mat(field, _bulk.identity(field, m))

    @staticmethod
    def unit(field: Field, m: int, n: int, i: int, j: int, c: int = 1) -> "Mat":
        a = np.zeros((m, n), dtype=field.dtype)
        a[i, j] = c
        return Mat(field, a)

    @staticmethod
    def diag(field: Field, values, m: int | None = None, n: int | None = None) -> "Mat":
        values = list(values)
        m = m if m is not None else len(values)
        n = n if n is not None else len(values)
        a = np.zeros((m, n), dtype=field.dtype)
        for i, v in enumerate(values):
            a[i, i] = v
        return Mat(field, a)

    # -- shape --------------------------------------------------------------

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self):
        return self.a.shape

    # -- ring operations -------------------------------------------------------

    def _check_same(self, other: "Mat"):
        if self.field != other.field or self.shape != other.shape:
            raise ShapeMismatch("operands live in different matrix spaces")

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same(other)
        return Mat(self.field, self.field.vadd(self.a, other.a))

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same(other)
        return Mat(self.field, self.field.vsub(self.a, other.a))

    def __neg__(self) -> "Mat":
        return Mat(self.field, self.field.vneg(self.a))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.field != other.field or self.n != other.m:
            raise ShapeMismatch("matrix product shapes disagree")
        return Mat(self.field, _bulk.matmul(self.field, self.a, other.a))

    @property
    def T(self) -> "Mat":
        return Mat(self.field, self.a.T)

    def rank(self) -> int:
        return int(_bulk.rank(self.field, self.a[None])[0])

    def is_zero(self) -> bool:
        return not self.a.any()

    def inverse(self) -> "Mat":
        if self.m != self.n:
            raise ShapeMismatch("only square matrices invert")
        try:
            return Mat(self.field, _bulk.inverse(self.field, self.a))
        except ZeroDivisionError:
            raise Singular("matrix has no inverse") from None

    # -- blocks ---------------------------------------------------------------

    @staticmethod
    def hstack(left: "Mat", right: "Mat") -> "Mat":
        if left.field != right.field or left.m != right.m:
            raise ShapeMismatch("hstack shapes disagree")
        return Mat(left.field, np.concatenate([left.a, right.a], axis=1))

    @staticmethod
    def vstack(top: "Mat", bottom: "Mat") -> "Mat":
        if top.field != bottom.field or top.n != bottom.n:
            raise ShapeMismatch("vstack shapes disagree")
        return Mat(top.field, np.concatenate([top.a, bottom.a], axis=0))

    # -- encodings ---------------------------------------------------------------

    def encode(self) -> int:
        return int(_bulk.encode(self.field, self.a))

    @staticmethod
    def decode(field: Field, code: int, m: int, n: int) -> "Mat":
        """The matrix of a code, or ValueError outside [0, q^(m*n))."""
        code = check_codes(field, m, n, np.int64(code))
        return Mat(field, _bulk.decode(field, code, m, n))

    def to_text(self) -> str:
        """Row-major text form, e.g. "0,1;2,3" for a 2x2."""
        return ";".join(",".join(str(int(e)) for e in row) for row in self.a)

    @staticmethod
    def from_text(field: Field, text: str) -> "Mat":
        rows = [[int(e) for e in row.split(",")] for row in text.strip().split(";")]
        return Mat(field, rows)

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.shape == other.shape and np.array_equal(self.a, other.a))

    def __hash__(self):
        return hash((self.field, self.shape, self.a.tobytes()))

    def __repr__(self):
        return f"Mat(GF({self.field.q}), \"{self.to_text()}\")"


def check_codes(field: Field, m: int, n: int, codes):
    """The int64 codes, or ValueError outside [0, q^(m*n)).  The top code is
    divided by q m*n times, at most 63 as q^63 > 2^63: no power is taken."""
    codes = np.asarray(codes, dtype=np.int64)
    top = int(codes.max(initial=0))
    for _ in range(min(m * n, 63)):
        top //= field.q
    if top or codes.min(initial=0) < 0:
        raise ValueError(f"code outside [0, {field.q}^{m * n}) for a {m}x{n} matrix")
    return codes


# ---------------------------------------------------------------------------
# rank metric and adjacency
# ---------------------------------------------------------------------------

def arithmetic_distance(A: Mat, B: Mat) -> int:
    """rank(A - B); the exact metric on the matrix space."""
    A._check_same(B)
    return (A - B).rank()


def adjacent(A: Mat, B: Mat) -> bool:
    return arithmetic_distance(A, B) == 1


# ---------------------------------------------------------------------------
# whole-space helper with cached enumerations
# ---------------------------------------------------------------------------

def bounded(size: int, what: str, limit: int = SPACE_LIMIT,
            bound: str = "enumeration bound {}") -> int:
    """size, or DomainTooLarge "<what> exceeds the <bound>" past limit: the
    one check for work sized by the user.  Sizes that are powers go
    through bounded_power; the rest are products of bounded numbers."""
    if size > limit:
        raise DomainTooLarge(f"{what} exceeds the {bound.format(limit)}")
    return size


def bounded_power(q: int, e: int, label: str, limit: int = SPACE_LIMIT,
                  bound: str = "enumeration bound {}") -> int:
    """q^e for q >= 2, bounded as "<label> = q^e".  As q^e >= 2^(e *
    (bit_length(q) - 1)), an exponent that alone passes limit is refused
    before the power: a huge e never builds a huge integer."""
    past = e * (q.bit_length() - 1) >= limit.bit_length()
    return bounded(limit + 1 if past else q ** e, f"{label} = {q}^{e}", limit, bound)


def _row_blocks(rows: int, row_bytes: int, budget: int):
    """Slices of range(rows), each block within budget bytes at row_bytes a
    row (one row at least), the last one clipped to rows: the one place a
    byte budget becomes blocks of rows."""
    step = max(1, budget // row_bytes)
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def space_size(q: int, m: int, n: int) -> int:
    """q^(m*n), or DomainTooLarge past SPACE_LIMIT."""
    return bounded_power(q, m * n, "q^(m*n)")


def table_budget(q: int, m: int, n: int, m2: int, n2: int) -> int:
    """q^(m*n), or DomainTooLarge, before any allocation, when a map table
    from GF(q)^(m x n) to m2 x n2 images, or its m2 x m2 and n2 x n2
    factors, would hold more than TABLE_LIMIT entries, or an image more
    than MINOR_LIMIT 2x2 minors."""
    count = space_size(q, m, n)
    bounded(max(count * m2 * n2, m2 * m2, n2 * n2),
            f"a table of {q}^{m * n} images of shape {m2}x{n2}", TABLE_LIMIT,
            "table bound of {} entries")
    bounded(m2 * (m2 - 1) * n2 * (n2 - 1) // 4, f"the 2x2 minor count of a {m2}x{n2} image",
            MINOR_LIMIT, "minor bound {}")
    return count


class MatrixSpace:
    """GF(q)^(m x n) with cached dense enumerations, via :func:`space`."""

    def __init__(self, field: Field, m: int, n: int):
        self.field = field
        self.m = m
        self.n = n
        self.count = space_size(field.q, m, n)

    def mat(self, code: int) -> Mat:
        return Mat.decode(self.field, code, self.m, self.n)

    def __iter__(self):
        for code in range(self.count):
            yield self.mat(code)

    @functools.cached_property
    def entries(self):
        """(count, m, n) array of every matrix, in code order."""
        return _bulk.decode(self.field, np.arange(self.count), self.m, self.n)

    @functools.cached_property
    def ranks(self):
        """(count,) int8 rank of every matrix, in code order, read-only: the
        one rank pass over a whole space."""
        ranks = _bulk.rank(self.field, self.entries).astype(np.int8)
        ranks.setflags(write=False)
        return ranks

    @functools.cached_property
    def monic_cols(self):
        """Column vectors with leading coefficient 1, one per 1-dim space."""
        return _monic_vectors(self.field, self.m)

    @functools.cached_property
    def monic_rows(self):
        """Row vectors with leading coefficient 1, one per 1-dim space."""
        return _monic_vectors(self.field, self.n)

    @functools.cached_property
    def rank1(self):
        """(K, m, n) stack of all rank-1 matrices, built from outer products.

        Every rank-1 matrix factors uniquely as (monic column) x (nonzero
        row), so no rank computation is involved in producing the list.
        """
        us = self.monic_cols
        q, n = self.field.q, self.n
        vs = _bulk.decode(self.field, np.arange(1, q**n), 1, n)[:, 0, :]
        prod = self.field.vmul(us[:, None, :, None], vs[None, :, None, :])
        return prod.reshape(-1, self.m, self.n)

    @functools.cached_property
    def rank1_codes(self):
        return _bulk.encode(self.field, self.rank1)

    @functools.cached_property
    def rank1_half(self):
        """One representative per {R, -R} pair (R itself when p = 2)."""
        return self.rank1[self.rank1_codes <= self.code_sub(0, self.rank1_codes)]

    @functools.cached_property
    def neighbor_perms(self):
        """(K, count) table: row for increment R maps code(X) to code(X+R)."""
        return self._perms_for(count_rank_matrices(self.field, self.m, self.n, 1),
                               lambda: self.rank1_codes)

    @functools.cached_property
    def neighbor_perms_half(self):
        """Same, restricted to one representative per {R, -R} pair."""
        return self._perms_for(len(self.rank1_half),
                               lambda: _bulk.encode(self.field, self.rank1_half))

    def _perms_for(self, rows: int, increments):
        """int64 table of code(X + R), one row per code R of increments(),
        refused by DomainTooLarge past TABLE_LIMIT entries at the given
        count of rows, before the increments or the table are built."""
        bounded(rows * self.count, f"the {rows} x {self.count} "
                f"neighbour table of GF({self.field.q})^({self.m}x{self.n})", TABLE_LIMIT,
                "table bound of {} entries")
        codes, increments = np.arange(self.count, dtype=np.int64), increments()
        out = np.empty((len(increments), self.count), dtype=np.int64)
        for t, r in enumerate(increments):
            out[t] = self.code_add(codes, r)
        return out

    def maximal_cliques(self, axis: str):
        """One (sets, size) code array of the maximal cliques of one kind, cached:
        axis "col" (as in ``_bulk.generators``) gives kind ONE, X0 + u
        GF(q)^(1 x n) for u in ``monic_cols``, "row" kind TWO, X0 +
        GF(q)^(m x 1) v for v in ``monic_rows``, direction by direction.  The
        bases X0 are the matrices zero in row (column) i, u's (v's) leading
        1, and the members X0 + u w (w v) for w in code order: they ascend,
        and member 0, the base, is the lex-min member.  Kind TWO bases need
        not ascend within a direction.  Another axis raises AttributeError.
        """
        return getattr(self, f"_{axis}_cliques")

    @functools.cached_property
    def _col_cliques(self):
        return self._clique_rows(self.m, self.n, transpose=False)

    @functools.cached_property
    def _row_cliques(self):
        return self._clique_rows(self.n, self.m, transpose=True)

    def _clique_rows(self, r: int, s: int, transpose: bool):
        """Kind ONE of the r x s space, its members transposed if asked."""
        F = self.field
        ws = _bulk.decode(F, np.arange(F.q**s), 1, s)
        rest = _bulk.decode(F, np.arange(F.q**((r - 1) * s)), r - 1, s)
        out = []
        for u in _monic_vectors(F, r):
            bases = np.insert(rest, int(np.argmax(u != 0)), 0, axis=1)
            members = F.vadd(bases[:, None], F.vmul(u[:, None], ws)[None])
            out.append(_bulk.encode(F, np.swapaxes(members, -2, -1) if transpose else members))
        return np.concatenate(out)

    @property
    def clique_members(self):
        """``maximal_cliques`` of the kind with the fewer directions (ONE when
        m <= n): either kind holds each edge in exactly one clique."""
        return self.maximal_cliques("row" if self.m > self.n else "col")

    def cliques_through(self, codes):
        """(len(codes), directions) rows of ``clique_members``: per point X,
        the clique of each direction u that holds it.

        That clique's base is X with u's leading row (column, for kind TWO)
        cleared, X - u X_i, and the base less that row, as a code, is the
        clique's index within its direction.  The index is computed, not
        searched for: for kind TWO the bases of a direction need not ascend.
        """
        F = self.field
        X = self.entries[codes]
        if self.m > self.n:
            X = np.swapaxes(X, 1, 2)
        r, s = X.shape[1:]
        us = _monic_vectors(F, r)
        out = np.empty((len(X), len(us)), dtype=np.int64)
        for d, u in enumerate(us):
            i = int(np.argmax(u != 0))
            base = F.vsub(X, F.vmul(u[:, None], X[:, i:i + 1]))
            out[:, d] = d * F.q ** ((r - 1) * s) + _bulk.encode(F, np.delete(base, i, axis=1))
        return out

    @functools.cached_property
    def _group_add(self):
        """add[a, b]: code of the digit-group sum a + b, in int16 a radix-p digit at a time."""
        q, p, k = self.field.q, self.field.p, self.field.k
        g = max(g for g in range(1, self.m * self.n + 1) if q**(2 * g) <= _GROUP_TABLE_LIMIT)
        shifted = np.arange(q**g, dtype=np.int16)[:, None] // p ** np.arange(g * k, dtype=np.int16)
        d = _mod(shifted, p)
        return sum(_mod(d[:, None, i] + d[:, i], p) * p**i for i in range(g * k))

    @functools.cached_property
    def _group_neg(self):
        return self._group_add.argmin(axis=0)  # the a with add[a, b] = 0

    def code_add(self, c1, c2):
        """code(X1 + X2) from the two codes, vectorized, as int64.

        Field addition never carries between radix-p digits, and a code is
        m*n*k of them.  So characteristic 2 XORs codes and odd ones add g
        radix-q digits at a time through one q^g x q^g table, g the widest
        with q^(2g) <= 2^20 (one lookup up to 1024 points); an odd q > 1024
        only has 1 x 1 spaces, whose code is the field element itself.
        """
        return self._code_op(c1, c2, negate=False)

    def code_sub(self, c1, c2):
        """code(X1 - X2), as code_add with a digit-group negation table."""
        return self._code_op(c1, c2, negate=True)

    def _code_op(self, c1, c2, negate):
        F, c1, c2 = self.field, np.asarray(c1, dtype=np.int64), np.asarray(c2, dtype=np.int64)
        if F.p == 2:
            return c1 ^ c2
        if F.q**2 > _GROUP_TABLE_LIMIT:
            return np.asarray((F.vsub if negate else F.vadd)(c1, c2), dtype=np.int64)
        add, neg, out, w = self._group_add, self._group_neg, 0, 1
        while w * len(add) < self.count:
            # the low group as in fields._mod, keeping the quotient for the next group
            h1, h2 = c1 // len(add), c2 // len(add)
            a, b, c1, c2 = c1 - h1 * len(add), c2 - h2 * len(add), h1, h2
            out = out + w * add[a, neg[b] if negate else b].astype(np.int64)
            w *= len(add)
        return out + w * add[c1, neg[c2] if negate else c2].astype(np.int64)


def _monic_vectors(field: Field, length: int):
    """Vectors of the given length whose first nonzero entry is 1, in code order."""
    vecs = _bulk.decode(field, np.arange(1, field.q**length), length, 1)[:, :, 0]
    first = np.argmax(vecs != 0, axis=1)
    return vecs[vecs[np.arange(len(vecs)), first] == 1]


@functools.lru_cache(maxsize=None)
def space(field: Field, m: int, n: int) -> MatrixSpace:
    return MatrixSpace(field, m, n)


def random_invertible(rng, field: Field, m: int) -> Mat:
    while True:
        a = rng.integers(0, field.q, size=(m, m))
        M = Mat(field, a.astype(field.dtype))
        if bool(_bulk.invertible_mask(field, M.a[None])[0]):
            return M


# ---------------------------------------------------------------------------
# graph distance by breadth-first search
# ---------------------------------------------------------------------------

_BFS_BLOCK_BYTES = 4 << 20


def bfs_distances(A: Mat):
    """Distance from A to every matrix in its space, by BFS over the
    ``neighbor_perms`` table, with no rank consulted.

    One level is ``nxt = front[neighbor_perms].any(axis=0)`` over a boolean
    frontier, less the matrices already reached: X is new when X + R was
    on the frontier for some rank-1 increment R.  That gather reaches the
    same matrices as scattering each frontier point to its neighbours
    because the increments are closed under negation.  Increments go in
    chunks, so that each gathered array stays under ``_BFS_BLOCK_BYTES``.
    The search stops after min(m, n) + 1 levels; unreached matrices hold -1.
    """
    sp = space(A.field, A.m, A.n)
    perms = sp.neighbor_perms
    chunks = _row_blocks(len(perms), sp.count, _BFS_BLOCK_BYTES)
    dist = np.full(sp.count, -1, dtype=np.int8)
    dist[A.encode()] = 0
    for level in range(1, min(A.m, A.n) + 2):
        front, nxt = dist == level - 1, np.zeros(sp.count, dtype=bool)
        for rows in chunks:
            nxt |= front[perms[rows]].any(axis=0)
        nxt &= dist < 0
        if not nxt.any():
            break
        dist[nxt] = level
    return dist


def graph_distance(A: Mat, B: Mat) -> int:
    """Length of the shortest path from A to B in the adjacency graph.

    The search is capped at min(m, n) + 1 levels; failing to reach B by
    then means the adjacency structure is corrupt, which is reported
    rather than searched past.
    """
    A._check_same(B)
    dist = bfs_distances(A)
    d = int(dist[B.encode()])
    if d < 0:
        raise RuntimeError("BFS exhausted the rank bound without reaching the target")
    return d


def count_rank_matrices(field: Field, m: int, n: int, r: int) -> int:
    """Number of m x n matrices of rank r, by the Gaussian binomial product."""
    q = field.q

    def gauss_binom(a, b):
        num = den = 1
        for i in range(b):
            num *= q**(a - i) - 1
            den *= q**(i + 1) - 1
        return num // den

    full = 1
    for i in range(r):
        full *= q**r - q**i
    return gauss_binom(m, r) * gauss_binom(n, r) * full
