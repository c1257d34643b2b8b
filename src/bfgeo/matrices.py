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
from .fields import Field, FieldHom

SPACE_LIMIT = 1 << 20


class Mat:
    """Immutable m x n matrix over a Field.  Entries are element indices."""

    __slots__ = ("field", "a")

    def __init__(self, field: Field, entries):
        self.field = field
        raw = np.asarray(entries)
        if raw.ndim != 2 or raw.size == 0:
            raise ShapeMismatch("Mat needs a nonempty 2-d entry array")
        # range-check before the cast, which would wrap or overflow
        if raw.max() >= field.q or (raw.dtype.kind != "u" and raw.min() < 0):
            raise ValueError("entry index out of range for the field")
        a = raw.astype(field.dtype)
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

    def scale(self, c: int) -> "Mat":
        return Mat(self.field, self.field.vmul(self.a, self.field.dtype(c)))

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

    def apply_hom(self, h: FieldHom) -> "Mat":
        """Entrywise image under a field homomorphism."""
        if h.src != self.field:
            raise ShapeMismatch("homomorphism source disagrees with the field")
        return Mat(h.dst, h.vapply(self.a))

    # -- blocks ---------------------------------------------------------------

    def embed(self, m: int, n: int, at=(0, 0)) -> "Mat":
        """Place this matrix as a block inside an m x n zero matrix."""
        i, j = at
        if i + self.m > m or j + self.n > n:
            raise ShapeMismatch("block does not fit")
        a = np.zeros((m, n), dtype=self.field.dtype)
        a[i:i + self.m, j:j + self.n] = self.a
        return Mat(self.field, a)

    def block(self, rows, cols) -> "Mat":
        return Mat(self.field, self.a[np.ix_(rows, cols)])

    def row(self, i: int):
        return self.a[i].copy()

    def col(self, j: int):
        return self.a[:, j].copy()

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
        return Mat(field, _bulk.decode(field, np.int64(code), m, n))

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

class MatrixSpace:
    """GF(q)^(m x n) with cached dense enumerations, via :func:`space`."""

    def __init__(self, field: Field, m: int, n: int):
        self.field = field
        self.m = m
        self.n = n
        self.count = field.q ** (m * n)
        if self.count > SPACE_LIMIT:
            raise DomainTooLarge(
                f"q^(m*n) = {self.count} exceeds the enumeration bound {SPACE_LIMIT}")

    def mat(self, code: int) -> Mat:
        return Mat.decode(self.field, code, self.m, self.n)

    def __iter__(self):
        for code in range(self.count):
            yield self.mat(code)

    @functools.cached_property
    def entries(self):
        """(count, m, n) array of every matrix, in code order."""
        return _bulk.all_matrices(self.field, self.m, self.n, SPACE_LIMIT)

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
        codes = self.rank1_codes
        neg_codes = _bulk.encode(self.field, self.field.vneg(self.rank1))
        return self.rank1[codes <= neg_codes]

    @functools.cached_property
    def neighbor_perms(self):
        """(K, count) table: row for increment R maps code(X) to code(X+R)."""
        return self._perms_for(self.rank1)

    @functools.cached_property
    def neighbor_perms_half(self):
        """Same, restricted to one representative per {R, -R} pair."""
        return self._perms_for(self.rank1_half)

    def _perms_for(self, increments):
        flat = self.entries.reshape(self.count, -1)
        out = np.empty((len(increments), self.count), dtype=np.int64)
        for t, R in enumerate(increments):
            out[t] = _bulk.encode(
                self.field,
                self.field.vadd(flat, R.reshape(-1)).reshape(self.count, self.m, self.n))
        return out

    @functools.cached_property
    def code_neg(self):
        """code(X) -> code(-X) table."""
        return _bulk.encode(self.field, self.field.vneg(self.entries))

    @functools.cached_property
    def _code_add_table(self):
        if self.count > 4096:
            raise DomainTooLarge("pairwise code table only for small spaces")
        flat = self.entries.reshape(self.count, -1)
        summed = self.field.vadd(flat[:, None, :], flat[None, :, :])
        return _bulk.encode(
            self.field, summed.reshape(self.count, self.count, self.m, self.n)
        ).astype(np.int32)

    def code_add(self, c1, c2):
        """code(X1 + X2) from the two codes, vectorized.

        Char-2 fields add componentwise in every radix-2^t digit, so the
        packed codes simply XOR; small odd-characteristic spaces use a
        cached pairwise table, larger ones decode and re-encode.
        """
        if self.field.p == 2:
            return np.bitwise_xor(c1, c2)
        if self.count <= 4096:
            return self._code_add_table[c1, c2]
        c1, c2 = np.broadcast_arrays(np.asarray(c1), np.asarray(c2))
        summed = self.field.vadd(_bulk.decode(self.field, c1, self.m, self.n),
                                 _bulk.decode(self.field, c2, self.m, self.n))
        return _bulk.encode(self.field, summed)

    def code_sub(self, c1, c2):
        if self.field.p == 2:
            return np.bitwise_xor(c1, c2)
        return self.code_add(c1, self.code_neg[np.asarray(c2)])

    def random_mat(self, rng) -> Mat:
        return self.mat(int(rng.integers(self.count)))


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

def bfs_distances(A: Mat, max_level: int | None = None):
    """Distance from A to every matrix in its space, by plain BFS.

    The neighbor step adds precomputed rank-1 increments (outer products);
    no rank or arithmetic distance is consulted.  Unreached matrices hold -1.
    """
    sp = space(A.field, A.m, A.n)
    cap = min(A.m, A.n) + 1 if max_level is None else max_level
    dist = np.full(sp.count, -1, dtype=np.int8)
    frontier = np.array([A.encode()], dtype=np.int64)
    dist[frontier] = 0
    perms = sp.neighbor_perms
    level = 0
    while frontier.size and level < cap:
        level += 1
        nxt = perms[:, frontier].reshape(-1)
        nxt = nxt[dist[nxt] < 0]
        if nxt.size:
            nxt = np.unique(nxt)
            dist[nxt] = level
        frontier = nxt
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
