"""Adjacency-preserving maps between matrix spaces as explicit tables.

A MapTable stores the image of every matrix of the source space, indexed
by the canonical code.  On top of it sit the verifiers (graph
homomorphism, coloring, degeneracy), the constructions (standard-form
tables, the outside-scalar map, twists, syndrome colorings, existence
witnesses), and the exact existence criterion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _bulk
from .cliques import Kind, MaximalSet
from .errors import (InvalidParams, InvalidXi, NoHomExists, NotHom,
                     ShapeMismatch, SingularTwist, TheoremViolated)
from .fields import Field, FieldHom, enumerate_homs, field_from_order, make_field
from .matrices import Mat, random_invertible, space


class MapTable:
    """A total map GF(q)^(m x n) -> GF(q')^(m' x n') as an image stack."""

    def __init__(self, src_field: Field, m: int, n: int,
                 dst_field: Field, m2: int, n2: int, images):
        self.src_field = src_field
        self.m = m
        self.n = n
        self.dst_field = dst_field
        self.m2 = m2
        self.n2 = n2
        images = np.asarray(images, dtype=dst_field.dtype)
        count = src_field.q ** (m * n)
        if images.shape != (count, m2, n2):
            raise ShapeMismatch(
                f"need {count} images of shape ({m2}, {n2}), got {images.shape}")
        images.setflags(write=False)
        self.images = images

    @property
    def count(self) -> int:
        return len(self.images)

    def src_space(self):
        return space(self.src_field, self.m, self.n)

    def apply_code(self, code: int) -> Mat:
        return Mat(self.dst_field, self.images[code])

    def apply(self, X: Mat) -> Mat:
        if X.field != self.src_field or X.shape != (self.m, self.n):
            raise ShapeMismatch("argument outside the table domain")
        return self.apply_code(X.encode())

    def image_codes(self):
        return _bulk.encode(self.dst_field, self.images)

    @staticmethod
    def identity(field: Field, m: int, n: int) -> "MapTable":
        return MapTable(field, m, n, field, m, n, space(field, m, n).entries)

    def transposed_images(self) -> "MapTable":
        """The table X -> f(X)^t (domain unchanged)."""
        return MapTable(self.src_field, self.m, self.n, self.dst_field,
                        self.n2, self.m2, np.swapaxes(self.images, 1, 2))

    def __eq__(self, other):
        return (isinstance(other, MapTable)
                and (self.src_field, self.m, self.n) == (other.src_field, other.m, other.n)
                and (self.dst_field, self.m2, self.n2) == (other.dst_field, other.m2, other.n2)
                and np.array_equal(self.images, other.images))

    def __repr__(self):
        return (f"MapTable(GF({self.src_field.q})^({self.m}x{self.n}) -> "
                f"GF({self.dst_field.q})^({self.m2}x{self.n2}))")


# ---------------------------------------------------------------------------
# standard-form parameters
# ---------------------------------------------------------------------------

class Orientation(enum.Enum):
    STRAIGHT = "straight"      # X -> P diag((I + X^tau L)^-1 X^tau, 0) Q
    TRANSPOSED = "transposed"  # X -> P diag(X^tau^t (I + L X^tau^t)^-1, 0) Q


@dataclass(frozen=True)
class StandardHomParams:
    """Parameters (orientation, P, Q, tau, L) of a standard-form map.

    Shape checks happen at construction; the for-every-X invertibility
    requirement is checked by validate_params or on table construction.
    """

    orientation: Orientation
    P: Mat
    Q: Mat
    tau: FieldHom
    L: Mat
    m: int
    n: int

    def __post_init__(self):
        dst = self.tau.dst
        if self.P.field != dst or self.Q.field != dst or self.L.field != dst:
            raise InvalidParams("P, Q, L must live over the target field")
        if self.P.m != self.P.n or self.Q.m != self.Q.n:
            raise InvalidParams("P and Q must be square")
        m2, n2 = self.m2, self.n2
        if self.orientation is Orientation.STRAIGHT:
            if not (m2 >= self.m and n2 >= self.n):
                raise InvalidParams("target too small for the straight form")
            if self.L.shape != (self.n, self.m):
                raise InvalidParams("straight form needs an n x m twist matrix")
        else:
            if not (m2 >= self.n and n2 >= self.m):
                raise InvalidParams("target too small for the transposed form")
            if self.L.shape != (self.m, self.n):
                raise InvalidParams("transposed form needs an m x n twist matrix")
        self.P.inverse()
        self.Q.inverse()

    @property
    def m2(self) -> int:
        return self.P.m

    @property
    def n2(self) -> int:
        return self.Q.m

    @property
    def src_field(self) -> Field:
        return self.tau.src

    @property
    def dst_field(self) -> Field:
        return self.tau.dst


class TwistSide(enum.Enum):
    LEFT = "left"    # X -> (I + X L)^-1 X
    RIGHT = "right"  # X -> X (I + L X)^-1


def _resolvent(F: Field, X, L, side: TwistSide, invert: bool = True):
    """Resolvent denominators of a stack X and, if wanted, the twisted stack.

    Side LEFT builds G = I + X L and twists to G^-1 X; side RIGHT builds
    G = I + L X and twists to X G^-1.  Returns (ok, twisted): ok masks the
    invertible denominators, twisted is None unless invert is set and
    every denominator is invertible.
    """
    if side is TwistSide.LEFT:
        prod = _bulk.matmul(F, X, L[None])
    else:
        prod = _bulk.matmul(F, L[None], X)
    G = F.vadd(np.broadcast_to(_bulk.identity(F, prod.shape[-1]), prod.shape), prod)
    ok = _bulk.invertible_mask(F, G)
    if not (invert and ok.all()):
        return ok, None
    Ginv = _bulk.inverse(F, G)
    if side is TwistSide.LEFT:
        return ok, _bulk.matmul(F, Ginv, X)
    return ok, _bulk.matmul(F, X, Ginv)


def _oriented(params: StandardHomParams, xs):
    """(X, side): the images X^tau (transposed for the transposed form) and
    the side whose resolvent is the core of the standard form."""
    Xt = params.tau.vapply(xs)
    if params.orientation is Orientation.STRAIGHT:
        return Xt, TwistSide.LEFT
    return np.swapaxes(Xt, 1, 2), TwistSide.RIGHT


def _core_batch(params: StandardHomParams, xs):
    """(N, m, n) -> core images before padding, or raise with a witness."""
    X, side = _oriented(params, xs)
    ok, core = _resolvent(params.dst_field, X, params.L.a, side)
    if core is None:
        code = int(np.nonzero(~ok)[0][0])
        raise InvalidParams("denominator singular inside the domain",
                            witness=Mat(params.src_field, xs[code]))
    return core


def eval_standard(params: StandardHomParams, X: Mat) -> Mat:
    """Evaluate the standard form at one point."""
    if X.field != params.src_field or X.shape != (params.m, params.n):
        raise ShapeMismatch("argument outside the declared source space")
    core = _core_batch(params, X.a[None])[0]
    F = params.dst_field
    padded = Mat(F, core).embed(params.m2, params.n2)
    return params.P @ padded @ params.Q


def standard_table(params: StandardHomParams) -> MapTable:
    """Materialize the whole map; validates invertibility along the way."""
    sp = space(params.src_field, params.m, params.n)
    core = _core_batch(params, sp.entries)
    F = params.dst_field
    padded = np.zeros((sp.count, params.m2, params.n2), dtype=F.dtype)
    padded[:, :core.shape[1], :core.shape[2]] = core
    images = _bulk.matmul(F, params.P.a[None], _bulk.matmul(F, padded, params.Q.a[None]))
    return MapTable(params.src_field, params.m, params.n, F,
                    params.m2, params.n2, images)


def validate_params(params: StandardHomParams):
    """(True, None) when the denominator stays invertible; else (False, X).

    Also checks the two-sided equivalence: the m x m denominators are all
    invertible iff the n x n mirrors are, and where valid the two resolvent
    expressions agree at every point.  A failure of either raises
    TheoremViolated.
    """
    sp = space(params.src_field, params.m, params.n)
    X, side = _oriented(params, sp.entries)
    other = TwistSide.RIGHT if side is TwistSide.LEFT else TwistSide.LEFT
    ok, lhs = _resolvent(params.dst_field, X, params.L.a, side)
    ok_other, rhs = _resolvent(params.dst_field, X, params.L.a, other)
    if ok.all() != ok_other.all():
        raise TheoremViolated("one-sided invertibility must be two-sided")
    if lhs is None:
        code = int(np.nonzero(~ok)[0][0])
        return False, Mat(params.src_field, sp.entries[code])
    if not np.array_equal(lhs, rhs):
        raise TheoremViolated("resolvent identity must hold pointwise")
    return True, None


def _twist_valid(F2: Field, Xt, L, transposed: bool) -> bool:
    """All denominators I + X^tau L (or I + L X^tau^t) invertible?"""
    if transposed:
        ok, _ = _resolvent(F2, np.swapaxes(Xt, 1, 2), L, TwistSide.RIGHT, invert=False)
    else:
        ok, _ = _resolvent(F2, Xt, L, TwistSide.LEFT, invert=False)
    return bool(ok.all())


def random_valid_params(rng, src_field: Field, m: int, n: int,
                        dst_field: Field, m2: int, n2: int,
                        orientation: Orientation | None = None,
                        nonzero_L_tries: int = 400) -> StandardHomParams:
    """Sample a valid parameter tuple, preferring a nonzero twist matrix.

    A surjective tau admits only L = 0 (any nonzero twist makes some
    denominator singular), so the search is skipped in that case.  Valid
    nonzero twists are sparse (well under 1% at GF(4) inside GF(16)), so
    candidates get a cheap batched determinant check.
    """
    taus = enumerate_homs(src_field, dst_field)
    if not taus:
        raise ValueError("no field homomorphism between these fields")
    if orientation is None:
        choices = [o for o in Orientation
                   if (o is Orientation.STRAIGHT and m2 >= m and n2 >= n)
                   or (o is Orientation.TRANSPOSED and m2 >= n and n2 >= m)]
        orientation = choices[rng.integers(len(choices))]
    tau = taus[rng.integers(len(taus))]
    P = random_invertible(rng, dst_field, m2)
    Q = random_invertible(rng, dst_field, n2)
    transposed = orientation is Orientation.TRANSPOSED
    lshape = (m, n) if transposed else (n, m)
    L = Mat.zeros(dst_field, *lshape)
    if not tau.is_surjective():
        Xt = tau.vapply(space(src_field, m, n).entries)
        for _ in range(nonzero_L_tries):
            cand = rng.integers(0, dst_field.q, size=lshape).astype(dst_field.dtype)
            if not cand.any():
                continue
            if _twist_valid(dst_field, Xt, cand, transposed):
                L = Mat(dst_field, cand)
                break
    return StandardHomParams(orientation, P, Q, tau, L, m, n)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def is_graph_hom(f: MapTable, mode: str = "exhaustive", samples: int = 10**5,
                 seed: int = 0):
    """Do adjacent arguments always map to adjacent images?

    Exhaustive mode scans every edge of the source graph; sampled mode
    draws the given number of random adjacent pairs.  Returns (ok,
    witness) where the witness, if any, is the lexicographically first
    violating pair (by source codes).
    """
    sp = f.src_space()
    F2 = f.dst_field
    img = f.images
    best = None
    if mode == "exhaustive":
        for nbr in sp.neighbor_perms_half:
            ok = _bulk.adjacent_mask(F2, F2.vsub(img, img[nbr]))
            if not ok.all():
                bad = np.nonzero(~ok)[0]
                lo = np.minimum(bad, nbr[bad])
                hi = np.maximum(bad, nbr[bad])
                t = int(np.lexsort((hi, lo))[0])
                cand = (int(lo[t]), int(hi[t]))
                if best is None or cand < best:
                    best = cand
    elif mode == "sampled":
        rng = np.random.default_rng(seed)
        a = rng.integers(0, sp.count, size=samples)
        r = rng.integers(0, len(sp.rank1), size=samples)
        rcodes = sp.rank1_codes[r]
        b = sp.code_add(a, rcodes)
        ok = _bulk.adjacent_mask(F2, F2.vsub(img[a], img[b]))
        if not ok.all():
            bad = np.nonzero(~ok)[0]
            lo = np.minimum(a[bad], b[bad])
            hi = np.maximum(a[bad], b[bad])
            t = int(np.lexsort((hi, lo))[0])
            best = (int(lo[t]), int(hi[t]))
    else:
        raise ValueError("mode must be 'exhaustive' or 'sampled'")
    if best is None:
        return True, None
    A = Mat.decode(f.src_field, best[0], f.m, f.n)
    B = Mat.decode(f.src_field, best[1], f.m, f.n)
    return False, (A, B)


def is_colouring(f: MapTable) -> bool:
    """True iff the whole image is one adjacent set."""
    ucodes = np.unique(f.image_codes())
    pts = _bulk.decode(f.dst_field, ucodes, f.m2, f.n2)
    for i in range(len(pts) - 1):
        diffs = f.dst_field.vsub(pts[i + 1:], pts[i])
        if not _bulk.adjacent_mask(f.dst_field, diffs).all():
            return False
    return True


def is_degenerate(f: MapTable):
    """Search for a collapsed unit ball around a rank <= 1 center.

    Returns (True, (A, M, N)) with the center and the two opposite-kind
    cliques hosting the ball image, or (False, None).  Raises NotHom when
    some ball edge is torn, since the search presumes a homomorphism.
    """
    sp = f.src_space()
    F2 = f.dst_field
    ball0 = np.sort(np.concatenate([np.zeros(1, dtype=np.int64), sp.rank1_codes]))
    for c_center in ball0:  # centers are exactly the rank <= 1 matrices
        ball = sp.code_add(ball0, int(c_center))
        imgs = f.images[ball]
        center_img = f.images[int(c_center)]
        D = F2.vsub(imgs, center_img)
        nz = D.any(axis=(1, 2))
        torn = nz & ~_bulk.rank_le1_mask(F2, D)
        if torn.any():
            bad = int(np.nonzero(torn)[0][0])
            raise NotHom("ball image tears: not a graph homomorphism",
                         witness=(Mat.decode(f.src_field, int(ball[bad]), f.m, f.n),
                                  Mat.decode(f.src_field, int(c_center), f.m, f.n)))
        Dnz = D[nz]
        A = Mat.decode(f.src_field, int(c_center), f.m, f.n)
        cimg = Mat(F2, center_img)
        # a ball collapsed to a point lies on any opposite-kind pair
        pick = (None, None)
        if len(Dnz):
            us = _bulk.generators(F2, Dnz, "col")
            vs = _bulk.generators(F2, Dnz, "row")
            pick = _stab_with_two(_bulk.encode(F2, us[:, :, None]),
                                  _bulk.encode(F2, vs[:, :, None]))
        if pick is not None:
            iu, iv = pick
            u = us[iu] if iu is not None else np.eye(f.m2, dtype=F2.dtype)[:, 0]
            v = vs[iv] if iv is not None else np.eye(f.n2, dtype=F2.dtype)[:, 0]
            return True, (A, MaximalSet.through(Kind.ONE, u, cimg),
                          MaximalSet.through(Kind.TWO, v, cimg))
    return False, None


def _stab_with_two(ucodes, vcodes):
    """Indices (iu, iv) such that every item shares u with iu or v with iv.

    Either side may be None when one family alone covers everything.
    Returns None when no such pair exists.
    """
    if len(np.unique(ucodes)) == 1:
        return 0, None
    if len(np.unique(vcodes)) == 1:
        return None, 0
    for iu in np.unique(ucodes, return_index=True)[1]:
        rest = ucodes != ucodes[iu]
        vv = vcodes[rest]
        if len(np.unique(vv)) == 1:
            iv = int(np.nonzero(rest)[0][0])
            return int(iu), iv
    return None


# ---------------------------------------------------------------------------
# the outside-scalar map (collapses a distance-2 pair)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class XiMapParams:
    """Adjoin a scalar xi outside the embedded base field; 3 x n domain."""

    embed: FieldHom
    xi: int
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise InvalidXi("need at least two columns")
        if self.xi == 0 or np.isin(self.xi, self.embed.table):
            raise InvalidXi("xi must be nonzero and outside the embedded field")


def make_xi_map(params: XiMapParams) -> MapTable:
    """Rows (x, y, z) map to (x + xi z, y + xi z, 0), entrywise embedded."""
    D = params.embed.src
    D2 = params.embed.dst
    sp = space(D, 3, params.n)
    emb = params.embed.vapply(sp.entries)
    xiz = D2.vmul(emb[:, 2, :], D2.dtype(params.xi))
    images = np.zeros((sp.count, 3, params.n), dtype=D2.dtype)
    images[:, 0, :] = D2.vadd(emb[:, 0, :], xiz)
    images[:, 1, :] = D2.vadd(emb[:, 1, :], xiz)
    return MapTable(D, 3, params.n, D2, 3, params.n, images)


# ---------------------------------------------------------------------------
# twists
# ---------------------------------------------------------------------------

def moebius_twist(f: MapTable, L: Mat, side: TwistSide = TwistSide.LEFT) -> MapTable:
    """Twist a table by a resolvent factor; distances of images survive.

    L is n' x m' over the target field.  Raises SingularTwist (with the
    first offending source point) when some denominator is singular.
    """
    F2 = f.dst_field
    if L.field != F2 or L.shape != (f.n2, f.m2):
        raise ShapeMismatch("twist matrix must be n' x m' over the target field")
    ok, out = _resolvent(F2, f.images, L.a, side)
    if out is None:
        code = int(np.nonzero(~ok)[0][0])
        raise SingularTwist("twist denominator singular",
                            witness=Mat.decode(f.src_field, code, f.m, f.n))
    return MapTable(f.src_field, f.m, f.n, F2, f.m2, f.n2, out)


# ---------------------------------------------------------------------------
# existence, colorings and witnesses
# ---------------------------------------------------------------------------

def hom_exists(q: int, m: int, n: int, q2: int, m2: int, n2: int) -> bool:
    """q^max(m,n) <= q2^max(m2,n2), in exact integer arithmetic."""
    if min(q, m, n, q2, m2, n2) < 1:
        raise ValueError("all parameters must be positive")
    field_from_order(q), field_from_order(q2)  # validates prime powers
    return q ** max(m, n) <= q2 ** max(m2, n2)


def proper_coloring(field: Field, m: int, n: int) -> MapTable:
    """A proper q^s-coloring of the matrix graph, s = max(m, n).

    Rows are folded into the degree-s extension field and combined with
    coefficients from a basis over the base field; a rank-1 difference
    with rows c_i v then shifts the fold by (sum h_i c_i) v != 0, so no
    edge is monochromatic.  Colors are 1 x s row vectors, all attained.
    """
    s = max(m, n)
    big = make_field(field.p, field.k * s)
    emb = enumerate_homs(field, big)[0]
    gamma = big.generator
    basis = [big.pow(gamma, j) for j in range(s)]

    sp = space(field, m, n)
    X = sp.entries if n >= m else np.swapaxes(sp.entries, 1, 2)
    rows = X.shape[1]

    def fold(rowvals):
        acc = np.zeros(len(rowvals), dtype=np.int64)
        for j in range(s):
            acc = big.vadd(acc, big.vmul(emb.table[rowvals[:, j]].astype(np.int64),
                                         np.int64(basis[j]))).astype(np.int64)
        return acc

    syndrome = np.zeros(sp.count, dtype=np.int64)
    for i in range(rows):
        syndrome = big.vadd(syndrome,
                            big.vmul(np.int64(basis[i]), fold(X[:, i, :]))).astype(np.int64)

    # invert the fold: element of the big field -> coordinate row over field
    coords = np.empty((big.q, s), dtype=field.dtype)
    codes = np.arange(field.q ** s, dtype=np.int64)
    vecs = _bulk.decode(field, codes, 1, s)[:, 0, :]
    elts = fold(vecs)
    coords[elts] = vecs
    images = coords[syndrome][:, None, :]
    return MapTable(field, m, n, field, 1, s, images)


def build_witness_hom(q: int, m: int, n: int, q2: int, m2: int, n2: int) -> MapTable:
    """Compose coloring, color injection and a clique embedding.

    The result is a graph homomorphism whose image sits inside one maximal
    clique of the target (so it is also a coloring in the image sense).
    """
    if not hom_exists(q, m, n, q2, m2, n2):
        raise NoHomExists(f"{q}^max({m},{n}) > {q2}^max({m2},{n2})")
    src = field_from_order(q)
    dst = field_from_order(q2)
    coloring = proper_coloring(src, m, n)
    color_idx = _bulk.encode(src, coloring.images)  # dense in [0, q^s)
    s2 = max(m2, n2)
    members = _bulk.decode(dst, color_idx, 1, s2)
    images = np.zeros((len(color_idx), m2, n2), dtype=dst.dtype)
    if n2 == s2:
        images[:, 0, :] = members[:, 0, :]
    else:
        images[:, :, 0] = members[:, 0, :]
    return MapTable(src, m, n, dst, m2, n2, images)
