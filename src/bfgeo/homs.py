"""Adjacency-preserving maps between matrix spaces as explicit tables.

A MapTable stores the image of every matrix of the source space, indexed
by the canonical code.  On top of it sit the verifiers (graph
homomorphism, coloring, degeneracy), the constructions (standard-form
tables, the outside-scalar map, twists, syndrome colorings, existence
witnesses), and the exact existence criterion.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from . import _bulk
from .cliques import Kind, MaximalSet
from .errors import (InvalidParams, InvalidXi, NoHomExists, NotHom,
                     ShapeMismatch, SingularTwist, TheoremViolated)
from .fields import Field, FieldHom, enumerate_homs, field_from_order, make_field
from .matrices import Mat, random_invertible, space


class MapTable:
    """A total map GF(q)^(m x n) -> GF(q')^(m' x n') as an image stack.

    The table owns a read-only copy of its images, so the exhaustive
    verdicts of ``is_graph_hom`` and ``is_degenerate``, and the clique
    summary they share, are computed once and kept on the table.
    """

    def __init__(self, src_field: Field, m: int, n: int,
                 dst_field: Field, m2: int, n2: int, images):
        self.src_field = src_field
        self.m = m
        self.n = n
        self.dst_field = dst_field
        self.m2 = m2
        self.n2 = n2
        images = np.array(images, dtype=dst_field.dtype)
        count = src_field.q ** (m * n)
        if images.shape != (count, m2, n2):
            raise ShapeMismatch(
                f"need {count} images of shape ({m2}, {n2}), got {images.shape}")
        images.setflags(write=False)
        self.images = images
        self._verdicts = {}

    @functools.cached_property
    def _clique_summary(self):
        """The clique test per source clique, shared by the exhaustive
        ``is_graph_hom`` and ``is_degenerate``."""
        return _summarise_cliques(self.dst_field, self.images,
                                  self.src_space().clique_members)

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
    every denominator is invertible.  Up to _bulk.ADJUGATE_MAX one
    determinant of the stack gives both ok and the adjugate inverse's scale.
    """
    if side is TwistSide.LEFT:
        prod = _bulk.matmul(F, X, L[None])
    else:
        prod = _bulk.matmul(F, L[None], X)
    G = F.vadd(np.broadcast_to(_bulk.identity(F, prod.shape[-1]), prod.shape), prod)
    d = _bulk.det(F, G) if G.shape[-1] <= _bulk.ADJUGATE_MAX else None
    ok = _bulk.invertible_mask(F, G) if d is None else d != 0
    if not (invert and ok.all()):
        return ok, None
    Ginv = _bulk.inverse(F, G, d)
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

    Exhaustive mode tests every maximal clique of the source's cheaper kind
    (``MatrixSpace.clique_members``), which together hold every edge once;
    sampled mode draws the given number of random adjacent pairs.  Returns
    (ok, witness) where the witness, if any, is the lexicographically first
    violating pair (by source codes).  The exhaustive verdict is kept on
    the table and returned by later exhaustive calls.
    """
    if mode == "exhaustive" and "is_graph_hom" in f._verdicts:
        return f._verdicts["is_graph_hom"]
    sp = f.src_space()
    F2 = f.dst_field
    img = f.images
    best = None
    if mode == "exhaustive":
        best = _first_torn_edge(f)
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
    verdict = (True, None)
    if best is not None:
        verdict = (False, (Mat.decode(f.src_field, best[0], f.m, f.n),
                           Mat.decode(f.src_field, best[1], f.m, f.n)))
    if mode == "exhaustive":
        f._verdicts["is_graph_hom"] = verdict
    return verdict


# Byte budget for one block of the clique test's difference stack (cliques
# x members x target entries, sized at 8 bytes an entry): it bounds the
# test's working memory whatever the table's size, unless one clique's
# stack alone is larger.
_CLIQUE_BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class _CliqueSummary:
    """The clique test's outcome per row of ``MatrixSpace.clique_members``.

    passes: the differences D = f(member) - f(base) all have rank 1, share
    one column or one row generator, and are distinct.  col: they share one
    column generator.  line: they share one column and one row generator,
    so the image lies on one target line (a passing clique needs a target
    field of at least q^max(m, n) elements for that).  gen: the shared
    column generator where col holds, else the shared row generator,
    zero-padded to max(m', n') entries; it is an entry row, never a
    destination code.
    """

    passes: np.ndarray
    col: np.ndarray
    line: np.ndarray
    gen: np.ndarray


def _summarise_cliques(F2: Field, img, cliques) -> _CliqueSummary:
    """The clique test on every clique (members ascending, base first), a
    block of cliques at a time."""
    size, entries = cliques.shape[1], img[0].size
    block = max(1, _CLIQUE_BLOCK_BYTES // (size * entries * 8))
    parts = []
    for start in range(0, len(cliques), block):
        members = cliques[start:start + block]
        parts.append(_pass_test(F2, F2.vsub(img[members[:, 1:]], img[members[:, :1]])))
    return _CliqueSummary(*(np.concatenate(a) for a in zip(*parts)))


def _pass_test(F2: Field, D):
    """(passes, col, line, gen) of the clique test, per item of the
    (B, K, m', n') stack of differences from one point, K >= 1.

    Two rank-1 matrices differ in rank <= 1 iff they share a generator, and
    if every pair does, all share one.  So the item's points are pairwise
    adjacent iff its differences have rank 1, share one column or one row
    generator, and are distinct.
    """
    B, K, m2, n2 = D.shape
    idx = np.nonzero(_bulk.adjacent_mask(F2, D).all(axis=1))[0]
    Dk = D[idx]
    u, v = (_bulk.generators(F2, Dk, axis) for axis in ("col", "row"))
    col, row, passes = (np.zeros(B, dtype=bool) for _ in range(3))
    col[idx] = (u == u[:, :1]).all(axis=(1, 2))
    row[idx] = (v == v[:, :1]).all(axis=(1, 2))
    passes[idx] = (col[idx] | row[idx]) & _distinct(Dk.reshape(len(idx), K, m2 * n2))
    gen = np.zeros((B, max(m2, n2)), dtype=F2.dtype)
    by_col = col[idx]
    gen[idx[by_col], :m2] = u[by_col, 0]
    gen[idx[~by_col], :n2] = v[~by_col, 0]
    return passes, col, col & row, gen


def _first_torn_edge(f: MapTable):
    """The lexicographically first edge (lo, hi) of the source whose images
    are not adjacent, or None.

    Every edge lies in a clique of ``clique_members``, and a torn one in a
    clique that fails the clique test.  Pairs are scanned only inside the
    failing cliques, by increasing base code, until the base passes the
    best lo found.
    """
    F2, img, cliques = f.dst_field, f.images, f.src_space().clique_members
    failing = np.nonzero(~f._clique_summary.passes)[0]
    best = None
    for t in failing[np.argsort(cliques[failing, 0], kind="stable")]:
        if best is not None and cliques[t, 0] > best[0]:
            break
        pair = _first_torn_pair(F2, img, cliques[t], best)
        if pair is None and best is None:
            raise TheoremViolated("a failing clique has no torn pair")
        if pair is not None and (best is None or pair < best):
            best = pair
    return best


def _distinct(rows):
    """Per item of the (B, K, E) stack: are its K entry rows distinct?"""
    B, K, E = rows.shape
    flat = rows.reshape(B * K, E)
    item = np.repeat(np.arange(B), K)
    order = np.lexsort(tuple(flat[:, e] for e in range(E - 1, -1, -1)) + (item,))
    flat, item = flat[order], item[order]
    dup = (flat[1:] == flat[:-1]).all(axis=1) & (item[1:] == item[:-1])
    ok = np.ones(B, dtype=bool)
    ok[item[1:][dup]] = False
    return ok


def _first_torn_pair(F2: Field, img, members, best):
    """The first pair (lo, hi) of clique members, members ascending, whose
    images are not adjacent; None once lo would pass best's."""
    I = img[members]
    step = max(1, _CLIQUE_BLOCK_BYTES // (I.size * 8))
    for a in range(0, len(members), step):
        if best is not None and members[a] > best[0]:
            return None
        D = F2.vsub(I[None, :], I[a:a + step, None])
        torn = ~_bulk.adjacent_mask(F2, D) & (members[None, :] > members[a:a + step, None])
        if torn.any():
            i, j = np.unravel_index(np.argmax(torn), torn.shape)
            return int(members[a + i]), int(members[j])
    return None


def is_colouring(f: MapTable) -> bool:
    """True iff the whole image is one adjacent set: the distinct images,
    taken as differences from the first, pass the clique test."""
    rows = f.images.reshape(f.count, -1).view(np.dtype((np.void, f.images[0].nbytes)))
    pts = np.unique(rows).view(f.images.dtype).reshape(-1, f.m2, f.n2)
    if len(pts) < 2:
        return True
    return bool(_pass_test(f.dst_field, f.dst_field.vsub(pts[None, 1:], pts[0]))[0][0])


# Byte budget for one block of the degeneracy scan's difference stack
# (centers x ball points x target entries, sized at 8 bytes an entry); it
# bounds the scan's working memory whatever the table's shape.
_DEGENERACY_BLOCK_BYTES = 2 << 20


def is_degenerate(f: MapTable):
    """Search for a collapsed unit ball around a rank <= 1 center.

    Returns (True, (A, M, N)) with the center and the two opposite-kind
    cliques hosting the ball image, or (False, None).  Raises NotHom when
    some ball edge is torn, since the search presumes a homomorphism.
    The first center in code order that tears or has a two-clique cover
    decides.  Centers whose cliques all pass the clique test, none of them
    a line clique, are decided from the clique summary; the others are
    scanned, a block of them at a time.  The verdict is kept on the table;
    a NotHom is raised again on every call.
    """
    if "is_degenerate" in f._verdicts:
        return f._verdicts["is_degenerate"]
    sp = f.src_space()
    ball0 = np.sort(np.concatenate([np.zeros(1, dtype=np.int64), sp.rank1_codes]))
    scan, covered = _summary_decisions(f._clique_summary, sp.cliques_through(ball0))
    stop = int(np.argmax(covered)) if covered.any() else len(ball0)
    center = ball0[stop] if stop < len(ball0) else None
    todo = ball0[:stop][scan[:stop]]
    block = max(1, _DEGENERACY_BLOCK_BYTES // (len(ball0) * f.m2 * f.n2 * 8))
    for start in range(0, len(todo), block):
        hit = _ball_hits(f, ball0, todo[start:start + block])
        if hit.any():
            center = todo[start + int(np.argmax(hit))]
            break
    verdict = (False, None) if center is None else _center_verdict(f, int(center), ball0)
    f._verdicts["is_degenerate"] = verdict
    return verdict


def _summary_decisions(summary: _CliqueSummary, through):
    """(scan, covered) per center, from the cliques through it (the rows of
    through, one clique per direction).

    The unit ball around a center A is the union of the cliques of one
    kind through A (either kind will do; these are of the kind of
    ``clique_members``).  Let each of them pass and none be a line clique.
    Then the image of each, f(A) included, lies in exactly one target
    maximal clique: the column clique through f(A) of its column generator
    u_C, or the row clique of its row generator v_C.  Its images are
    distinct, so those of the ball points other than A differ from f(A)
    in rank 1, and no ball edge tears.
    The ball image lies in the column clique of some u0 and the row clique
    of some v0 iff all column-kind cliques share u_C = u0 and all row-kind
    ones share v_C = v0.  One way is plain.  For the other, a column-kind
    clique with u_C != u0 would need every difference u_C w of its images
    from f(A) to have row generator v0; then its image lies on a line,
    which it does not.  A center on a failing or a line clique is left to
    the scan: scan marks it, and covered is False there.
    """
    scan = ~summary.passes[through].all(axis=1) | summary.line[through].any(axis=1)
    col = summary.col[through]
    keys = np.moveaxis(summary.gen[through], -1, 0)
    return scan, ~scan & _all_equal(keys, col) & _all_equal(keys, ~col)


def _ball_hits(f: MapTable, ball0, centers):
    """Per center of the block: does its ball tear or have a two-clique cover?"""
    F2 = f.dst_field
    balls = f.src_space().code_add(ball0[None, :], centers[:, None])
    D = F2.vsub(f.images[balls], f.images[centers][:, None])
    nz = D.any(axis=(2, 3))
    torn = nz & ~_bulk.rank_le1_mask(F2, D)
    return torn.any(axis=1) | _has_two_clique_cover(F2, D, nz)


def _has_two_clique_cover(F2: Field, D, nz):
    """Per center (row of the (B, K) stack D): do the nonzero differences
    all share u0 or v0 with one pair (u0, v0) of column and row generators?

    Some item has u0 or v0 itself, so a pair exists iff the items whose u
    differs from the first item's all share one v, or the items whose v
    differs from the first item's all share one u.  A row with no nonzero
    item (a ball collapsed to a point) is covered vacuously.  Generators
    are compared as entry rows, never as destination codes.
    """
    Dnz = D[nz]
    u, v = (np.zeros((D.shape[a],) + nz.shape, dtype=F2.dtype) for a in (2, 3))
    u[:, nz] = _bulk.generators(F2, Dnz, "col").T
    v[:, nz] = _bulk.generators(F2, Dnz, "row").T
    first = np.argmax(nz, axis=1)
    return (_all_equal(v, nz & ~_matches(u, first))
            | _all_equal(u, nz & ~_matches(v, first)))


def _matches(keys, index):
    """Per row b of the (E, B, K) entry stack: which of its K items equal item index[b]?"""
    return (keys == np.take_along_axis(keys, index[None, :, None], axis=2)).all(axis=0)


def _all_equal(keys, mask):
    """Per row: do the masked items all agree?  (Vacuously so when none are.)"""
    return (_matches(keys, np.argmax(mask, axis=1)) | ~mask).all(axis=1)


def _center_verdict(f: MapTable, center: int, ball0):
    """The verdict at the deciding center, from its ball: NotHom on a tear,
    else the center and the two cliques hosting its ball image."""
    F2 = f.dst_field
    ball = f.src_space().code_add(ball0, center)
    D = F2.vsub(f.images[ball], f.images[center])
    nz = D.any(axis=(1, 2))
    torn = nz & ~_bulk.rank_le1_mask(F2, D)
    A = Mat.decode(f.src_field, center, f.m, f.n)
    if torn.any():
        bad = int(np.argmax(torn))
        raise NotHom("ball image tears: not a graph homomorphism",
                     witness=(Mat.decode(f.src_field, int(ball[bad]), f.m, f.n), A))
    # a ball collapsed to a point lies on any opposite-kind pair
    Dnz = D[nz]
    pick = (None, None)
    if len(Dnz):
        us = _bulk.generators(F2, Dnz, "col")
        vs = _bulk.generators(F2, Dnz, "row")
        pick = _stab_with_two(us, vs)
    if pick is None:
        raise TheoremViolated("the two-clique cover test and its witness search disagree")
    iu, iv = pick
    u = us[iu] if iu is not None else np.eye(f.m2, dtype=F2.dtype)[:, 0]
    v = vs[iv] if iv is not None else np.eye(f.n2, dtype=F2.dtype)[:, 0]
    cimg = Mat(F2, f.images[center])
    return True, (A, MaximalSet.through(Kind.ONE, u, cimg),
                  MaximalSet.through(Kind.TWO, v, cimg))


def _stab_with_two(us, vs):
    """Indices (iu, iv) such that every item shares u with iu or v with iv.

    u and v are generator rows, or codes, which sort alike.  Either side
    may be None when one family alone covers everything.  Returns None
    when no such pair exists.
    """
    if (us == us[0]).all():
        return 0, None
    if (vs == vs[0]).all():
        return None, 0
    for iu in np.unique(us, axis=0, return_index=True)[1]:
        rest = (us != us[iu]).reshape(len(us), -1).any(axis=1)
        if (vs[rest] == vs[rest][0]).all():
            return int(iu), int(np.nonzero(rest)[0][0])
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
    basis = np.array([big.pow(gamma, j) for j in range(s)], dtype=np.int64)

    sp = space(field, m, n)
    X = sp.entries if n >= m else np.swapaxes(sp.entries, 1, 2)
    rows = X.shape[1]

    # a row x folds to sum_j basis_j emb(x_j) and X's syndrome is
    # sum_i basis_i fold(row i): one dot product over X's row-major entries
    emb_table = emb.table.astype(big.dtype)  # narrow: emb_table[X] is the big temporary
    weights = big.vmul(basis[:rows, None], basis[None, :]).reshape(-1, 1)
    syndrome = _bulk.matmul(big, emb_table[X].reshape(sp.count, 1, -1), weights)[:, 0, 0]

    # invert the fold: element of the big field -> coordinate row over field
    coords = np.empty((big.q, s), dtype=field.dtype)
    codes = np.arange(field.q ** s, dtype=np.int64)
    vecs = _bulk.decode(field, codes, 1, s)[:, 0, :]
    elts = _bulk.matmul(big, emb_table[vecs], basis[:, None])[:, 0]
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
