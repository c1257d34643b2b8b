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

from . import _bulk, cliques
from .cliques import Kind, MaximalSet, _clique_test, _first_torn_pair, _unique_points
from .errors import (InvalidParams, InvalidXi, NoHomExists, NotHom,
                     ShapeMismatch, Singular, SingularTwist, TheoremViolated)
from .fields import (Field, FieldHom, _check_indices, enumerate_homs, field_from_order,
                     make_field)
from .matrices import (Mat, _row_blocks, bounded, bounded_power, random_invertible, space,
                       table_budget)

# hom_exists' powers q^max(m,n): 2^(2^20), far above 65536^4096 = 2^65536,
# the largest target power of a table within TABLE_LIMIT (n'^2 <= 2^24)
EXISTS_LIMIT = 1 << (1 << 20)


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
        raw = np.asarray(images)
        count = table_budget(src_field.q, m, n, m2, n2)
        if raw.shape != (count, m2, n2):
            raise ShapeMismatch(
                f"need {count} images of shape ({m2}, {n2}), got {raw.shape}")
        images = _check_indices(raw, dst_field.q,
                                "image entry out of range for the target field")
        images = images.astype(dst_field.dtype)
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


def _fits(o: Orientation, m: int, n: int, m2: int, n2: int) -> bool:
    """Does an m' x n' target hold the m x n core of this orientation?"""
    if o is Orientation.STRAIGHT:
        return m2 >= m and n2 >= n
    return m2 >= n and n2 >= m


def _twist_shape(o: Orientation, m: int, n: int):
    """The twist matrix's shape: n x m straight, m x n transposed."""
    return (n, m) if o is Orientation.STRAIGHT else (m, n)


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
        o = self.orientation
        if not _fits(o, self.m, self.n, self.m2, self.n2):
            raise InvalidParams(f"target too small for the {o.value} form")
        if self.L.shape != _twist_shape(o, self.m, self.n):
            shape = "n x m" if o is Orientation.STRAIGHT else "m x n"
            raise InvalidParams(f"{o.value} form needs an {shape} twist matrix")
        if not (_bulk.invertible_mask(dst, self.P.a) and _bulk.invertible_mask(dst, self.Q.a)):
            raise Singular("matrix has no inverse")

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
    G = I + L X and twists to X G^-1.  L is one matrix or a stack that
    broadcasts against X: a (B, 1, ., .) stack of twists gives (B, N)
    denominators.  Returns (ok, twisted): ok masks the invertible
    denominators, twisted is None unless invert is set and every
    denominator is invertible.  Up to _bulk.ADJUGATE_MAX one determinant of
    the stack gives both ok and the adjugate inverse's scale.

    One all-zero twist matrix (L.ndim == 2) makes every denominator I, so
    ok is all True and the twisted stack is X itself, with no kernel call;
    callers must not write into it.  A stack of twists that merely holds a
    zero L takes the full path.
    """
    if L.ndim == 2 and not L.any():
        return np.ones(X.shape[:-2], dtype=bool), X if invert else None
    if side is TwistSide.LEFT:
        prod = _bulk.matmul(F, X, L)
    else:
        prod = _bulk.matmul(F, L, X)
    G = F.vadd(np.broadcast_to(_bulk.identity(F, prod.shape[-1]), prod.shape), prod)
    d = _bulk.det(F, G) if G.shape[-1] <= _bulk.ADJUGATE_MAX else None
    ok = _bulk.invertible_mask(F, G) if d is None else d != 0
    if not (invert and ok.all()):
        return ok, None
    Ginv = _bulk.inverse(F, G, d)
    if side is TwistSide.LEFT:
        return ok, _bulk.matmul(F, Ginv, X)
    return ok, _bulk.matmul(F, X, Ginv)


def _oriented(tau: FieldHom, orientation: Orientation, xs):
    """(X, side): the images X^tau (transposed for the transposed form) and
    the side whose resolvent is the core of the standard form."""
    Xt = tau.vapply(xs)
    if orientation is Orientation.STRAIGHT:
        return Xt, TwistSide.LEFT
    return np.swapaxes(Xt, 1, 2), TwistSide.RIGHT


def _standard_images(params: StandardHomParams, xs):
    """(N, m, n) -> (N, m', n') images P diag(core, 0) Q, or raise with a
    witness.  Only P's first columns and Q's first rows meet the core."""
    F = params.dst_field
    X, side = _oriented(params.tau, params.orientation, xs)
    ok, core = _resolvent(F, X, params.L.a, side)
    if core is None:
        code = int(np.nonzero(~ok)[0][0])
        raise InvalidParams("denominator singular inside the domain",
                            witness=Mat(params.src_field, xs[code]))
    r, c = core.shape[1:]
    return _bulk.matmul(F, params.P.a[:, :r], _bulk.matmul(F, core, params.Q.a[:c]))


def eval_standard(params: StandardHomParams, X: Mat) -> Mat:
    """Evaluate the standard form at one point."""
    if X.field != params.src_field or X.shape != (params.m, params.n):
        raise ShapeMismatch("argument outside the declared source space")
    return Mat(params.dst_field, _standard_images(params, X.a[None])[0])


def standard_table(params: StandardHomParams) -> MapTable:
    """Materialize the whole map; validates invertibility along the way."""
    sp = space(params.src_field, params.m, params.n)
    return MapTable(params.src_field, params.m, params.n, params.dst_field,
                    params.m2, params.n2, _standard_images(params, sp.entries))


def validate_params(params: StandardHomParams):
    """(True, None) when the denominator stays invertible; else (False, X).

    Also checks the two-sided equivalence: the m x m denominators are all
    invertible iff the n x n mirrors are, and where valid the two resolvent
    expressions agree at every point.  A failure of either raises
    TheoremViolated.
    """
    sp = space(params.src_field, params.m, params.n)
    X, side = _oriented(params.tau, params.orientation, sp.entries)
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


# Byte budget for one block of the twist search's whole-space denominator
# stack (candidates x source points x m x m in either orientation, sized at
# 8 bytes an entry), its largest array; it bounds the search's working
# memory whatever the number of tries.
_TWIST_BLOCK_BYTES = 2 << 20


def random_valid_params(rng, src_field: Field, m: int, n: int,
                        dst_field: Field, m2: int, n2: int,
                        orientation: Orientation | None = None,
                        nonzero_L_tries: int = 400) -> StandardHomParams:
    """Sample a valid parameter tuple, preferring a nonzero twist matrix.

    Draws the orientation (unless given), tau, P and Q, then up to
    nonzero_L_tries candidate twists L and keeps the first nonzero one with
    every denominator invertible, else L = 0.  Valid twists are sparse
    (0.5 % at GF(4) 2x2 inside GF(16)), so the candidates are checked in
    blocks: on the rank-1 points by one trace product, then on the whole
    space by one determinant stack; the chosen L and the rng state
    afterwards are those of drawing and checking one candidate at a time.
    A surjective tau admits only L = 0 (any nonzero twist makes some
    denominator singular), so the search is skipped in that case.  Raises
    InvalidParams before any draw when the target cannot hold the source
    in the asked (or in either) orientation, and DomainTooLarge when the
    table would be past the table budget.
    """
    table_budget(src_field.q, m, n, m2, n2)
    taus = enumerate_homs(src_field, dst_field)
    if not taus:
        raise ValueError("no field homomorphism between these fields")
    fitting = [o for o in Orientation if _fits(o, m, n, m2, n2)]
    if orientation is None:
        if not fitting:
            raise InvalidParams(f"target too small for either form: "
                                f"{m}x{n} source, {m2}x{n2} target")
        orientation = fitting[rng.integers(len(fitting))]
    elif orientation not in fitting:
        raise InvalidParams(f"target too small for the {orientation.value} form: "
                            f"{m}x{n} source, {m2}x{n2} target")
    tau = taus[rng.integers(len(taus))]
    P = random_invertible(rng, dst_field, m2)
    Q = random_invertible(rng, dst_field, n2)
    found = None if tau.is_surjective() else _first_valid_twist(
        rng, tau, orientation, m, n, nonzero_L_tries)
    L = (Mat.zeros(dst_field, *_twist_shape(orientation, m, n)) if found is None
         else Mat(dst_field, found))
    return StandardHomParams(orientation, P, Q, tau, L, m, n)


def _first_valid_twist(rng, tau: FieldHom, orientation: Orientation,
                       m: int, n: int, tries: int):
    """The first of `tries` random candidate twists that is nonzero and
    keeps every denominator invertible, or None.

    The rng stream is the one of drawing the candidates one at a time and
    stopping at the first valid one (or after all of them): each block of
    candidates is drawn in one call, and when a block holds a valid one
    the rng is rewound to the block's start and advanced past that one
    only.  Per block, the nonzero candidates are checked on the rank-1
    points first, which reject nearly every invalid twist, and the
    survivors on the whole source space: one trace product
    (``_rank1_traces``), then one determinant stack.
    """
    F2, sp = tau.dst, space(tau.src, m, n)
    X1, _ = _oriented(tau, orientation, sp.rank1)
    X, side = _oriented(tau, orientation, sp.entries)
    X1 = X1.reshape(len(X1), m * n)
    shape = _twist_shape(orientation, m, n)
    for block in _row_blocks(tries, len(X) * m * m * 8, _TWIST_BLOCK_BYTES):
        size = block.stop - block.start
        state = rng.bit_generator.state
        cands = rng.integers(0, F2.q, size=(size,) + shape).astype(F2.dtype)
        live = np.flatnonzero(cands.any(axis=(1, 2)))
        traces = _rank1_traces(F2, X1, cands[live])
        live = live[(traces != F2.neg(1)).all(axis=0)]
        if len(live):
            ok, _ = _resolvent(F2, X, cands[live, None], side, invert=False)
            live = live[ok.all(axis=-1)]
        if len(live):
            rng.bit_generator.state = state
            rng.integers(0, F2.q, size=(live[0] + 1,) + shape)
            return cands[live[0]]
    return None


def _rank1_traces(F: Field, X1, L):
    """(N, B) traces tr(X L) of the flat (N, mn) stack X1 of rank-1 points,
    oriented as ``_oriented`` gives them, against a (B, ., .) stack of
    twists: one product of the points with the flat transposed twists.

    At a rank-1 X the determinant lemma gives det(I + X L) = det(I + L X)
    = 1 + tr(X L) on either side, so a denominator is singular exactly
    where its trace is -1.
    """
    flat = np.swapaxes(L, 1, 2).reshape(len(L), X1.shape[1])
    return _bulk.matmul(F, X1, flat.T)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def is_graph_hom(f: MapTable, mode: str = "exhaustive", samples: int = 10**5,
                 seed: int = 0):
    """Do adjacent arguments always map to adjacent images?

    Exhaustive mode tests every maximal clique of the source's cheaper kind
    (``MatrixSpace.clique_members``), which together hold every edge once;
    sampled mode draws the given number, at most SPACE_LIMIT, of random
    adjacent pairs.  Returns (ok, witness) where the witness, if any, is
    the lexicographically first violating pair (by source codes).  The
    exhaustive verdict is kept on the table and returned by later
    exhaustive calls.
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
        bounded(samples, f"sampled pairs = {samples}")
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


@dataclass(frozen=True)
class _CliqueSummary:
    """The clique test's outcome per row of ``MatrixSpace.clique_members``.

    passes: the differences D = f(member) - f(base) all have rank 1, share
    one column or one row generator, and are distinct.  u (m' entries), v
    (n' entries): their shared monic column and row generators, each zero
    where none is shared.  A passing clique with both has its image on one
    target line (which needs a target field of at least q^max(m, n)
    elements).  Generators are entry rows, never destination codes.
    """

    passes: np.ndarray
    u: np.ndarray
    v: np.ndarray


def _summarise_cliques(F2: Field, img, rows) -> _CliqueSummary:
    """The clique test on every clique, a row of members (ascending, base
    first) each, a block of ``cliques._CLIQUE_BLOCK_BYTES`` at a time.  The
    images are transposed once to (m', n', count) entry planes, so a
    block's (m', n', cliques, members - 1) differences from the bases are
    one gather and one subtraction."""
    planes, parts = np.moveaxis(img, 0, -1).copy(), []
    for block in _row_blocks(len(rows), rows.shape[1] * img[0].size * 8,
                             cliques._CLIQUE_BLOCK_BYTES):
        pts = planes.take(rows[block], axis=2)  # plane-major; a fancy index is item-major
        parts.append(_clique_test(F2, F2.vsub(pts[..., 1:], pts[..., :1])))
    return _CliqueSummary(*(np.concatenate(a) for a in zip(*parts)))


def _first_torn_edge(f: MapTable):
    """The lexicographically first edge (lo, hi) of the source whose images
    are not adjacent, or None.

    Every edge lies in a clique of ``clique_members``, and a torn one in a
    clique that fails the clique test.  Pairs are scanned only inside the
    failing cliques, by increasing base code, until the base passes the
    best lo found.
    """
    F2, img, rows = f.dst_field, f.images, f.src_space().clique_members
    failing = np.nonzero(~f._clique_summary.passes)[0]
    best = None
    for t in failing[np.argsort(rows[failing, 0], kind="stable")]:
        members = rows[t]
        if best is not None and members[0] > best[0]:
            break
        stop = None if best is None else np.searchsorted(members, best[0], "right")
        pair = _first_torn_pair(F2, img[members], stop)
        if pair is None and best is None:
            raise TheoremViolated("a failing clique has no torn pair")
        if pair is not None:
            edge = tuple(int(members[i]) for i in pair)
            best = min(best or edge, edge)
    return best


def is_colouring(f: MapTable) -> bool:
    """True iff the whole image is one adjacent set: the distinct images,
    taken as differences from the first, pass the clique test."""
    pts = _unique_points(f.dst_field, [f.images])[0]
    if len(pts) < 2:
        return True
    D = f.dst_field.vsub(pts[None, 1:], pts[0])
    return bool(_clique_test(f.dst_field, np.moveaxis(D, (0, 1), (2, 3)))[0][0])


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
    decides.  Centers whose cliques all pass the clique test are decided,
    witness included, from the clique summary; the others are scanned, a
    block of them at a time.  A cover is returned only once the deciding
    ball's image is seen to lie in the union of M and N.  The verdict is
    kept on the table; a NotHom is raised again on every call.
    """
    if "is_degenerate" in f._verdicts:
        return f._verdicts["is_degenerate"]
    sp, summary = f.src_space(), f._clique_summary
    ball0 = np.sort(np.concatenate([np.zeros(1, dtype=np.int64), sp.rank1_codes]))
    through = sp.cliques_through(ball0)
    passing = summary.passes[through]
    scan = ~passing.all(axis=1)
    covered, u, v = _two_clique_cover(np.moveaxis(summary.u[through], -1, 0),
                                      np.moveaxis(summary.v[through], -1, 0), passing)
    covered &= ~scan
    stop = int(np.argmax(covered)) if covered.any() else len(ball0)
    pick = (ball0[stop], u[:, stop], v[:, stop]) if stop < len(ball0) else None
    todo = ball0[:stop][scan[:stop]]
    for block in _row_blocks(len(todo), len(ball0) * f.m2 * f.n2 * 8, _DEGENERACY_BLOCK_BYTES):
        centers = todo[block]
        torn, covered, u, v = _ball_hits(f, ball0, centers)
        hit = torn.any(axis=1) | covered
        if hit.any():
            b = int(np.argmax(hit))
            if torn[b].any():
                X = sp.code_add(ball0[np.argmax(torn[b])], centers[b])
                raise NotHom("ball image tears: not a graph homomorphism",
                             witness=(sp.mat(X), sp.mat(centers[b])))
            pick = (centers[b], u[:, b], v[:, b])
            break
    verdict = (False, None) if pick is None else _cover_verdict(f, ball0, *pick)
    f._verdicts["is_degenerate"] = verdict
    return verdict


def _ball_hits(f: MapTable, ball0, centers):
    """(torn, covered, u, v) for a block of centers: which of their ball
    items tear, and the two-clique cover of their nonzero differences."""
    F2 = f.dst_field
    balls = f.src_space().code_add(ball0[None, :], centers[:, None])
    D = F2.vsub(f.images[balls], f.images[centers][:, None])
    nz = D.any(axis=(2, 3))
    Dnz = D[nz]
    u, v = (np.zeros((D.shape[a],) + nz.shape, dtype=F2.dtype) for a in (2, 3))
    u[:, nz] = _bulk.generators(F2, Dnz, "col").T
    v[:, nz] = _bulk.generators(F2, Dnz, "row").T
    return (nz & ~_bulk.rank_le1_mask(F2, D),) + _two_clique_cover(u, v, nz)


def _two_clique_cover(u, v, mask):
    """Per row b of the (E, B, K) column and row generator stacks u and v:
    is there a pair (u0, v0) with u = u0 or v = v0 at every masked item?
    Returns (covered, u0, v0), the pairs as (E, B) stacks.

    A zero generator matches nothing, and a side left free comes back as
    zero (a row with no masked item is covered by (0, 0)).  The pair is
    (u0, 0) when every item has u0, else (0, v0) when every item has v0.
    Otherwise the first item has u0 or v0, so the pair is (u of the first
    item, the v shared by the items whose u differs) or (the u shared by
    the items whose v differs, v of the first item): where both hold, the
    one whose u is lexicographically smaller.

    ``is_degenerate`` asks this of two kinds of item around a center A,
    which admit the same pairs and so give the same answer.  The ball scan
    passes the nonzero differences f(X) - f(A) over A's unit ball.  The
    summary passes the source cliques through A of the kind of
    ``clique_members`` (one per direction; their union is the ball), each
    with the generators (u_C, v_C) its clique test shares, all of them
    passing.  Then each clique image, f(A) included, lies in the target
    column clique through f(A) of u_C or the row clique of v_C, and its
    images are distinct, so its differences from f(A) are nonzero and no
    ball edge tears.  On a line clique every difference has generators
    (u_C, v_C): it is covered iff u_C = u0 or v_C = v0.  A column-kind
    clique off a line has every difference with column generator u_C and
    row generators not all one (else it lies on a line): it is covered iff
    u_C = u0, as its zero v_C says.  Row-kind cliques likewise.
    """
    def first(keys, where):  # the first item's row where there is one, else zero
        row = np.take_along_axis(keys, np.argmax(where, axis=1)[None, :, None], axis=2)
        return np.where(where.any(axis=1), row[..., 0], 0)

    def on(keys, key):  # the items equal to a nonzero key
        return (keys == key[..., None]).all(axis=0) & key.any(axis=0)[:, None]

    u1, v1 = first(u, mask), first(v, mask)
    off_u1, off_v1 = mask & ~on(u, u1), mask & ~on(v, v1)
    u2, v2 = first(u, off_v1), first(v, off_u1)
    ok1 = ~(off_u1 & ~on(v, v2)).any(axis=1)
    ok2 = ~(off_v1 & ~on(u, u2)).any(axis=1)
    at = np.argmax(u1 != u2, axis=0)[None]  # u2 < u1 at the first entry they differ in
    smaller = (np.take_along_axis(u2, at, 0) < np.take_along_axis(u1, at, 0))[0]
    take2 = ok2 & off_u1.any(axis=1) & (smaller | ~ok1)
    return ok1 | ok2, np.where(take2, u2, u1), np.where(take2, v1, v2)


def _cover_verdict(f: MapTable, ball0, center, u, v):
    """(True, (A, M, N)): the center A and the column clique of u and the
    row clique of v through its image (e1 for a zero generator), once
    every image of A's ball lies in M or N."""
    F2, cimg = f.dst_field, Mat(f.dst_field, f.images[center])
    M = MaximalSet(Kind.ONE, u if u.any() else np.eye(f.m2, dtype=F2.dtype)[:, 0], cimg)
    N = MaximalSet(Kind.TWO, v if v.any() else np.eye(f.n2, dtype=F2.dtype)[:, 0], cimg)
    ball = f.images[f.src_space().code_add(ball0, center)]
    if not (M.contains_batch(ball) | N.contains_batch(ball)).all():
        raise TheoremViolated("the ball image leaves its two-clique cover")
    return True, (f.src_space().mat(center), M, N)


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
    """q^max(m,n) <= q2^max(m2,n2), in exact integer arithmetic; either
    power past EXISTS_LIMIT is DomainTooLarge."""
    if min(q, m, n, q2, m2, n2) < 1:
        raise ValueError("all parameters must be positive")
    field_from_order(q), field_from_order(q2)  # validates prime powers
    bound = f"power bound 2^{EXISTS_LIMIT.bit_length() - 1}"
    return (bounded_power(q, max(m, n), "q^max(m,n)", EXISTS_LIMIT, bound)
            <= bounded_power(q2, max(m2, n2), "q'^max(m',n')", EXISTS_LIMIT, bound))


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
    table_budget(q, m, n, m2, n2)
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
