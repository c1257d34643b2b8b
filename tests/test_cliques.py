"""Maximal cliques, intersections, lines, dimension, unit balls."""

import functools
import time

import numpy as np
import pytest

from bfgeo import _bulk, cliques, verify
from bfgeo.cliques import (Kind, Line, MaximalSet, VertexSet, classify_clique,
                           clique_number, dim_adjacent_entries, dim_adjacent_set,
                           intersect, line_through, maximal_sets_through, unit_ball)
from bfgeo.errors import (Disjoint, NotAdjacent, NotAdjacentSet, NotMaximal,
                          PreconditionViolated, ShapeMismatch, TheoremViolated,
                          WrongKinds, ZeroNotMember)
from bfgeo.fields import make_field
from bfgeo.homs import Orientation, random_valid_params, standard_table
from bfgeo.matrices import Mat, adjacent, space

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)
F16 = make_field(2, 4)
F256 = make_field(2, 8)


def std_row_clique(field, m, n, i):
    """The clique of matrices supported on row i, through 0."""
    return MaximalSet(Kind.ONE, np.eye(m, dtype=field.dtype)[:, i], Mat.zeros(field, m, n))


def std_col_clique(field, m, n, j):
    return MaximalSet(Kind.TWO, np.eye(n, dtype=field.dtype)[:, j], Mat.zeros(field, m, n))


def is_maximal_clique_oracle(S: VertexSet) -> bool:
    """Independent check by batched rank: pairwise adjacent, and no point
    outside is adjacent to every member."""
    F = S.field
    sp = space(F, S.m, S.n)
    pts = S.entries()
    inside = _bulk.rank(F, F.vsub(pts[:, None], pts[None]).reshape(-1, S.m, S.n))
    if not (inside.reshape(len(pts), len(pts)) == 1 - np.eye(len(pts), dtype=int)).all():
        return False
    outside = np.ones(sp.count, dtype=bool)
    outside[S.codes] = False
    diffs = F.vsub(sp.entries[outside][:, None], pts[None])
    ranks = _bulk.rank(F, diffs.reshape(-1, S.m, S.n)).reshape(-1, len(pts))
    return not (ranks == 1).all(axis=1).any()


def test_member_basics():
    M1 = std_row_clique(F4, 2, 2, 0)
    N1 = std_col_clique(F4, 2, 2, 0)
    for x in range(4):
        for y in range(4):
            X = Mat(F4, [[x, y], [0, 0]])
            assert M1.contains(X)
    E21 = Mat.unit(F4, 2, 2, 1, 0)
    assert not M1.contains(E21)
    assert N1.contains(E21)


def test_a_maximal_set_is_a_kind_a_monic_direction_and_an_offset():
    A = Mat.unit(F5, 2, 3, 1, 2, c=4)
    M = MaximalSet(Kind.ONE, [0, 3], A)
    assert M.direction.tolist() == [0, 1]
    assert M == MaximalSet(Kind.ONE, [0, 1], A)
    assert np.array_equal(M.point_entries(), MaximalSet(Kind.ONE, [0, 1], A).point_entries())
    # members A + u (x) w, in the order of w's codes
    w = space(F5, 1, 3).entries[:, 0, :]
    want = F5.vadd(F5.vmul(M.direction[None, :, None], w[:, None, :]), A.a)
    assert np.array_equal(M.point_entries(), want)
    N = MaximalSet(Kind.TWO, [2, 0, 4], A)
    assert N.direction.tolist() == [1, 0, 2]
    assert N.contains(A) and not N.contains(A + Mat.unit(F5, 2, 3, 0, 1))
    with pytest.raises(ShapeMismatch):
        MaximalSet(Kind.ONE, [1, 0, 0], A)
    with pytest.raises(ShapeMismatch):
        MaximalSet(Kind.TWO, [[1, 0, 0]], A)
    with pytest.raises(ValueError, match="zero vector"):
        MaximalSet(Kind.TWO, [0, 0, 0], A)
    with pytest.raises(ValueError, match="outside"):
        MaximalSet(Kind.ONE, [1, 5], A)
    with pytest.raises(ValueError, match="integers"):
        MaximalSet(Kind.ONE, [1.0, 0.5], A)


def test_line_coordinates_are_relative_to_the_monic_direction():
    A = Mat.zeros(F5, 2, 2)
    ell = line_through(MaximalSet(Kind.ONE, [0, 2], A), MaximalSet(Kind.TWO, [3, 3], A))
    assert ell.host.direction.tolist() == [0, 1]
    assert ell.alpha.tolist() == [1, 1] and ell.beta.tolist() == [0, 0]
    assert ell.points() == intersect(ell.host, MaximalSet(Kind.TWO, [1, 1], A))


def test_maximal_sets_through_standard_pairs():
    Z = Mat.zeros(F4, 2, 2)
    one, two = maximal_sets_through(Z, Mat.unit(F4, 2, 2, 0, 0))
    assert one == std_row_clique(F4, 2, 2, 0)
    assert two == std_col_clique(F4, 2, 2, 0)
    one2, two2 = maximal_sets_through(Z, Mat.unit(F4, 2, 2, 1, 1, c=2))
    assert one2 == std_row_clique(F4, 2, 2, 1)
    assert two2 == std_col_clique(F4, 2, 2, 1)
    with pytest.raises(NotAdjacent):
        maximal_sets_through(Z, Z)


def test_maximal_sets_through_random_pairs_are_maximal_cliques():
    rng = np.random.default_rng(2)
    sp = space(F4, 2, 3)
    for _ in range(5):
        A = sp.mat(int(rng.integers(sp.count)))
        R = Mat(F4, sp.rank1[rng.integers(len(sp.rank1))])
        B = A + R
        one, two = maximal_sets_through(A, B)
        for M in (one, two):
            assert M.contains(A) and M.contains(B)
            assert is_maximal_clique_oracle(M.points())
        # the oracle refuses a proper subset and a set with a non-edge
        pts = one.points()
        assert not is_maximal_clique_oracle(VertexSet(F4, 2, 3, pts.codes[:-1]))
        far = VertexSet.from_entries(F4, np.concatenate([pts.entries(), two.points().entries()]))
        assert not is_maximal_clique_oracle(far)


def test_intersect_cardinalities():
    M1 = std_row_clique(F4, 2, 2, 0)
    M2 = std_row_clique(F4, 2, 2, 1)
    N1 = std_col_clique(F4, 2, 2, 0)
    cross = intersect(M1, N1)
    assert len(cross) == 4
    assert set(int(c) for c in cross.codes) == \
        {Mat.unit(F4, 2, 2, 0, 0, c=x).encode() for x in range(4)}
    point = intersect(M1, M2)
    assert len(point) == 1 and point.contains(Mat.zeros(F4, 2, 2))
    shifted = MaximalSet(Kind.ONE, M1.direction, Mat.unit(F4, 2, 2, 1, 0))
    assert len(intersect(M1, shifted)) == 0


def test_classify_full_standard_clique():
    M1 = std_row_clique(F4, 2, 2, 0)
    got = classify_clique(M1.points())
    assert got.kind is Kind.ONE
    assert got.direction.tolist() == [1, 0]
    assert got.offset == Mat.zeros(F4, 2, 2)


def test_classify_proper_clique_returns_witness():
    S = VertexSet.from_entries(F4, [Mat.zeros(F4, 2, 2).a, Mat.unit(F4, 2, 2, 0, 0).a])
    with pytest.raises(NotMaximal) as exc:
        classify_clique(S)
    w = exc.value.witness
    assert not S.contains(w)
    assert all(adjacent(w, M) for M in S)


def test_classify_rejects_non_adjacent_sets():
    S = VertexSet.from_entries(F4, [Mat.zeros(F4, 2, 2).a, Mat.identity(F4, 2).a])
    with pytest.raises(NotAdjacentSet):
        classify_clique(S)
    with pytest.raises(NotAdjacentSet):
        classify_clique(VertexSet(F4, 2, 2, []))


def test_classify_recovers_transformed_cliques():
    from bfgeo.matrices import random_invertible
    rng = np.random.default_rng(9)
    sp = space(F5, 2, 2)
    for _ in range(100):
        P = random_invertible(rng, F5, 2)
        A = sp.mat(int(rng.integers(sp.count)))
        # P M1 + A: matrices P [x;0] + A
        pts = []
        for xcode in range(25):
            x = _bulk.decode(F5, np.int64(xcode), 1, 2)
            blk = np.zeros((2, 2), dtype=F5.dtype)
            blk[0] = x[0]
            pts.append(P @ Mat(F5, blk) + A)
        got = classify_clique(VertexSet.from_entries(F5, [M.a for M in pts]))
        assert got.kind is Kind.ONE
        member_codes = {M.encode() for M in pts}
        got_codes = {int(c) for c in _bulk.encode(F5, got.point_entries())}
        assert member_codes == got_codes


def test_lines():
    M1 = std_row_clique(F4, 2, 2, 0)
    N1 = std_col_clique(F4, 2, 2, 0)
    N2 = std_col_clique(F4, 2, 2, 1)
    ell = line_through(M1, N1)
    assert set(int(c) for c in ell.points().codes) == \
        {Mat.unit(F4, 2, 2, 0, 0, c=x).encode() for x in range(4)}
    ell2 = line_through(M1, N2)
    assert set(int(c) for c in ell2.points().codes) == \
        {Mat.unit(F4, 2, 2, 0, 1, c=x).encode() for x in range(4)}
    with pytest.raises(WrongKinds):
        line_through(M1, std_row_clique(F4, 2, 2, 1))
    # offset difference supported off row 1 and column 1 forces disjointness
    shifted = MaximalSet(Kind.TWO, N1.direction, Mat.unit(F4, 2, 2, 1, 1))
    with pytest.raises(Disjoint):
        line_through(M1, shifted)


def test_line_equals_intersection_random():
    rng = np.random.default_rng(4)
    sp = space(F4, 2, 3)
    hits = 0
    while hits < 5:
        A = sp.mat(int(rng.integers(sp.count)))
        R1 = Mat(F4, sp.rank1[rng.integers(len(sp.rank1))])
        R2 = Mat(F4, sp.rank1[rng.integers(len(sp.rank1))])
        one, _ = maximal_sets_through(A, A + R1)
        _, two = maximal_sets_through(A, A + R2)
        pts = intersect(one, two)
        if len(pts) == 0:
            continue
        hits += 1
        ell = line_through(one, two)
        assert ell.points() == pts
        assert len(pts) == 4


def test_out_of_range_codes_are_refused():
    # these were read modulo q^(m*n): [0, -1] as {0, "1,1;1,1"}, and
    # [0, 1, 16, 17] as 4 points holding 2 matrices, of dimension 1
    for codes in ([0, -1], [0, 1, 16, 17]):
        with pytest.raises(ValueError, match="outside"):
            VertexSet(F2, 2, 2, codes)
    with pytest.raises(ValueError, match="outside"):
        Mat.decode(F2, 16, 2, 2)  # once the zero matrix
    with pytest.raises(ValueError, match="outside"):
        Mat.decode(F2, -1, 2, 2)
    assert Mat.decode(F2, 15, 2, 2) == Mat(F2, [[1, 1], [1, 1]])
    assert len(VertexSet(F2, 2, 2, [15, 0, 15])) == 2
    # past int64, every code is in range and no power is taken
    assert len(VertexSet(F2, 300, 300, [0, 2**62])) == 2


def test_every_line_sits_in_one_clique_of_each_kind():
    # exhaustive at GF(2)^(2x2): lines = opposite-kind intersections
    sets_ = every_offset_sets(F2, 2, 2)
    ones = [s for s in sets_ if s.kind is Kind.ONE]
    twos = [s for s in sets_ if s.kind is Kind.TWO]
    lines = {}
    for M in ones:
        for N in twos:
            pts = intersect(M, N)
            if len(pts):
                key = tuple(int(c) for c in pts.codes)
                lines.setdefault(key, []).append((M, N))
    for key, hosts in lines.items():
        assert len(hosts) == 1  # unique (type one, type two) host pair


def test_dim_examples():
    M1pts = std_row_clique(F4, 2, 3, 0).points()
    assert dim_adjacent_set(M1pts) == 3
    S = VertexSet.from_entries(F4, [Mat.zeros(F4, 2, 2).a,
                                  Mat.unit(F4, 2, 2, 0, 0, c=1).a,
                                  Mat.unit(F4, 2, 2, 0, 0, c=2).a])
    assert dim_adjacent_set(S) == 1
    with pytest.raises(ZeroNotMember):
        dim_adjacent_set(VertexSet.from_entries(F4, [Mat.unit(F4, 2, 2, 0, 0).a]))
    # the entry core drops repeats, as the set's codes do
    pts = S.entries()
    assert dim_adjacent_entries(F4, np.concatenate([pts[::-1], pts[1:]])) == 1
    with pytest.raises(NotAdjacentSet):
        dim_adjacent_entries(F4, pts[[0, 0]])
    with pytest.raises(ZeroNotMember):
        dim_adjacent_entries(F4, pts[1:])


def test_the_dimension_of_an_empty_set_is_refused():
    # the empty set once read its first point before counting them
    with pytest.raises(NotAdjacentSet, match="^need at least two points$"):
        dim_adjacent_entries(F4, np.zeros((0, 2, 2)))
    with pytest.raises(NotAdjacentSet, match="^need at least two points$"):
        dim_adjacent_set(VertexSet(F4, 2, 2, []))


def test_dim_invariant_under_equivalence():
    from bfgeo.matrices import random_invertible
    rng = np.random.default_rng(21)
    M1 = std_row_clique(F4, 2, 3, 0)
    pts = M1.point_entries()
    # random adjacent subsets through 0
    for _ in range(10):
        take = rng.choice(len(pts), size=5, replace=False)
        sel = pts[take]
        sel[0] = 0
        S = VertexSet.from_entries(F4, sel)
        d = dim_adjacent_set(S)
        P1 = random_invertible(rng, F4, 2)
        Q1 = random_invertible(rng, F4, 3)
        moved = _bulk.matmul(F4, _bulk.matmul(F4, P1.a, sel), Q1.a)
        assert dim_adjacent_set(VertexSet.from_entries(F4, moved)) == d


def test_unit_ball():
    assert len(unit_ball(Mat.zeros(F4, 2, 2))) == 76
    assert len(unit_ball(Mat.zeros(F2, 2, 2))) == 10
    A = space(F4, 2, 2).mat(int(np.random.default_rng(0).integers(16)))
    assert unit_ball(A).contains(A)


def pairwise_two_pencil(field, m, n, rows, cols, good=None):
    """two_pencil_check by the pair loop: every pair b1 < b2 of pencil
    members, each common neighbour X once per pair, a violation where X is
    not good (by default: vanishing off rows or off cols)."""
    sp = space(field, m, n)
    support = [(i, j) for i in rows for j in cols]
    combos = _bulk.decode(field, np.arange(field.q ** len(support)), 1, len(support))[:, 0]
    pencil = np.zeros((len(combos), m, n), dtype=field.dtype)
    for t, (i, j) in enumerate(support):
        pencil[:, i, j] = combos[:, t]
    adj_to = np.stack([_bulk.adjacent_mask(field, field.vsub(sp.entries, B)) for B in pencil])
    if good is None:
        off_rows = np.ones(m, dtype=bool)
        off_rows[rows] = False
        off_cols = np.ones(n, dtype=bool)
        off_cols[cols] = False
        good = (~sp.entries[:, off_rows].any(axis=(1, 2))
                | ~sp.entries[:, :, off_cols].any(axis=(1, 2)))
    checked, violations = 0, set()
    for b1 in range(len(pencil)):
        for b2 in range(b1 + 1, len(pencil)):
            qualifying = adj_to[b1] & adj_to[b2]
            checked += int(qualifying.sum())
            violations.update(int(c) for c in np.flatnonzero(qualifying & ~good))
    return {"triples_checked": checked, "violations": [str(c) for c in sorted(violations)]}


@pytest.mark.parametrize("field,m,n,rows,cols", [
    (F4, 2, 2, [0], [0]), (F3, 2, 3, [0], [0]), (F2, 3, 3, [0], [0]), (F5, 2, 2, [0], [0]),
    (F2, 3, 3, [0, 1], [0, 1]), (F3, 3, 3, [1], [0, 2]),
], ids=["GF(4) 2x2", "GF(3) 2x3", "GF(2) 3x3", "GF(5) 2x2", "GF(2) 3x3 rows 0,1 cols 0,1",
        "GF(3) 3x3 row 1 cols 0,2"])
def test_two_pencil_check_matches_the_pair_loop(field, m, n, rows, cols):
    info = verify.two_pencil_check(field, m, n, rows, cols)
    assert info == pairwise_two_pencil(field, m, n, rows, cols)
    assert info["triples_checked"] > 0 and info["violations"] == []


def test_two_pencil_check_reports_the_points_failing_a_mutated_dichotomy(monkeypatch):
    # every third point declared bad: the violations are those among the
    # common neighbours of two members, as the pair loop finds them
    real = verify._pencil_dichotomy

    def mutated(entries, rows, cols):
        return real(entries, rows, cols) & (np.arange(len(entries)) % 3 != 0)

    monkeypatch.setattr(verify, "_pencil_dichotomy", mutated)
    sp = space(F3, 2, 3)
    info = verify.two_pencil_check(F3, 2, 3, [0], [0])
    assert info == pairwise_two_pencil(F3, 2, 3, [0], [0],
                                       good=mutated(sp.entries, [0], [0]))
    assert info["violations"]


@pytest.mark.parametrize("m,n,rows,cols", [
    (2, 2, [], [0]), (2, 2, [0], []), (2, 2, [0, 1], [0]), (2, 3, [0], [0, 1, 2]),
    (2, 3, [0], [0, 1]), (2, 2, [2], [0]), (2, 2, [0], [-1]), (1, 3, [0], [0]), (3, 1, [0], [0]),
], ids=["no rows", "no cols", "rows not proper", "cols past min(m, n)", "cols not proper",
        "row out of range", "negative col", "1x3", "3x1"])
def test_two_pencil_check_needs_a_proper_pencil(m, n, rows, cols):
    with pytest.raises(PreconditionViolated):
        verify.two_pencil_check(F4, m, n, rows, cols)


def test_structural_sets_match_brute_force_cliques():
    sp = space(F2, 2, 2)
    rows = np.concatenate([sp.maximal_cliques("col"), sp.maximal_cliques("row")])
    assert len(rows) == 24  # 12 of each kind: 3 directions x 4 cosets
    assert sorted(map(frozenset, rows.tolist()), key=sorted) == \
        sorted(frozenset_bron_kerbosch(F2, 2, 2), key=sorted)
    assert clique_number(F2, 2, 2) == 4


def every_offset_sets(field, m, n):
    """A canonical MaximalSet for every direction and offset, kept by first
    key: per kind and direction, one per clique, ordered by lex-min member."""
    sp = space(field, m, n)
    out = {}
    for kind in (Kind.ONE, Kind.TWO):
        dirs = sp.monic_cols if kind is Kind.ONE else sp.monic_rows
        for d in dirs:
            for code in range(sp.count):
                ms = MaximalSet(kind, d, Mat.decode(field, code, m, n))
                k = ms.key()
                if k not in out:
                    out[k] = ms.canonical()
    return list(out.values())


@pytest.mark.parametrize("field,m,n", [(F2, 2, 3), (F3, 2, 2), (F2, 3, 2)])
def test_maximal_cliques_match_the_every_offset_enumeration(field, m, n):
    sp, want = space(field, m, n), every_offset_sets(field, m, n)
    total = 0
    for kind, axis, dirs in ((Kind.ONE, "col", sp.monic_cols), (Kind.TWO, "row", sp.monic_rows)):
        got = sp.maximal_cliques(axis)
        assert got is sp.maximal_cliques(axis)  # cached on the space
        total += len(got)
        # members ascend, so member 0 is the lex-min member
        assert (np.diff(got, axis=1) > 0).all()
        for d, block in zip(dirs, np.split(got, len(dirs))):
            sets_ = [s for s in want if s.kind is kind and np.array_equal(s.direction, d)]
            # kind TWO bases need not ascend within a direction
            block = block[np.argsort(block[:, 0])]
            assert np.array_equal(block, np.stack([s.codes for s in sets_]))
    q = field.q

    def gauss(k):
        return (q**k - 1) // (q - 1)

    assert total == len(want) == gauss(m) * q**(m * n - n) + gauss(n) * q**(m * n - m)
    assert sp.clique_members is sp.maximal_cliques("row" if m > n else "col")


def test_exactly_two_cliques_per_edge_small():
    cliques = frozenset_bron_kerbosch(F2, 2, 2)
    sp = space(F2, 2, 2)
    for v in range(sp.count):
        for w in sp.neighbor_perms[:, v]:
            w = int(w)
            if w < v:
                continue
            hosting = [c for c in cliques if v in c and w in c]
            assert len(hosting) == 2
            kinds = {classify_clique(VertexSet(F2, 2, 2, list(c))).kind
                     for c in hosting}
            assert kinds == {Kind.ONE, Kind.TWO}


def test_intersection_cardinality_dichotomy():
    for field in (F2, F3):
        sets_ = every_offset_sets(field, 2, 2)
        q = field.q
        for i, M in enumerate(sets_):
            # oracle: M's points that N's direction-based membership test keeps
            pts = _bulk.decode(field, M.codes, 2, 2)
            for N in sets_[i + 1:]:
                got = intersect(M, N)
                assert np.array_equal(got.codes, M.codes[N.contains_batch(pts)])
                k = len(got)
                if M.kind == N.kind:
                    assert k in (0, 1)
                else:
                    assert k in (0, q)


def pairwise_host_oracle(field, pts):
    """The route classification took before the clique test: an all-pairs
    rank-1 scan, then the column and the row generator every difference
    from pts[0] shares, zero where the differences' generators differ."""
    diffs = field.vsub(pts[:, None], pts[None, :])[~np.eye(len(pts), dtype=bool)]
    if not _bulk.adjacent_mask(field, diffs).all():
        raise NotAdjacentSet("some pair is not at distance 1")
    shared = []
    for axis in ("col", "row"):
        g = _bulk.generators(field, field.vsub(pts[1:], pts[0]), axis)
        shared.append(g[0] if (g == g[0]).all() else np.zeros_like(g[0]))
    if not (shared[0].any() or shared[1].any()):
        raise TheoremViolated("adjacent set outside both clique forms")
    return tuple(shared)


def pairwise_set_oracle(field, entries):
    """(dim, u, v) of a set through 0 by the all-pairs scan, and its
    dimension by the rank of the points as vectors of m * n entries: a set
    u (x) w_k in one clique has the rank of its coefficient vectors w_k, as
    has w_k (x) v."""
    pts = np.unique(np.asarray(entries), axis=0)
    if len(pts) and pts[0].any():
        raise ZeroNotMember("dimension is defined for sets through 0")
    if len(pts) < 2:
        raise NotAdjacentSet("need at least two points")
    u, v = pairwise_host_oracle(field, pts)
    return int(_bulk.rank(field, pts.reshape(1, len(pts), -1))[0]), u, v


def pairwise_dim_oracle(field, entries):
    """dim_adjacent_entries by :func:`pairwise_set_oracle`."""
    return pairwise_set_oracle(field, entries)[0]


def pairwise_sets_oracle(field, sets):
    """cliques._adjacent_sets by :func:`pairwise_set_oracle`, set by set."""
    return tuple(np.array(a) for a in zip(*(pairwise_set_oracle(field, S) for S in sets)))


def outcome(fn, *args):
    """A call's result, or its exception type and witness."""
    try:
        got = fn(*args)
    except (NotAdjacentSet, NotMaximal, TheoremViolated, ZeroNotMember) as e:
        return type(e), getattr(e, "witness", None)
    return got if isinstance(got, int) else (got.kind, got.direction.tolist(), got.offset)


def oracle_sets(field, m, n, rng):
    """Every Bron-Kerbosch clique, a random proper subset of it and the
    clique with one point moved, then random sets of 1 to 5 points."""
    count = field.q ** (m * n)
    out = []
    for c in sorted(frozenset_bron_kerbosch(field, m, n), key=sorted):
        codes = np.array(sorted(c))
        moved = codes.copy()
        moved[rng.integers(len(codes))] = rng.integers(count)
        out += [codes, rng.choice(codes, size=rng.integers(1, len(codes)), replace=False), moved]
    out += [rng.integers(count, size=rng.integers(1, 6)) for _ in range(40)]
    return [VertexSet(field, m, n, codes) for codes in out]


@pytest.mark.parametrize("field,m,n", [(F2, 2, 2), (F2, 2, 3), (F2, 3, 2), (F3, 2, 2), (F4, 2, 2)])
def test_classification_and_dimension_match_the_pairwise_oracle(field, m, n, monkeypatch):
    rng = np.random.default_rng(field.q * 100 + m * 10 + n)
    got, want = [], []
    for S in oracle_sets(field, m, n, rng):
        through0 = S.entries()
        through0 = field.vsub(through0, through0[rng.integers(len(S))])
        got.append((outcome(classify_clique, S),
                    outcome(dim_adjacent_entries, field, through0),
                    outcome(dim_adjacent_entries, field, S.entries())))
        with monkeypatch.context() as mp:
            mp.setattr(cliques, "_adjacent_sets", pairwise_sets_oracle)
            want.append((outcome(classify_clique, S),
                         outcome(pairwise_dim_oracle, field, through0),
                         outcome(pairwise_dim_oracle, field, S.entries())))
    assert got == want
    # the sets reach both kinds of host and both rejections
    assert {r[0] for r, _, _ in got} == {Kind.ONE, Kind.TWO, NotMaximal, NotAdjacentSet}


def test_an_adjacent_set_failing_the_clique_test_breaks_loudly(monkeypatch):
    S = std_row_clique(F4, 2, 3, 0).points()
    far = VertexSet.from_entries(F4, [Mat.zeros(F4, 2, 2).a, Mat.identity(F4, 2).a])

    def no_pair_scan(field, pts, stop=None):
        raise AssertionError("pairs are scanned only after the clique test fails")

    with monkeypatch.context() as mp:
        mp.setattr(cliques, "_first_torn_pair", no_pair_scan)
        assert classify_clique(S).kind is Kind.ONE and dim_adjacent_set(S) == 3
    real = cliques._clique_test

    def reject(field, D, pad=None):
        passes, u, v = real(field, D, pad)
        return np.zeros_like(passes), u, v

    monkeypatch.setattr(cliques, "_clique_test", reject)
    with pytest.raises(TheoremViolated):
        classify_clique(S)
    with pytest.raises(TheoremViolated):
        dim_adjacent_set(S)
    with pytest.raises(NotAdjacentSet):
        classify_clique(far)


@pytest.mark.parametrize("rows", [0.5, 1, 3])
def test_the_pair_scan_of_a_failing_set_keeps_to_its_budget(rows, monkeypatch):
    # the scan of a set failing the clique test once took all N^2 pairwise
    # differences at once; each block now holds at most the budget's
    # differences, or one row of N where that alone is more
    pts = std_row_clique(F4, 2, 3, 0).point_entries()  # 64 points, 0 first
    pts[-1] = 1  # rank 1, adjacent to 0, not to most of the row clique
    N, S = len(pts), VertexSet.from_entries(F4, pts)
    budget = int(rows * N)
    monkeypatch.setattr(cliques, "_CLIQUE_BLOCK_BYTES", budget * pts[0].size * 8)
    sizes, real = [], _bulk.adjacent_mask
    monkeypatch.setattr(_bulk, "adjacent_mask",
                        lambda field, D: sizes.append(np.prod(np.shape(D)[:-2])) or real(field, D))
    for call in (lambda: classify_clique(S), lambda: dim_adjacent_entries(F4, pts)):
        sizes.clear()
        with pytest.raises(NotAdjacentSet):
            call()
        assert 1 < max(sizes) <= max(budget, N), (rows, sizes)


# ---------------------------------------------------------------------------
# the clique test against the per-difference generator oracle

def planes(D):
    """A (B, K, m, n) stack of differences as the clique test's (m, n, B, K)
    entry planes."""
    return np.moveaxis(D, (0, 1), (2, 3))


def _reference_clique_test(field, D):
    """Both generators of every difference, compared with the first; the
    differences distinct on all m * n entries."""
    B, K, m, n = D.shape
    idx = np.nonzero(_bulk.adjacent_mask(field, D).all(axis=1))[0]
    Dk = D[idx]
    gu, gv = (_bulk.generators(field, Dk, axis) for axis in ("col", "row"))
    col = (gu == gu[:, :1]).all(axis=(1, 2))
    row = (gv == gv[:, :1]).all(axis=(1, 2))
    distinct = np.array([len({d.tobytes() for d in item}) == K for item in Dk], dtype=bool)
    passes = np.zeros(B, dtype=bool)
    passes[idx] = (col | row) & distinct
    u, v = np.zeros((B, m), dtype=field.dtype), np.zeros((B, n), dtype=field.dtype)
    u[idx[col]] = gu[col, 0]
    v[idx[row]] = gv[row, 0]
    return passes, u, v


def _difference_stacks(field, m, n, rng, B=24):
    """Named (B, K, m, n) difference stacks: every kind of clique test
    outcome, with items built to pass and items built to fail."""
    K = min(6, field.q ** min(m, n) - 1)

    def draw(*shape, low=0):
        return rng.integers(low, field.q, size=shape).astype(field.dtype)

    def outer(a, b):
        return field.vmul(a, b).astype(field.dtype)

    def distinct(length):  # K distinct nonzero coefficient vectors
        if field.q ** length > 2**63:  # past a C long: entrywise, distinct first entries
            vecs = draw(K, length)
            vecs[:, 0] = rng.choice(field.q - 1, size=K, replace=False) + 1
            return vecs
        codes = rng.choice(field.q ** length - 1, size=K, replace=False) + 1
        return _bulk.decode(field, codes, 1, length)[:, 0].astype(field.dtype)

    col = outer(draw(B, 1, m, 1, low=1), distinct(n)[None, :, None, :])  # one column generator
    row = outer(distinct(m)[None, :, :, None], draw(B, 1, 1, n, low=1))  # one row generator
    scalars = rng.permutation(field.q - 1)[:K].reshape(1, -1, 1, 1) + 1  # distinct, nonzero
    line = outer(outer(draw(B, 1, m, 1, low=1), draw(B, 1, 1, n, low=1)), scalars)
    # coefficient rows that differ from the first in one entry only
    near = draw(B, 1, 1, n).repeat(K, axis=1)
    for k in range(1, K):
        e, c = (k - 1) % n, 1 + (k - 1) // n % (field.q - 1)
        near[:, k, 0, e] = field.vadd(near[:, k, 0, e], c)
    near = outer(draw(B, 1, m, 1, low=1), near)
    corrupted = col.copy()
    corrupted[::2, -1] = draw(B // 2, m, n)
    duplicated = col.copy()
    duplicated[:, -1] = duplicated[:, 1]
    zero = row.copy()
    zero[::2, 2] = 0
    zero_last = col.copy()  # a collapsed edge after the first difference
    zero_last[::2, -1] = 0
    zero_first = col.copy()
    zero_first[::2, 0] = 0
    rank2_first = col.copy()
    rank2_first[::2, 0] = 0
    rank2_first[::2, 0, 0, 0] = rank2_first[::2, 0, 1, 1] = 1
    mixed = np.concatenate([col[:, :-1], row[:, -1:]], axis=1)
    return {"column": col, "row": row, "line": line, "near-duplicate": near,
            "corrupted": corrupted, "duplicated": duplicated, "zero difference": zero,
            "zero last column difference": zero_last, "zero first difference": zero_first,
            "rank-2 first difference": rank2_first, "mixed": mixed, "K = 1": col[:, :1],
            "failing": draw(B, K, m, n)}


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4), (2, 16)],
                         ids=["GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(9)", "GF(16)", "GF(2^16)"])
def test_clique_test_matches_the_per_difference_oracle(p, k):
    field = make_field(p, k)
    rng = np.random.default_rng(p * 100 + k)
    seen = set()
    # GF(2^16) 4x4 coefficient vectors overflow int64 codes: the dense-id path
    for m, n in ((2, 3), (3, 3)) + (((4, 4),) if field.q ** 4 > 2**63 else ()):
        for name, D in _difference_stacks(field, m, n, rng).items():
            for stack in (D, np.swapaxes(D, 2, 3)):  # both orientations
                want = _reference_clique_test(field, stack)
                got = cliques._clique_test(field, planes(stack))
                for w, g in zip(want, got):
                    assert g.dtype == w.dtype and np.array_equal(g, w), (name, m, n)
                seen |= {(name, bool(want[0].any()), bool(want[0].all()))}
    # items built to pass do, items built to fail do not
    for name in ("column", "row", "line", "K = 1", "near-duplicate"):
        assert any(s[0] == name and s[1] for s in seen), name
    for name in ("corrupted", "duplicated", "zero difference", "zero last column difference",
                 "zero first difference", "rank-2 first difference", "mixed", "failing"):
        assert any(s[0] == name and not s[2] for s in seen), name


# ---------------------------------------------------------------------------
# the batched dimension of many sets against the per-set path


def sets_through_zero(field, m, n, rng):
    """Sets through 0 of every size from 2 to the host's, for each kind: a
    random monic direction with distinct coefficient vectors w, u (x) w or
    w (x) v, the zero vector among them, in a random order."""
    out = []
    for width in (n, m):
        for size in range(2, field.q ** width + 1):
            direction = _bulk.monic(field, rng.integers(1, field.q, size=m + n - width))
            codes = np.r_[0, rng.choice(np.arange(1, field.q ** width), size - 1, replace=False)]
            w = _bulk.decode(field, rng.permutation(codes), 1, width)[:, 0]
            if width == n:
                pts = field.vmul(direction[None, :, None], w[:, None, :])
            else:
                pts = field.vmul(w[:, :, None], direction[None, None, :])
            out.append(pts.astype(field.dtype))
    return out


def image_sets(dst, rng):
    """The images of GF(4) 2x2 sets through 0 of every size, five sets to
    a random standard table into dst^(3 x 3)."""
    out = []
    for t, S in enumerate(sets_through_zero(F4, 2, 2, rng)):
        if t % 5 == 0:
            tbl = standard_table(random_valid_params(rng, F4, 2, 2, dst, 3, 3))
        out.append(tbl.images[_bulk.encode(F4, S)])
    return out


BATCHED = ["GF(4) 2x2 sources", "GF(16) 3x3 images", "GF(5) 2x3", "GF(256) 3x3 images"]


@functools.cache
def batched_case(name):
    rng = np.random.default_rng(2929 + BATCHED.index(name))
    if name == "GF(5) 2x3":
        return F5, sets_through_zero(F5, 2, 3, rng)
    if name == "GF(4) 2x2 sources":
        return F4, sets_through_zero(F4, 2, 2, rng)
    dst = F16 if name.startswith("GF(16)") else F256
    return dst, image_sets(dst, rng)


@pytest.mark.parametrize("name", BATCHED)
def test_batched_dimension_equals_the_per_set_path(name):
    field, sets = batched_case(name)
    got = cliques._adjacent_sets(field, sets)[0]
    assert got.tolist() == [dim_adjacent_entries(field, S) for S in sets]
    assert got.tolist() == [pairwise_dim_oracle(field, S) for S in sets]


@pytest.mark.parametrize("name", BATCHED)
def test_the_padded_clique_test_equals_the_unpadded_one(name):
    # every set, and the set with one point moved off its clique or onto
    # another point, as differences from its first point, filled up with
    # copies of the first difference
    field, sets = batched_case(name)
    rng = np.random.default_rng(len(sets))
    items = []
    for S in sets:
        for change in ("none", "moved", "repeated"):
            T = S.copy()
            if change == "moved":
                T[-1] = rng.integers(field.q, size=T[-1].shape)
            elif change == "repeated":
                T[-1] = T[1 % (len(T) - 1)]
            items.append(field.vsub(T[1:], T[0]))
    K = max(len(D) for D in items)
    pad = np.arange(K) >= np.array([len(D) for D in items])[:, None]
    stack = np.stack([np.concatenate([D, D[:1].repeat(K - len(D), axis=0)]) for D in items])
    got = cliques._clique_test(field, planes(stack), pad)
    for t, D in enumerate(items):
        for g, w in zip(got, cliques._clique_test(field, planes(D[None]))):
            assert np.array_equal(g[t], w[0]), (name, t)
    assert got[0].any() and not got[0].all()


# ---------------------------------------------------------------------------
# the entry-plane layout against the (B, K, m, n) stack layout it replaced

def _stack_clique_test(field, D, pad=None):
    """The clique test on a (B, K, m, n) stack, as it ran before the entry
    planes, kept as the reference the plane layout must reproduce bit for
    bit: the full column comparison on every item, the row comparison on
    the items that fail it."""
    B, K, m, n = D.shape
    idx = np.nonzero(_bulk.adjacent_mask(field, D[:, 0]))[0]
    Dk = D if len(idx) == B else D[idx]
    gu, gv = (_bulk.generators(field, Dk[:, 0], axis) for axis in ("col", "row"))
    i0, j0 = np.argmax(gu != 0, axis=1), np.argmax(gv != 0, axis=1)
    rows = Dk[np.arange(len(idx)), :, i0]
    ids = _stack_vector_ids(field, rows)
    col = (field.vmul(gu[:, None, :, None], rows[:, :, None, :]) == Dk).all(axis=(1, 2, 3))
    col &= (ids != 0).all(axis=1)
    row = np.empty_like(col)
    short, full = np.nonzero(col)[0], np.nonzero(~col)[0]
    if len(short):
        r, g = rows[short], gv[short]
        lead = r[np.arange(len(short)), :, j0[short]]
        row[short] = (field.vmul(lead[:, :, None], g[:, None, :]) == r).all(axis=(1, 2))
    if len(full):
        Df, g = Dk[full], gv[full]
        cols = Df[np.arange(len(full)), :, :, j0[full]]
        col_ids = _stack_vector_ids(field, cols)
        row[full] = (field.vmul(cols[..., None], g[:, None, None, :]) == Df).all(axis=(1, 2, 3))
        row[full] &= (col_ids != 0).all(axis=1)
        ids[full] = col_ids
    if pad is not None:
        ids = np.where(pad[idx], -1 - np.arange(K), ids)
    ids = np.sort(ids, axis=1)
    passes = np.zeros(B, dtype=bool)
    passes[idx] = (col | row) & (ids[:, 1:] != ids[:, :-1]).all(axis=1)
    u, v = np.zeros((B, m), dtype=field.dtype), np.zeros((B, n), dtype=field.dtype)
    u[idx[col]] = gu[col]
    v[idx[row]] = gv[row]
    return passes, u, v


def _stack_vector_ids(field, V):
    """Codes of the vectors on V's last axis while they fit int64, else dense ids."""
    length = V.shape[-1]
    if field.q ** length <= 2**63:
        return _bulk.encode(field, V[..., None, :])
    flat = np.concatenate([np.zeros((1, length), V.dtype), V.reshape(-1, length)])
    return np.unique(flat, axis=0, return_inverse=True)[1][1:].reshape(V.shape[:-1])


def mixed_blocks(field, m, n, rng, count=4):
    """(name, (B, K, m, n) stack, pad mask or None) blocks whose items are
    drawn at random from every named difference stack (column-kind,
    row-kind, line, repeated and zero coefficient vectors, rank-2 D_0,
    random), in both orientations, unpadded and padded.  Line items with
    their last difference moved off column j_0 = 0 pass the routing compare
    and fail the full column one.  A line has at most q - 1 differences, so
    every stack is cut to the shortest one's K."""
    named = _difference_stacks(field, m, n, rng)
    off = named["line"].copy()
    off[::2, -1, -1, -1] = field.vadd(off[::2, -1, -1, -1], 1)
    stacks = list(named.values()) + [off]
    K = min(D.shape[1] for D in stacks if D.shape[1] > 1)
    pool = np.concatenate([D[:, :K] for D in stacks if D.shape[1] >= K])
    for t in range(count):
        D = pool[rng.choice(len(pool), size=40, replace=False)]
        if t % 2:
            D = np.swapaxes(D, 2, 3)
        yield f"mixed {t}", D, None
        K = D.shape[1]
        pad = (np.arange(K) >= rng.integers(1, K + 1, size=len(D))[:, None]) \
            & (rng.random(len(D)) < 0.5)[:, None]
        yield f"padded {t}", np.where(pad[..., None, None], D[:, :1], D), pad


def table_blocks(rng):
    """(name, stack, None) per GF(4) 2x2 -> GF(16) 3x3 table: each source
    clique's image differences from its base, on standard tables of both
    orientations, a table with some images moved and a collapsed one."""
    rows = space(F4, 2, 2).clique_members
    for o in Orientation:
        img = standard_table(random_valid_params(rng, F4, 2, 2, F16, 3, 3, orientation=o)).images
        moved = img.copy()
        moved[rng.choice(len(img), size=3, replace=False)] = rng.integers(16, size=(3, 3, 3))
        collapsed = img.copy()
        collapsed[:, 2] = 0
        collapsed[:, :, 2] = 0
        for name, I in (("standard", img), ("moved", moved), ("collapsed", collapsed)):
            yield f"{o.value} {name}", F16.vsub(I[rows[:, 1:]], I[rows[:, :1]]), None


PLANE_CASES = ["GF(2) 2x3", "GF(5) 2x3", "GF(5) 3x4", "GF(4) -> GF(16) 3x3 tables",
               "GF(65536) 4x4"]


@pytest.mark.parametrize("case", PLANE_CASES)
def test_the_plane_layout_matches_the_stack_layout(case):
    rng = np.random.default_rng(3401 + PLANE_CASES.index(case))
    if case.startswith("GF(4)"):
        field, blocks = F16, list(table_blocks(rng))
    else:
        q, shape = case.split(" ")
        field = {"GF(2)": F2, "GF(5)": F5, "GF(65536)": make_field(2, 16)}[q]
        blocks = list(mixed_blocks(field, *map(int, shape.split("x")), rng))
    outcomes = set()
    for name, D, pad in blocks:
        want = _stack_clique_test(field, D, pad)
        got = cliques._clique_test(field, planes(D), pad)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), name
        outcomes |= {bool(want[0].any()), bool(want[0].all())}
    assert outcomes == {True, False}  # blocks with passing and failing items


@pytest.mark.parametrize("kind", ["column", "row"])
def test_one_flipped_entry_in_any_plane_fails_its_item(kind):
    # a passing item's verdict must read every entry plane of every member
    D = _difference_stacks(F5, 2, 3, np.random.default_rng(3409))[kind]
    assert cliques._clique_test(F5, planes(D))[0].all()
    B, K, m, n = D.shape
    for i in range(m):
        for j in range(n):
            for k in (0, 1, K - 1):
                b = (i * n + j + k) % B
                P = planes(D).copy()
                P[i, j, b, k] = F5.vadd(P[i, j, b, k], 1)
                got = cliques._clique_test(F5, P)
                want = _stack_clique_test(F5, np.moveaxis(P, (2, 3), (0, 1)))
                assert np.flatnonzero(~got[0]).tolist() == [b], (i, j, k)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w), (i, j, k)


def adjacent_dims(field, sets):
    return cliques._adjacent_sets(field, sets)[0]


def test_a_failing_set_raises_as_it_would_alone():
    pts = std_row_clique(F4, 2, 3, 0).point_entries()  # code order, 0 first
    good = pts[:5]
    rank2 = np.stack([pts[0], np.eye(2, 3, dtype=pts.dtype)])
    bad = {"missing 0": pts[1:4], "single point": pts[:1], "rank-2 pair": rank2,
           "repeated point": pts[[0, 0]]}
    for name, S in bad.items():
        want = outcome(dim_adjacent_entries, F4, S)
        assert want[0] in (ZeroNotMember, NotAdjacentSet), name
        assert outcome(adjacent_dims, F4, [good, S, good]) == want, name
    # the first failing set in order decides
    assert outcome(adjacent_dims, F4, [good, rank2, pts[1:4]])[0] is NotAdjacentSet
    assert outcome(adjacent_dims, F4, [good, pts[1:4], rank2])[0] is ZeroNotMember
    assert adjacent_dims(F4, [good, good[::-1], pts]).tolist() == [2, 2, 3]


# ---------------------------------------------------------------------------
# the bulk structure checks against their pair-by-pair oracles
# ---------------------------------------------------------------------------

ORACLE_SPACES = [(F2, 2, 2), (F3, 2, 2), (F2, 2, 3)]


def frozenset_bron_kerbosch(field, m, n):
    """Bron-Kerbosch search with the Tomita pivot on Python frozensets: every
    maximal clique, read from the neighbour table alone."""
    perms = space(field, m, n).neighbor_perms
    nbrs = [frozenset(int(c) for c in perms[:, v]) for v in range(perms.shape[1])]
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

    expand(set(), set(range(perms.shape[1])), set())
    return out


def pairwise_clique_structure(field, m, n):
    """clique_structure_check one clique, edge row and clique pair at a time."""
    sp = space(field, m, n)
    found = sorted(frozenset_bron_kerbosch(field, m, n), key=sorted)
    member = np.zeros((len(found), sp.count), dtype=bool)
    kinds = []
    for t, c in enumerate(found):
        codes = np.fromiter(c, dtype=np.int64)
        member[t, codes] = True
        kinds.append(classify_clique(VertexSet(field, m, n, codes)).kind is Kind.ONE)
    kinds = np.array(kinds)
    violations, edges = [], 0
    for b in sp.neighbor_perms:
        a = np.arange(sp.count)
        a, b = a[a < b], b[a < b]
        edges += len(a)
        both = member[:, a] & member[:, b]
        bad = (both.sum(axis=0) != 2) | ((both & kinds[:, None]).sum(axis=0) != 1)
        violations += [f"edge {x}-{y}" for x, y in zip(a[bad], b[bad])]
    for i in range(len(found)):
        for j in range(i + 1, len(found)):
            k = len(found[i] & found[j])
            if k and k != (1 if kinds[i] == kinds[j] else field.q):
                violations.append(f"cliques {i},{j}: {k}")
    return {"cliques": len(found), "edges_checked": edges,
            "clique_pairs": len(found) * (len(found) - 1) // 2,
            "violations": sorted(violations)}


def pairwise_line_structure(field, m, n):
    """line_structure_check by intersect and line_through on every pair."""
    sets_ = every_offset_sets(field, m, n)
    violations, hosts = [], {}
    for M in (s for s in sets_ if s.kind is Kind.ONE):
        for N in (s for s in sets_ if s.kind is Kind.TWO):
            pts = intersect(M, N)
            if len(pts) == 0:
                continue
            if len(pts) != field.q:
                violations.append(f"intersection size {len(pts)}")
                continue
            if line_through(M, N).points() != pts:
                violations.append("line does not reproduce the intersection")
            hosts.setdefault(tuple(pts.codes.tolist()), []).append((M.key(), N.key()))
    violations += [f"line with {len(h)} host pairs" for h in hosts.values() if len(h) != 1]
    rows = space(field, 1, n)
    lam = np.arange(field.q)
    param_lines = set()
    for alpha in rows.monic_rows:
        for beta in rows.entries[:, 0]:
            mats = np.zeros((field.q, m, n), dtype=field.dtype)
            mats[:, 0, :] = field.vadd(field.vmul(lam[:, None], alpha[None, :]), beta)
            param_lines.add(tuple(sorted(_bulk.encode(field, mats).tolist())))
    violations += ["parametric line missing from intersections"] * len(param_lines - set(hosts))
    return {"lines": len(hosts), "param_lines_row_clique": len(param_lines),
            "violations": sorted(violations)}


@pytest.mark.parametrize("field,m,n", ORACLE_SPACES + [(F4, 2, 2)])
def test_maximal_cliques_match_the_frozenset_search(field, m, n):
    sp = space(field, m, n)
    listed = [*sp.maximal_cliques("col"), *sp.maximal_cliques("row")]
    found = sorted(frozenset_bron_kerbosch(field, m, n), key=sorted)
    assert sorted((frozenset(r.tolist()) for r in listed), key=sorted) == found
    assert clique_number(field, m, n) == max(map(len, found))


@pytest.mark.parametrize("field,m,n", [(F3, 1, 3), (F2, 4, 1)])
def test_clique_number_of_one_complete_graph_is_its_count(field, m, n):
    count = space(field, m, n).count
    assert frozenset_bron_kerbosch(field, m, n) == [frozenset(range(count))]
    assert clique_number(field, m, n) == count


def test_clique_search_on_the_largest_complete_graph_is_fast():
    # one 4096-clique, the largest space clique_number takes: a search once
    # went through all of P at each of the 4096 levels (8.8 s)
    start = time.perf_counter()
    assert clique_number(F2, 1, 12) == 4096
    assert time.perf_counter() - start < 4


@pytest.mark.parametrize("field,m,n", ORACLE_SPACES)
def test_bulk_structure_checks_match_the_pairwise_oracles(field, m, n):
    assert verify.clique_structure_check(field, m, n) == pairwise_clique_structure(field, m, n)
    assert verify.line_structure_check(field, m, n) == pairwise_line_structure(field, m, n)


@pytest.mark.parametrize("field", [F3, F4, F5], ids=lambda f: f"GF({f.q})")
def test_clique_members_off_a_line_fail_the_line_check(field, monkeypatch):
    # one TWO clique moved to meet ONE clique 0 in q - 1 points of a line
    # and one member of clique 0 off it: q members of one clique, no line
    # (over GF(2) any two points are a line)
    sp = space(field, 2, 2)
    one, two = sp.maximal_cliques("col"), sp.maximal_cliques("row").copy()
    j = int(np.argmax(np.isin(two, one[0]).sum(axis=1) == field.q))
    line = np.intersect1d(one[0], two[j])
    two[j, two[j] == line[-1]] = np.setdiff1d(one[0], line)[0]
    monkeypatch.setattr(sp, "maximal_cliques", lambda kind: one if kind == "col" else two)
    for check in (verify.clique_structure_check, verify.line_structure_check):
        assert any(v.startswith("certificate") for v in check(field, 2, 2)["violations"])


@pytest.mark.parametrize("field", [F2, F3, F4], ids=lambda f: f"GF({f.q})")
def test_a_coset_listed_twice_fails_both_checks(field, monkeypatch):
    # a kind ONE row away from 0 replaced by a copy of another row of its
    # direction: every row is still a coset, one coset twice and one lost
    sp = space(field, 2, 2)
    one, real = sp.maximal_cliques("col").copy(), sp.maximal_cliques
    t = int(np.argmax(one[:, 0] != 0))
    one[t] = one[t + 1]
    monkeypatch.setattr(sp, "maximal_cliques", lambda axis: one if axis == "col" else real(axis))
    for check in (verify.clique_structure_check, verify.line_structure_check):
        violations = check(field, 2, 2)["violations"]
        assert violations and all(v.startswith("certificate (g)") for v in violations)
    with pytest.raises(TheoremViolated, match=r"certificate \(g\)"):
        clique_number(field, 2, 2)


def test_an_intersection_off_its_span_fails_the_line_check(monkeypatch):
    # the line check reads each S_i cap T_j against the multiples of its
    # first nonzero member D; D's entries moved to another rank-1 point
    assert verify.line_structure_check(F4, 2, 2)["violations"] == []
    sp = space(F4, 2, 2)
    entries, swap = sp.entries.copy(), sp.rank1_codes[[0, -1]]
    entries[swap] = entries[swap[::-1]]
    monkeypatch.setattr(sp, "entries", entries)
    assert "line does not reproduce the intersection" in \
        verify.line_structure_check(F4, 2, 2)["violations"]


def test_a_parametric_direction_off_every_intersection_fails_the_line_check(monkeypatch):
    # a zero direction alpha: its q^(n - 1) parametric lines are single points
    assert verify.line_structure_check(F4, 2, 2)["violations"] == []
    rows = space(F4, 1, 2)
    monkeypatch.setattr(rows, "monic_rows", np.r_[rows.monic_rows[:-1], [[0, 0]]])
    assert verify.line_structure_check(F4, 2, 2)["violations"] == \
        ["parametric line missing from intersections"] * 4


def test_a_wrong_line_through_fails_the_line_check(monkeypatch):
    real = cliques.line_through

    def shifted(M, N):
        # beta moved off the line: e_k with k past alpha's leading 1
        ell = real(M, N)
        e = np.zeros_like(ell.beta)
        e[(int(np.argmax(ell.alpha != 0)) + 1) % len(e)] = 1
        return Line(ell.host, ell.alpha, M.field.vadd(ell.beta, e))

    monkeypatch.setattr(cliques, "line_through", shifted)
    assert "line_through disagrees with the batched line" in \
        verify.line_structure_check(F4, 2, 2)["violations"]


def _wrong_cliques(wrong, sp, monkeypatch):
    """Patch sp with one of four faults the clique certificate must find."""
    one, r1 = sp.maximal_cliques("col").copy(), sp.rank1_codes
    rank2 = int(np.setdiff1d(np.arange(1, sp.count), r1)[0])
    if wrong in ("an extra rank-1 class", "a lost rank-1 class"):
        x = rank2 if wrong == "an extra rank-1 class" else int(r1[0])
        pair = [x, int(sp.code_sub(0, x))]
        r1 = np.union1d(r1, pair) if wrong == "an extra rank-1 class" else np.setdiff1d(r1, pair)
        monkeypatch.setattr(sp, "rank1_codes", r1)
        return
    if wrong == "a rank-2 point in a set through 0":
        one[0, -1] = rank2
    else:  # a row off every translate: one member of a row away from 0 moved out
        t = int(np.argmax(one[:, 0] != 0))
        one[t, -1] = np.setdiff1d(np.arange(sp.count), one[t])[0]
    real = sp.maximal_cliques
    monkeypatch.setattr(sp, "maximal_cliques", lambda axis: one if axis == "col" else real(axis))


@pytest.mark.parametrize("wrong", ["a rank-2 point in a set through 0", "a row off every translate",
                                   "an extra rank-1 class", "a lost rank-1 class"])
def test_wrong_cliques_fail_the_clique_certificate(wrong, monkeypatch):
    sp = space(F4, 2, 2)
    # the unpatched check first, so the cached neighbour table is the real one
    assert verify.clique_structure_check(F4, 2, 2)["violations"] == []
    _wrong_cliques(wrong, sp, monkeypatch)
    assert any(v.startswith("certificate") for v in
               verify.clique_structure_check(F4, 2, 2)["violations"])
    with pytest.raises(TheoremViolated, match="certificate"):
        clique_number(F4, 2, 2)


def test_a_lost_clique_fails_the_closed_form_count(monkeypatch):
    assert verify.clique_structure_check(F2, 2, 2)["violations"] == []
    sp = space(F2, 2, 2)
    real = sp.maximal_cliques
    monkeypatch.setattr(sp, "maximal_cliques",
                        lambda axis: real(axis)[1:] if axis == "col" else real(axis))
    info = verify.clique_structure_check(F2, 2, 2)
    assert info["cliques"] == 23
    assert "23 cliques, closed form 24" in info["violations"]
