"""Maximal cliques, intersections, lines, dimension, unit balls."""

import numpy as np
import pytest

from bfgeo import _bulk
from bfgeo.cliques import (Kind, Line, MaximalSet, VertexSet, all_maximal_sets,
                           bron_kerbosch_cliques, classify_clique,
                           clique_number, complete_to_invertible_col,
                           complete_to_invertible_row, dim_adjacent_set,
                           intersect, line_through, maximal_sets_through,
                           two_pencil_constraint, two_pencil_sweep, unit_ball)
from bfgeo.errors import (Disjoint, NotAdjacent, NotAdjacentSet, NotMaximal,
                          PreconditionViolated, WrongKinds, ZeroNotMember)
from bfgeo.fields import make_field
from bfgeo.matrices import Mat, adjacent, arithmetic_distance, space

F2 = make_field(2, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)


def std_row_clique(field, m, n, i):
    """The clique of matrices supported on row i, through 0."""
    e = np.eye(m, dtype=field.dtype)[:, i]
    return MaximalSet(Kind.ONE, complete_to_invertible_col(field, e),
                      Mat.zeros(field, m, n))


def std_col_clique(field, m, n, j):
    e = np.eye(n, dtype=field.dtype)[:, j]
    return MaximalSet(Kind.TWO, complete_to_invertible_row(field, e),
                      Mat.zeros(field, m, n))


def is_maximal_clique_oracle(S: VertexSet) -> bool:
    """Independent check: pairwise adjacent and no outside extension."""
    mats = S.mats()
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if arithmetic_distance(mats[i], mats[j]) != 1:
                return False
    sp = space(S.field, S.m, S.n)
    for Z in sp:
        if S.contains(Z):
            continue
        if all(adjacent(Z, M) for M in mats):
            return False
    return True


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
        A = sp.random_mat(rng)
        R = Mat(F4, sp.rank1[rng.integers(len(sp.rank1))])
        B = A + R
        one, two = maximal_sets_through(A, B)
        for M in (one, two):
            assert M.contains(A) and M.contains(B)
            assert is_maximal_clique_oracle(M.points())


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
    shifted = MaximalSet(Kind.ONE, M1.transform,
                         Mat.unit(F4, 2, 2, 1, 0))
    assert len(intersect(M1, shifted)) == 0


def test_classify_full_standard_clique():
    M1 = std_row_clique(F4, 2, 2, 0)
    got = classify_clique(M1.points())
    assert got.kind is Kind.ONE
    assert got.transform == Mat.identity(F4, 2)
    assert got.offset == Mat.zeros(F4, 2, 2)


def test_classify_proper_clique_returns_witness():
    S = VertexSet.from_mats([Mat.zeros(F4, 2, 2), Mat.unit(F4, 2, 2, 0, 0)])
    with pytest.raises(NotMaximal) as exc:
        classify_clique(S)
    w = exc.value.witness
    assert not S.contains(w)
    assert all(adjacent(w, M) for M in S)


def test_classify_rejects_non_adjacent_sets():
    S = VertexSet.from_mats([Mat.zeros(F4, 2, 2), Mat.identity(F4, 2)])
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
        A = sp.random_mat(rng)
        # P M1 + A: matrices P [x;0] + A
        pts = []
        for xcode in range(25):
            x = _bulk.decode(F5, np.int64(xcode), 1, 2)
            blk = np.zeros((2, 2), dtype=F5.dtype)
            blk[0] = x[0]
            pts.append(P @ Mat(F5, blk) + A)
        got = classify_clique(VertexSet.from_mats(pts))
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
    shifted = MaximalSet(Kind.TWO, N1.transform, Mat.unit(F4, 2, 2, 1, 1))
    with pytest.raises(Disjoint):
        line_through(M1, shifted)


def test_line_equals_intersection_random():
    rng = np.random.default_rng(4)
    sp = space(F4, 2, 3)
    hits = 0
    while hits < 5:
        A = sp.random_mat(rng)
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


def test_every_line_sits_in_one_clique_of_each_kind():
    # exhaustive at GF(2)^(2x2): lines = opposite-kind intersections
    sets_ = all_maximal_sets(F2, 2, 2)
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
    S = VertexSet.from_mats([Mat.zeros(F4, 2, 2),
                             Mat.unit(F4, 2, 2, 0, 0, c=1),
                             Mat.unit(F4, 2, 2, 0, 0, c=2)])
    assert dim_adjacent_set(S) == 1
    with pytest.raises(ZeroNotMember):
        dim_adjacent_set(VertexSet.from_mats([Mat.unit(F4, 2, 2, 0, 0)]))


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
    A = space(F4, 2, 2).random_mat(np.random.default_rng(0))
    assert unit_ball(A).contains(A)


def test_two_pencil_example():
    A = Mat.unit(F4, 2, 2, 0, 0)
    B1 = Mat.unit(F4, 2, 2, 0, 0, c=2)
    B2 = Mat.unit(F4, 2, 2, 0, 0, c=3)
    assert two_pencil_constraint(A, B1, B2, rows=[0], cols=[0])
    with pytest.raises(PreconditionViolated):
        two_pencil_constraint(A, B1, B1, rows=[0], cols=[0])
    with pytest.raises(PreconditionViolated):
        two_pencil_constraint(A, B1, Mat.unit(F4, 2, 2, 1, 1), rows=[0], cols=[0])


def test_two_pencil_sweep_gf4():
    checked, violations = two_pencil_sweep(F4, 2, 2, rows=[0], cols=[0])
    assert violations == []
    assert checked > 0


def test_structural_sets_match_brute_force_cliques():
    sets_ = all_maximal_sets(F2, 2, 2)
    assert len(sets_) == 24  # 12 of each kind: 3 directions x 4 cosets
    structural = {frozenset(int(c) for c in _bulk.encode(F2, s.point_entries()))
                  for s in sets_}
    brute = set(bron_kerbosch_cliques(F2, 2, 2))
    assert structural == brute
    assert clique_number(F2, 2, 2) == 4


def test_exactly_two_cliques_per_edge_small():
    cliques = bron_kerbosch_cliques(F2, 2, 2)
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
    sets_ = all_maximal_sets(F2, 2, 2)
    q = 2
    for i, M in enumerate(sets_):
        for N in sets_[i + 1:]:
            k = len(intersect(M, N))
            if M.kind == N.kind:
                assert k in (0, 1)
            else:
                assert k in (0, q)
