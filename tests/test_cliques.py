"""Maximal cliques, intersections, lines, dimension, unit balls."""

import numpy as np
import pytest

from bfgeo import _bulk, cliques
from bfgeo.cliques import (Kind, Line, MaximalSet, VertexSet, all_maximal_sets,
                           bron_kerbosch_cliques, classify_clique,
                           clique_number, complete_to_invertible_col,
                           complete_to_invertible_row, dim_adjacent_entries,
                           dim_adjacent_set,
                           intersect, line_through, maximal_sets_through,
                           two_pencil_constraint, two_pencil_sweep, unit_ball)
from bfgeo.errors import (Disjoint, NotAdjacent, NotAdjacentSet, NotMaximal,
                          PreconditionViolated, TheoremViolated, WrongKinds,
                          ZeroNotMember)
from bfgeo.fields import make_field
from bfgeo.matrices import Mat, adjacent, space

F2 = make_field(2, 1)
F3 = make_field(3, 1)
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
    # the entry core drops repeats, as the set's codes do
    pts = S.entries()
    assert dim_adjacent_entries(F4, np.concatenate([pts[::-1], pts[1:]])) == 1
    with pytest.raises(NotAdjacentSet):
        dim_adjacent_entries(F4, pts[[0, 0]])
    with pytest.raises(ZeroNotMember):
        dim_adjacent_entries(F4, pts[1:])


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


def every_offset_sets(field, m, n):
    """A MaximalSet for every direction and offset, kept by first key: the
    enumeration all_maximal_sets ran before it skipped covered offsets."""
    sp = space(field, m, n)
    out = {}
    for kind in (Kind.ONE, Kind.TWO):
        dirs = sp.monic_cols if kind is Kind.ONE else sp.monic_rows
        for d in dirs:
            if kind is Kind.ONE:
                t = complete_to_invertible_col(field, d)
            else:
                t = complete_to_invertible_row(field, d)
            for code in range(sp.count):
                ms = MaximalSet(kind, t, Mat.decode(field, code, m, n))
                k = ms.key()
                if k not in out:
                    out[k] = ms.canonical()
    return list(out.values())


@pytest.mark.parametrize("field,m,n", [(F2, 2, 3), (F3, 2, 2)])
def test_all_maximal_sets_match_the_every_offset_enumeration(field, m, n):
    got, want = all_maximal_sets(field, m, n), every_offset_sets(field, m, n)
    assert [s.key() for s in got] == [s.key() for s in want]
    assert [(s.offset, s.transform) for s in got] == [(s.offset, s.transform) for s in want]
    q = field.q

    def gauss(k):
        return (q**k - 1) // (q - 1)

    assert len(got) == gauss(m) * q**(m * n - n) + gauss(n) * q**(m * n - m)


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
    for field in (F2, F3):
        sets_ = all_maximal_sets(field, 2, 2)
        q = field.q
        for i, M in enumerate(sets_):
            # oracle: M's points that N's transform-based membership test keeps
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
    rank-1 scan, then the first clique form whose generator every
    difference from pts[0] shares."""
    diffs = field.vsub(pts[:, None], pts[None, :])[~np.eye(len(pts), dtype=bool)]
    if not _bulk.adjacent_mask(field, diffs).all():
        raise NotAdjacentSet("some pair is not at distance 1")
    for kind, axis in ((Kind.ONE, "col"), (Kind.TWO, "row")):
        g = _bulk.generators(field, field.vsub(pts[1:], pts[0]), axis)
        if (g == g[0]).all():
            return kind, g[0]
    raise TheoremViolated("adjacent set outside both clique forms")


def outcome(fn, *args):
    """A call's result, or its exception type and witness."""
    try:
        got = fn(*args)
    except (NotAdjacentSet, NotMaximal, TheoremViolated, ZeroNotMember) as e:
        return type(e), getattr(e, "witness", None)
    return got if isinstance(got, int) else (got.kind, got.transform, got.offset)


def oracle_sets(field, m, n, rng):
    """Every Bron-Kerbosch clique, a random proper subset of it and the
    clique with one point moved, then random sets of 1 to 5 points."""
    count = field.q ** (m * n)
    out = []
    for c in bron_kerbosch_cliques(field, m, n):
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
        for side in (got, want):
            with monkeypatch.context() as mp:
                if side is want:
                    mp.setattr(cliques, "_clique_host", pairwise_host_oracle)
                side.append((outcome(classify_clique, S),
                             outcome(dim_adjacent_entries, field, through0),
                             outcome(dim_adjacent_entries, field, S.entries())))
    assert got == want
    # the sets reach both kinds of host and both rejections
    assert {r[0] for r, _, _ in got} == {Kind.ONE, Kind.TWO, NotMaximal, NotAdjacentSet}


def test_an_adjacent_set_failing_the_clique_test_breaks_loudly(monkeypatch):
    S = std_row_clique(F4, 2, 3, 0).points()
    far = VertexSet.from_mats([Mat.zeros(F4, 2, 2), Mat.identity(F4, 2)])

    def no_pair_scan(field, pts):
        raise AssertionError("pairs are scanned only after the clique test fails")

    with monkeypatch.context() as mp:
        mp.setattr(cliques, "_check_pairwise_adjacent", no_pair_scan)
        assert classify_clique(S).kind is Kind.ONE and dim_adjacent_set(S) == 3
    real = cliques._clique_test

    def reject(field, D):
        passes, u, v = real(field, D)
        return np.zeros_like(passes), u, v

    monkeypatch.setattr(cliques, "_clique_test", reject)
    with pytest.raises(TheoremViolated):
        classify_clique(S)
    with pytest.raises(TheoremViolated):
        dim_adjacent_set(S)
    with pytest.raises(NotAdjacentSet):
        classify_clique(far)
