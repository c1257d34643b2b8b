"""Matrix arithmetic, rank metric and the BFS graph distance."""

import numpy as np
import pytest

from bfgeo import _bulk
from bfgeo.errors import ShapeMismatch, Singular
from bfgeo.fields import enumerate_homs, make_field
from bfgeo.matrices import (Mat, adjacent, arithmetic_distance, bfs_distances,
                            count_rank_matrices, graph_distance,
                            random_invertible, space)

F4 = make_field(2, 2)
F5 = make_field(5, 1)


def brute_rank(M: Mat) -> int:
    """Reference rank: largest r with an r x r submatrix of nonzero det."""
    from itertools import combinations
    F = M.field

    def det(rows, cols):
        from itertools import permutations
        total = 0
        for perm in permutations(range(len(cols))):
            prod = 1
            for i, pi in enumerate(perm):
                prod = F.mul(prod, int(M.a[rows[i], cols[pi]]))
            # parity sign
            inv = sum(1 for x in range(len(perm)) for y in range(x + 1, len(perm))
                      if perm[x] > perm[y])
            total = F.add(total, prod if inv % 2 == 0 else F.neg(prod))
        return total

    for r in range(min(M.m, M.n), 0, -1):
        for rows in combinations(range(M.m), r):
            for cols in combinations(range(M.n), r):
                if det(rows, cols) != 0:
                    return r
    return 0


def test_rank_examples():
    assert Mat.zeros(F4, 2, 2).rank() == 0
    assert Mat.identity(F4, 2).rank() == 2
    E = Mat.unit(F4, 2, 3, 0, 0) + Mat.unit(F4, 2, 3, 1, 1)
    assert E.rank() == 2


def test_rank_matches_minor_oracle():
    rng = np.random.default_rng(7)
    for F in (F4, F5):
        for _ in range(60):
            M = Mat(F, rng.integers(0, F.q, size=(3, 3)).astype(F.dtype))
            assert M.rank() == brute_rank(M)
    # and rank is transpose invariant
    for _ in range(40):
        M = Mat(F4, rng.integers(0, 4, size=(2, 3)).astype(F4.dtype))
        assert M.rank() == M.T.rank()


def test_arithmetic_distance_basics():
    Z = Mat.zeros(F5, 2, 2)
    assert arithmetic_distance(Z, Z) == 0
    assert arithmetic_distance(Z, Mat.unit(F5, 2, 2, 0, 0)) == 1
    assert arithmetic_distance(Z, Mat.identity(F5, 2)) == 2
    with pytest.raises(ShapeMismatch):
        arithmetic_distance(Z, Mat.zeros(F5, 2, 3))


def test_adjacency():
    Z = Mat.zeros(F4, 2, 2)
    assert adjacent(Z, Mat.unit(F4, 2, 2, 0, 0))
    assert not adjacent(Z, Z)
    assert not adjacent(Z, Mat.identity(F4, 2))


def test_metric_axioms_on_random_triples():
    rng = np.random.default_rng(3)
    sp = space(F5, 2, 2)
    for _ in range(300):
        A, B, C = (sp.random_mat(rng) for _ in range(3))
        assert arithmetic_distance(A, B) == arithmetic_distance(B, A)
        assert (arithmetic_distance(A, B) == 0) == (A == B)
        assert arithmetic_distance(A, B) <= (arithmetic_distance(A, C)
                                             + arithmetic_distance(C, B))


def test_rank_invariant_under_invertible_factors():
    rng = np.random.default_rng(11)
    for _ in range(40):
        A = space(F4, 2, 3).random_mat(rng)
        P = random_invertible(rng, F4, 2)
        Q = random_invertible(rng, F4, 3)
        assert (P @ A @ Q).rank() == A.rank()


def test_inverse():
    assert Mat.identity(F4, 3).inverse() == Mat.identity(F4, 3)
    D = Mat.diag(F4, [2, 1])
    Dinv = D.inverse()
    assert Dinv == Mat.diag(F4, [3, 1])  # alpha^-1 = alpha^2 = alpha + 1
    assert D @ Dinv == Mat.identity(F4, 2)
    with pytest.raises(Singular):
        Mat.unit(F4, 2, 2, 0, 0).inverse()


def test_apply_hom_entrywise():
    ident, frob = enumerate_homs(F4, F4)
    A = Mat.from_text(F4, "2,1;0,3")
    assert A.apply_hom(ident) == A
    assert Mat.zeros(F4, 2, 3).apply_hom(frob) == Mat.zeros(F4, 2, 3)
    scaled = Mat.unit(F4, 2, 2, 0, 0, c=2)
    assert scaled.apply_hom(frob) == Mat.unit(F4, 2, 2, 0, 0, c=3)
    # commutes with transpose
    assert A.apply_hom(frob).T == A.T.apply_hom(frob)


def test_text_encoding_roundtrip():
    A = Mat.from_text(F4, "0,1;2,3")
    assert A.to_text() == "0,1;2,3"
    assert Mat.from_text(F4, A.to_text()) == A


def test_integer_encoding_is_lexicographic():
    sp = space(F4, 2, 2)
    codes = [M.encode() for M in sp]
    assert codes == list(range(sp.count))
    # code order agrees with row-major lexicographic order on entries
    flat = sp.entries.reshape(sp.count, -1)
    assert all(tuple(flat[i]) < tuple(flat[i + 1]) for i in range(sp.count - 1))


def test_count_rank_matrices_vs_exhaustive():
    for (p, k, m, n) in [(2, 1, 2, 2), (2, 1, 2, 3), (3, 1, 2, 2)]:
        F = make_field(p, k)
        sp = space(F, m, n)
        ranks = _bulk.rank(F, sp.entries)
        for r in range(min(m, n) + 1):
            assert int((ranks == r).sum()) == count_rank_matrices(F, m, n, r)


def test_rank1_enumeration_matches_rank_filter():
    sp = space(F4, 2, 2)
    by_filter = set(np.nonzero(_bulk.rank(F4, sp.entries) == 1)[0].tolist())
    by_outer = set(int(c) for c in sp.rank1_codes)
    assert by_filter == by_outer


def test_graph_distance_examples():
    Z = Mat.zeros(F4, 2, 2)
    assert graph_distance(Z, Z) == 0
    assert graph_distance(Z, Mat.identity(F4, 2)) == 2
    d0 = bfs_distances(Z)
    assert int((d0 == 1).sum()) == 75  # brute-force rank-1 count over GF(4)^(2x2)


def test_graph_distance_equals_rank_distance_exhaustive_small():
    F2 = make_field(2, 1)
    sp = space(F2, 2, 2)
    for A in sp:
        dist = bfs_distances(A)
        for B in sp:
            assert dist[B.encode()] == arithmetic_distance(A, B)


def test_block_ops():
    A = Mat.from_text(F4, "1,2;3,0")
    big = A.embed(3, 4, at=(1, 1))
    assert big.block([1, 2], [1, 2]) == A
    assert big.rank() == A.rank()
    stacked = Mat.vstack(A, Mat.zeros(F4, 1, 2))
    assert stacked.shape == (3, 2)
    side = Mat.hstack(A, Mat.identity(F4, 2))
    assert side.shape == (2, 4)


def test_bulk_inverse_and_det_agree():
    rng = np.random.default_rng(5)
    mats = rng.integers(0, 4, size=(200, 3, 3)).astype(F4.dtype)
    dets = _bulk.det(F4, mats)
    ranks = _bulk.rank(F4, mats)
    assert np.array_equal(dets != 0, ranks == 3)
    inv_ok = mats[dets != 0]
    invs = _bulk.inverse(F4, inv_ok)
    prods = _bulk.matmul(F4, inv_ok, invs)
    assert np.array_equal(prods, np.broadcast_to(_bulk.identity(F4, 3), prods.shape))


def test_solve_affine():
    A = np.array([[1, 2], [0, 1], [1, 3]])
    x_true = np.array([3, 2])
    b = _bulk.matmul(F4, A.astype(np.int64), x_true[:, None].astype(np.int64))[:, 0]
    sol = _bulk.solve_affine(F4, A, b)
    assert sol is not None
    x, basis = sol
    assert np.array_equal(x, x_true)
    assert basis.shape[0] == 0
    # inconsistent system
    bad = _bulk.solve_affine(F4, np.array([[1, 0], [1, 0]]), np.array([1, 2]))
    assert bad is None


def test_solve_affine_matches_exhaustive_search():
    # a rank-2 system in 4 unknowns over GF(4): 16 solutions
    A = np.array([[1, 2, 0, 3], [0, 1, 1, 2], [1, 3, 1, 1]])
    b = _bulk.matmul(F4, A, np.array([[2], [0], [1], [3]]))[:, 0]
    x, basis = _bulk.solve_affine(F4, A, b)
    assert basis.shape == (2, 4)
    allx = _bulk.decode(F4, np.arange(4**4), 1, 4)[:, 0, :]
    hits = allx[(_bulk.matmul(F4, allx[:, None, :], A.T[None])[:, 0, :] == b).all(axis=1)]
    coeffs = _bulk.decode(F4, np.arange(16), 1, 2)[:, 0, :]
    spanned = F4.vadd(x, _bulk.matmul(F4, coeffs[:, None, :], basis[None])[:, 0, :])
    assert sorted(_bulk.encode(F4, hits[:, None, :])) == \
        sorted(_bulk.encode(F4, spanned[:, None, :]))


def test_monic_generators():
    v = _bulk.monic(F5, np.array([[0, 3, 1], [2, 0, 4]]))
    assert np.array_equal(v, [[0, 1, 2], [1, 0, 2]])
    with pytest.raises(ValueError):
        _bulk.monic(F5, np.array([[1, 2], [0, 0]]))
    u = np.array([0, 1, 3])
    w = np.array([2, 0, 4, 1])
    R = F5.vmul(u[:, None], w[None, :])  # rank 1 with column space u
    stack = np.stack([R, F5.vmul(R, 2)])
    assert np.array_equal(_bulk.common_generator(F5, stack, "col"), u)
    assert np.array_equal(_bulk.common_generator(F5, stack, "row"), [1, 0, 2, 3])
    other = F5.vmul(np.array([1, 0, 0])[:, None], w[None, :])
    assert _bulk.common_generator(F5, np.stack([R, other]), "col") is None
    assert _bulk.common_generator(F5, stack[:0], "col") is None
    assert np.array_equal(space(F5, 2, 3).monic_rows,
                          _bulk.monic(F5, space(F5, 2, 3).monic_rows))


def test_mat_rejects_out_of_range_entries():
    F257 = make_field(257, 1)
    F256 = make_field(2, 8)
    for F in (F4, F257):
        for bad in ([[-1, 0]], [[F.q, 0]]):
            with pytest.raises(ValueError):
                Mat(F, bad)
    with pytest.raises(ValueError):
        Mat(F256, np.array([[-1, 0]]))  # would wrap to 255 in uint8
    assert Mat(F256, np.array([[255, 0]], dtype=np.uint8)).a[0, 0] == 255
    assert Mat(F257, [[256, 0]]).a[0, 0] == 256
