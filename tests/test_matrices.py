"""Matrix arithmetic, rank metric and the BFS graph distance."""

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from bfgeo import _bulk, matrices, verify
from bfgeo.cliques import _clique_test
from bfgeo.errors import DomainTooLarge, ShapeMismatch, Singular
from bfgeo.fields import field_from_order, make_field
from bfgeo.matrices import (Mat, MatrixSpace, adjacent, arithmetic_distance,
                            bfs_distances, count_rank_matrices, graph_distance,
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
            total = int(F.vadd(total, prod if inv % 2 == 0 else F.neg(prod)))
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
        A, B, C = (sp.mat(int(rng.integers(sp.count))) for _ in range(3))
        assert arithmetic_distance(A, B) == arithmetic_distance(B, A)
        assert (arithmetic_distance(A, B) == 0) == (A == B)
        assert arithmetic_distance(A, B) <= (arithmetic_distance(A, C)
                                             + arithmetic_distance(C, B))


def test_rank_invariant_under_invertible_factors():
    rng, sp = np.random.default_rng(11), space(F4, 2, 3)
    for _ in range(40):
        A = sp.mat(int(rng.integers(sp.count)))
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


def test_bulk_rank_and_inverse_take_any_leading_axes():
    rng = np.random.default_rng(8)
    M = rng.integers(0, 4, size=(3, 4, 5, 5)).astype(F4.dtype)
    flat = M.reshape(12, 5, 5)
    ranks = _bulk.rank(F4, flat)
    assert _bulk.rank(F4, M).tolist() == ranks.reshape(3, 4).tolist()
    assert _bulk.invertible_mask(F4, M).tolist() == (ranks == 5).reshape(3, 4).tolist()
    inv = M[_bulk.invertible_mask(F4, M)][None]
    assert inv.shape[1] > 1
    prod = _bulk.matmul(F4, inv, _bulk.inverse(F4, inv))
    assert (prod == _bulk.identity(F4, 5)).all()


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


def test_encode_rejects_codes_past_int64():
    # GF(2^16)^(3x4) has 2^192 points: E_00 used to wrap to code 0
    F = make_field(2, 16)
    E00 = np.zeros((3, 4), dtype=F.dtype)
    E00[0, 0] = 1
    with pytest.raises(DomainTooLarge):
        _bulk.encode(F, E00)
    top = np.ones((7, 9), dtype=np.uint8)  # 2^63 points: codes still fit
    assert _bulk.encode(make_field(2, 1), top) == 2**63 - 1


def test_bounded_power_refuses_past_the_limit_before_the_power():
    assert matrices.bounded_power(2, 20, "q^e") == 1 << 20  # at the bound
    assert matrices.bounded_power(32, 4, "q^e") == 1 << 20
    for q, e in [(2, 21), (1025, 2), (3, 10**15), (65521, 10**12)]:
        with pytest.raises(DomainTooLarge, match=rf"^q\^e = {q}\^{e} exceeds the "
                                                 "enumeration bound 1048576$"):
            matrices.bounded_power(q, e, "q^e")
    with pytest.raises(DomainTooLarge, match="^pairs = 5 exceeds the table bound of 4 entries$"):
        matrices.bounded(5, "pairs = 5", 4, "table bound of {} entries")


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


def frontier_bfs_oracle(A: Mat):
    """One-source BFS that scatters frontier codes through neighbor_perms
    and deduplicates them with np.unique, level by level: the form
    bfs_distances had before the gather, kept as its reference."""
    sp = space(A.field, A.m, A.n)
    cap = min(A.m, A.n) + 1
    dist = np.full(sp.count, -1, dtype=np.int8)
    frontier = np.array([A.encode()], dtype=np.int64)
    dist[frontier] = 0
    level = 0
    while frontier.size and level < cap:
        level += 1
        nxt = sp.neighbor_perms[:, frontier].reshape(-1)
        nxt = nxt[dist[nxt] < 0]
        if nxt.size:
            nxt = np.unique(nxt)
            dist[nxt] = level
        frontier = nxt
    return dist


@pytest.mark.parametrize("p,k,m,n", [(2, 1, 2, 3), (3, 1, 2, 2), (2, 2, 3, 2),
                                     (2, 1, 1, 4), (5, 1, 2, 2)])
def test_bfs_distances_match_the_frontier_bfs(p, k, m, n, monkeypatch):
    F = make_field(p, k)
    sp = space(F, m, n)
    if sp.count <= 100:
        sources = np.arange(sp.count)
    else:  # unsorted, with a repeat, both ends of the code range
        rng = np.random.default_rng(sp.count)
        sources = np.r_[sp.count - 1, rng.integers(sp.count, size=40), 0, 7, 7]
    want = [frontier_bfs_oracle(sp.mat(int(a))) for a in sources]
    # every increment in one gather, within one budget and within two; then
    # one increment per gather
    for budget in (sp.neighbor_perms.size, 2 * sp.neighbor_perms.size, 1):
        monkeypatch.setattr(matrices, "_BFS_BLOCK_BYTES", budget)
        for a, dist in zip(sources, want):
            assert np.array_equal(bfs_distances(sp.mat(int(a))), dist)


def all_pairs_distance_oracle(field, m, n):
    """distance_theorem_check's report as it was computed before the
    certificate at 0: a BFS from every point against _pairwise_ranks on all
    count^2 pairs, each failing pair a witness "a:b", and the edges counted
    among the pairs at rank 1."""
    sp = space(field, m, n)
    ads = verify._pairwise_ranks(field, sp.entries)
    a, b = np.nonzero(np.stack([bfs_distances(A) for A in sp]) != ads)
    mismatches = [f"{x}:{y}" for x, y in zip(a, b)]
    edges = int((ads == 1).sum()) // 2
    if edges != (want := sp.count * count_rank_matrices(field, m, n, 1) // 2):
        mismatches.append(f"edges {edges}, closed form {want}")
    return {"vertices": sp.count, "pairs": sp.count**2, "edges": edges,
            "mismatches": sorted(mismatches)}


@pytest.mark.parametrize("p,k,m,n", [(2, 1, 2, 2), (3, 1, 2, 2), (2, 2, 2, 2), (5, 1, 2, 2),
                                     (3, 1, 2, 3), (2, 1, 1, 4), (2, 1, 3, 2)])
def test_distance_certificate_agrees_with_the_all_pairs_oracle(p, k, m, n):
    F = make_field(p, k)
    info = verify.distance_theorem_check(F, m, n)
    assert info == all_pairs_distance_oracle(F, m, n)
    assert info["mismatches"] == []


def checked_on(sp, monkeypatch):
    """distance_theorem_check on sp, an uncached space, so the shared one
    stays intact; the check and its BFS both read sp's table."""
    for module in (verify, matrices):
        monkeypatch.setattr(module, "space", lambda *a: sp)
    return verify.distance_theorem_check(sp.field, sp.m, sp.n)


def test_distance_check_reports_a_corrupted_neighbour_row(monkeypatch):
    F = make_field(3, 1)
    sp = MatrixSpace(F, 2, 2)
    sp.neighbor_perms[5] = np.arange(sp.count)  # the increment R_5 leads nowhere
    info = checked_on(sp, monkeypatch)
    # (a) finds every code of row 5 wrong, in one witness; from 0 the BFS
    # now reaches -R_5 at level 2 only, and level 1 has one point too few
    neg = int(sp.code_sub(0, sp.rank1_codes[5]))
    assert info["mismatches"] == sorted(["row 5: code 0, 81 bad", f"0:{neg}",
                                         "edges 1255, closed form 1296"])
    assert info["edges"] == 81 * 31 // 2


def test_distance_check_reports_one_wrong_entry_the_bfs_cannot_see(monkeypatch):
    F = make_field(3, 1)
    sp = MatrixSpace(F, 2, 2)
    ranks, perms = _bulk.rank(F, sp.entries), sp.neighbor_perms
    # a rank-2 point X whose neighbours X + R_0 and X + R_r have one rank:
    # pointing row 0 at X + R_r leaves every distance from 0 as it was
    x = int(np.flatnonzero(ranks == 2)[0])
    r = next(r for r in range(1, len(perms))
             if ranks[perms[r, x]] == ranks[perms[0, x]] and perms[r, x] != perms[0, x])
    perms[0, x] = perms[r, x]
    info = checked_on(sp, monkeypatch)
    assert info["mismatches"] == [f"row 0: code {x}, 1 bad"]
    assert info["edges"] == 1296
    assert np.array_equal(bfs_distances(Mat.zeros(F, 2, 2)), ranks)  # on sp's table


def test_distance_check_reports_a_wrong_rank(monkeypatch):
    # the ranks are cached on the space, so one is corrupted on an uncached one
    sp = MatrixSpace(make_field(3, 1), 2, 2)
    ranks = sp.ranks.copy()
    ranks[7] += 1
    sp.ranks = ranks
    assert checked_on(sp, monkeypatch)["mismatches"] == ["0:7"]


@pytest.mark.parametrize("p,k", [(3, 1), (2, 2)])
def test_distance_check_reports_a_dropped_increment(p, k, monkeypatch):
    # the table walks the listed increments faithfully, so (a) passes; the
    # BFS from 0 misses -R_0 at level 1, and the edges fall short
    F = make_field(p, k)
    sp = MatrixSpace(F, 2, 2)
    full = _bulk.encode(F, sp.rank1)
    sp.rank1 = sp.rank1[1:]
    neg = int(sp.code_sub(0, full[0]))
    edges, want = sp.count * (len(full) - 1) // 2, sp.count * len(full) // 2
    info = checked_on(sp, monkeypatch)
    assert info["mismatches"] == sorted([f"0:{neg}", f"edges {edges}, closed form {want}"])
    assert info["edges"] == edges


def test_distance_check_counts_edges_against_the_closed_form(monkeypatch):
    F = make_field(3, 1)
    edges = 81 * count_rank_matrices(F, 2, 2, 1) // 2
    assert verify.distance_theorem_check(F, 2, 2)["edges"] == edges == 1296
    # a closed form that counts one rank-1 matrix too many
    monkeypatch.setattr(verify, "count_rank_matrices", lambda *a: count_rank_matrices(*a) + 1)
    info = verify.distance_theorem_check(F, 2, 2)
    assert info["edges"] == edges
    assert info["mismatches"] == [f"edges {edges}, closed form {81 * 33 // 2}"]


@pytest.mark.parametrize("q,m,n", [(3, 2, 2), (4, 2, 2), (5, 2, 2), (8, 1, 3), (9, 2, 1)])
def test_pair_codes_equal_the_codes_of_the_full_sum_and_difference_stacks(q, m, n, monkeypatch):
    F = field_from_order(q)
    ents = space(F, m, n).entries
    A = ents[np.random.default_rng(q).permutation(len(ents))[:40]]
    # one block; then blocks of 3 rows of int64 codes, the last one short
    for budget in (verify._PAIR_BLOCK_BYTES, 3 * 8 * len(ents)):
        monkeypatch.setattr(verify, "_PAIR_BLOCK_BYTES", budget)
        for subtract, op in ((False, F.vadd), (True, F.vsub)):
            blocks = list(verify._pair_codes(F, A.reshape(len(A), -1),
                                             ents.reshape(len(ents), -1), subtract))
            rows = [np.arange(len(A))[b] for b, _ in blocks]
            assert [len(r) for r in rows] == ([40] if len(blocks) == 1 else [3] * 13 + [1])
            assert np.array_equal(np.concatenate(rows), np.arange(len(A)))
            codes = np.concatenate([c for _, c in blocks])
            assert np.array_equal(codes, _bulk.encode(F, op(A[:, None], ents[None])))


def test_pairwise_ranks_equal_a_direct_rref_of_every_difference(monkeypatch):
    F = make_field(3, 1)
    ents = space(F, 2, 2).entries
    for stack in (ents, ents[np.random.default_rng(3).permutation(len(ents))]):
        diffs = F.vsub(stack[:, None], stack[None]).reshape(-1, 2, 2)
        direct = _bulk.rank(F, diffs).reshape(len(stack), len(stack))
        # one row block; then blocks of 7 rows of 81 int64 difference codes,
        # the last one short
        for budget in (verify._PAIR_BLOCK_BYTES, 7 * 8 * 81):
            monkeypatch.setattr(verify, "_PAIR_BLOCK_BYTES", budget)
            assert np.array_equal(verify._pairwise_ranks(F, stack), direct)


def test_block_ops():
    A = Mat.from_text(F4, "1,2;3,0")
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


@pytest.mark.parametrize("p, k", [(5, 1), (2, 2), (2, 4), (3, 2)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_adjugate_inverse_matches_the_rref_inverse(p, k, m):
    F = make_field(p, k)
    rng = np.random.default_rng(100 * p + 10 * k + m)
    mats = rng.integers(0, F.q, size=(300, m, m)).astype(F.dtype)
    mats = mats[_bulk.det(F, mats) != 0]
    oracle = _bulk._rref_inverse(F, mats)
    invs = _bulk.inverse(F, mats)
    assert invs.dtype == oracle.dtype == F.dtype
    assert np.array_equal(invs, oracle)
    assert np.array_equal(_bulk.inverse(F, mats, _bulk.det(F, mats)), oracle)
    assert np.array_equal(_bulk.inverse(F, mats[0]), oracle[0])
    assert np.array_equal(Mat(F, mats[0]).inverse().a, oracle[0])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_inverse_of_a_stack_with_one_singular_member_raises(m):
    F = make_field(3, 2)
    rng = np.random.default_rng(m)
    mats = np.stack([random_invertible(rng, F, m).a for _ in range(5)])
    mats[3, 0] = 0
    with pytest.raises(ZeroDivisionError):
        _bulk.inverse(F, mats)
    with pytest.raises(ZeroDivisionError):
        _bulk.inverse(F, mats[3])
    with pytest.raises(Singular):
        Mat(F, mats[3]).inverse()


def _termwise_matmul(field, A, B):
    """Reference product: one vmul and one vadd per inner term."""
    out = field.vmul(A[..., :, 0, None], B[..., None, 0, :])
    for s in range(1, A.shape[-1]):
        out = field.vadd(out, field.vmul(A[..., :, s, None], B[..., None, s, :]))
    return out


# 32749 with t = 2 sits just below the int32 accumulator's bound, t = 3 above it
@pytest.mark.parametrize("p", [3, 5, 181, 193, 32749, 65521])
@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_prime_field_matmul_matches_the_termwise_product(p, t):
    F = make_field(p, 1)
    rng = np.random.default_rng(p + t)
    A = rng.integers(0, p, size=(50, 3, t)).astype(F.dtype)
    for B in (rng.integers(0, p, size=(1, t, 2)), rng.integers(0, p, size=(50, t, 2))):
        B = B.astype(F.dtype)
        ref = _termwise_matmul(F, A, B)
        out = _bulk.matmul(F, A, B)
        assert np.array_equal(out, ref)
        assert out.dtype.itemsize <= ref.dtype.itemsize
    # one left factor for a whole stack, as in P @ images
    B = rng.integers(0, p, size=(50, t, 2)).astype(F.dtype)
    assert np.array_equal(_bulk.matmul(F, A[0], B), _termwise_matmul(F, A[0], B))
    # the largest entries: (p - 1)^2 t must not overflow the accumulator
    top = np.full((2, 3, t), p - 1, dtype=F.dtype)
    assert np.array_equal(_bulk.matmul(F, top, np.swapaxes(top, 1, 2)),
                          _termwise_matmul(F, top, np.swapaxes(top, 1, 2)))
    assert np.array_equal(_bulk.matmul(F, top[0], np.swapaxes(top, 1, 2)),
                          _termwise_matmul(F, top[0], np.swapaxes(top, 1, 2)))


@pytest.mark.parametrize("p", [3, 5, 181, 191, 65521])
def test_prime_field_bulk_kernels_keep_the_remainder_values_and_dtypes(p):
    # the kernels as written with numpy's %, on entries up to p - 1: matrix
    # 0 has rank 1, matrix 1 the minor 0 (p - 1) - (p - 1)^2 = -(p - 1)^2
    # and rank 2, matrix 2 rank 1 with zero rows and columns
    F = make_field(p, 1)
    rng = np.random.default_rng(p)
    M = rng.integers(0, p, size=(300, 3, 4)).astype(F.dtype)
    M[0], M[1], M[1, 0, 0] = p - 1, p - 1, 0
    M[2] = np.outer([1, 2, 0], [0, 1, 1, p - 1]) % p
    B = rng.integers(0, p, size=(4, 2)).astype(F.dtype)
    acc = np.int32 if (p - 1) ** 2 * 4 < 2**31 else np.int64
    want = (np.matmul(M.astype(acc), B.astype(acc)) % p).astype(F._arith_dtype)
    got = _bulk.matmul(F, M, B)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    W = M.astype(np.int64)
    want = np.ones(len(M), dtype=bool)
    for i, i2 in itertools.combinations(range(3), 2):
        for j, j2 in itertools.combinations(range(4), 2):
            want &= (W[:, i, j] * W[:, i2, j2] - W[:, i, j2] * W[:, i2, j]) % p == 0
    got = _bulk.rank_le1_mask(F, M)
    assert got.dtype == bool and np.array_equal(got, want)
    assert got[0] and not got[1] and got[2]


@pytest.mark.parametrize("p,k,m,n", [(5, 1, 2, 3), (3, 2, 2, 2), (65521, 1, 1, 3),
                                     (3, 1, 3, 13)])
def test_decode_keeps_the_remainder_digits_and_the_field_dtype(p, k, m, n):
    # up to q^(m n) - 1: 3^39 - 1 is the largest GF(3) code within int64
    F = make_field(p, k)
    top = F.q ** (m * n) - 1
    codes = np.random.default_rng(p).integers(0, top, size=(50, 4), endpoint=True)
    codes[0, :2] = 0, top
    want = np.empty(codes.shape + (m * n,), dtype=F.dtype)
    rem = codes.copy()
    for t in range(m * n - 1, -1, -1):
        want[..., t] = rem % F.q
        rem //= F.q
    got = _bulk.decode(F, codes, m, n)
    assert got.dtype == F.dtype
    assert np.array_equal(got, want.reshape(codes.shape + (m, n)))
    assert np.array_equal(_bulk.encode(F, got), codes)


def _table_rank_le1(field, M):
    """Reference mask: every 2x2 minor through vmul and vsub."""
    m, n = M.shape[-2:]
    ok = np.ones(M.shape[:-2], dtype=bool)
    for i, i2 in itertools.combinations(range(m), 2):
        for j, j2 in itertools.combinations(range(n), 2):
            ok &= field.vsub(field.vmul(M[..., i, j], M[..., i2, j2]),
                             field.vmul(M[..., i, j2], M[..., i2, j])) == 0
    return ok


# 181 is the last prime whose minors fit int16, 191 the first that does not
@pytest.mark.parametrize("p", [3, 5, 181, 191, 32749, 65521])
def test_prime_field_rank_le1_mask_matches_the_table_minors(p):
    F = make_field(p, 1)
    rng = np.random.default_rng(p)
    mats = rng.integers(0, p, size=(300, 3, 4))
    mats[::3] = mats[::3, :, :1] * mats[::3, :1, :] % p  # rank <= 1
    # all p - 1, and a d - b c at the extremes +-(p - 1)^2
    top = np.full((3, 4), p - 1)
    diag, anti = np.zeros((3, 4), dtype=np.int64), np.zeros((3, 4), dtype=np.int64)
    diag[0, 0] = diag[1, 1] = anti[0, 1] = anti[1, 0] = p - 1
    mats = np.concatenate([mats, [top, diag, anti]]).astype(F.dtype)
    got = _bulk.rank_le1_mask(F, mats)
    assert np.array_equal(got, _table_rank_le1(F, mats))
    assert got[-3] and not got[-2] and not got[-1] and got[:-3:3].all()


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
    # the clique test reads the shared generator off differences from 0,
    # laid out as entry planes (m, n, 1 item, K members)
    passes, gu, gv = _clique_test(F5, np.moveaxis(stack, 0, -1)[:, :, None])
    assert passes[0] and gu[0].any() and gv[0].any() and np.array_equal(gu[0], u)
    passes, gu, _ = _clique_test(F5, np.moveaxis(stack, 0, -1).swapaxes(0, 1)[:, :, None])
    assert passes[0] and gu[0].any() and np.array_equal(gu[0], [1, 0, 2, 3])
    other = F5.vmul(np.array([1, 0, 0])[:, None], w[None, :])
    passes, gu, gv = _clique_test(F5, np.stack([R, other], axis=-1)[:, :, None])
    assert passes[0] and not gu[0].any() and np.array_equal(gv[0], [1, 0, 2, 3])
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


@pytest.mark.parametrize("entries", [
    [[0.5, 1], [2, 3.9]], [[0.0, 1.0], [2.0, 3.0]], np.array([["0", "1"], ["2", "3"]]),
    np.array([[0, 1], [2, 3]], dtype=object),
], ids=["fractions", "whole floats", "str", "object"])
def test_mat_refuses_non_integer_entries(entries):
    # [[0.5, 1], [2, 3.9]] was cast to [[0, 1], [2, 3]], silently
    with pytest.raises(ValueError, match="must be integers"):
        Mat(F4, entries)
    assert Mat(F4, np.array([[True, False]])).a.tolist() == [[1, 0]]


@pytest.mark.parametrize("p,k,m,n", [(2, 1, 2, 3), (2, 1, 3, 1), (3, 1, 3, 2),
                                     (2, 2, 2, 2), (5, 1, 1, 3)])
def test_clique_members_hold_each_edge_once(p, k, m, n):
    F = make_field(p, k)
    sp = space(F, m, n)
    cl = sp.clique_members
    assert cl.shape[1] == F.q ** max(m, n)
    assert (np.diff(cl, axis=1) > 0).all()  # ascending: the base first
    i, j = np.triu_indices(cl.shape[1], k=1)
    lo, hi = cl[:, i].ravel(), cl[:, j].ravel()
    assert len(np.unique(lo * sp.count + hi)) == len(lo)
    assert len(lo) == sp.count * count_rank_matrices(F, m, n, 1) // 2
    diffs = F.vsub(sp.entries[hi], sp.entries[lo])
    assert (_bulk.rank(F, diffs) == 1).all()


def test_a_cleared_space_is_freed_with_its_tables():
    # the tables live on the instance: a cache keyed on the space would keep
    # it, and its neighbour tables, alive after space.cache_clear()
    sp = space(make_field(3, 1), 2, 3)
    for table in (sp.entries, sp.neighbor_perms, sp.clique_members,
                  sp.maximal_cliques("col"), sp.maximal_cliques("row")):
        assert len(table)
    ref = weakref.ref(sp)
    del sp, table
    space.cache_clear()
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("p,k,m,n", [(2, 1, 2, 3), (2, 1, 3, 1), (3, 1, 3, 2),
                                     (2, 2, 2, 2), (5, 1, 1, 3), (2, 1, 4, 3),
                                     (3, 1, 1, 1)])
def test_cliques_through_a_point_hold_it_once_per_direction(p, k, m, n):
    # (2, 1, 4, 3): a tall space whose bases do not ascend within a direction
    F = make_field(p, k)
    sp = space(F, m, n)
    codes = np.arange(sp.count)
    through = sp.cliques_through(codes)
    directions = (F.q ** min(m, n) - 1) // (F.q - 1)
    assert through.shape == (sp.count, directions)
    assert ((sp.clique_members[through] == codes[:, None, None]).sum(axis=2) == 1).all()
    assert (np.diff(np.sort(through, axis=1), axis=1) > 0).all()
    # every clique holds exactly its own members
    hits = np.bincount(through.ravel(), minlength=len(sp.clique_members))
    assert (hits == sp.clique_members.shape[1]).all()


# (p, k, m, n) on both sides of each change of the digit-group width g, the
# widest with q^(2g) <= 2^20: one group up to 1024 points, then several
CODE_SPACES = [
    (3, 1, 2, 3), (3, 1, 1, 7), (3, 1, 3, 3),     # GF(3): g = 6
    (5, 1, 2, 2), (5, 1, 1, 5), (5, 1, 2, 3),     # GF(5): g = 4
    (7, 1, 1, 3), (7, 1, 2, 2),                   # GF(7): g = 3
    (3, 2, 1, 3), (3, 2, 2, 2),                   # GF(9): g = 3
    (11, 1, 1, 2), (11, 1, 1, 3), (11, 1, 2, 2),  # GF(11): g = 2
    (5, 2, 1, 2), (5, 2, 1, 3),                   # GF(25): g = 2
    (1021, 1, 1, 1), (1021, 1, 1, 2),             # GF(1021): g = 1
    (1031, 1, 1, 1),                              # q > 1024: no table
    (2, 2, 2, 2), (2, 1, 3, 3),                   # characteristic 2: XOR
]


@pytest.mark.parametrize("p,k,m,n", CODE_SPACES)
def test_code_arithmetic_matches_decode_op_encode(p, k, m, n):
    F = make_field(p, k)
    sp = space(F, m, n)
    rng = np.random.default_rng(p * 1000 + k * 100 + m * 10 + n)
    a = rng.integers(0, sp.count, size=(40, 1))
    b = rng.integers(0, sp.count, size=(1, 30))
    a[:2, 0] = b[0, :2] = 0, sp.count - 1  # every digit 0, every digit q - 1

    def oracle(op, c1, c2):
        c1, c2 = np.broadcast_arrays(np.asarray(c1), np.asarray(c2))
        return _bulk.encode(F, op(_bulk.decode(F, c1, m, n), _bulk.decode(F, c2, m, n)))

    for c1, c2 in [(int(a[1, 0]), int(b[0, 1])), (int(a[2, 0]), int(b[0, 0])),
                   (a[:30, 0], b[0]), (a[:, 0], int(b[0, 1])), (a, b)]:
        for got, op in [(sp.code_add(c1, c2), F.vadd), (sp.code_sub(c1, c2), F.vsub)]:
            assert got.dtype == np.int64
            assert np.array_equal(got, oracle(op, c1, c2))


def test_code_tables_stay_small():
    # the pairwise table once used here held 23 MB for GF(7) 2x2 and took
    # 264 MB to build
    sp = MatrixSpace(make_field(7, 1), 2, 2)  # uncached: built here
    zero = np.zeros(1, dtype=np.int64)
    tracemalloc.start()
    try:
        sp.code_add(zero, zero), sp.code_sub(zero, zero)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    for p, k, m, n in CODE_SPACES:
        sp = MatrixSpace(make_field(p, k), m, n)
        sp.code_add(zero, zero), sp.code_sub(zero, zero)
        held = sum(v.nbytes for v in vars(sp).values() if isinstance(v, np.ndarray))
        assert held <= 2 << 20, (p, k, m, n)
        if p > 2 and p ** (2 * k) <= 1 << 20:
            assert sp._group_add.dtype == np.int16, (p, k, m, n)
