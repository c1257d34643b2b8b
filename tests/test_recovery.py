"""Weighted semi-affine fitting and full parameter recovery."""

import numpy as np
import pytest

from bfgeo import _bulk, cliques, recovery, verify
from bfgeo.cliques import VertexSet, _clique_test, maximal_sets_through
from bfgeo.errors import (Degenerate, DimDeficient, NoFit, NotHom,
                          PreconditionViolated, TheoremViolated, UnsupportedField)
from bfgeo.fields import Field, FieldHom, enumerate_homs, identity_hom, make_field
from bfgeo.homs import (MapTable, Orientation, StandardHomParams, XiMapParams,
                        build_witness_hom, is_degenerate, is_graph_hom,
                        make_xi_map, random_valid_params, standard_table)
from bfgeo.matrices import Mat, random_invertible, space
from bfgeo.recovery import (RecoveryResult, WeightedSemiAffine, dim_bound_check,
                            fit_semiaffine, recover_standard, _axis_codes)

F2 = make_field(2, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)
F16 = make_field(2, 4)


def row_points(field, n):
    return space(field, 1, n).entries[:, 0, :]


@pytest.mark.parametrize("src,dst", [(F4, F16), (F5, F5), (F2, F4)])
def test_k_values_match_a_scalar_sum(src, dst):
    # k(x) = sum_i x_i^tau a_i + b; a loop of scalar field operations is
    # the reference for the batched dot product
    rng = np.random.default_rng(11)
    tau = enumerate_homs(src, dst)[0]
    a = tuple(int(v) for v in rng.integers(0, dst.q, 3))
    b = int(rng.integers(1, dst.q))
    wsa = WeightedSemiAffine(tau, Mat.identity(dst, 3), a, b)
    xs = row_points(src, 3)
    want = []
    for x in xs:
        acc = b
        for xi, ai in zip(x, a):
            acc = int(dst.vadd(acc, dst.mul(int(tau.table[xi]), ai)))
        want.append(acc)
    assert wsa.k_values(xs).tolist() == want


def test_fit_identity():
    xs = row_points(F4, 2)
    wsa = fit_semiaffine(F4, F4, xs)
    assert wsa.a == (0, 0) and wsa.b == 1
    assert np.array_equal(wsa.P.a, np.eye(2, dtype=F4.dtype))


def test_fit_semilinear_with_frobenius():
    rng = np.random.default_rng(3)
    frob = enumerate_homs(F4, F4)[1]
    P = random_invertible(rng, F4, 2)
    xs = row_points(F4, 2)
    table = _bulk.matmul(F4, frob.vapply(xs)[:, None, :], P.a[None])[:, 0, :]
    wsa = fit_semiaffine(F4, F4, table)
    assert np.array_equal(np.asarray(wsa.evaluate(xs), dtype=np.int64),
                          table.astype(np.int64))


def test_fit_with_genuine_denominator_roundtrip():
    rng = np.random.default_rng(5)
    emb = enumerate_homs(F4, F16)[0]
    xs = row_points(F4, 2)
    hits = 0
    tries = 0
    while hits < 5 and tries < 500:
        tries += 1
        a = tuple(int(t) for t in rng.integers(0, 16, size=2))
        P = Mat(F16, rng.integers(0, 16, size=(2, 3)).astype(F16.dtype))
        wsa = WeightedSemiAffine(emb, P, a, 1)
        if np.any(wsa.k_values(xs) == 0):
            continue
        hits += 1
        table = np.asarray(wsa.evaluate(xs), dtype=np.int64)
        got = fit_semiaffine(F4, F16, table)
        assert np.array_equal(np.asarray(got.evaluate(xs), dtype=np.int64), table)
    assert hits == 5


def test_fit_rejections():
    xs = row_points(F4, 2)
    with pytest.raises(ValueError):
        fit_semiaffine(F4, F4, xs[1:])  # not a power-of-q table
    shifted = F4.vadd(xs, 1)
    with pytest.raises(ValueError):
        fit_semiaffine(F4, F4, shifted)  # g(0) != 0
    # a map that is not weighted semi-affine at all: swap two nonzero values
    bad = xs.copy()
    bad[[1, 2]] = bad[[2, 1]]
    bad[[3, 5]] = bad[[5, 3]]
    with pytest.raises(NoFit):
        fit_semiaffine(F4, F4, bad)


def test_the_fit_scans_the_solution_coset_past_a_vanishing_denominator():
    # the particular solution a = (1, 1, 1), P = 0 has k(1, 0, 0) = 0; a
    # second point of the one-dimensional solution coset fits the table
    F8 = make_field(2, 3)
    tau, xs = enumerate_homs(F2, F8)[0], row_points(F2, 3)
    table = np.array([[0], [7], [6], [0], [6], [0], [0], [7]])
    A, b = recovery._fit_system(F8, tau.vapply(xs).astype(np.int64), table)
    x0, basis = _bulk.solve_affine(F8, A[None], b[None])[0]
    assert x0.tolist() == [1, 1, 1, 0, 0, 0] and len(basis) == 1
    particular = WeightedSemiAffine(tau, Mat.zeros(F8, 3, 1), (1, 1, 1), 1)
    assert [1, 0, 0] in xs[particular.k_values(xs) == 0].tolist()
    assert recovery._verified_fit(F8, tau, xs, table, (x0, basis[:0])) is None
    wsa = fit_semiaffine(F2, F8, table)
    assert (wsa.a, wsa.P.a.tolist(), wsa.b) == ((2, 2, 5), [[1], [1], [1]], 1)
    assert np.array_equal(wsa.evaluate(xs), table)


def test_recover_identity():
    res = recover_standard(MapTable.identity(F4, 2, 2))
    assert res.residual_checked
    p = res.params
    assert p.orientation is Orientation.STRAIGHT
    assert p.L.is_zero()
    assert np.array_equal(p.tau.table, np.arange(4))


def test_recover_rejects_small_fields():
    with pytest.raises(UnsupportedField):
        recover_standard(MapTable.identity(F2, 2, 2))


def test_recover_requires_zero_fixed():
    imgs = space(F4, 2, 2).entries.copy()
    shift = Mat.unit(F4, 2, 2, 0, 0)
    sp = space(F4, 2, 2)
    imgs = imgs[sp.code_add(np.arange(sp.count), shift.encode())]
    with pytest.raises(PreconditionViolated):
        recover_standard(MapTable(F4, 2, 2, F4, 2, 2, imgs))


def test_recover_not_hom_exit():
    # on a fresh table recovery runs the check itself; on a checked one it
    # gets the stored verdict, with the same witness
    imgs = np.zeros((256, 2, 2), dtype=F4.dtype)
    tbl = MapTable(F4, 2, 2, F4, 2, 2, imgs)
    with pytest.raises(NotHom) as fresh:
        recover_standard(tbl)
    with pytest.raises(NotHom) as checked:
        recover_standard(tbl)
    assert fresh.value.witness == checked.value.witness == is_graph_hom(tbl)[1]


def test_recover_degenerate_exit():
    col = build_witness_hom(4, 2, 2, 4, 2, 2)
    with pytest.raises(Degenerate) as fresh:
        recover_standard(col)
    with pytest.raises(Degenerate) as checked:
        recover_standard(col)
    assert fresh.value.witness is checked.value.witness is is_degenerate(col)[1]


def test_recover_xi_map_exit_is_dim_deficient():
    emb = enumerate_homs(F4, F16)[0]
    xi = next(e for e in range(16) if e not in set(emb.table.tolist()))
    f = make_xi_map(XiMapParams(emb, xi, 2))
    # the column-axis image spans only 2 of the required 3 dimensions:
    # its points (y1 + xi y3, y2 + xi y3, 0) live in a 2-dim column family
    with pytest.raises(DimDeficient) as exc:
        recover_standard(f)
    assert exc.value.witness == ("col_axis", 2)


@pytest.mark.parametrize("src,shape,dst,shape2", [
    (F4, (2, 2), F4, (2, 2)),
    (F4, (2, 2), F16, (3, 3)),
    (F5, (2, 3), F5, (3, 4)),
])
def test_recover_roundtrip_configs(src, shape, dst, shape2):
    rng = np.random.default_rng(17)
    reps = 4 if src.q == 5 else 8
    for _ in range(reps):
        p = random_valid_params(rng, src, *shape, dst, *shape2)
        tbl = standard_table(p)
        res = recover_standard(tbl)
        assert res.residual_checked
        assert np.array_equal(standard_table(res.params).images, tbl.images)
        if src == dst:
            # surjective tau forces a zero twist matrix
            assert res.params.L.is_zero()


def test_recover_transposed_nonzero_twist():
    rng = np.random.default_rng(23)
    got_nz = False
    for _ in range(30):
        p = random_valid_params(rng, F4, 2, 2, F16, 3, 3,
                                orientation=Orientation.TRANSPOSED)
        tbl = standard_table(p)
        res = recover_standard(tbl)
        assert res.residual_checked
        got_nz = got_nz or not p.L.is_zero()
        if got_nz:
            break
    assert got_nz


def test_fit_succeeds_on_every_axis_restriction_of_recovered_tables():
    rng = np.random.default_rng(29)
    p = random_valid_params(rng, F4, 2, 2, F16, 3, 3,
                            orientation=Orientation.STRAIGHT)
    tbl = standard_table(p)
    res = recover_standard(tbl)
    P_inv = res.params.P.inverse()
    Q_inv = res.params.Q.inverse()
    normalized = _bulk.matmul(F16, P_inv.a[None],
                              _bulk.matmul(F16, tbl.images, Q_inv.a[None]))
    for i in range(2):
        block = normalized[_axis_codes(tbl, "row", i)]
        fit_semiaffine(F4, F16, block[:, i, :], tau=res.params.tau)
    for j in range(2):
        block = normalized[_axis_codes(tbl, "col", j)]
        fit_semiaffine(F4, F16, block[:, :, j], tau=res.params.tau)


def test_image_kind_alignment_of_standard_tables():
    # same-kind source cliques land in same-kind cliques: on the axes this
    # means all row cliques share the column-space property and vice versa
    rng = np.random.default_rng(31)
    p = random_valid_params(rng, F4, 2, 2, F16, 3, 3,
                            orientation=Orientation.STRAIGHT)
    tbl = standard_table(p)
    for i in range(2):
        d = np.moveaxis(tbl.images[_axis_codes(tbl, "row", i)], 0, -1)  # entry planes
        passes, u, _ = _clique_test(F16, F16.vsub(d[:, :, None, 1:], d[:, :, None, :1]))
        assert passes[0] and u[0].any()
    for j in range(2):
        d = np.moveaxis(tbl.images[_axis_codes(tbl, "col", j)], 0, -1).swapaxes(0, 1)
        passes, u, _ = _clique_test(F16, F16.vsub(d[:, :, None, 1:], d[:, :, None, :1]))
        assert passes[0] and u[0].any()  # a column generator of D^t is a row one of D


def test_dim_bound_check():
    p = StandardHomParams(Orientation.STRAIGHT, Mat.identity(F4, 3),
                          Mat.identity(F4, 3), identity_hom(F4),
                          Mat.zeros(F4, 2, 2), 2, 2)
    tbl = standard_table(p)
    m1 = VertexSet.from_entries(F4, space(F4, 2, 2).entries[_axis_codes(tbl, "row", 0)])
    assert dim_bound_check(tbl, m1)
    rng = np.random.default_rng(37)
    pts = space(F4, 2, 2).entries[_axis_codes(tbl, "row", 0)]
    for _ in range(20):
        take = rng.choice(len(pts), size=3, replace=False)
        sel = pts[take].copy()
        sel[0] = 0
        assert dim_bound_check(tbl, VertexSet.from_entries(F4, sel))
    with pytest.raises(PreconditionViolated):
        dim_bound_check(tbl, VertexSet.from_entries(F4, [Mat.unit(F4, 2, 2, 0, 0).a]))


def test_recovery_into_a_space_past_int64_codes():
    # GF(256)^(3x3) has 256^9 > 2^63 points: the image dimension checks
    # read entries, not codes
    F256 = make_field(2, 8)
    rng = np.random.default_rng(7)
    m1 = VertexSet.from_entries(F4, space(F4, 2, 2).entries[_axis_codes(
        MapTable.identity(F4, 2, 2), "row", 0)])
    for o in Orientation:
        tbl = standard_table(random_valid_params(rng, F4, 2, 2, F256, 3, 3, orientation=o))
        res = recover_standard(tbl)
        assert np.array_equal(standard_table(res.params).images, tbl.images)
        assert dim_bound_check(tbl, m1)


@pytest.mark.parametrize("orientation", list(Orientation))
def test_recovery_checks_one_standard_table(orientation, monkeypatch):
    # GF(5) has one tau, so one fit and one final check, in either orientation
    rng = np.random.default_rng(41)
    tbl = standard_table(random_valid_params(rng, F5, 2, 3, F5, 3, 4,
                                             orientation=orientation))
    calls = []

    def counted(params):
        calls.append(params)
        return standard_table(params)

    monkeypatch.setattr(recovery, "standard_table", counted)
    res = recover_standard(tbl)
    assert len(calls) == 1
    assert res.params.orientation is orientation
    assert np.array_equal(standard_table(res.params).images, tbl.images)


def test_complete_rows_rejects_dependent_rows():
    from bfgeo.recovery import _complete_rows
    assert _complete_rows(F4, np.array([[0, 1, 2]])).rank() == 3
    with pytest.raises(PreconditionViolated):
        _complete_rows(F4, np.array([[1, 2, 3], [2, 3, 1]]))


@pytest.mark.parametrize("axis", ["row", "column"])
def test_a_rank_deficient_axis_fit_is_no_fit(axis):
    # axis images x P with a rank-1 P on the failing axis: every fit of
    # them has a rank-1 P, which the completion's RREF turns into NoFit
    f = MapTable.identity(F4, 2, 2)
    xs = row_points(F4, 2)
    P = {a: np.eye(2, dtype=np.int64) for a in ("row", "column")}
    P[axis] = np.array([[1, 0], [1, 0]])
    img1 = np.zeros((3 * len(xs), 2, 2), dtype=np.int64)
    img1[:len(xs), 0, :] = _bulk.matmul(F4, xs, P["row"])
    img1[2 * len(xs):, :, 0] = _bulk.matmul(F4, xs, P["column"])
    eye = Mat.identity(F4, 2)
    with pytest.raises(NoFit, match=f"^{axis}-axis fit is rank deficient$"):
        recovery._fit_straight(f, img1, eye, eye, identity_hom(F4))


def test_recovery_ranks_no_axis_fit_twice(monkeypatch):
    # the NoFit rank test is the completion's own RREF, not a Mat.rank
    tbl = standard_table(random_valid_params(np.random.default_rng(43), F4, 2, 2, F16, 3, 3))
    monkeypatch.setattr(Mat, "rank", lambda self: pytest.fail("Mat.rank called"))
    assert recover_standard(tbl).residual_checked


def greedy_complete_rows(field, rows_mat):
    """The unit rows e_j taken j ascending, each kept when it raises the
    rank of the rows so far."""
    out = list(rows_mat)
    for e in np.eye(rows_mat.shape[1], dtype=np.int64):
        if _bulk.rank(field, np.stack(out + [e])[None])[0] == len(out) + 1:
            out.append(e)
    return np.stack(out)


@pytest.mark.parametrize("field", [F2, make_field(3, 1), F4, F5, F16])
def test_complete_rows_takes_the_unit_rows_of_the_greedy_scan(field):
    from bfgeo.recovery import _complete_rows
    rng = np.random.default_rng(field.q)
    done = 0
    while done < 200:
        c = int(rng.integers(1, 6))
        rows_mat = rng.integers(field.q, size=(int(rng.integers(1, c + 1)), c))
        rows_mat *= rng.random(rows_mat.shape) < rng.random()  # sparse rows too
        if _bulk.rank(field, rows_mat[None])[0] < len(rows_mat):
            continue
        done += 1
        want = greedy_complete_rows(field, rows_mat)
        assert np.array_equal(_complete_rows(field, rows_mat).a, want)


def test_recovery_tests_each_axis_image_once(monkeypatch):
    rng = np.random.default_rng(43)
    tbl = standard_table(random_valid_params(rng, F4, 2, 2, F16, 3, 3))
    real, calls = cliques._clique_test, []

    def counted(field, P, pad=None):
        calls.append(P.shape)
        return real(field, P, pad)

    # is_graph_hom's summary on a checked table is stored; recovery's own
    # clique tests, all through cliques, are counted: both axis images share
    # one, as (m', n', 2 images, 15 differences) entry planes
    is_graph_hom(tbl, "exhaustive")
    is_degenerate(tbl)
    monkeypatch.setattr(cliques, "_clique_test", counted)
    recover_standard(tbl)
    assert calls == [(3, 3, 2, 15)]


def test_an_axis_image_failing_the_clique_test_breaks_loudly(monkeypatch):
    # a checked homomorphism maps each axis clique onto a clique
    rng = np.random.default_rng(44)
    tbl = standard_table(random_valid_params(rng, F4, 2, 2, F16, 3, 3))
    real = cliques._clique_test

    def reject(field, D, pad=None):
        passes, u, v = real(field, D, pad)
        return np.zeros_like(passes), u, v

    monkeypatch.setattr(cliques, "_clique_test", reject)
    with pytest.raises(TheoremViolated):
        recover_standard(tbl)


@pytest.mark.parametrize("field,m,n", [(F4, 2, 2), (F5, 2, 3), (make_field(3, 1), 3, 2),
                                       (F4, 1, 2)])
def test_the_sweep_hosts_are_the_maximal_sets_through_0_and_r(field, m, n):
    # the sweep builds its hosts from the generators of rank1, so that it
    # draws the sets maximal_sets_through would give, rng stream included
    sp = space(field, m, n)
    host = verify._rank1_hosts(sp)
    zero = Mat.zeros(field, m, n)
    for r, R in enumerate(sp.rank1):
        for k, M in enumerate(maximal_sets_through(zero, Mat(field, R))):
            assert np.array_equal(host(r, k), M.point_entries()), (r, k)


# ---------------------------------------------------------------------------
# stacked solves and fits against the one-system path

@pytest.mark.parametrize("field", [F2, F4, F5, F16], ids=lambda f: f"GF({f.q})")
def test_the_stacked_solve_equals_the_one_system_solve(field):
    rng = np.random.default_rng(field.q + 3)
    for rows, cols in ((1, 1), (3, 5), (6, 4), (8, 8)):
        S, r = 24, min(rows, cols)
        left = rng.integers(field.q, size=(S, rows, r))
        left *= (np.arange(r) < rng.integers(1, r + 1, size=S)[:, None])[:, None, :]
        A = _bulk.matmul(field, left, rng.integers(field.q, size=(S, r, cols)))  # rank <= cap
        x = rng.integers(field.q, size=(S, cols, 1))
        b = _bulk.matmul(field, A, x)[..., 0]
        b[::2] = rng.integers(field.q, size=(S // 2 + S % 2, rows))  # mostly inconsistent
        got = _bulk.solve_affine(field, A, b)
        assert len(got) == S
        for t in range(S):
            want = _bulk.solve_affine(field, A[t], b[t])
            assert (got[t] is None) == (want is None)
            if want is not None:
                assert all(np.array_equal(g, w) for g, w in zip(got[t], want))
                x0, basis = got[t]
                Ax = _bulk.matmul(field, A[t], np.c_[x0, basis.T])
                assert np.array_equal(Ax[:, 0], b[t]) and not Ax[:, 1:].any()
        assert any(s is None for s in got) and any(s is not None for s in got)


def one_fit(src_field: Field, F: Field, table, tau: FieldHom):
    """fit_semiaffine's candidate for one tau as it was before the fits
    were stacked: the system built block by block and solved alone."""
    count, n2 = table.shape
    n = int(round(np.log(count) / np.log(src_field.q)))
    xs = space(src_field, 1, n).entries[:, 0, :]
    xt = tau.vapply(xs).astype(np.int64)
    blocks, rhs = [], []
    for j in range(n2):
        block = np.zeros((count, n + n * n2), dtype=np.int64)
        block[:, :n] = F.vmul(xt, table[:, j][:, None].astype(np.int64))
        for i in range(n):
            block[:, n + i * n2 + j] = F.vneg(xt[:, i])
        blocks.append(block)
        rhs.append(F.vneg(table[:, j]).astype(np.int64))
    sol = _bulk.solve_affine(F, np.concatenate(blocks), np.concatenate(rhs))
    if sol is None:
        return None
    x0, basis = sol
    candidates = x0[None]
    if len(basis) and F.q ** len(basis) <= 256:
        coeffs = _bulk.decode(F, np.arange(F.q ** len(basis)), 1, len(basis))[:, 0, :]
        candidates = F.vadd(x0[None], _bulk.matmul(F, coeffs.astype(np.int64), basis))
    for u in candidates:
        wsa = WeightedSemiAffine(tau, Mat(F, u[n:].reshape(n, n2)),
                                 tuple(int(t) for t in u[:n]), 1)
        if not np.any(wsa.k_values(xs) == 0) and np.array_equal(wsa.evaluate(xs), table):
            return wsa
    return None


def one_fit_each(src_field, dst_field, tables, taus):
    return [one_fit(src_field, dst_field, np.asarray(t), tau) for t, tau in zip(tables, taus)]


@pytest.mark.parametrize("src,shape,dst,shape2", [(F4, (2, 2), F16, (3, 3)),
                                                  (F4, (2, 2), F4, (2, 2)),
                                                  (F5, (2, 2), F5, (2, 2))])
def test_stacked_fits_recover_the_parameters_of_the_one_system_fits(src, shape, dst, shape2,
                                                                    monkeypatch):
    rng = np.random.default_rng(src.q * 100 + dst.q)
    for _ in range(100):
        tbl = standard_table(random_valid_params(rng, src, *shape, dst, *shape2))
        got = recover_standard(tbl).params
        with monkeypatch.context() as mp:
            mp.setattr(recovery, "_fit_tables", one_fit_each)
            want = recover_standard(tbl).params
        assert (got.orientation, got.tau) == (want.orientation, want.tau)
        for g, w in ((got.P, want.P), (got.Q, want.Q), (got.L, want.L)):
            assert np.array_equal(g.a, w.a)


@pytest.mark.parametrize("k2", [2, 3, 4])
def test_the_coset_check_keeps_the_first_fitting_candidate(k2):
    # GF(2) sources leave a solution coset of several candidates; the
    # batched check returns the one the candidate-by-candidate loop returns
    src, dst = F2, make_field(2, k2)
    rng = np.random.default_rng(dst.q)
    scanned = 0
    for trial in range(60):
        n, n2 = 1 + trial % 3, 1 + trial % 2
        xs = row_points(src, n)
        tau = enumerate_homs(src, dst)[0]
        wsa = WeightedSemiAffine(tau, Mat(dst, rng.integers(dst.q, size=(n, n2))),
                                 tuple(int(c) for c in rng.integers(dst.q, size=n)), 1)
        if np.any(wsa.k_values(xs) == 0):
            continue
        table = wsa.evaluate(xs)
        if trial % 5 == 4:
            table = table.copy()
            table[-1] = dst.vadd(table[-1], 1)  # off every fit
        A, b = recovery._fit_system(dst, tau.vapply(xs).astype(np.int64), table)
        sol = _bulk.solve_affine(dst, A, b)
        scanned += sol is not None and len(sol[1]) > 0
        got = recovery._verified_fit(dst, tau, xs, table, sol)
        want = one_fit(src, dst, table, tau)
        assert (got is None) == (want is None)
        if want is not None:
            assert (got.a, got.b) == (want.a, want.b)
            assert np.array_equal(got.P.a, want.P.a)
    assert scanned


def test_fit_semiaffine_stacks_every_tau_and_keeps_the_first_fit():
    # over GF(16) from GF(4) there are two taus: the stack returns the fit
    # the tau-by-tau loop would, or NoFit where that loop finds none
    rng = np.random.default_rng(29)
    xs = row_points(F4, 2)
    taus = enumerate_homs(F4, F16)
    fitted = 0
    for trial in range(40):
        tau = taus[trial % 2]
        P = rng.integers(F16.q, size=(2, 3))
        a = rng.integers(F16.q, size=2) * (trial % 3 == 0)
        wsa = WeightedSemiAffine(tau, Mat(F16, P), tuple(int(c) for c in a), 1)
        if np.any(wsa.k_values(xs) == 0):
            continue
        table = wsa.evaluate(xs)
        if trial % 4 == 1:
            table = table.copy()
            table[-1] = F16.vadd(table[-1], 1)  # off every fit
        want = next((w for w in one_fit_each(F4, F16, [table] * 2, taus) if w), None)
        try:
            got = fit_semiaffine(F4, F16, table)
        except NoFit:
            assert want is None
            continue
        fitted += 1
        assert (got.tau, got.a, got.b) == (want.tau, want.a, want.b)
        assert np.array_equal(got.P.a, want.P.a)
    assert fitted
