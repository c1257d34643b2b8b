"""Weighted semi-affine fitting and full parameter recovery."""

import numpy as np
import pytest

from bfgeo import _bulk, recovery
from bfgeo.cliques import VertexSet, _clique_test
from bfgeo.errors import (Degenerate, DimDeficient, NoFit, NotHom,
                          PreconditionViolated, UnsupportedField)
from bfgeo.fields import enumerate_homs, identity_hom, make_field
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
            acc = dst.add(acc, dst.mul(int(tau.table[xi]), ai))
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
        d = tbl.images[_axis_codes(tbl, "row", i)]
        passes, u, _ = _clique_test(F16, F16.vsub(d[None, 1:], d[0]))
        assert passes[0] and u[0].any()
    for j in range(2):
        d = np.swapaxes(tbl.images[_axis_codes(tbl, "col", j)], 1, 2)
        passes, u, _ = _clique_test(F16, F16.vsub(d[None, 1:], d[0]))
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
        dim_bound_check(tbl, VertexSet.from_mats([Mat.unit(F4, 2, 2, 0, 0)]))


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
