"""Map tables: standard forms, verifiers, twists, colorings, existence."""

import numpy as np
import pytest

from bfgeo import _bulk, homs
from bfgeo.cliques import Kind, MaximalSet, clique_number, unit_ball
from bfgeo.errors import (InvalidParams, InvalidXi, NoHomExists, NotHom,
                          SingularTwist, TheoremViolated)
from bfgeo.fields import enumerate_homs, identity_hom, make_field
from bfgeo.homs import (MapTable, Orientation, StandardHomParams, TwistSide,
                        XiMapParams, build_witness_hom, eval_standard,
                        hom_exists, is_colouring, is_degenerate, is_graph_hom,
                        make_xi_map, moebius_twist, proper_coloring,
                        random_valid_params, standard_table, validate_params)
from bfgeo.matrices import Mat, arithmetic_distance, space
from test_mapfile_cli import within_a_second

F2 = make_field(2, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)
F16 = make_field(2, 4)

ID4 = identity_hom(F4)
EMB_4_16 = enumerate_homs(F4, F16)[0]
XI = next(e for e in range(16) if e not in set(EMB_4_16.table.tolist()))


def embedding_params(m, n, m2, n2):
    return StandardHomParams(Orientation.STRAIGHT, Mat.identity(F4, m2),
                             Mat.identity(F4, n2), ID4,
                             Mat.zeros(F4, n, m), m, n)


def test_eval_standard_pure_embedding():
    p = embedding_params(2, 2, 3, 3)
    X = Mat.from_text(F4, "1,2;3,0")
    assert eval_standard(p, X) == X.embed(3, 3)
    assert eval_standard(p, Mat.zeros(F4, 2, 2)) == Mat.zeros(F4, 3, 3)


def test_eval_standard_no_padding_when_sizes_match():
    p = embedding_params(2, 2, 2, 2)
    X = Mat.from_text(F4, "1,2;3,0")
    assert eval_standard(p, X) == X


def test_eval_standard_twist_value():
    # single-point formula check, oracle computed by direct field arithmetic:
    # at X = alpha E11 with L = E11 the denominator is diag(1 + alpha, 1),
    # so the image entry is (1 + alpha)^-1 alpha = alpha^2 * alpha = alpha^2
    p = StandardHomParams(Orientation.STRAIGHT, Mat.identity(F4, 2),
                          Mat.identity(F4, 2), ID4,
                          Mat.unit(F4, 2, 2, 0, 0), 2, 2)
    alpha = 2
    X = Mat.unit(F4, 2, 2, 0, 0, c=alpha)
    expect = F4.mul(F4.inv(F4.add(1, alpha)), alpha)
    assert expect == F4.mul(alpha, alpha)  # alpha^2 = alpha + 1 = index 3
    assert eval_standard(p, X) == Mat.unit(F4, 2, 2, 0, 0, c=expect)


def test_validate_params():
    ok, w = validate_params(embedding_params(2, 2, 2, 2))
    assert ok and w is None
    bad = StandardHomParams(Orientation.STRAIGHT, Mat.identity(F4, 2),
                            Mat.identity(F4, 2), ID4, Mat.identity(F4, 2), 2, 2)
    ok, w = validate_params(bad)
    assert not ok
    # first failing point in code order: I + X is singular at X = E11
    # over characteristic 2 (1 + 1 = 0)
    first = min(code for code, X in enumerate(space(F4, 2, 2))
                if (Mat.identity(F4, 2) + X).rank() < 2)
    assert w.encode() == first
    with pytest.raises(InvalidParams):
        standard_table(bad)


def test_validate_params_nonzero_twist_gf16():
    rng = np.random.default_rng(0)
    found = None
    for _ in range(500):
        p = random_valid_params(rng, F4, 2, 2, F16, 2, 2,
                                orientation=Orientation.STRAIGHT)
        if not p.L.is_zero():
            found = p
            break
    assert found is not None
    ok, _ = validate_params(found)
    assert ok


def _stack_det_counts(monkeypatch):
    """Per _resolvent call: [denominator stack shape, det calls on that stack]."""
    calls = []
    real_det, real_resolvent = _bulk.det, homs._resolvent

    def det(field, mats):
        if calls and np.shape(mats) == calls[-1][0]:
            calls[-1][1] += 1
        return real_det(field, mats)

    def resolvent(F, X, L, side, invert=True):
        k = X.shape[-2] if side is TwistSide.LEFT else X.shape[-1]
        calls.append([X.shape[:-2] + (k, k), 0])
        return real_resolvent(F, X, L, side, invert)

    monkeypatch.setattr(_bulk, "det", det)
    monkeypatch.setattr(homs, "_resolvent", resolvent)
    return calls


def _no_call(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return fail


@pytest.mark.parametrize("orientation", list(Orientation))
def test_one_determinant_per_resolvent_stack(orientation, monkeypatch):
    F3 = make_field(3, 1)
    params = random_valid_params(np.random.default_rng(3), F3, 2, 3, F3, 3, 4,
                                 orientation=orientation)
    calls = _stack_det_counts(monkeypatch)
    # the 2x2 and 3x3 denominators invert by adjugate, never by elimination
    monkeypatch.setattr(_bulk, "rref", _no_call("rref"))
    standard_table(params)
    assert validate_params(params) == (True, None)
    assert len(calls) == 3
    assert {shape[-1] for shape, _ in calls} == {2, 3}
    assert all(shape[0] == 729 and count == 1 for shape, count in calls)


@pytest.mark.parametrize("transposed", [False, True])
def test_twist_check_takes_one_determinant_and_no_inverse(transposed, monkeypatch):
    Xt = EMB_4_16.vapply(space(F4, 2, 2).entries)
    calls = _stack_det_counts(monkeypatch)
    monkeypatch.setattr(_bulk, "_adjugate", _no_call("_adjugate"))
    monkeypatch.setattr(_bulk, "inverse", _no_call("inverse"))
    rng = np.random.default_rng(4)
    for _ in range(20):
        L = rng.integers(0, 16, size=(2, 2)).astype(F16.dtype)
        homs._twist_valid(F16, Xt, L, transposed)
    assert [count for _, count in calls] == [1] * 20


def test_is_graph_hom_constant_map_fails():
    const = MapTable(F4, 2, 2, F4, 2, 2,
                     np.zeros((256, 2, 2), dtype=F4.dtype))
    ok, w = is_graph_hom(const)
    assert not ok
    A, B = w
    assert arithmetic_distance(A, B) == 1  # a genuine edge got collapsed
    assert (A.encode(), B.encode()) == (0, 1)  # lexicographically first


def test_is_graph_hom_identity_and_standard():
    assert is_graph_hom(MapTable.identity(F4, 2, 2)) == (True, None)
    rng = np.random.default_rng(1)
    p = random_valid_params(rng, F4, 2, 2, F16, 3, 3)
    ok, _ = is_graph_hom(standard_table(p))
    assert ok


def test_is_graph_hom_sampled_mode():
    const = MapTable(F4, 2, 2, F4, 2, 2,
                     np.zeros((256, 2, 2), dtype=F4.dtype))
    ok, w = is_graph_hom(const, mode="sampled", samples=500, seed=3)
    assert not ok and w is not None
    ok, _ = is_graph_hom(MapTable.identity(F4, 2, 2), mode="sampled",
                         samples=500, seed=3)
    assert ok


def test_map_table_range_checks_images_before_the_cast():
    ident = MapTable.identity(F4, 2, 2)
    for bad in (4, -1, 260):  # 260 would wrap to the invalid element 4 in uint8
        images = ident.images.astype(np.int64)
        images[7, 1, 0] = bad
        with pytest.raises(ValueError):
            MapTable(F4, 2, 2, F4, 2, 2, images)
    assert MapTable(F4, 2, 2, F4, 2, 2, ident.images.astype(np.int64)) == ident
    # 9 is not 4 in GF(5): the table is refused, not read as another map
    with pytest.raises(ValueError):
        MapTable(F2, 1, 1, F5, 1, 2, np.array([[[0, 0]], [[0, 9]]], dtype=np.int64))
    four = MapTable(F2, 1, 1, F5, 1, 2, np.array([[[0, 0]], [[0, 4]]], dtype=np.int64))
    assert four.images.dtype == F5.dtype and is_colouring(four)


def test_is_colouring():
    const = MapTable(F4, 2, 2, F4, 2, 2,
                     np.zeros((256, 2, 2), dtype=F4.dtype))
    assert is_colouring(const)  # single point is an adjacent set
    assert not is_colouring(MapTable.identity(F4, 2, 2))
    col = build_witness_hom(4, 2, 2, 4, 2, 2)
    assert is_colouring(col)


def test_is_degenerate():
    col = build_witness_hom(4, 2, 2, 4, 2, 2)
    deg, (A, M, N) = is_degenerate(col)
    assert deg
    assert {M.kind, N.kind} == {Kind.ONE, Kind.TWO}
    assert A.rank() <= 1
    # the witness is checkable: the ball image sits inside M union N
    center_img = col.apply(A)
    assert M.contains(center_img) and N.contains(center_img)
    for X in unit_ball(A):
        img = col.apply(X)
        assert M.contains(img) or N.contains(img)
    # embeddings are not degenerate
    deg, _ = is_degenerate(standard_table(embedding_params(2, 2, 3, 3)))
    assert not deg
    # and a torn map is rejected: send one neighbor of 0 to a rank-2 point
    torn_imgs = space(F4, 2, 2).entries.copy()
    torn_imgs[1] = Mat.identity(F4, 2).a
    with pytest.raises(NotHom):
        is_degenerate(MapTable(F4, 2, 2, F4, 2, 2, torn_imgs))


def _stab_with_two(us, vs):
    """Indices (iu, iv) such that every item shares u with iu or v with iv.

    u and v are generator rows, or codes, which sort alike.  Either side
    may be None when one family alone covers everything.  Returns None
    when no such pair exists.  The per-center witness search that
    ``homs._two_clique_cover`` replaced, kept as its reference.
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


def _degenerate_oracle(f, decided):
    """The per-center degeneracy loop, kept as the reference for the
    batched scan; appends the index of the deciding center to decided."""
    sp = f.src_space()
    F2 = f.dst_field
    ball0 = np.sort(np.concatenate([np.zeros(1, dtype=np.int64), sp.rank1_codes]))
    for index, c_center in enumerate(ball0):
        ball = sp.code_add(ball0, int(c_center))
        center_img = f.images[int(c_center)]
        D = F2.vsub(f.images[ball], center_img)
        nz = D.any(axis=(1, 2))
        torn = nz & ~_bulk.rank_le1_mask(F2, D)
        if torn.any():
            decided.append(index)
            bad = int(np.nonzero(torn)[0][0])
            raise NotHom("ball image tears: not a graph homomorphism",
                         witness=(Mat.decode(f.src_field, int(ball[bad]), f.m, f.n),
                                  Mat.decode(f.src_field, int(c_center), f.m, f.n)))
        Dnz = D[nz]
        pick = (None, None)
        if len(Dnz):
            us = _bulk.generators(F2, Dnz, "col")
            vs = _bulk.generators(F2, Dnz, "row")
            pick = _stab_with_two(_bulk.encode(F2, us[:, :, None]),
                                  _bulk.encode(F2, vs[:, :, None]))
        if pick is not None:
            decided.append(index)
            iu, iv = pick
            u = us[iu] if iu is not None else np.eye(f.m2, dtype=F2.dtype)[:, 0]
            v = vs[iv] if iv is not None else np.eye(f.n2, dtype=F2.dtype)[:, 0]
            cimg = Mat(F2, center_img)
            return True, (Mat.decode(f.src_field, int(c_center), f.m, f.n),
                          MaximalSet.through(Kind.ONE, u, cimg),
                          MaximalSet.through(Kind.TWO, v, cimg))
    decided.append(len(ball0))
    return False, None


def _degeneracy_outcome(fn, f):
    """fn(f) as comparable plain data, NotHom witnesses included."""
    try:
        deg, w = fn(f)
    except NotHom as e:
        return "NotHom", tuple(X.encode() for X in e.witness)
    if w is None:
        return deg, None
    A, M, N = w
    return deg, (A.encode(),) + tuple(
        (S.kind, S.transform.a.tolist(), S.offset.a.tolist()) for S in (M, N))


def _collapsed_ball_images(F, m, n, index):
    """Identity on F^(m x n), except that the rank >= 2 points of the ball
    around the index-th center map to that center: the earlier centers
    (multiples of the last unit matrix) neither tear nor have a cover."""
    sp = space(F, m, n)
    c = np.sort(np.r_[0, sp.rank1_codes])[index]
    near = _bulk.rank(F, F.vsub(sp.entries, sp.entries[c])) == 1
    imgs = sp.entries.copy()
    imgs[near & (_bulk.rank(F, sp.entries) >= 2)] = sp.entries[c]
    return imgs


def _torn_late_images(f):
    """f's images with a tear at the latest center that can host one: the
    rank-2 point first reached by the latest center's ball gets the
    center's image plus a rank-2 matrix."""
    sp = f.src_space()
    ball0 = np.sort(np.r_[0, sp.rank1_codes])
    first = np.full(sp.count, len(ball0))
    for index, c in enumerate(ball0[::-1]):
        first[sp.code_add(ball0, int(c))] = len(ball0) - 1 - index
    p = int(np.argmax(np.where(first < len(ball0), first, -1)))
    c = int(ball0[first[p]])
    lift = np.zeros((f.m2, f.n2), dtype=f.dst_field.dtype)
    lift[0, 0] = lift[1, 1] = 1
    imgs = f.images.copy()
    imgs[p] = f.dst_field.vadd(f.images[c], lift)
    return imgs, int(first[p])


def _two_family_images(emb, m2, n2):
    """A 2 x 2 table whose unit ball around 0 lands in two cliques through
    0: a matrix with a nonzero first row goes to that row (column clique
    of e_1), any other to its second row as a column (row clique of e_1).
    The first ball item, the last unit matrix, lands only in the second."""
    X = emb.vapply(space(emb.src, 2, 2).entries)
    out = np.zeros((len(X), m2, n2), dtype=emb.dst.dtype)
    top = X[:, 0, :].any(axis=1)
    out[top, 0, :2] = X[top, 0, :]
    out[~top, :2, 0] = X[~top, 1, :]
    return out


@pytest.mark.parametrize("src,dst,shape", [
    (F4, F4, (2, 2, 2, 2)), (F4, F16, (2, 2, 3, 3)), (F5, F5, (2, 2, 2, 2))])
@pytest.mark.parametrize("block", [1, 3, None])
def test_batched_degeneracy_scan_matches_per_center_loop(src, dst, shape, block,
                                                          monkeypatch):
    m, n, m2, n2 = shape
    sp = space(src, m, n)
    centers = 1 + len(sp.rank1_codes)
    if block is not None:  # force block boundaries inside the scan
        monkeypatch.setattr(homs, "_DEGENERACY_BLOCK_BYTES", block * centers * m2 * n2 * 8)
    emb = enumerate_homs(src, dst)[0]
    std = standard_table(random_valid_params(np.random.default_rng(5), src, m, n,
                                             dst, m2, n2))
    torn, torn_at = _torn_late_images(std)
    late = src.q - 1  # the last multiple of the last unit matrix
    cases = [
        (std, centers),
        (MapTable(src, m, n, dst, m2, n2, torn), torn_at),
        (MapTable(src, m, n, dst, m, n,
                  emb.vapply(_collapsed_ball_images(src, m, n, late))), late),
        (build_witness_hom(src.q, m, n, dst.q, m2, n2), 0),
        (MapTable(src, m, n, dst, m2, n2, _two_family_images(emb, m2, n2)), 0),
        (MapTable(src, m, n, dst, m2, n2,  # the first item only in the first clique
                  np.swapaxes(_two_family_images(emb, m2, n2), 1, 2)), 0),
        (MapTable(src, m, n, dst, m2, n2,
                  np.zeros((sp.count, m2, n2), dtype=dst.dtype)), 0),
    ]
    assert torn_at >= 3
    for f, want_at in cases:
        decided = []
        want = _degeneracy_outcome(lambda t: _degenerate_oracle(t, decided), f)
        assert decided == [want_at]
        fresh = MapTable(src, m, n, f.dst_field, f.m2, f.n2, f.images)
        assert _degeneracy_outcome(is_degenerate, fresh) == want
        assert _degeneracy_outcome(is_degenerate, fresh) == want  # stored or re-raised


def test_degeneracy_and_colouring_on_a_target_whose_codes_overflow_int64():
    # a 4-entry generator over GF(2^16) has 65536^4 codes: both verifiers
    # compare entry rows instead
    F65536 = make_field(2, 16)
    std = standard_table(random_valid_params(np.random.default_rng(16), F4, 2, 2,
                                             F65536, 4, 4, nonzero_L_tries=20))
    assert is_degenerate(std) == (False, None)
    assert not is_colouring(std)
    late = F4.q - 1
    imgs = np.zeros((256, 4, 4), dtype=F65536.dtype)
    imgs[:, :2, :2] = enumerate_homs(F4, F65536)[0].vapply(
        _collapsed_ball_images(F4, 2, 2, late))
    collapsed = MapTable(F4, 2, 2, F65536, 4, 4, imgs)
    deg, (A, M, N) = is_degenerate(collapsed)
    assert deg and A.encode() == np.sort(np.r_[0, space(F4, 2, 2).rank1_codes])[late]
    assert {M.kind, N.kind} == {Kind.ONE, Kind.TWO}
    assert all(M.contains(collapsed.apply(X)) or N.contains(collapsed.apply(X))
               for X in unit_ball(A))
    witness = build_witness_hom(4, 2, 2, 65536, 4, 4)
    assert is_colouring(witness) and is_degenerate(witness)[0]


def _edge_scan_oracle(f):
    """The per-increment edge scan that exhaustive is_graph_hom ran before
    the clique test, kept as its reference: (ok, codes of the first torn
    edge)."""
    sp = f.src_space()
    F2 = f.dst_field
    best = None
    for nbr in sp.neighbor_perms_half:
        ok = _bulk.adjacent_mask(F2, F2.vsub(f.images, f.images[nbr]))
        if not ok.all():
            bad = np.nonzero(~ok)[0]
            lo = np.minimum(bad, nbr[bad])
            hi = np.maximum(bad, nbr[bad])
            t = int(np.lexsort((hi, lo))[0])
            cand = (int(lo[t]), int(hi[t]))
            if best is None or cand < best:
                best = cand
    return best is None, best


def _row_images(emb, m2, n2, n, rows):
    """A table on 1 x n whose images are placed by rows(w, out) from the
    embedded argument w."""
    W = emb.vapply(space(emb.src, 1, n).entries[:, 0, :])
    out = np.zeros((len(W), m2, n2), dtype=emb.dst.dtype)
    for code, w in enumerate(W):
        rows(w, out[code])
    return out


def _two_families(w, out):
    """Images in a kind-ONE clique through 0 (w[0] != 0: w as the first
    row) and a kind-TWO one (else w's tail in the second column, below the
    first row): each difference from 0 has rank 1 and they are distinct,
    but no generator is shared by all."""
    if w[0]:
        out[0, :len(w)] = w
    else:
        out[1:len(w), 1] = w[1:]


def _collisions(w, out):
    """f(w) = c E11 with c the first nonzero entry: every difference from 0
    has rank 1 and one generator pair, but they repeat."""
    nz = np.nonzero(w)[0]
    out[0, 0] = w[nz[0]] if len(nz) else 0


def _hom_cases(src, m, n, dst, m2, n2, seed):
    """Named image stacks on src^(m x n) -> dst^(m2 x n2): a standard table,
    corruptions of it, collapsed, constant, random and permuted tables, the
    witness map, and on 1 x n the tables failing one clique condition."""
    rng = np.random.default_rng(seed)
    count = space(src, m, n).count
    std = standard_table(random_valid_params(rng, src, m, n, dst, m2, n2,
                                             nonzero_L_tries=20)).images

    def noise(k):
        return rng.integers(0, dst.q, size=(k, m2, n2)).astype(dst.dtype)

    cases = {"standard": std, "constant": np.zeros_like(std), "random": noise(count),
             "permuted": std[rng.permutation(count)]}
    for k in (1, 2, 3):
        imgs = std.copy()
        imgs[rng.choice(count, size=k, replace=False)] = noise(k)
        cases[f"corrupted {k}"] = imgs
    late = std.copy()
    late[-1] = late[-2]
    cases["last point collapsed"] = late
    half = std.copy()
    half[count // 2:] = std[count // 2]
    cases["half collapsed"] = half
    if homs.hom_exists(src.q, m, n, dst.q, m2, n2):
        cases["witness"] = build_witness_hom(src.q, m, n, dst.q, m2, n2).images
    if m == 1 and m2 >= n and n2 >= n:
        emb = enumerate_homs(src, dst)[0]
        cases["two families"] = _row_images(emb, m2, n2, n, _two_families)
        cases["collisions"] = _row_images(emb, m2, n2, n, _collisions)
    return cases


def _assert_clique_test_matches_edge_scan(src, m, n, dst, m2, n2, cases, monkeypatch):
    size = space(src, m, n).clique_members.shape[1]
    for name, imgs in cases.items():
        want = _edge_scan_oracle(MapTable(src, m, n, dst, m2, n2, imgs))
        for block in (1, 3, None):  # cliques (and pair-scan rows) a block
            budget = block * size * m2 * n2 * 8 if block else homs._CLIQUE_BLOCK_BYTES
            monkeypatch.setattr(homs, "_CLIQUE_BLOCK_BYTES", budget)
            ok, w = is_graph_hom(MapTable(src, m, n, dst, m2, n2, imgs))
            got = ok, (None if w is None else tuple(X.encode() for X in w))
            assert got == want, (name, block)
            monkeypatch.undo()


F3 = make_field(3, 1)
F9 = make_field(3, 2)


@pytest.mark.parametrize("src,m,n,dst,m2,n2", [
    (F2, 2, 3, F2, 3, 3), (F2, 3, 2, F4, 3, 3),
    (F3, 2, 2, F9, 2, 3), (F3, 3, 2, F3, 3, 3),
    (F4, 2, 2, F16, 3, 3), (F4, 1, 2, F4, 2, 2), (F4, 2, 1, F16, 2, 2),
    (F5, 1, 3, F5, 2, 3), (F5, 2, 1, F5, 2, 2), (F5, 2, 2, F5, 2, 3),
    (F9, 2, 1, F9, 2, 2), (F9, 1, 2, F9, 2, 2), (F16, 1, 2, F16, 2, 2),
], ids=lambda v: f"GF({v.q})" if hasattr(v, "q") else str(v))
def test_clique_test_matches_the_edge_scan(src, m, n, dst, m2, n2, monkeypatch):
    cases = _hom_cases(src, m, n, dst, m2, n2, seed=m * 100 + n * 10 + src.q)
    _assert_clique_test_matches_edge_scan(src, m, n, dst, m2, n2, cases, monkeypatch)


def test_clique_test_matches_the_edge_scan_on_the_xi_map(monkeypatch):
    xi = make_xi_map(XiMapParams(EMB_4_16, XI, 2)).images
    torn = xi.copy()
    torn[3000] = torn[0]
    cases = {"xi": xi, "xi corrupted": torn}
    _assert_clique_test_matches_edge_scan(F4, 3, 2, F16, 3, 2, cases, monkeypatch)


def test_clique_test_on_a_target_whose_codes_overflow_int64(monkeypatch):
    F65536 = make_field(2, 16)  # 65536^16 destination codes
    cases = _hom_cases(F4, 2, 2, F65536, 4, 4, seed=16)
    cases = {k: cases[k] for k in ("standard", "corrupted 1", "random", "witness")}
    _assert_clique_test_matches_edge_scan(F4, 2, 2, F65536, 4, 4, cases, monkeypatch)
    assert is_graph_hom(MapTable(F4, 2, 2, F65536, 4, 4, cases["standard"])) == (True, None)


def test_map_table_owns_a_read_only_copy():
    imgs = space(F4, 2, 2).entries.copy()
    tbl = MapTable(F4, 2, 2, F4, 2, 2, imgs)
    assert imgs.flags.writeable and not tbl.images.flags.writeable
    assert is_graph_hom(tbl) == (True, None)
    assert is_degenerate(tbl) == (False, None)
    imgs[:] = 0  # the caller's array no longer reaches the table
    assert np.array_equal(tbl.images, space(F4, 2, 2).entries)
    assert is_graph_hom(tbl) == (True, None)
    assert is_degenerate(tbl) == (False, None)
    with pytest.raises(ValueError):
        tbl.images[0, 0, 0] = 1
    assert is_graph_hom(MapTable(F4, 2, 2, F4, 2, 2, imgs))[0] is False


def test_sampled_is_graph_hom_ignores_the_stored_verdict(monkeypatch):
    const = MapTable(F4, 2, 2, F4, 2, 2, np.zeros((256, 2, 2), dtype=F4.dtype))
    exhaustive = is_graph_hom(const)
    assert is_graph_hom(const) is exhaustive  # served from the table
    # a sampled call computes afresh and does not overwrite the stored verdict
    calls = []
    real = _bulk.adjacent_mask
    monkeypatch.setattr(_bulk, "adjacent_mask",
                        lambda *a: calls.append(1) or real(*a))
    ok, w = is_graph_hom(const, mode="sampled", samples=50, seed=1)
    assert calls and not ok and w != exhaustive[1]
    assert is_graph_hom(const) is exhaustive
    assert len(calls) == 1


def test_embedding_is_isometric_and_distance_12_preserving():
    p = embedding_params(2, 2, 3, 3)
    tbl = standard_table(p)
    sp = space(F4, 2, 2)
    rng = np.random.default_rng(5)
    for _ in range(200):
        A, B = sp.random_mat(rng), sp.random_mat(rng)
        assert arithmetic_distance(tbl.apply(A), tbl.apply(B)) == \
            arithmetic_distance(A, B)
    # distance 1 and 2 preserving maps are non-degenerate
    assert is_degenerate(tbl) == (False, None)


def test_xi_map_properties():
    params = XiMapParams(EMB_4_16, XI, 2)
    f = make_xi_map(params)
    assert is_graph_hom(f)[0]
    assert is_degenerate(f) == (False, None)
    A = Mat(F4, [[1, 0], [1, 0], [0, 1]])
    Z = Mat.zeros(F4, 3, 2)
    assert arithmetic_distance(A, Z) == 2
    assert arithmetic_distance(f.apply(A), f.apply(Z)) == 1
    # additivity on random pairs
    sp = space(F4, 3, 2)
    rng = np.random.default_rng(2)
    for _ in range(1000):
        X, Y = sp.random_mat(rng), sp.random_mat(rng)
        assert f.apply(X + Y) == f.apply(X) + f.apply(Y)
    with pytest.raises(InvalidXi):
        XiMapParams(EMB_4_16, 1, 2)   # 1 is inside the embedded field
    with pytest.raises(InvalidXi):
        XiMapParams(EMB_4_16, XI, 1)  # too few columns


def test_moebius_twist_zero_is_identity():
    f = MapTable.identity(F4, 2, 2)
    assert moebius_twist(f, Mat.zeros(F4, 2, 2)) == f
    assert moebius_twist(f, Mat.zeros(F4, 2, 2), TwistSide.RIGHT) == f


def test_moebius_twist_preserves_image_distances():
    # embed GF(4) into GF(16) so nonzero valid twists exist
    emb_params = StandardHomParams(Orientation.STRAIGHT, Mat.identity(F16, 2),
                                   Mat.identity(F16, 2), EMB_4_16,
                                   Mat.zeros(F16, 2, 2), 2, 2)
    f = standard_table(emb_params)
    L = Mat.unit(F16, 2, 2, 0, 0, c=XI)
    for side in TwistSide:
        theta = moebius_twist(f, L, side)
        sp = space(F4, 2, 2)
        imgs_f = f.images
        imgs_t = theta.images
        d_f = _bulk.rank(F16, F16.vsub(imgs_f[:, None], imgs_f[None, :])
                         .reshape(-1, 2, 2))
        d_t = _bulk.rank(F16, F16.vsub(imgs_t[:, None], imgs_t[None, :])
                         .reshape(-1, 2, 2))
        assert np.array_equal(d_f, d_t)  # exact rank identity, all pairs


def test_moebius_twist_singular_witness():
    f = MapTable.identity(F4, 2, 2)
    L = Mat.unit(F4, 2, 2, 0, 0)
    with pytest.raises(SingularTwist) as exc:
        moebius_twist(f, L)
    X = exc.value.witness
    G = Mat.identity(F4, 2) + f.apply(X) @ L
    assert G.rank() < 2


def test_identity_twist_sweep_only_zero_valid():
    # over one field the identity table admits no nonzero twist at all
    f = MapTable.identity(F4, 2, 2)
    valid = []
    for code, L in enumerate(space(F4, 2, 2)):
        try:
            moebius_twist(f, L)
            valid.append(code)
        except SingularTwist:
            pass
    assert valid == [0]


def test_hom_exists():
    assert hom_exists(4, 2, 2, 4, 2, 2)
    assert not hom_exists(4, 2, 3, 2, 2, 2)  # 4^3 = 64 > 2^2 = 4
    assert hom_exists(2, 2, 2, 2, 1, 4)      # 2^2 <= 2^4
    assert hom_exists(2, 2, 2, 4, 2, 2)
    from bfgeo.errors import NotPrime
    with pytest.raises(NotPrime):
        hom_exists(6, 2, 2, 4, 2, 2)


def test_proper_coloring_gf4():
    c = proper_coloring(F4, 2, 2)
    codes = c.image_codes()
    assert len(np.unique(codes)) == 16  # exactly q^max(m, n) colors, all hit
    sp = space(F4, 2, 2)
    mono = 0
    for nbr in sp.neighbor_perms_half:
        mono += int((codes == codes[nbr]).sum())
    assert mono == 0
    assert is_graph_hom(c)[0] and is_colouring(c)


def test_proper_coloring_syndrome_difference_never_vanishes():
    # additivity makes properness equivalent to: no rank-1 matrix gets
    # the zero color
    c = proper_coloring(F4, 2, 2)
    sp = space(F4, 2, 2)
    codes = c.image_codes()
    assert (codes[sp.rank1_codes] != codes[0]).all()
    for X, Y in [(5, 77), (160, 13), (201, 255)]:
        s = sp.code_add(np.int64(X), np.int64(Y))
        assert np.array_equal(
            c.images[int(s)],
            F4.vadd(c.images[X], c.images[Y]))  # the coloring is additive


def test_proper_coloring_wide_and_tall():
    c = proper_coloring(F2, 2, 3)
    assert len(np.unique(c.image_codes())) == 8
    c2 = proper_coloring(F2, 3, 2)  # tall orientation transposes internally
    assert len(np.unique(c2.image_codes())) == 8
    for c_ in (c, c2):
        sp = space(F2, c_.m, c_.n)
        codes = c_.image_codes()
        for nbr in sp.neighbor_perms_half:
            assert (codes != codes[nbr]).all()


@pytest.mark.parametrize("p,k,m,n", [(2, 1, 2, 3), (2, 1, 3, 2), (2, 2, 2, 2),
                                     (3, 1, 2, 2), (5, 1, 1, 2)])
def test_proper_coloring_matches_a_scalar_fold(p, k, m, n):
    # the fold and the syndrome are dot products over the extension field;
    # a loop of scalar field operations is the reference
    field = make_field(p, k)
    s = max(m, n)
    big = make_field(p, k * s)
    emb = enumerate_homs(field, big)[0]
    basis = [big.pow(big.generator, j) for j in range(s)]

    def dot(coeffs, vec):
        acc = 0
        for c, v in zip(coeffs, vec):
            acc = big.add(acc, big.mul(int(c), int(v)))
        return acc

    def fold(row):
        return dot(basis, emb.table[row])

    color_of = {fold(v): v.tolist() for v in space(field, 1, s).entries[:, 0, :]}
    c = proper_coloring(field, m, n)
    for code, X in enumerate(space(field, m, n).entries):
        rows = X if n >= m else X.T
        want = color_of[dot(basis, [fold(r) for r in rows])]
        assert c.images[code, 0].tolist() == want


def test_proper_coloring_row_case():
    c = proper_coloring(F4, 1, 3)
    assert len(np.unique(c.image_codes())) == 64
    assert is_graph_hom(c)[0]


def test_build_witness_hom():
    w = build_witness_hom(4, 2, 2, 4, 2, 2)
    assert len(np.unique(w.image_codes())) == 16
    assert is_graph_hom(w)[0] and is_colouring(w)
    w2 = build_witness_hom(2, 2, 2, 4, 2, 2)
    assert is_graph_hom(w2)[0] and is_colouring(w2)
    w3 = build_witness_hom(2, 2, 2, 2, 1, 4)
    assert is_graph_hom(w3)[0] and is_colouring(w3)
    with pytest.raises(NoHomExists):
        build_witness_hom(4, 2, 3, 2, 2, 2)


def test_pigeonhole_certificate_for_the_false_case():
    # a graph homomorphism is injective on cliques, so a 64-point clique
    # cannot land in a graph whose largest clique has 4 points
    assert not hom_exists(4, 2, 3, 2, 2, 2)
    omega_target = clique_number(F2, 2, 2)
    assert omega_target == 4
    source_clique = 4 ** max(2, 3)
    assert source_clique == 64 > omega_target


def test_standard_tables_are_homs_and_nondegenerate_both_orientations():
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(8):
        p = random_valid_params(rng, F4, 2, 2, F16, 3, 3)
        seen.add(p.orientation)
        tbl = standard_table(p)
        assert is_graph_hom(tbl)[0]
        assert is_degenerate(tbl) == (False, None)
        assert not is_colouring(tbl)
    assert seen == {Orientation.STRAIGHT, Orientation.TRANSPOSED}


def _star_images(plan):
    """GF(2) 2x2 -> GF(4) 2x2: the kind-ONE clique through 0 of the t-th
    direction ((0,1), (1,0), (1,1)) goes where plan[t] says, w in GF(2)^2
    its free row: ("col", g) to g w, ("row", h) to w^t h, ("line", g, h)
    to (w0 + alpha w1) g h.  Every other point goes to 0."""
    sp = space(F2, 2, 2)
    emb = enumerate_homs(F2, F4)[0]
    alpha = 2  # outside GF(2), so w -> w0 + alpha w1 is injective
    imgs = np.zeros((sp.count, 2, 2), dtype=F4.dtype)
    for u, (kind, *gens) in zip(sp.monic_cols, plan):
        g, h = (np.asarray(x, dtype=F4.dtype) for x in (gens[0], gens[-1]))
        for w in sp.entries[1:4, 1, :]:  # the nonzero rows
            x = emb.vapply(w)
            if kind == "col":
                img = F4.vmul(g[:, None], x[None, :])
            elif kind == "row":
                img = F4.vmul(x[:, None], g[None, :])
            else:
                img = F4.vmul(F4.vadd(x[0], F4.vmul(alpha, x[1])),
                              F4.vmul(g[:, None], h[None, :]))
            imgs[_bulk.encode(F2, F2.vmul(u[:, None], w[None, :]))] = img
    return imgs


E1, E2 = [1, 0], [0, 1]
STAR_PLANS = {  # each distinguishes the summary rule from a near miss
    # covered at 0 by (e2, e1): the line must not count as a column clique
    "line and columns": [("line", E1, E1), ("col", E2), ("col", E2)],
    # covered at 0 by (e1, e2): the kinds keep column e1 and row e2 apart
    "column e1, row e2": [("col", E1), ("row", E2), ("col", E1)],
    # not covered at 0: the row cliques differ, though one matches the column
    "column e2, rows e1 and e2": [("col", E2), ("row", E1), ("row", E2)],
}


def _hom_outcome(f):
    """is_graph_hom(f) as comparable plain data, as _edge_scan_oracle gives it."""
    ok, w = is_graph_hom(f)
    return ok, None if w is None else tuple(X.encode() for X in w)


def _spread_witness_images(f):
    """f's images with one rank-2 point sent far off: the cliques through
    it fail, but none of them passes through 0."""
    imgs = f.images.copy()
    code = int(np.nonzero(_bulk.rank(f.src_field, f.src_space().entries) >= 2)[0][-1])
    imgs[code, -1, -1] = f.dst_field.vadd(imgs[code, -1, -1], 1)
    return imgs


@pytest.mark.parametrize("src,m,n,dst,m2,n2", [
    (F4, 2, 2, F16, 3, 3), (F3, 3, 2, F3, 3, 3), (F2, 3, 2, F4, 3, 3),
    (F5, 2, 2, F5, 2, 3), (F4, 1, 2, F4, 2, 2), (F5, 1, 3, F5, 2, 3),
    (F4, 2, 1, F16, 2, 2), (F9, 2, 1, F9, 2, 2), (F5, 1, 1, F5, 2, 2),
    (F4, 1, 1, F16, 2, 2), (F2, 2, 2, F4, 2, 2),
], ids=lambda v: f"GF({v.q})" if hasattr(v, "q") else str(v))
@pytest.mark.parametrize("block", [1, 3, None])
def test_summary_decided_degeneracy_matches_the_per_center_loop(
        src, m, n, dst, m2, n2, block, monkeypatch):
    sp = space(src, m, n)
    centers = np.sort(np.r_[0, sp.rank1_codes])
    if block is not None:  # force block boundaries: centers, and cliques
        size = sp.clique_members.shape[1]
        monkeypatch.setattr(homs, "_DEGENERACY_BLOCK_BYTES", block * len(centers) * m2 * n2 * 8)
        monkeypatch.setattr(homs, "_CLIQUE_BLOCK_BYTES", block * size * m2 * n2 * 8)
    scanned = []
    real_hits = homs._ball_hits
    monkeypatch.setattr(homs, "_ball_hits",
                        lambda f, ball0, c: scanned.extend(c.tolist()) or real_hits(f, ball0, c))
    cases = _hom_cases(src, m, n, dst, m2, n2, seed=m * 100 + n * 10 + src.q)
    if min(m, n) >= 2:
        std = MapTable(src, m, n, dst, m2, n2, cases["standard"])
        cases["torn late"], torn_at = _torn_late_images(std)
        torn_center = centers[torn_at]
        cases["witness spread"] = _spread_witness_images(
            MapTable(src, m, n, dst, m2, n2, cases["witness"]))
    if (src, m, n, dst, m2, n2) == (F2, 2, 2, F4, 2, 2):
        cases.update({name: _star_images(plan) for name, plan in STAR_PLANS.items()})
    for name, imgs in cases.items():
        decided = []
        f = MapTable(src, m, n, dst, m2, n2, imgs)
        want = _degeneracy_outcome(lambda t: _degenerate_oracle(t, decided), f)
        want_hom = _edge_scan_oracle(f)
        for hom_first in (False, True):
            f = MapTable(src, m, n, dst, m2, n2, imgs)
            del scanned[:]
            if hom_first:
                assert _hom_outcome(f) == want_hom, name
            assert _degeneracy_outcome(is_degenerate, f) == want, (name, block, hom_first)
            assert _degeneracy_outcome(is_degenerate, f) == want  # stored or re-raised
            if name == "witness spread" and src.q ** max(m, n) > dst.q:
                # no clique image fits on a target line: decided at 0 from
                # the summaries, though later centers would need a scan
                assert decided == [0] and not f._clique_summary.passes.all()
                assert scanned == []
            if name == "torn late":  # decided by a scan after summary-decided centers
                assert torn_center in scanned and centers[0] not in scanned
            assert _hom_outcome(f) == want_hom, name  # stored, or built on the summary
        if name in STAR_PLANS:
            assert (decided == [0]) == (name != "column e2, rows e1 and e2"), name


def _cover_oracle(u, v, mask):
    """``_two_clique_cover`` row by row through ``_stab_with_two``.  A zero
    generator stands for two items with distinct fresh ones, as a column-
    or row-kind clique off a line has among its differences from the
    center; a fresh generator (entries past the field) is never picked."""
    out = []
    for b in range(mask.shape[0]):
        us, vs = [], []
        for k in np.nonzero(mask[b])[0]:
            for t in range(1 if u[:, b, k].any() and v[:, b, k].any() else 2):
                fresh = 100 + 2 * k + t
                us.append(u[:, b, k] if u[:, b, k].any() else np.full(len(u), fresh))
                vs.append(v[:, b, k] if v[:, b, k].any() else np.full(len(v), fresh))
        pick = _stab_with_two(np.array(us), np.array(vs)) if us else (None, None)
        if pick is None:
            out.append(None)
            continue
        out.append(tuple(np.zeros(len(g), dtype=g.dtype) if i is None else items[i]
                         for g, items, i in zip((u, v), (us, vs), pick)))
    return out


@pytest.mark.parametrize("K", [1, 2, 3, 5])
def test_two_clique_cover_matches_the_witness_search(K):
    rng = np.random.default_rng(40 + K)
    B = 600
    u = np.zeros((3, B, K), dtype=np.uint8)  # GF(4) generators, 3 x 2 targets
    v = np.zeros((2, B, K), dtype=np.uint8)
    for b in range(B):  # 2-3 distinct nonzero generators per side, some items zero on one side
        for g in (u, v):
            pool = rng.permutation(np.arange(1, 4 ** len(g)))[:rng.integers(2, 4)]
            rows = _bulk.decode(F4, pool, 1, len(g))[:, 0, :]
            g[:, b, :] = rows[rng.integers(len(rows), size=K)].T
        zero = rng.random(K) < 0.15
        (u if rng.random() < 0.5 else v)[:, b, zero] = 0
    mask = rng.random((B, K)) < 0.85
    mask[:20] = False  # empty rows
    covered, u0, v0 = homs._two_clique_cover(u, v, mask)
    seen = set()
    for b, want in enumerate(_cover_oracle(u, v, mask)):
        assert covered[b] == (want is not None), b
        if want is None:
            continue
        assert np.array_equal(u0[:, b], want[0]) and np.array_equal(v0[:, b], want[1]), b
        on = mask[b]
        uk, vk = u[:, b, on], v[:, b, on]
        valid = lambda p, q: ((uk == p[:, None]).all(axis=0) & p.any()
                              | (vk == q[:, None]).all(axis=0) & q.any()).all()
        if not on.any():
            seen.add("empty")
        elif not want[1].any():
            seen.add("all u")
        elif not want[0].any():
            seen.add("all v")
        elif uk[:, 0].any() and not np.array_equal(want[0], uk[:, 0]):  # the second pair ...
            first = uk[:, 0], vk[:, (uk != uk[:, :1]).any(axis=0)]
            if first[1].size and valid(first[0], first[1][:, 0]):
                seen.add("tie, second u smaller")  # ... though the first holds too
        if on.any() and not (uk.any(axis=0) & vk.any(axis=0)).all():
            seen.add("zero generator")
    want_seen = {"empty", "all u", "all v", "zero generator"}
    if K >= 2:
        want_seen.add("tie, second u smaller")
    assert seen >= want_seen


LINE_CENTRE_CASES = {
    "witness GF(2) 2x2 -> GF(4) 2x2": lambda: build_witness_hom(2, 2, 2, 4, 2, 2),
    "witness GF(4) 2x2 -> GF(16) 3x3": lambda: build_witness_hom(4, 2, 2, 16, 3, 3),
    "line and columns": lambda: MapTable(F2, 2, 2, F4, 2, 2,
                                         _star_images(STAR_PLANS["line and columns"])),
}


@pytest.mark.parametrize("name", sorted(LINE_CENTRE_CASES))
def test_a_centre_on_line_cliques_is_decided_without_a_ball_scan(name, monkeypatch):
    f = LINE_CENTRE_CASES[name]()
    sp, summary = f.src_space(), f._clique_summary
    through = sp.cliques_through(np.zeros(1, dtype=np.int64))[0]
    assert summary.passes[through].all()
    assert (summary.u[through].any(axis=1) & summary.v[through].any(axis=1)).any()
    decided = []
    want = _degeneracy_outcome(lambda t: _degenerate_oracle(t, decided), f)
    assert want[0] is True and decided == [0]
    scanned = []
    real_hits = homs._ball_hits
    monkeypatch.setattr(homs, "_ball_hits",
                        lambda f, ball0, c: scanned.extend(c.tolist()) or real_hits(f, ball0, c))
    assert _degeneracy_outcome(is_degenerate, f) == want
    assert scanned == []


def test_a_wrong_cover_pair_breaks_loudly(monkeypatch):
    real = homs._two_clique_cover

    def shifted(u, v, mask):  # the column generator moved one entry down
        covered, u0, v0 = real(u, v, mask)
        return covered, np.roll(u0, 1, axis=0), v0

    monkeypatch.setattr(homs, "_two_clique_cover", shifted)
    for make in LINE_CENTRE_CASES.values():
        with pytest.raises(TheoremViolated):
            is_degenerate(make())


def _adjacent_set_oracle(f):
    """The pairwise loop is_colouring ran before the clique test, kept as its
    reference: are the distinct images pairwise adjacent?"""
    F = f.dst_field
    pts = np.unique(f.images.reshape(f.count, -1), axis=0).reshape(-1, f.m2, f.n2)
    for i in range(len(pts) - 1):
        if not _bulk.adjacent_mask(F, F.vsub(pts[i + 1:], pts[i])).all():
            return False
    return True


def _colouring_cases():
    """(name, table, expected is_colouring) on both characteristics."""
    line = np.zeros((16, 2, 2), dtype=F16.dtype)  # GF(4)^(1x2) onto a GF(16) line
    w = EMB_4_16.vapply(space(F4, 1, 2).entries[:, 0, :])
    line[:, 0, 0] = F16.vadd(w[:, 0], F16.vmul(w[:, 1], XI))
    scalar = np.zeros((5, 2, 2), dtype=F5.dtype)  # c E12 on a GF(5) line
    scalar[:, 0, 1] = np.arange(5)
    off = build_witness_hom(4, 2, 2, 4, 2, 2).images.copy()
    off[77, 1, 1] = 1  # one image leaves the witness's clique
    pair = np.zeros((3, 2, 2), dtype=F3.dtype)
    pair[1:] = np.eye(2, dtype=F3.dtype)  # two points at rank distance 2
    yield "constant", MapTable(F4, 2, 2, F4, 2, 2, np.zeros((256, 2, 2), dtype=F4.dtype)), True
    yield "identity", MapTable.identity(F4, 2, 2), False
    yield "identity 1x3", MapTable.identity(F5, 1, 3), True
    for shape in [(4, 2, 2, 4, 2, 2), (2, 2, 2, 4, 2, 2), (2, 2, 2, 2, 1, 4),
                  (3, 3, 2, 3, 3, 3), (5, 1, 2, 5, 2, 2), (4, 2, 2, 16, 3, 3)]:
        yield f"witness {shape}", build_witness_hom(*shape), True
    yield "xi", make_xi_map(XiMapParams(EMB_4_16, XI, 2)), False
    yield "on one line", MapTable(F4, 1, 2, F16, 2, 2, line), True
    yield "on one GF(5) line", MapTable(F5, 1, 1, F5, 2, 2, scalar), True
    yield "one point off the clique", MapTable(F4, 2, 2, F4, 2, 2, off), False
    yield "a rank-2 pair", MapTable(F3, 1, 1, F3, 2, 2, pair), False
    yield "standard", standard_table(random_valid_params(
        np.random.default_rng(3), F3, 2, 2, F9, 2, 3)), False


@pytest.mark.parametrize("name,f,expect", list(_colouring_cases()),
                         ids=[c[0] for c in _colouring_cases()])
def test_is_colouring_matches_the_pairwise_loop(name, f, expect):
    assert is_colouring(f) == _adjacent_set_oracle(f) == expect


def test_is_colouring_of_65536_images_within_a_second():
    # 65536 distinct images, one adjacent set: the pairwise loop took minutes
    f = MapTable.identity(F2, 1, 16)
    assert within_a_second(lambda: is_colouring(f)) is True
