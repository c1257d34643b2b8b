"""Flats, flat distance, the graph embedding, and rigidity sweeps."""

import collections

import numpy as np
import pytest

from bfgeo import _bulk
from bfgeo.errors import PreconditionViolated, ShapeMismatch, TheoremViolated
from bfgeo.fields import enumerate_homs, identity_hom, make_field
from bfgeo.grassmann import (Flat, Side, check_rigidity_step,
                             check_rigidity_step_cols, check_rigidity_top,
                             check_rigidity_top_cols, embed_graph_point,
                             flat_ad, stratum)
from bfgeo.matrices import Mat, arithmetic_distance, random_invertible, space

F4 = make_field(2, 2)
F5 = make_field(5, 1)


def test_flat_ad_examples():
    W = embed_graph_point(Mat.zeros(F4, 2, 2))
    assert flat_ad(W, W) == 0
    W1 = embed_graph_point(Mat.unit(F4, 2, 2, 0, 0))
    assert flat_ad(W, W1) == 1
    W2 = embed_graph_point(Mat.identity(F4, 2))
    assert flat_ad(W, W2) == 2


def test_flat_ad_is_a_metric_on_random_triples():
    rng = np.random.default_rng(0)
    flats = []
    while len(flats) < 12:
        rep = Mat(F4, rng.integers(0, 4, size=(2, 4)).astype(F4.dtype))
        if rep.rank() == 2:
            flats.append(Flat(F4, rep))
    for W1 in flats:
        for W2 in flats:
            d = flat_ad(W1, W2)
            assert d == flat_ad(W2, W1)
            assert (d == 0) == (W1 == W2)
            for W3 in flats:
                assert d <= flat_ad(W1, W3) + flat_ad(W3, W2)


def test_representation_invariance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rep = Mat(F4, rng.integers(0, 4, size=(2, 4)).astype(F4.dtype))
        if rep.rank() != 2:
            continue
        G = random_invertible(rng, F4, 2)
        assert Flat(F4, rep) == Flat(F4, G @ rep)
        other = embed_graph_point(space(F4, 2, 2).mat(int(rng.integers(16))))
        assert flat_ad(Flat(F4, rep), other) == flat_ad(Flat(F4, G @ rep), other)


def test_right_side_flats():
    rep = Mat.vstack(Mat.identity(F4, 2), Mat.unit(F4, 2, 2, 0, 0))
    W = Flat(F4, rep, Side.RIGHT)
    W2 = Flat(F4, Mat.vstack(Mat.identity(F4, 2), Mat.zeros(F4, 2, 2)), Side.RIGHT)
    assert flat_ad(W, W2) == 1
    G = random_invertible(np.random.default_rng(2), F4, 2)
    assert Flat(F4, rep @ G, Side.RIGHT) == W
    with pytest.raises(ShapeMismatch):
        flat_ad(W, embed_graph_point(Mat.zeros(F4, 2, 2)))


def test_embedding_is_an_isometry_exhaustive():
    sp = space(F4, 2, 2)
    flats = [embed_graph_point(M) for M in sp]
    # all pairs at once: stack (I|X) reps and compare rank-based distances
    reps = np.concatenate(
        [np.broadcast_to(_bulk.identity(F4, 2), (sp.count, 2, 2)), sp.entries],
        axis=2)
    diffs = F4.vsub(sp.entries[:, None], sp.entries[None, :])
    ads = _bulk.rank(F4, diffs.reshape(-1, 2, 2)).reshape(sp.count, sp.count)
    stacked = np.concatenate(
        [np.broadcast_to(reps[:, None], (sp.count, sp.count, 2, 4)),
         np.broadcast_to(reps[None, :], (sp.count, sp.count, 2, 4))], axis=2)
    flat_ads = _bulk.rank(F4, stacked.reshape(-1, 4, 4)).reshape(sp.count, sp.count) - 2
    assert np.array_equal(ads, flat_ads)


def test_change_of_representation_block_identity():
    # (X, I + X L) right-multiplied by [[-L, I], [I, 0]] gives (I, X)
    rng = np.random.default_rng(3)
    F16 = make_field(2, 4)
    emb = enumerate_homs(F4, F16)[0]
    L = Mat(F16, rng.integers(0, 16, size=(2, 2)).astype(F16.dtype))
    X = Mat(F16, emb.vapply(space(F4, 2, 2).mat(int(rng.integers(16))).a))
    I2 = Mat.identity(F16, 2)
    G = I2 + X @ L
    M = Mat.vstack(Mat.hstack(-L, I2), Mat.hstack(I2, Mat.zeros(F16, 2, 2)))
    prod = Mat.hstack(X, G) @ M
    assert prod == Mat.hstack(I2, X)
    # and (A1, I) maps to (I - A1 L, A1)
    A1 = space(F16, 2, 2).mat(int(rng.integers(16**4)))
    prod2 = Mat.hstack(A1, I2) @ M
    assert prod2 == Mat.hstack(I2 - A1 @ L, A1)


def test_strata():
    top = stratum(F4, 2, 2, 2, 2, "row")
    assert len(top) == 180  # all rank-2 matrices have both rows nonzero
    step = stratum(F4, 2, 2, 2, 1, "row")
    assert len(step) == 45  # rank-1 with no zero row
    assert len(stratum(F4, 2, 2, 2, 1, "col")) == 45


def test_rigidity_top_gf4():
    rep = check_rigidity_top(F4, identity_hom(F4), 2, 2, 2)
    assert rep["counterexamples"] == []
    assert rep["vacuous"] == []
    assert rep["strata_checked"] == 180
    gl2 = (16 - 1) * (16 - 4)
    assert rep["branch_counts"]["y_eq_xa"] == 180 * gl2
    assert rep["branch_counts"]["y_zero"] == 180 * gl2  # k = 2 extra branch


def test_rigidity_top_gf5():
    rep = check_rigidity_top(F5, identity_hom(F5), 2, 2, 2)
    assert rep["counterexamples"] == []
    assert rep["branch_counts"]["y_zero"] > 0


def test_rigidity_top_subfield_strata():
    # strata over GF(3) embedded into GF(9): exercises a proper subfield
    F3 = make_field(3, 1)
    F9 = make_field(3, 2)
    emb = enumerate_homs(F3, F9)[0]
    rep = check_rigidity_top(F3, emb, 2, 2, 2, a_sample=4, seed=0)
    assert rep["counterexamples"] == []
    assert rep["strata_checked"] == 4
    assert rep["branch_counts"]["y_eq_xa"] == 4 * (81 - 1) * (81 - 9)


def test_rigidity_step_gf4():
    rep = check_rigidity_step(F4, identity_hom(F4), 2, 2, 2, 1)
    assert rep["counterexamples"] == []
    assert rep["branch_counts"]["y_zero"] == 0  # no extra branch off the top
    assert rep["branch_counts"]["y_eq_xa"] == 45 * 180


def test_rigidity_transposed_variants():
    rep = check_rigidity_top_cols(F4, identity_hom(F4), 2, 2, 2)
    assert rep["counterexamples"] == []
    rep = check_rigidity_step_cols(F4, identity_hom(F4), 2, 2, 2, 1)
    assert rep["counterexamples"] == []


def test_rigidity_preconditions():
    with pytest.raises(PreconditionViolated):
        check_rigidity_step(F4, identity_hom(F4), 2, 2, 1, 1)  # k <= r
    with pytest.raises(PreconditionViolated):
        check_rigidity_top(make_field(2, 1), identity_hom(make_field(2, 1)), 2, 2, 2)


def test_rigidity_vacuous_guard():
    from bfgeo.grassmann import _run_rigidity
    # sampling cannot produce vacuous strata at these sizes, so drive the
    # guard directly: a center whose pencil neighborhood is empty is
    # reported vacuous rather than failing
    from unittest import mock
    import bfgeo.grassmann as gm

    real = gm.stratum

    def fake(field, m, n, k, r, axis):
        if (k, r) == (1, 1):  # the neighbor stratum for k = 2
            return real(field, m, n, k, r, axis)[:0]
        return real(field, m, n, k, r, axis)

    with mock.patch.object(gm, "stratum", side_effect=fake):
        rep = gm.check_rigidity_top(F4, identity_hom(F4), 2, 2, 2)
    assert rep["strata_checked"] == 0
    assert len(rep["vacuous"]) == 180
    assert rep["counterexamples"] == []


def test_workers_do_not_change_the_report():
    a = check_rigidity_top(F4, identity_hom(F4), 2, 2, 2, workers=1)
    b = check_rigidity_top(F4, identity_hom(F4), 2, 2, 2, workers=4)
    assert a == b


@pytest.mark.parametrize("cpus,want", [(2, 2), (64, None), (None, None)])
def test_rigidity_pool_is_clamped(cpus, want, monkeypatch):
    # a fake executor records the pool size and runs the jobs inline, so no
    # thread is started whatever the requested count
    import bfgeo.grassmann as gm
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(gm, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(gm.os, "cpu_count", lambda: cpus)
    serial = check_rigidity_top(F4, identity_hom(F4), 2, 2, 2, a_sample=6, workers=1)
    assert sizes == []
    rep = check_rigidity_top(F4, identity_hom(F4), 2, 2, 2, a_sample=6, workers=10**6)
    assert rep == serial
    if cpus is None:  # an unknown CPU count runs serially
        assert sizes == []
    else:
        assert sizes == [want if want is not None else rep["strata_checked"]]



# --- the blocked sweep against the per-centre loop it replaced ---------------

def _loop_survivors(field, A, Bs, m, n):
    """All (X, Y) with rank(Y - X B) = 1 for every B in Bs, by filtering the
    candidates X B_1 + R through the other pencil members one at a time."""
    sp_y = space(field, m, n)
    r1codes = sp_y.rank1_codes
    r1mask = np.zeros(sp_y.count, dtype=bool)
    r1mask[r1codes] = True
    xs = space(field, m, m).entries
    NX, K = len(xs), len(r1codes)
    XBcodes = np.empty((len(Bs), NX), dtype=np.int64)
    for t, B in enumerate(Bs):
        XBcodes[t] = _bulk.encode(field, _bulk.matmul(field, xs, B[None]))
    out_x, out_y = [], []
    chunk = max(1, (1 << 22) // K)
    for lo in range(0, NX, chunk):
        hi = min(NX, lo + chunk)
        xi = np.repeat(np.arange(lo, hi), K)
        Yc = sp_y.code_add(XBcodes[0, lo:hi][:, None],
                           r1codes[None, :]).reshape(-1).astype(np.int64)
        for t in range(1, len(Bs)):
            keep = r1mask[sp_y.code_sub(Yc, XBcodes[t, xi])]
            xi, Yc = xi[keep], Yc[keep]
        out_x.append(xi)
        out_y.append(Yc)
    return (xs[np.concatenate(out_x)],
            _bulk.decode(field, np.concatenate(out_y), m, n))


def _loop_block(field, xs, nbrs, block, m, n, top, k):
    """_check_block as a loop over centres: cascaded survivor filter, then
    the rref rank of every (X | Y)."""
    eq = zero = 0
    ces = []
    for A, pencil in block:
        X, Y = _loop_survivors(field, A, nbrs[pencil], m, n)
        rep_rank = _bulk.rank(field, np.concatenate([X, Y], axis=2))
        X, Y = X[rep_rank == m], Y[rep_rank == m]
        inv = _bulk.invertible_mask(field, X)
        XA = _bulk.matmul(field, X, np.broadcast_to(A, X.shape[:1] + A.shape))
        eq_xa = inv & (Y == XA).all(axis=(1, 2))
        y_zero = inv & ~Y.any(axis=(1, 2)) if (top and k == 2) else np.zeros(len(X), bool)
        eq += int(eq_xa.sum())
        zero += int(y_zero.sum())
        ces.extend((Mat(field, A).to_text(), Mat(field, X[i]).to_text(),
                    Mat(field, Y[i]).to_text()) for i in np.flatnonzero(~(eq_xa | y_zero)))
    return eq, zero, ces


F3 = make_field(3, 1)
F9 = make_field(3, 2)
# (sweep, E, D, args, keywords, an off-stratum centre or None).  The extra
# centre's sweep has 180 counterexamples, singular X among them, and loses
# some without the second of its 17 pencil members; no centre off the
# GF(4) 2x2 step strata has a counterexample.
ORACLE_CASES = {
    "gf4-top": (check_rigidity_top, F4, F4, (2, 2, 2), {}, [[0, 0], [0, 1]]),
    "gf4-step": (check_rigidity_step, F4, F4, (2, 2, 2, 1), {}, None),
    "gf4-top-cols": (check_rigidity_top_cols, F4, F4, (2, 2, 2), {}, [[0, 0], [0, 1]]),
    "gf4-step-cols": (check_rigidity_step_cols, F4, F4, (2, 2, 2, 1), {}, None),
    "gf5-top-sampled": (check_rigidity_top, F5, F5, (2, 2, 2),
                        {"a_sample": 7, "seed": 3}, None),
    "gf4-2x3-step-sampled": (check_rigidity_step, F4, F4, (2, 3, 2, 1),
                             {"a_sample": 5, "seed": 4}, None),
    "gf3-gf9-top-sampled": (check_rigidity_top, F3, F9, (2, 2, 2),
                            {"a_sample": 1, "seed": 5}, None),
}


def _with_the_oracle(case, monkeypatch):
    """(run, want): the case's sweep, with its off-stratum centre patched
    in, and the report the per-centre loop gives for it."""
    import bfgeo.grassmann as gm
    sweep, E, D, args, kw, extra = ORACLE_CASES[case]
    hom = identity_hom(E) if E == D else enumerate_homs(E, D)[0]
    if extra is not None:
        # one more centre, off the stratum, whose sweep has counterexamples
        real = gm.stratum
        centre_key = (args[2], args[2] if len(args) == 3 else args[3])

        def with_extra(field, m, n, k, r, axis):
            out = real(field, m, n, k, r, axis)
            if (k, r) != centre_key:
                return out
            return np.concatenate([out, np.array([extra], dtype=field.dtype)])

        monkeypatch.setattr(gm, "stratum", with_extra)

    def run(**more):
        return sweep(E, hom, *args, **kw, **more)

    with monkeypatch.context() as patch:
        patch.setattr(gm, "_check_block", _loop_block)
        want = run()
    assert bool(want["counterexamples"]) == (extra is not None)
    return run, want


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_blocked_sweep_matches_the_per_centre_loop(case, monkeypatch):
    import bfgeo.grassmann as gm
    run, want = _with_the_oracle(case, monkeypatch)
    sizes = []
    blocked = gm._check_block

    def recording(field, xs, nbrs, block, *rest):
        sizes.append(len(block))
        return blocked(field, xs, nbrs, block, *rest)

    monkeypatch.setattr(gm, "_check_block", recording)
    for size in (1, 3, None):
        if size is not None and size >= want["strata_checked"]:
            continue  # one block, as by default
        sizes.clear()
        with monkeypatch.context() as patch:
            if size is not None:
                patch.setattr(gm, "_blocks", lambda jobs, nx, threads, size=size: [
                    jobs[i:i + size] for i in range(0, len(jobs), size)])
            assert run() == want
        if size is not None:
            assert max(sizes) == size
    if want["strata_checked"] > 1:
        assert run(workers=4) == want


@pytest.mark.parametrize("case", ["gf4-top", "gf5-top-sampled"])
def test_small_chunks_match_the_per_centre_loop(case, monkeypatch):
    # a small chunk splits each pencil-size group of centres into several
    # chunks and the X-space into several runs; gf4-top also mixes pencils
    # of 8 and 17 members in one block
    import bfgeo.grassmann as gm
    run, want = _with_the_oracle(case, monkeypatch)
    chunks = []
    real = gm._pencil_and

    def recording(W, D, pairs, valid):
        chunks.append((pairs.shape[1], D.shape[1]))
        return real(W, D, pairs, valid)

    monkeypatch.setattr(gm, "_pencil_and", recording)
    monkeypatch.setattr(gm, "_CHUNK", 1 << 13)
    assert run() == want
    per_size = collections.Counter(members for members, _ in chunks)
    assert min(per_size.values()) > 1
    assert len(per_size) == (2 if case == "gf4-top" else 1)
    assert max(xs for _, xs in chunks) < ORACLE_CASES[case][2].q ** 4


def _caught(sweep, *args):
    """Whether a sweep raises TheoremViolated or reports a counterexample."""
    try:
        return bool(sweep(F4, identity_hom(F4), *args)["counterexamples"])
    except TheoremViolated:
        return True


SWEEPS = {"top": (check_rigidity_top, 2, 2, 2), "step": (check_rigidity_step, 2, 2, 2, 1)}


@pytest.mark.parametrize("sweep", list(SWEEPS))
def test_a_shifted_y_eq_xa_column_is_caught(sweep, monkeypatch):
    import bfgeo.grassmann as gm
    real = gm._branch_columns

    def shifted(sp_y, *rest):
        j_eq, j_zero = real(sp_y, *rest)
        return np.where(j_eq >= 0, (j_eq + 1) % len(sp_y.rank1_codes), j_eq), j_zero

    monkeypatch.setattr(gm, "_branch_columns", shifted)
    assert _caught(*SWEEPS[sweep])


@pytest.mark.parametrize("sweep", list(SWEEPS))
def test_a_corrupt_survivor_row_is_caught(sweep, monkeypatch):
    # every survivor bit of one invertible X, of the first centre of each
    # chunk, flipped
    import bfgeo.grassmann as gm
    real = gm._pencil_and
    x = int(np.argmax(_bulk.invertible_mask(F4, space(F4, 2, 2).entries)))

    def corrupt(W, D, pairs, valid):
        keep = real(W, D, pairs, valid)
        keep[0, x] ^= valid
        return keep

    monkeypatch.setattr(gm, "_pencil_and", corrupt)
    assert _caught(*SWEEPS[sweep])


# (E, D, m, n, proper subspaces of D^m): one table class per subspace
FLAT_TABLE_CASES = {
    "gf4-2x2": (F4, F4, 2, 2, 1 + 5),
    "gf5-2x2": (F5, F5, 2, 2, 1 + 6),
    "gf3-3x2": (F3, F3, 3, 2, 1 + 13 + 13),
    "gf3-gf9-2x2": (F3, F9, 2, 2, 1 + 10),
}


@pytest.mark.parametrize("case", list(FLAT_TABLE_CASES))
def test_flat_table_equals_the_rank_of_every_singular_survivor(case):
    # (X | X B + R) has rank m exactly where the (col X, R) table says so,
    # for every singular X, every rank-1 R and B drawn as the sweep draws
    # its pencil members, from E embedded in D
    import bfgeo.grassmann as gm
    E, D, m, n, subspaces = FLAT_TABLE_CASES[case]
    hom = identity_hom(E) if E == D else enumerate_homs(E, D)[0]
    xs = space(D, m, m).entries
    r1 = space(D, m, n).rank1
    cls, table = gm._flat_table(D, xs, r1)
    assert table.shape == (subspaces, len(r1))
    sing = np.flatnonzero(cls >= 0)
    assert np.array_equal(sing, np.flatnonzero(~_bulk.invertible_mask(D, xs)))
    X = xs[sing][:, None]
    rng = np.random.default_rng(len(xs))
    for B in hom.vapply(rng.integers(0, E.q, size=(3, m, n)).astype(E.dtype)):
        Y = D.vadd(_bulk.matmul(D, X, B[None, None]), r1[None])
        got = _bulk.full_rank_mask(D, np.concatenate(
            [np.broadcast_to(X, Y.shape[:2] + (m, m)), Y], axis=3))
        assert np.array_equal(got, table[cls[sing]])
    assert table.any() and not table.all()


def test_a_wrong_flat_table_is_caught_at_run_time(monkeypatch):
    import bfgeo.grassmann as gm
    real = gm._flat_table

    def negated(*args):
        cls, table = real(*args)
        return cls, ~table

    monkeypatch.setattr(gm, "_flat_table", negated)
    with pytest.raises(TheoremViolated):
        check_rigidity_top(F4, identity_hom(F4), 2, 2, 2)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4)])
@pytest.mark.parametrize("m", [2, 3])
def test_full_rank_mask_matches_rref_rank(p, k, m):
    F = make_field(p, k)
    rng = np.random.default_rng(10 * p + k + 100 * m)
    for w in range(m, m + 5):
        rand = rng.integers(0, F.q, size=(400, m, w)).astype(F.dtype)
        # rank-deficient: products of m x (m-1) and (m-1) x w factors
        low = _bulk.matmul(F, rng.integers(0, F.q, size=(400, m, m - 1)).astype(F.dtype),
                           rng.integers(0, F.q, size=(400, m - 1, w)).astype(F.dtype))
        stack = np.concatenate([rand, low])
        got = _bulk.full_rank_mask(F, stack)
        assert np.array_equal(got, _bulk.rank(F, stack) == m)
        assert got[:400].any() and not got[400:].any()
