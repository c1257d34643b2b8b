"""Flats, flat distance, the graph embedding, and rigidity sweeps."""

import numpy as np
import pytest

from bfgeo import _bulk
from bfgeo.errors import PreconditionViolated, ShapeMismatch
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
        other = embed_graph_point(space(F4, 2, 2).random_mat(rng))
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
    X = space(F4, 2, 2).random_mat(rng).apply_hom(emb)
    I2 = Mat.identity(F16, 2)
    G = I2 + X @ L
    M = Mat.vstack(Mat.hstack(-L, I2), Mat.hstack(I2, Mat.zeros(F16, 2, 2)))
    prod = Mat.hstack(X, G) @ M
    assert prod == Mat.hstack(I2, X)
    # and (A1, I) maps to (I - A1 L, A1)
    A1 = space(F16, 2, 2).random_mat(rng)
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

