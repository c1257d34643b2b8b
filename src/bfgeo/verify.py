"""Whole-space verification sweeps.

Each function runs one self-contained exhaustive (or seeded random) check
and returns a flat dict of integer counts and string witnesses, ready to
drop into a run report.  These are the single entry points shared by the
command line and the acceptance suite.
"""

from __future__ import annotations

import numpy as np

from . import _bulk
from .cliques import (Kind, VertexSet, all_maximal_sets, bron_kerbosch_cliques,
                      classify_clique, clique_number, intersect, line_through,
                      maximal_sets_through, two_pencil_sweep)
from .errors import SingularTwist
from .fields import Field, field_from_order
from .homs import (MapTable, Orientation, build_witness_hom, hom_exists,
                   is_colouring, is_degenerate, is_graph_hom, moebius_twist,
                   proper_coloring, random_valid_params, standard_table,
                   validate_params)
from .matrices import Mat, bfs_distances, space
from .recovery import dim_bound_check, recover_standard


def distance_theorem_check(field: Field, m: int, n: int) -> dict:
    """Exhaustive: BFS path length equals rank distance, every pair."""
    sp = space(field, m, n)
    diffs = field.vsub(sp.entries[:, None], sp.entries[None, :])
    ads = _bulk.rank(field, diffs.reshape(-1, m, n)).reshape(sp.count, sp.count)
    mismatches = []
    for a in range(sp.count):
        d = bfs_distances(sp.mat(a))
        bad = np.nonzero(d != ads[a])[0]
        mismatches.extend(f"{a}:{int(b)}" for b in bad)
    return {
        "vertices": sp.count,
        "pairs": sp.count * sp.count,
        "edges": int((ads == 1).sum()) // 2,
        "mismatches": sorted(mismatches),
    }


def clique_structure_check(field: Field, m: int, n: int) -> dict:
    """Every edge lies in exactly two maximal cliques, one of each kind,
    and distinct cliques meet in 1 point (same kind) or q (different).

    The clique list comes from plain Bron-Kerbosch graph search, so the
    coset structure is confirmed rather than assumed.
    """
    sp = space(field, m, n)
    cliques = bron_kerbosch_cliques(field, m, n)
    kinds = []
    member = np.zeros((len(cliques), sp.count), dtype=bool)
    for t, c in enumerate(cliques):
        codes = np.fromiter(c, dtype=np.int64)
        member[t, codes] = True
        kinds.append(classify_clique(VertexSet(field, m, n, codes)).kind)
    kinds = np.array([k is Kind.ONE for k in kinds])

    violations = []
    edges = 0
    for nbr in sp.neighbor_perms_half:
        a = np.arange(sp.count)
        b = nbr
        # char 2: R = -R, so each edge shows up from both endpoints
        keep = a < b if field.p == 2 else np.ones(sp.count, bool)
        a, b = a[keep], b[keep]
        edges += len(a)
        both = member[:, a] & member[:, b]
        total = both.sum(axis=0)
        ones = (both & kinds[:, None]).sum(axis=0)
        bad = (total != 2) | (ones != 1)
        violations.extend(f"edge {int(x)}-{int(y)}"
                          for x, y in zip(a[bad], b[bad]))

    pair_violations = []
    sets_ = [frozenset(c) for c in cliques]
    for i in range(len(sets_)):
        for j in range(i + 1, len(sets_)):
            k = len(sets_[i] & sets_[j])
            if k == 0:
                continue
            want = 1 if kinds[i] == kinds[j] else field.q
            if k != want:
                pair_violations.append(f"cliques {i},{j}: {k}")
    return {
        "cliques": len(cliques),
        "edges_checked": edges,
        "clique_pairs": len(sets_) * (len(sets_) - 1) // 2,
        "violations": sorted(violations + pair_violations),
    }


def line_structure_check(field: Field, m: int, n: int) -> dict:
    """Lines of a clique's affine geometry = opposite-kind intersections.

    Checks both directions exhaustively on the standard row clique: every
    parametric line arises as an intersection with a unique opposite-kind
    clique, and every nonempty opposite-kind intersection has q points and
    a unique host pair.
    """
    sets_ = all_maximal_sets(field, m, n)
    ones = [s for s in sets_ if s.kind is Kind.ONE]
    twos = [s for s in sets_ if s.kind is Kind.TWO]
    violations = []
    line_hosts = {}
    for M in ones:
        for N in twos:
            pts = intersect(M, N)
            if len(pts) == 0:
                continue
            if len(pts) != field.q:
                violations.append(f"intersection size {len(pts)}")
                continue
            ell = line_through(M, N)
            if ell.points() != pts:
                violations.append("line does not reproduce the intersection")
            key = tuple(int(c) for c in pts.codes)
            line_hosts.setdefault(key, []).append((M.key(), N.key()))
    for key, hosts in line_hosts.items():
        if len(hosts) != 1:
            violations.append(f"line with {len(hosts)} host pairs")

    # every parametric line of the standard row clique is an intersection
    M1 = next(s for s in ones if s.contains(Mat.zeros(field, m, n))
              and s.contains(Mat.unit(field, m, n, 0, 0)))
    sp_rows = space(field, 1, n)
    lam = np.arange(field.q, dtype=np.int64)
    param_lines = set()
    for alpha in sp_rows.monic_rows:
        for beta in sp_rows.entries[:, 0]:
            mats = np.zeros((field.q, m, n), dtype=field.dtype)
            mats[:, 0, :] = field.vadd(field.vmul(lam[:, None], alpha[None, :]), beta)
            param_lines.add(tuple(sorted(int(c) for c in _bulk.encode(field, mats))))
    known = set(line_hosts.keys())
    for ell in param_lines:
        if ell not in known:
            violations.append("parametric line missing from intersections")
    return {
        "lines": len(line_hosts),
        "param_lines_row_clique": len(param_lines),
        "violations": sorted(violations),
    }


def coloring_check(field: Field, m: int, n: int) -> dict:
    c = proper_coloring(field, m, n)
    codes = c.image_codes()
    sp = space(field, m, n)
    mono = 0
    edges = 0
    for nbr in sp.neighbor_perms_half:
        a = np.arange(sp.count)
        keep = a < nbr if field.p == 2 else np.ones(sp.count, bool)
        mono += int((codes[a[keep]] == codes[nbr[keep]]).sum())
        edges += int(keep.sum())
    return {
        "colors": int(len(np.unique(codes))),
        "expected_colors": field.q ** max(m, n),
        "edges": edges,
        "monochromatic_edges": mono,
    }


DEFAULT_EXISTENCE_GRID = [
    # (q, m, n, q2, m2, n2)
    (2, 2, 2, 2, 2, 2), (2, 2, 2, 4, 2, 2), (4, 2, 2, 4, 2, 2),
    (4, 2, 2, 2, 2, 4), (2, 2, 3, 2, 3, 3), (3, 2, 2, 3, 2, 2),
    (3, 2, 2, 9, 2, 2), (5, 2, 2, 5, 2, 2), (2, 1, 4, 2, 2, 4),
    (2, 2, 2, 2, 1, 4), (4, 2, 2, 16, 2, 2), (2, 3, 3, 2, 3, 3),
    (5, 2, 2, 25, 1, 2), (2, 2, 4, 4, 2, 2), (3, 1, 2, 3, 2, 2),
    (7, 2, 2, 7, 2, 2), (2, 1, 2, 2, 2, 2), (4, 1, 2, 2, 2, 4),
    (4, 2, 3, 2, 2, 2), (4, 2, 2, 2, 2, 2), (5, 2, 2, 3, 2, 2),
    (2, 3, 3, 2, 2, 2), (9, 2, 2, 3, 2, 2), (4, 3, 3, 4, 2, 2),
    (16, 2, 2, 4, 2, 2), (5, 3, 2, 5, 2, 2), (2, 1, 5, 2, 2, 2),
    (3, 2, 2, 2, 2, 3), (4, 2, 2, 3, 2, 2), (2, 2, 3, 2, 2, 2),
]


def existence_grid_check(grid=None, verify_witnesses: bool = True,
                         max_domain: int = 1 << 16) -> dict:
    """Evaluate the existence inequality on a grid; build and verify a
    witness homomorphism for each positive small case."""
    grid = DEFAULT_EXISTENCE_GRID if grid is None else grid
    results = []
    witnesses_verified = 0
    violations = []
    for case in grid:
        q, m, n, q2, m2, n2 = case
        exists = hom_exists(q, m, n, q2, m2, n2)
        results.append(f"{q}:{m}x{n}->{q2}:{m2}x{n2}={'T' if exists else 'F'}")
        if not (exists and verify_witnesses):
            continue
        if q ** (m * n) > max_domain or q2 ** (m2 * n2) > max_domain:
            continue
        w = build_witness_hom(q, m, n, q2, m2, n2)
        ok, _ = is_graph_hom(w)
        if not ok or not is_colouring(w):
            violations.append(f"witness failed for {case}")
        else:
            witnesses_verified += 1
    return {
        "cases": len(grid),
        "true_cases": sum(1 for r in results if r.endswith("T")),
        "witnesses_verified": witnesses_verified,
        "results": results,
        "violations": violations,
    }


def pigeonhole_certificate(q: int, m: int, n: int, q2: int, m2: int, n2: int) -> dict:
    """Certify a negative existence case by clique counting.

    A graph homomorphism restricts injectively to cliques, so a source
    clique larger than the target's clique number forbids any.  The target
    clique number comes from exhaustive search.
    """
    dst = field_from_order(q2)
    omega = clique_number(dst, m2, n2)
    source_clique = q ** max(m, n)
    return {
        "exists": hom_exists(q, m, n, q2, m2, n2),
        "source_max_clique": source_clique,
        "target_clique_number": omega,
        "pigeonhole_blocks": source_clique > omega,
    }


def identity_twist_sweep(field: Field, m: int, n: int) -> dict:
    """Try every twist matrix against the identity table.

    Valid twists must preserve all pairwise distances exactly; singular
    ones must come with a checkable witness.  Over a single field only the
    zero twist is valid, which the sweep confirms.
    """
    f = MapTable.identity(field, m, n)
    sp = space(field, m, n)
    base = _bulk.rank(field, field.vsub(sp.entries[:, None], sp.entries[None, :])
                      .reshape(-1, m, n))
    valid = []
    singular = 0
    violations = []
    for code, L in enumerate(space(field, n, m)):
        try:
            theta = moebius_twist(f, L)
        except SingularTwist as e:
            singular += 1
            G = Mat.identity(field, m) + f.apply(e.witness) @ L
            if G.rank() == m:
                violations.append(f"bogus singular witness for L={code}")
            continue
        valid.append(code)
        timg = theta.images
        twisted = _bulk.rank(field, field.vsub(timg[:, None], timg[None, :])
                             .reshape(-1, m, n))
        if not np.array_equal(base, twisted):
            violations.append(f"distances moved under L={code}")
    return {
        "twists_tried": space(field, n, m).count,
        "valid": valid,
        "singular": singular,
        "violations": violations,
    }


def standard_form_sweep(src: Field, m: int, n: int, dst: Field, m2: int,
                        n2: int, count: int, seed: int = 0,
                        recover: bool = False) -> dict:
    """Random valid parameter tuples: verify table properties (and
    optionally the recovery round-trip) for each."""
    rng = np.random.default_rng(seed)
    nonzero_L = 0
    transposed = 0
    violations = []
    for t in range(count):
        p = random_valid_params(rng, src, m, n, dst, m2, n2)
        nonzero_L += not p.L.is_zero()
        transposed += p.orientation is Orientation.TRANSPOSED
        ok, w = validate_params(p)
        if not ok:
            violations.append(f"tuple {t}: invalid parameters at {w.to_text()}")
            continue
        tbl = standard_table(p)
        ok, w = is_graph_hom(tbl)
        if not ok:
            violations.append(f"tuple {t}: edge torn at {w[0].to_text()}")
        deg, _ = is_degenerate(tbl)
        if deg:
            violations.append(f"tuple {t}: degenerate")
        if recover:
            res = recover_standard(tbl)
            if not res.residual_checked:
                violations.append(f"tuple {t}: residual not checked")
            if not np.array_equal(standard_table(res.params).images, tbl.images):
                violations.append(f"tuple {t}: recovered table differs")
            if src == dst and not res.params.L.is_zero():
                violations.append(f"tuple {t}: surjective tau but nonzero twist")
    return {
        "tuples": count,
        "nonzero_twist": nonzero_L,
        "transposed": transposed,
        "violations": violations,
    }


def dim_bound_sweep(src: Field, m: int, n: int, dst: Field, m2: int, n2: int,
                    n_tables: int, n_sets: int, seed: int = 0) -> dict:
    """Random adjacent sets through 0 under random standard tables."""
    rng = np.random.default_rng(seed)
    sp = space(src, m, n)
    violations = []
    checked = 0
    for _ in range(n_tables):
        p = random_valid_params(rng, src, m, n, dst, m2, n2)
        tbl = standard_table(p)
        for _ in range(n_sets):
            Z = Mat.zeros(src, m, n)
            R = Mat(src, sp.rank1[rng.integers(len(sp.rank1))])
            host = maximal_sets_through(Z, R)[int(rng.integers(2))]
            pts = host.point_entries()
            size = int(rng.integers(2, len(pts) + 1))
            take = rng.choice(len(pts), size=size, replace=False)
            sel = pts[take]
            if not (sel == 0).all(axis=(1, 2)).any():
                sel[0] = 0
            S = VertexSet.from_entries(src, sel)
            checked += 1
            if not dim_bound_check(tbl, S):
                violations.append(f"dim bound fails on a {len(S)}-point set")
    return {"sets_checked": checked, "violations": violations}


def two_pencil_check(field: Field, m: int, n: int, rows, cols) -> dict:
    checked, violations = two_pencil_sweep(field, m, n, rows, cols)
    return {"triples_checked": checked,
            "violations": [str(v) for v in violations]}
