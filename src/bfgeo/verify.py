"""Whole-space verification sweeps.

Each function runs one self-contained exhaustive (or seeded random) check
and returns a flat dict of integer counts and string witnesses, ready to
drop into a run report.  These are the single entry points shared by the
command line and the acceptance suite.
"""

from __future__ import annotations

import numpy as np

from . import _bulk, cliques
from .cliques import Kind, MaximalSet, clique_number, maximal_sets_through
from .errors import PreconditionViolated
from .fields import Field, field_from_order
from .homs import (MapTable, Orientation, TwistSide, _resolvent, build_witness_hom,
                   hom_exists, is_colouring, is_degenerate, is_graph_hom,
                   moebius_twist, proper_coloring, random_valid_params,
                   standard_table, validate_params)
from .matrices import (TABLE_LIMIT, Mat, _row_blocks, bfs_distances, bounded, bounded_power,
                       count_rank_matrices, space, space_size)
from .recovery import _dim_bound_holds, recover_standard


_PAIR_BLOCK_BYTES = 4 << 20


def _pair_codes(field: Field, A, B, subtract: bool = False):
    """Row blocks (rows, codes) of the (len(A), len(B)) int64 codes of
    A_i + B_j, or A_i - B_j when subtract is set, for flat (N, mn) stacks A
    and B of one space's matrices, rows a slice of A.

    A code is built one entry position t at a time, code * q + digit, the
    digit read from a (q, len(B)) table of x + B_j[t] (x - B_j[t]) at row
    x = A_i[t]: field arithmetic only, no code arithmetic, which the BFS
    uses.  Each block keeps its int64 codes under ``_PAIR_BLOCK_BYTES``."""
    op, values = field.vsub if subtract else field.vadd, np.arange(field.q)[:, None]
    for rows in _row_blocks(len(A), 8 * len(B), _PAIR_BLOCK_BYTES):
        codes = np.zeros((rows.stop - rows.start, len(B)), dtype=np.int64)
        for t in range(A.shape[1]):
            codes *= field.q
            codes += op(values, B[:, t])[A[rows, t]]
        yield rows, codes


def _pairwise_ranks(field: Field, entries):
    """(count, count) int8 array of rank(E_a - E_b) over a stack of
    matrices of one space; DomainTooLarge, before anything is allocated,
    past SPACE_LIMIT pairs.  A pair reads ``MatrixSpace.ranks`` at the
    code of its difference, from ``_pair_codes``."""
    count, m, n = entries.shape
    bounded_power(count, 2, "matrix pairs")
    ranks, flat = space(field, m, n).ranks, entries.reshape(count, m * n)
    out = np.empty((count, count), dtype=np.int8)
    for rows, codes in _pair_codes(field, flat, flat, subtract=True):
        out[rows] = ranks[codes]
    return out


def distance_theorem_check(field: Field, m: int, n: int) -> dict:
    """Exhaustive, certified at 0: BFS path length equals rank distance for
    every pair, the count^2 that ``pairs`` reports, and the pairs at rank
    distance 1 are the q^(mn) N_1 / 2 edges of the closed form, N_1 the
    number of rank-1 matrices.

    Adjacency is X - Y in R_1, so every translation is an automorphism and
    two checks on the BFS's own neighbour table prove d(A, B) = d(0, B - A)
    = rank(B - A) for all pairs:
    (a) row r of ``neighbor_perms`` is code(X + R_r) at every X, the right
        side built digit-wise by ``_pair_codes``, not by the code
        arithmetic that built the table; a bad row is one witness, with its
        first bad code and its number of bad codes;
    (b) one BFS from 0 equals ``MatrixSpace.ranks``; a failure at b is the
        witness "0:b".
    Level 1 of (b) is the negated increments, which (b) pins to R_1, so the
    edges are count * |level 1| / 2.  DomainTooLarge past TABLE_LIMIT
    table entries, before anything is ranked."""
    sp = space(field, m, n)
    perms = sp.neighbor_perms
    mismatches = []
    for rows, codes in _pair_codes(field, sp.rank1.reshape(len(sp.rank1), m * n),
                                   sp.entries.reshape(sp.count, m * n)):
        bad = perms[rows] != codes
        mismatches += [f"row {r + rows.start}: code {int(np.argmax(bad[r]))}, "
                       f"{int(bad[r].sum())} bad" for r in np.flatnonzero(bad.any(axis=1))]
    dist = bfs_distances(Mat.zeros(field, m, n))
    mismatches += [f"0:{int(b)}" for b in np.flatnonzero(dist != sp.ranks)]
    edges = sp.count * int((dist == 1).sum()) // 2
    if edges != (want := sp.count * count_rank_matrices(field, m, n, 1) // 2):
        mismatches.append(f"edges {edges}, closed form {want}")
    return {
        "vertices": sp.count,
        "pairs": sp.count * sp.count,
        "edges": edges,
        "mismatches": sorted(mismatches),
    }


def _require_grid(field: Field, m: int, n: int):
    """PreconditionViolated unless m, n >= 2, the paper's hypothesis: a
    1 x n or m x 1 space is one complete graph, a single maximal clique."""
    if min(m, n) < 2:
        raise PreconditionViolated(f"need m, n >= 2: GF({field.q})^({m}x{n}) is one clique")


def _maximal_set_counts(q: int, m: int, n: int):
    """(|ONE|, |TWO|): the number of maximal sets of each kind, from the
    closed forms (q^m - 1)/(q - 1) q^(mn - n) and (q^n - 1)/(q - 1)
    q^(mn - m); DomainTooLarge past SPACE_LIMIT points, before any power."""
    count = space_size(q, m, n)
    return ((q**m - 1) // (q - 1) * (count // q**n),
            (q**n - 1) // (q - 1) * (count // q**m))


def _membership(codes, count: int) -> np.ndarray:
    """(sets, count) float32 0/1 matrix of the sets of point codes.  A
    product of two such matrices counts shared points exactly: every count
    is at most count <= SPACE_LIMIT < 2^24, below float32's integer range."""
    out = np.zeros((len(codes), count), dtype=np.float32)
    for t, c in enumerate(codes):
        out[t, c] = 1
    return out


def clique_structure_check(field: Field, m: int, n: int) -> dict:
    """Every edge lies in exactly two maximal cliques, one of each kind,
    and distinct cliques meet in 1 point (same kind) or q (different).

    The cliques are ``maximal_cliques`` of each kind.  A step failed by
    ``cliques.clique_certificate``, which proves from the neighbour
    structure alone that they are every maximal clique, is a violation, as
    is a count other than the closed form.  Shared points of every pair of
    cliques, and the cliques hosting each edge, are read from products of
    one (cliques x points) membership matrix.  DomainTooLarge past
    SPACE_LIMIT clique pairs, from the closed-form clique count.
    PreconditionViolated on a 1 x n or m x 1 space, which is one complete
    graph with a single maximal clique.
    """
    _require_grid(field, m, n)
    total = sum(_maximal_set_counts(field.q, m, n))
    bounded(pairs := total * (total - 1) // 2, f"clique pairs = {pairs}")
    sp = space(field, m, n)
    one, two = sp.maximal_cliques("col"), sp.maximal_cliques("row")
    codes = [*one, *two]
    ones = np.arange(len(codes)) < len(one)
    member = _membership(codes, sp.count)
    violations = cliques.clique_certificate(sp)
    if len(codes) != total:
        violations.append(f"{len(codes)} cliques, closed form {total}")

    # each edge a < b once; its hosts are the cliques holding both ends
    perms = sp.neighbor_perms
    one_member = member[ones]
    for rows in _row_blocks(sp.count, 4 * sp.count, _PAIR_BLOCK_BYTES):
        b = perms[:, rows]
        a = np.broadcast_to(np.arange(sp.count)[rows], b.shape)
        keep = a < b
        a, b = a[keep], b[keep]
        hosts = (member[:, rows].T @ member)[a - rows.start, b]
        hosts_one = (one_member[:, rows].T @ one_member)[a - rows.start, b]
        bad = (hosts != 2) | (hosts_one != 1)
        violations += [f"edge {int(x)}-{int(y)}" for x, y in zip(a[bad], b[bad])]
    edges = sp.count * len(perms) // 2

    # shared points of clique i with every later j
    later = np.arange(len(codes))
    for rows in _row_blocks(len(codes), 4 * len(codes), _PAIR_BLOCK_BYTES):
        shared = (member[rows] @ member.T).astype(np.int64)
        first = later[rows, None]
        want = np.where(ones[first] == ones, 1, field.q)
        i, j = np.nonzero((later > first) & (shared != 0) & (shared != want))
        violations += [f"cliques {x + rows.start},{y}: {shared[x, y]}" for x, y in zip(i, j)]
    return {
        "cliques": len(codes),
        "edges_checked": edges,
        "clique_pairs": len(codes) * (len(codes) - 1) // 2,
        "violations": sorted(violations),
    }


# meeting pairs whose line the check also takes through the public line_through
_LINE_SAMPLE = 8


def line_structure_check(field: Field, m: int, n: int) -> dict:
    """Lines of a clique's affine geometry = opposite-kind intersections.

    Every ONE x TWO intersection size comes from one membership product
    and must be 0 or q.  Each meeting pair's q points are the members of
    its ONE clique that the TWO clique holds.  q distinct points form an
    affine line iff their differences from the first have rank <= 1, so
    each pair's (q - 1) x mn difference stack is ranked, every pair in one
    batched rref; and each line must have a unique host pair.  A fixed sample of lines is also taken by the public
    line_through, in the cliques maximal_sets_through gives for two of its
    points.  Every parametric line of the standard row clique must be an
    intersection.  PreconditionViolated on a 1 x n or m x 1 space, as in
    clique_structure_check; DomainTooLarge past SPACE_LIMIT ONE x TWO
    pairs, before any set is built.
    """
    _require_grid(field, m, n)
    q = field.q
    one_count, two_count = _maximal_set_counts(q, m, n)
    bounded(pairs := one_count * two_count, f"opposite-kind pairs = {pairs}")
    sp = space(field, m, n)
    one_codes, two_codes = sp.maximal_cliques("col"), sp.maximal_cliques("row")
    one_member, two_member = (_membership(c, sp.count) for c in (one_codes, two_codes))
    violations, meet = [], []
    for rows in _row_blocks(len(one_codes), 4 * len(two_codes), _PAIR_BLOCK_BYTES):
        sizes = one_member[rows] @ two_member.T
        violations += [f"intersection size {int(k)}" for k in sizes[(sizes != 0) & (sizes != q)]]
        i, j = np.nonzero(sizes == q)
        meet.append(np.stack([i + rows.start, j], axis=1))
    meet = np.concatenate(meet)

    # a pair's q points as an int64 stack, and their differences from the first
    lines = np.empty((len(meet), q), dtype=np.int64)
    for rows in _row_blocks(len(meet), 8 * 8 * q * m * n, _PAIR_BLOCK_BYTES):
        i, j = meet[rows].T
        held = two_member[j[:, None], one_codes[i]] != 0
        lines[rows] = one_codes[i][held].reshape(-1, q)
        pts = sp.entries[lines[rows]]
        diffs = field.vsub(pts[:, 1:], pts[:, :1]).reshape(len(pts), q - 1, m * n)
        wrong = _bulk.rank(field, diffs) > 1
        violations += ["line does not reproduce the intersection"] * int(wrong.sum())
    for t in np.unique(np.linspace(0, len(meet) - 1, min(_LINE_SAMPLE, len(meet))).astype(np.int64)):
        M, N = maximal_sets_through(sp.mat(lines[t, 0]), sp.mat(lines[t, 1]))
        if not np.array_equal(cliques.line_through(M, N).points().codes, lines[t]):
            violations.append("line_through disagrees with the batched line")
    known, hosts = np.unique(lines, axis=0, return_counts=True)
    violations += [f"line with {int(k)} host pairs" for k in hosts[hosts != 1]]

    # every parametric line of the standard row clique is an intersection
    row_space = space(field, 1, n)
    lam = np.arange(q, dtype=np.int64)[:, None]
    mats = np.zeros((len(row_space.monic_rows), row_space.count, q, m, n), dtype=field.dtype)
    mats[..., 0, :] = field.vadd(field.vmul(lam, row_space.monic_rows[:, None, None]),
                                 row_space.entries[None])
    param_lines = np.unique(np.sort(_bulk.encode(field, mats).reshape(-1, q), axis=1), axis=0)
    missing = len(np.unique(np.concatenate([known, param_lines]), axis=0)) - len(known)
    violations += ["parametric line missing from intersections"] * missing
    return {
        "lines": len(known),
        "param_lines_row_clique": len(param_lines),
        "violations": sorted(violations),
    }


def coloring_check(field: Field, m: int, n: int) -> dict:
    """The proper coloring uses q^max(m, n) colors and no edge is
    monochromatic.  Edges are streamed, one code_add per rank-1 increment
    R, each edge once as X, X + R with code(X) < code(X + R); DomainTooLarge
    past TABLE_LIMIT edges, from the closed-form count, before any work."""
    count = space_size(field.q, m, n)
    bounded(count * count_rank_matrices(field, m, n, 1) // 2,
            f"the edge count of GF({field.q})^({m}x{n})", TABLE_LIMIT, "edge bound {}")
    codes = proper_coloring(field, m, n).image_codes()
    sp, a = space(field, m, n), np.arange(count)
    mono = 0
    edges = 0
    for r in sp.rank1_codes:
        b = sp.code_add(a, r)
        keep = a < b
        mono += int((codes[keep] == codes[b[keep]]).sum())
        edges += int(keep.sum())
    colors, expected = int(len(np.unique(codes))), field.q ** max(m, n)
    return {
        "colors": colors,
        "expected_colors": expected,
        "edges": edges,
        "monochromatic_edges": mono,
        "violations": [f"colors={colors}, mono={mono}"] if colors != expected or mono else [],
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
    clique number is q'^max(m',n') on a target whose listed maximal cliques
    pass the clique certificate; the source clique is a count of points,
    DomainTooLarge past SPACE_LIMIT.
    """
    dst = field_from_order(q2)
    omega = clique_number(dst, m2, n2)
    source_clique = bounded_power(q, max(m, n), "q^max(m,n)")
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

    The denominators I + X L of a block of twists L over every point X are
    one resolvent stack, its blocks under ``_PAIR_BLOCK_BYTES``.  A twist
    is singular where some denominator is, and its witness is the first
    such X, as moebius_twist reports it.  The witnesses' denominators are
    rebuilt in one product and ranked by rref, not by the determinant the
    stack used, and must be singular.  Valid twists go through the public
    moebius_twist and keep every pairwise rank distance.
    """
    sp, twists = space(field, m, n), space(field, n, m)
    base = _pairwise_ranks(field, sp.entries)
    f = MapTable.identity(field, m, n)
    valid, violations, singular, witnesses = [], [], [], []
    for rows in _row_blocks(twists.count, 8 * sp.count * m * m, _PAIR_BLOCK_BYTES):
        ok, _ = _resolvent(field, sp.entries[None], twists.entries[rows, None],
                           TwistSide.LEFT, invert=False)
        bad = ~ok.all(axis=1)
        codes = np.arange(twists.count)[rows]
        singular.append(codes[bad])
        witnesses.append(np.argmax(~ok[bad], axis=1))
        for code in codes[~bad].tolist():
            valid.append(code)
            theta = moebius_twist(f, twists.mat(code))
            if not np.array_equal(base, _pairwise_ranks(field, theta.images)):
                violations.append((code, f"distances moved under L={code}"))
    singular, witnesses = np.concatenate(singular), np.concatenate(witnesses)
    G = field.vadd(_bulk.identity(field, m),
                   _bulk.matmul(field, sp.entries[witnesses], twists.entries[singular]))
    violations += [(code, f"bogus singular witness for L={code}")
                   for code in singular[_bulk.rank(field, G) == m].tolist()]
    return {
        "twists_tried": twists.count,
        "valid": valid,
        "singular": len(singular),
        "violations": [v for _, v in sorted(violations)],
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
                    n_tables: int, n_sets: int, seed: int = 0,
                    total: int | None = None) -> dict:
    """Random adjacent sets through 0 under random standard tables: n_sets
    per table, and total sets in all when given (the last table may take
    fewer).  Each set is drawn from the host of a random kind through 0 and
    a random rank-1 point, and a table's sets are checked together."""
    rng = np.random.default_rng(seed)
    sp = space(src, m, n)
    host = _rank1_hosts(sp)
    violations = []
    checked = 0
    total = n_tables * n_sets if total is None else total
    for _ in range(n_tables):
        p = random_valid_params(rng, src, m, n, dst, m2, n2)
        tbl = standard_table(p)
        sets = []
        for _ in range(min(n_sets, total - checked)):
            pts = host(int(rng.integers(len(sp.rank1))), int(rng.integers(2)))
            size = int(rng.integers(2, len(pts) + 1))
            take = rng.choice(len(pts), size=size, replace=False)
            sel = pts[take]
            if not (sel == 0).all(axis=(1, 2)).any():
                sel[0] = 0
            sets.append(_bulk.encode(src, sel))
            checked += 1
        if sets:
            holds = _dim_bound_holds(tbl, sets)
            violations += [f"dim bound fails on a {len(np.unique(c))}-point set"
                           for c, ok in zip(sets, holds) if not ok]
    return {"sets_checked": checked, "violations": violations}


def _rank1_hosts(sp):
    """host(r, k): the members of maximal_sets_through(0, R)[k] for
    R = sp.rank1[r], u (x) w (kind ONE) or w (x) v (kind TWO) with w in code
    order, from the monic generators of sp.rank1 taken once."""
    zero = Mat.zeros(sp.field, sp.m, sp.n)
    gens = [_bulk.generators(sp.field, sp.rank1, axis) for axis in ("col", "row")]
    return lambda r, k: MaximalSet((Kind.ONE, Kind.TWO)[k], gens[k][r], zero).point_entries()


def _pencil_dichotomy(entries, rows, cols) -> np.ndarray:
    """Whether each matrix of the (N, m, n) stack vanishes off the given
    rows or off the given columns: Lemma 3.1's conclusion."""
    off_rows = np.delete(entries, rows, axis=1).any(axis=(1, 2))
    off_cols = np.delete(entries, cols, axis=2).any(axis=(1, 2))
    return ~off_rows | ~off_cols


def two_pencil_check(field: Field, m: int, n: int, rows, cols) -> dict:
    """Lemma 3.1, exhaustively: a common neighbour X of two distinct
    members of the pencil of matrices supported on rows x cols vanishes
    off rows or off cols.

    c_X, the number of pencil members adjacent to X, is summed one member
    at a time.  X is the common neighbour of c_X (c_X - 1) / 2 member
    pairs, the triples checked, and a violation when c_X >= 2 and X fails
    the dichotomy.  PreconditionViolated unless m, n >= 2 and rows, cols
    are nonempty sets of indices in range, each smaller than min(m, n)
    (a proper pencil).
    """
    _require_grid(field, m, n)
    rows, cols = sorted(set(rows)), sorted(set(cols))
    if (not rows or not cols or max(len(rows), len(cols)) >= min(m, n)
            or min(rows + cols) < 0 or rows[-1] >= m or cols[-1] >= n):
        raise PreconditionViolated("index sets must be nonempty, in range and proper")
    entries = space(field, m, n).entries
    pencil = np.zeros((field.q ** (len(rows) * len(cols)), m, n), dtype=field.dtype)
    pencil[:, np.array(rows)[:, None], cols] = _bulk.decode(
        field, np.arange(len(pencil)), len(rows), len(cols))
    hits = np.zeros(len(entries), dtype=np.int64)
    for B in pencil:
        hits += _bulk.adjacent_mask(field, field.vsub(entries, B))
    bad = np.flatnonzero((hits >= 2) & ~_pencil_dichotomy(entries, rows, cols))
    return {"triples_checked": int((hits * (hits - 1) // 2).sum()),
            "violations": [str(c) for c in bad.tolist()]}
