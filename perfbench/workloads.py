"""The benchmark's workloads and their correctness gates.

A workload has a warm-up, which builds the field tables and the ``space()``
caches its calls rely on, and a stream of rounds built from the seed.  A
round is a fixed list of items; an item is one map table (generate,
validate, tabulate, verify, recover, compare), one sweep call or one
rigidity sweep.  Every item returns ``(problems, work)``: the ways its
result disagrees with the value the theory predicts (empty when it passed)
and the work it completed (``tables`` or ``centers``).

The library is always reached through its module attributes at call time,
so the tracer's rebinding applies to the benchmark's own calls too.
"""

from __future__ import annotations

import numpy as np

from bfgeo import fields, grassmann, homs, matrices, recovery, verify

WORKERS = 1


# ---------------------------------------------------------------------------
# closed forms the gates compare against
# ---------------------------------------------------------------------------

def gauss(q: int, k: int) -> int:
    """Number of 1-dim subspaces of GF(q)^k."""
    return (q**k - 1) // (q - 1)


def rank1_count(q: int, m: int, n: int) -> int:
    """m x n rank-1 matrices: (monic column) x (nonzero row)."""
    return gauss(q, m) * (q**n - 1)


def edge_count(q: int, m: int, n: int) -> int:
    return q**(m * n) * rank1_count(q, m, n) // 2


def maximal_clique_count(q: int, m: int, n: int) -> int:
    return gauss(q, m) * q**(m * n - n) + gauss(q, n) * q**(m * n - m)


def line_count(q: int, m: int, n: int) -> int:
    """Lines = rank-1 directions times cosets of their span."""
    return gauss(q, m) * gauss(q, n) * q**(m * n - 1)


def gl2_order(q: int) -> int:
    return (q * q - 1) * (q * q - q)


def expect(problems: list, what: str, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def clear_caches():
    """Drop the interned fields and cached spaces, so warm-up rebuilds them."""
    for cached in (fields.make_field, matrices.space):
        clear = getattr(cached, "cache_clear", None)
        if clear is not None:
            clear()


def warm_space(field, m: int, n: int, walk: bool = False, codes: bool = False):
    """Build the cached tables the workload's calls read on this space.

    ``walk``: BFS and Bron-Kerbosch read the full neighbour table.
    ``codes``: degeneracy and rigidity add codes, which builds the pairwise
    code table (small odd-characteristic spaces) and ``code_neg``.
    """
    sp = matrices.space(field, m, n)
    sp.entries
    sp.rank1_codes
    sp.neighbor_perms_half
    if walk:
        sp.neighbor_perms
    if codes:
        zero = np.zeros(1, dtype=np.int64)
        sp.code_add(zero, zero)
        sp.code_sub(zero, zero)
    return sp


# ---------------------------------------------------------------------------
# items
# ---------------------------------------------------------------------------

def checkpoint():
    """Called between the stages of a table item.  The untraced run points
    it at its host clock, which samples the host's speed there when a
    sample is due, so seconds-long items are scaled by samples taken
    during them."""


def check_table(tbl) -> list:
    """Verify a table and round-trip it through recovery."""
    problems = []
    ok, _ = homs.is_graph_hom(tbl)
    if not ok:
        return ["adjacent pair mapped to a non-adjacent pair"]
    checkpoint()
    deg, _ = homs.is_degenerate(tbl)
    if deg:
        return ["table is degenerate"]
    checkpoint()
    res = recovery.recover_standard(tbl)
    checkpoint()
    if not res.residual_checked:
        problems.append("recovery skipped its residual check")
    if not np.array_equal(homs.standard_table(res.params).images, tbl.images):
        problems.append("recovered parameters do not reproduce the table")
    return problems


def item(run, kind: str):
    """Label an item with its kind; items of one kind do the same work."""
    run.kind = kind
    return run


def table_item(rng, src, m, n, dst, m2, n2, orientation):
    def run():
        p = homs.random_valid_params(rng, src, m, n, dst, m2, n2,
                                     orientation=orientation)
        ok, w = homs.validate_params(p)
        if not ok:
            return [f"invalid parameters at {w.to_text()}"], {}
        problems = check_table(homs.standard_table(p))
        if src == dst and not p.L.is_zero():
            problems.append("surjective tau with a nonzero twist")
        return problems, {"tables": 1}
    return item(run, f"table GF({src.q}) {m}x{n} -> GF({dst.q}) {m2}x{n2} {orientation.name.lower()}")


def distance_item(field, m, n):
    def run():
        info = verify.distance_theorem_check(field, m, n)
        q, problems = field.q, []
        expect(problems, "vertices", info["vertices"], q**(m * n))
        expect(problems, "pairs", info["pairs"], q**(2 * m * n))
        expect(problems, "edges", info["edges"], edge_count(q, m, n))
        expect(problems, "mismatches", len(info["mismatches"]), 0)
        return problems, {}
    return item(run, f"distance GF({field.q}) {m}x{n}")


def clique_item(field, m, n):
    def run():
        info = verify.clique_structure_check(field, m, n)
        q, problems = field.q, []
        cliques = maximal_clique_count(q, m, n)
        expect(problems, "cliques", info["cliques"], cliques)
        expect(problems, "edges_checked", info["edges_checked"], edge_count(q, m, n))
        expect(problems, "clique_pairs", info["clique_pairs"], cliques * (cliques - 1) // 2)
        expect(problems, "violations", len(info["violations"]), 0)
        return problems, {}
    return item(run, f"cliques GF({field.q}) {m}x{n}")


def line_item(field, m, n):
    def run():
        info = verify.line_structure_check(field, m, n)
        q, problems = field.q, []
        expect(problems, "lines", info["lines"], line_count(q, m, n))
        expect(problems, "param_lines_row_clique", info["param_lines_row_clique"],
               gauss(q, n) * q**(n - 1))
        expect(problems, "violations", len(info["violations"]), 0)
        return problems, {}
    return item(run, f"lines GF({field.q}) {m}x{n}")


def twist_item(field, m, n):
    def run():
        info = verify.identity_twist_sweep(field, m, n)
        total, problems = field.q**(m * n), []
        # over a single field only the zero twist is valid (criterion 8)
        expect(problems, "twists_tried", info["twists_tried"], total)
        expect(problems, "valid", info["valid"], [0])
        expect(problems, "singular", info["singular"], total - 1)
        expect(problems, "violations", len(info["violations"]), 0)
        return problems, {}
    return item(run, f"twists GF({field.q}) {m}x{n}")


def dim_bound_item(rng, src, m, n, dst, m2, n2, n_tables, n_sets):
    def run():
        seed = int(rng.integers(1 << 31))
        info = verify.dim_bound_sweep(src, m, n, dst, m2, n2, n_tables=n_tables,
                                      n_sets=n_sets, seed=seed)
        problems = []
        expect(problems, "sets_checked", info["sets_checked"], n_tables * n_sets)
        expect(problems, "violations", len(info["violations"]), 0)
        return problems, {}
    return item(run, "dim bound")


# the criterion-9 grid (q, m, n, q2, m2, n2), kept here so that a change to
# the library's default grid cannot change the workload
EXISTENCE_GRID = [
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
WITNESS_DOMAIN = 1 << 16


def hom_exists(q, m, n, q2, m2, n2) -> bool:
    return q**max(m, n) <= q2**max(m2, n2)


def witness_cases(grid):
    """Positive cases small enough for a witness to be built and verified."""
    return [c for c in grid if hom_exists(*c) and c[0]**(c[1] * c[2]) <= WITNESS_DOMAIN
            and c[3]**(c[4] * c[5]) <= WITNESS_DOMAIN]


def grid_result(case) -> str:
    q, m, n, q2, m2, n2 = case
    return f"{q}:{m}x{n}->{q2}:{m2}x{n2}={'T' if hom_exists(*case) else 'F'}"


def existence_item(grid):
    want_results = [grid_result(c) for c in grid]
    want_witnesses = len(witness_cases(grid))

    def run():
        info = verify.existence_grid_check(grid=grid, max_domain=WITNESS_DOMAIN)
        problems = []
        expect(problems, "cases", info["cases"], len(grid))
        expect(problems, "results", info["results"], want_results)
        expect(problems, "witnesses_verified", info["witnesses_verified"], want_witnesses)
        expect(problems, "violations", len(info["violations"]), 0)
        # criterion 9's negative case: a 64-clique cannot enter GF(2)^(2x2)
        cert = verify.pigeonhole_certificate(4, 2, 3, 2, 2, 2)
        expect(problems, "certificate", (cert["exists"], cert["source_max_clique"],
                                         cert["target_clique_number"],
                                         cert["pigeonhole_blocks"]),
               (False, 64, 4, True))
        return problems, {}
    return item(run, "existence grid")


def rigidity_item(rng, sweep, field, k, r=None):
    """One flat-rigidity sweep over GF(q)^(2x2); branch counts from |GL_2|."""
    def run():
        seed = int(rng.integers(1 << 31))
        hom = fields.identity_hom(field)
        fn = getattr(grassmann, sweep)
        args = (2, 2, k) if r is None else (2, 2, k, r)
        info = fn(field, hom, *args, seed=seed, workers=WORKERS)
        q, problems = field.q, []
        top = r is None
        # top: invertible 2x2; step (k=2, r=1): rank-1 u v^t with both rows
        # nonzero, i.e. monic u = (1, a), a != 0, and v != 0
        strata = gl2_order(q) if top else (q - 1) * (q * q - 1)
        expect(problems, "strata_checked", info["strata_checked"], strata)
        expect(problems, "vacuous", len(info["vacuous"]), 0)
        expect(problems, "counterexamples", len(info["counterexamples"]), 0)
        # every centre keeps Y = X A for each of the |GL_2| invertible X,
        # and (top, k=2) as many Y = 0 survivors
        expect(problems, "y_eq_xa", info["branch_counts"]["y_eq_xa"], strata * gl2_order(q))
        expect(problems, "y_zero", info["branch_counts"]["y_zero"],
               strata * gl2_order(q) if top and k == 2 else 0)
        return problems, {"centers": int(info["strata_checked"])}
    return item(run, f"{sweep} GF({field.q})")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    def setup(self) -> dict:
        raise NotImplementedError

    def round(self, ctx: dict, rng) -> list:
        raise NotImplementedError

    def rounds(self, ctx: dict, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            yield self.round(ctx, rng)


class MapsGF5(Workload):
    """GF(5) 2x3 -> 3x4 tables: odd characteristic, 15 625 points, ~5.8 M
    edges per check; kernel-bound on the rank-1 mask, the degeneracy loop
    over 745 centres and recovery's second verification."""

    def setup(self):
        F5 = fields.make_field(5, 1)
        fields.enumerate_homs(F5, F5)
        warm_space(F5, 2, 3, codes=True)
        for n in (2, 3):
            matrices.space(F5, 1, n).entries
        return {"F5": F5}

    def round(self, ctx, rng):
        # one table of each orientation: transposed ones cost more to check
        F5 = ctx["F5"]
        return [table_item(rng, F5, 2, 3, F5, 3, 4, o) for o in homs.Orientation]


class MapsSmall(Workload):
    """GF(4) 2x2 tables into GF(16) 3x3 and GF(4) 2x2, dim-bound sweeps and
    the existence grid: calls of 5-150 ms where per-call and per-space
    overhead dominates, so set-up or batching added for big tables shows."""

    def setup(self):
        F4, F16 = fields.make_field(2, 2), fields.make_field(2, 4)
        for dst in (F4, F16):
            fields.enumerate_homs(F4, dst)
        warm_space(F4, 2, 2, codes=True)
        matrices.space(F4, 1, 2).entries
        for q, m, n, *_ in witness_cases(EXISTENCE_GRID):
            warm_space(fields.field_from_order(q), m, n)
        return {"F4": F4, "F16": F16}

    def round(self, ctx, rng):
        F4, F16 = ctx["F4"], ctx["F16"]
        # GF(16) tables are most items, so the median item is one of them
        items = [table_item(rng, F4, 2, 2, dst, d, d, o)
                 for dst, d, reps in ((F16, 3, 4), (F4, 2, 2))
                 for o in homs.Orientation for _ in range(reps)]
        items += [dim_bound_item(rng, F4, 2, 2, F16, 3, 3, 2, 10) for _ in range(2)]
        items.append(existence_item(EXISTENCE_GRID))
        return items


class Sweeps(Workload):
    """Whole-space sweeps that barely touch the map verifiers, so they are
    the control for homs/recovery work: BFS against rref rank, Bron-Kerbosch
    cliques, lines and twists; plus the four GF(4) 2x2 flat-rigidity sweeps
    and GF(5) 2x2 top with k=2 at workers=1, for the per-centre grassmann
    work and code_add on big candidate sets.

    The geometry and rigidity sweeps share one workload so that each run can
    be long enough to average out the host's speed swings."""

    def setup(self):
        F3, F4, F5 = (fields.make_field(p, k) for p, k in ((3, 1), (2, 2), (5, 1)))
        for f, m, n in ((F5, 2, 2), (F3, 2, 3), (F4, 2, 2)):
            warm_space(f, m, n, walk=True, codes=(m, n) == (2, 2))
        for n in (1, 2):
            matrices.space(F4, 1, n).entries
        F4_2x2 = matrices.space(F4, 2, 2)
        F4_2x2.monic_cols, F4_2x2.monic_rows
        return {"F3": F3, "F4": F4, "F5": F5}

    def round(self, ctx, rng):
        F3, F4, F5 = ctx["F3"], ctx["F4"], ctx["F5"]
        items = [distance_item(F5, 2, 2), distance_item(F3, 2, 3),
                 clique_item(F4, 2, 2), line_item(F4, 2, 2), twist_item(F4, 2, 2),
                 rigidity_item(rng, "check_rigidity_top", F4, 2),
                 rigidity_item(rng, "check_rigidity_step", F4, 2, 1),
                 rigidity_item(rng, "check_rigidity_top_cols", F4, 2),
                 rigidity_item(rng, "check_rigidity_step_cols", F4, 2, 1),
                 rigidity_item(rng, "check_rigidity_top", F5, 2)]
        return [items[i] for i in rng.permutation(len(items))]


WORKLOADS = {
    "maps-gf5": MapsGF5(),
    "maps-small": MapsSmall(),
    "sweeps": Sweeps(),
}
