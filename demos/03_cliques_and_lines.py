"""Maximal cliques of the matrix graph and their affine geometry.

Cliques come in two kinds: matrices sharing a column space direction
(size q^n) or a row space direction (size q^m).  Opposite kinds meet in
lines of q points, equal kinds in at most a point.
"""

from bfgeo.cliques import (classify_clique, clique_certificate, line_through,
                           maximal_sets_through, unit_ball)
from bfgeo.fields import make_field
from bfgeo.matrices import Mat, space

F4 = make_field(2, 2)
Z = Mat.zeros(F4, 2, 2)
E11 = Mat.unit(F4, 2, 2, 0, 0)

one, two = maximal_sets_through(Z, E11)
print(f"cliques through (0, E11): {one}\n                          {two}")
print(f"sizes: {one.cardinality()} and {two.cardinality()}")

ell = line_through(one, two)
print(f"their intersection is a line with {len(ell)} points:",
      [M.to_text() for M in ell.points()])

# classification recovers the structure from a bare point set
got = classify_clique(one.points())
print(f"classified back: kind {got.kind.value}, offset {got.offset.to_text()}")

# the listed cosets, certified from the neighbour structure to be every maximal clique
sp = space(F4, 2, 2)
cliques = [*sp.maximal_cliques("col"), *sp.maximal_cliques("row")]
sizes = {len(c) for c in cliques}
print(f"\ncertified: {len(cliques)} maximal cliques, sizes {sizes}, "
      f"failed steps {clique_certificate(sp)}")

print(f"unit ball around 0 has {len(unit_ball(Z))} points (1 + 75 rank-1)")
