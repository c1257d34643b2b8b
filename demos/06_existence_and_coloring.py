"""When does any adjacency preserver exist between two matrix spaces?

Exactly when q^max(m,n) <= q'^max(m',n').  The positive side is realized
by a proper coloring composed with a clique embedding; the negative side
is pinned by clique counting: a homomorphism is injective on cliques.
"""

import numpy as np

from bfgeo.cliques import clique_number
from bfgeo.fields import make_field
from bfgeo.homs import (build_witness_hom, hom_exists, is_colouring,
                        is_graph_hom, proper_coloring)

print("existence on a few cases:")
for case in [(4, 2, 2, 4, 2, 2), (2, 2, 2, 2, 1, 4), (4, 2, 3, 2, 2, 2)]:
    print(f"  {case[0]}^({case[1]}x{case[2]}) -> "
          f"{case[3]}^({case[4]}x{case[5]}): {hom_exists(*case)}")

# the syndrome coloring: fold rows into the extension field GF(q^s)
F4 = make_field(2, 2)
c = proper_coloring(F4, 2, 2)
colors = len(np.unique(c.image_codes()))
print(f"\nproper coloring of GF(4)^(2x2): {colors} colors "
      f"(the clique number, so it is optimal)")
print(f"it is itself a graph hom: {is_graph_hom(c)[0]}")

w = build_witness_hom(2, 2, 2, 4, 2, 2)
print(f"\nwitness GF(2)^(2x2) -> GF(4)^(2x2): hom {is_graph_hom(w)[0]}, "
      f"image inside one clique: {is_colouring(w)}")

# the blocked case, certified by the target's clique number, whose
# maximal cliques are certified at 0
F2 = make_field(2, 1)
omega = clique_number(F2, 2, 2)
print(f"\nblocked case 4^(2x3) -> 2^(2x2): source has a clique of "
      f"{4 ** 3} points, target clique number is {omega}")
