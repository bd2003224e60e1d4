"""Exact desk-scale solving: decision, smallest torus, tile packing.

The decision solver, the torus counter and the max-cover oracle sweep the
grid cell by cell, keeping every reachable boundary coloring; answers are
proofs, and an explicit state budget turns memory blow-up into an honest
CAPPED status.
"""

import wangtiler as wt

# finite1 admits a 6x6 tiling but no 8x5 one; monotonicity extends that to
# every larger rectangle, consistent with the published 20x20 infeasibility.
fin1 = wt.builtin_set("finite1")
for (h, w) in ((6, 6), (5, 8), (8, 5), (10, 6)):
    res = wt.solve_decision(fin1, h, w)
    print(f"finite1 {h}x{w}: {res.status} ({res.stats['states']} states)")

# Per-cell boundary conditions ride along in the same sweep.
res = wt.solve_decision(fin1, 4, 4, bcs=[wt.ForceTile(1, 1, 3),
                                         wt.ForbidEdgeColor(4, 4, "e", 0)])
print(f"finite1 4x4 with pinned corner: {res.status}")

# Smallest periodic rectangle of the corner set derived from the Ammann
# tiles: area 6, twelve labeled tilings, i.e. the set is periodic.
translation = wt.translate_horizontal(wt.builtin_set("ammann16"))
derived = wt.corner_to_wang(translation.corners, translation.n_vc)
torus = wt.smallest_torus(derived, max_area=6)
print(f"\nderived corner set: smallest torus area {torus.min_area}, "
      f"{torus.count} labeled tilings, shapes {dict(torus.dim_counts)}")

# A torus witness keeps validating when the plane is paved with copies.
import numpy as np
witness = torus.witnesses[0]
paved = wt.Tiling(np.tile(witness.cells, (2, 2)))
print("2x2 repetition of a witness valid?",
      wt.validate_tiling(derived, paved).is_valid)

# Tile packing: every tile exactly once, wrap-around boundaries.
c3 = wt.complete_stochastic_set(3)
res = wt.pack_tiles(c3, 9, 9, periodic=True, deadline=30)
print(f"\ncomplete(3) 9x9 periodic packing: {res.status} "
      f"({res.stats['nodes']} nodes, {res.stats['seconds']:.2f}s)")
