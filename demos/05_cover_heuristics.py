"""Maximum-cover heuristics: shortest paths instead of integer programming.

Covering one row optimally is a shortest-path problem in a small layered
DAG; covering the grid is a schedule of such row solves.  ``cover`` runs
one of three schedules, which trade quality for guarantees, and then, unless
``improve=False``, an alternating column/row improvement loop:

  simple     rows top to bottom       no guarantee, best in practice
  half       odd rows first           >= 1/2 of the optimum (two-tile rows exist)
  twothirds  rows 1, 4, 3, 2, 3, ...  >= 2/3 of the optimum (cyclic transducers)
  improve    any of the above         never worse than its start

A guarantee is a share of the grid's maximum cover, not of its cells.
"""

import wangtiler as wt

amm = wt.builtin_set("ammann16")
H = W = 15

for init in ("simple", "half", "twothirds"):
    run = wt.cover(amm, H, W, init, seed=0, improve=False)
    guarantee = f">= {run.bound} of the optimum" if run.bound else "none"
    print(f"{init:18s}: {run.placed:3d}/{H * W} placed "
          f"(guarantee {guarantee})")

run = wt.cover(amm, H, W, init="simple", seed=0)
print(f"simple + improve  : {run.placed:3d}/{H * W} placed "
      f"after {run.sweeps} improvement sweeps")

# Every run is deterministic in (inputs, seed); different seeds shuffle the
# DAG edge order and explore different tie-breaks.
spread = [wt.cover(amm, H, W, "simple", seed).placed for seed in range(20)]
print(f"\n20 seeds: min {min(spread)}, max {max(spread)}")

# The row kernel is usable directly: cover one row against fixed neighbors.
# Each column side is a vector indexed by edge color holding the penalty
# units a tile pays there: 0 fits, 1 is a soft miss, inf prunes the tile.
free = (0,) * amm.num_colors
row, cost = wt.max_row_cover(amm, 8, [free] * 8, [free] * 8)
print(f"\nfree-standing row of width 8: {row} (cost {cost})")

# Force north color 1 on every column: tiles with another north color go.
hard = tuple(0 if c == 1 else float("inf") for c in range(amm.num_colors))
row, cost = wt.max_row_cover(amm, 8, [hard] * 8, [free] * 8)
print(f"row under north color 1:      {row} (cost {cost:.3f}, "
      f"{row.count(wt.VOID)} voids)")

# All outputs respect the validator, voids included.
assert wt.validate_tiling(amm, run.tiling).is_valid
print("final cover validates: True")
