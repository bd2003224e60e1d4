"""Maximum-cover heuristics: shortest paths instead of integer programming.

Covering one row optimally is a shortest-path problem in a small layered
DAG; covering the grid is a schedule of such row solves.  ``cover`` runs
one of three schedules, which trade quality for guarantees, and then, unless
``improve=False``, an alternating column/row improvement loop:

  simple     rows top to bottom       no guarantee, best in practice
  half       odd rows first           >= 1/2 of the grid (two-tile rows exist)
  twothirds  rows 1, 4, 3, 2, 3, ...  >= 2/3 of the grid (cyclic transducers)
  improve    any of the above         never worse than its start
"""

import wangtiler as wt

amm = wt.builtin_set("ammann16")
H = W = 15

for init in ("simple", "half", "twothirds"):
    run = wt.cover(amm, H, W, init, seed=0, improve=False)
    guarantee = f">= {run.bound} of {H * W}" if run.bound else "none"
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
row, cost = wt.max_row_cover(amm, 8, [wt.WILDCARD] * 8, [wt.WILDCARD] * 8)
print(f"\nfree-standing row of width 8: {row} (cost {cost})")

# All outputs respect the validator, voids included.
assert wt.validate_tiling(amm, run.tiling).is_valid
print("final cover validates: True")
