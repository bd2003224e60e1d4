"""Emitting solver-ready integer models.

Four formulations cover the usual questions about a bounded grid:

  decision   does a full valid tiling exist?
  max_rect   largest fully tiled rectangle anchored at the top-left corner
  max_cover  most tiles placed anywhere, voids allowed
  max_csp    full grid, most matched edges

Models are plain binary linear programs written in LP format for any
external MILP solver; nothing here depends on one.
"""

from wangtiler import ForceTile, PeriodicFixed, builtin_set
from wangtiler.ilp import ModelSpec, build_model, emit_lp, evaluate_assignment
import wangtiler as wt

fig3 = builtin_set("fig3")

for formulation in ("decision", "max_rect", "max_cover", "max_csp"):
    model = build_model(ModelSpec(fig3, 4, 4, formulation))
    print(f"{formulation:10s}: {len(model.variables):4d} variables, "
          f"{len(model.constraints):4d} constraints, "
          f"objective {model.objective.sense}")

# Extensions translate side constraints into extra rows: pin a tile, pin a
# color, wrap the boundary, or require each tile exactly once.
spec = ModelSpec(fig3, 4, 4, "decision",
                 (ForceTile(1, 1, 2), PeriodicFixed()))
text = emit_lp(build_model(spec))
with open("fig3_periodic.lp", "w") as f:
    f.write(text)
print("\nwrote fig3_periodic.lp; first lines:")
print("\n".join(text.splitlines()[:6]))

# evaluate_assignment bridges tilings and models: any tiling produced by the
# solvers can be checked against any model of the same grid.
run = wt.cover(fig3, 4, 4, "simple", seed=1)
cover_model = build_model(ModelSpec(fig3, 4, 4, "max_cover"))
ev = evaluate_assignment(cover_model, run.tiling)
print(f"\nheuristic cover of 4x4: {run.placed} tiles; model agrees: "
      f"feasible={ev.feasible}, objective={ev.objective}")
