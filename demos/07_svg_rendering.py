"""Rendering tilings to SVG.

Edge-triangles mode draws each tile as four edge-colored triangles; matching
colors visibly line up across shared edges.  Corner-squares mode decodes
corner-encoded sets back to quarter squares.  VOID cells are hatched.
"""

import wangtiler as wt
from wangtiler.render import RenderStyle, render_svg

# A heuristic cover of the Ammann set, voids hatched.
amm = wt.builtin_set("ammann16")
run = wt.cover(amm, 10, 10, "simple", seed=2)
with open("ammann_cover.svg", "w") as f:
    f.write(render_svg(amm, run.tiling, RenderStyle(cell_px=28, show_ids=True)))
print(f"wrote ammann_cover.svg ({run.placed}/100 tiles placed)")

# The smallest periodic rectangle of the derived corner set, in both modes.
translation = wt.translate_horizontal(amm)
derived = wt.corner_to_wang(translation.corners, translation.n_vc)
witness = wt.smallest_torus(derived, max_area=6).witnesses[0]
with open("torus_edges.svg", "w") as f:
    f.write(render_svg(derived, witness, RenderStyle(cell_px=48)))
with open("torus_corners.svg", "w") as f:
    f.write(render_svg(derived, witness,
                       RenderStyle(cell_px=48, draw_mode="corner-squares",
                                   corner_alphabet=translation.n_vc)))
print("wrote torus_edges.svg and torus_corners.svg")
