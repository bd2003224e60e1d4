"""Print one line per exact-engine call over a fixed matrix of instances.

    python tests/exact_matrix.py <checkout root> > exact.txt

The script imports ``wangtiler`` from ``<checkout root>/src`` and prints,
for each instance:

- decision: the status, ``stats["states"]`` (and the rest of a CAPPED
  result's stats) and the SHA-256 of the witness cells;
- oracle: the optimum and the SHA-256 of the witness, or the name of the
  error raised at the budget;
- torus: the count and the SHA-256 of the first witness for one shape;
- smallest torus: the ``min_area``, ``dims``, ``count`` and ``dim_counts``
  of ``smallest_torus``, the SHA-256 of its first witness, and that of the
  first witness ``count_torus`` gives for each shape in ``dim_counts``;
- packing: the status, ``stats["nodes"]`` and the SHA-256 of the witness.

Comparing the output of two checkouts with ``cmp`` shows whether a change
keeps every answer, count, node count and first witness.  No instance has
a deadline, so every line is deterministic.  The matrix:

- 640 random sets of at most 3 colours and 8 tiles (seeded), each with a
  decision at up to 6x6, a decision under random per-cell conditions, an
  oracle at up to 6x6, a periodic decision, and a torus count; every 16th
  set also has a decision under a small state cap (CAPPED) and a
  ``smallest_torus`` search;
- the benchmark's exact instances: finite1, finite2 and ammann16
  decisions at up to 15x12 (ammann16 8x11 under per-cell conditions), the
  oracle on finite1 and ammann16 at up to 6x6, complete:2 torus counts and
  the smallest torus of the ammann16 corner set, each also with its tile
  ids and colours renamed by a seeded permutation;
- finite2 15x15 (keys wider than 64 bits) and the one-tile 40x40 oracle
  under a small budget;
- packings, open and periodic: 300 random sets (seeded) cycling through
  every grid of area at most 6, complete:2 at 4x4, 2x8, 8x2, 1x16 and
  16x1, fig3 at 1x3 and 3x1, and complete:3 at 9x9, as the benchmark runs
  it.

It takes about 6 s on one core.  Its name keeps pytest from
collecting it.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys


def digest(tiling) -> str:
    return hashlib.sha256(tiling.cells.tobytes()).hexdigest()[:16]


def renamed(wt, ts, rng: random.Random):
    """``ts`` with its tile order and colour names permuted."""
    colors = list(range(ts.num_colors))
    rng.shuffle(colors)
    tiles = [wt.Tile(*(colors[c] for c in (t.north, t.west, t.south, t.east)))
             for t in ts]
    rng.shuffle(tiles)
    return wt.TileSet(tiles, num_colors=ts.num_colors)


def random_conditions(wt, rng: random.Random, ts, h: int, w: int) -> list:
    conds = []
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randint(1, h), rng.randint(1, w)
        kind = rng.randrange(4)
        if kind < 2:
            conds.append((wt.ForceTile, wt.ForbidTile)[kind](i, j, rng.randrange(len(ts))))
        else:
            conds.append((wt.ForceEdgeColor, wt.ForbidEdgeColor)[kind - 2](
                i, j, rng.choice("nwse"), rng.randrange(ts.num_colors)))
    return conds


def decide(wt, label: str, ts, h: int, w: int, bcs=(), **kw) -> None:
    res = wt.solve_decision(ts, h, w, bcs, **kw)
    stats = res.stats["states"] if res.status != wt.CAPPED else res.stats
    print("decide", label, f"{h}x{w}", res.status, stats,
          "-" if res.witness is None else digest(res.witness))


def oracle(wt, label: str, ts, h: int, w: int, **kw) -> None:
    try:
        best, witness = wt.max_cover_oracle(ts, h, w, **kw)
    except wt.BudgetExceededError:
        print("oracle", label, f"{h}x{w}", "BudgetExceededError")
        return
    print("oracle", label, f"{h}x{w}", best, digest(witness))


def torus(wt, label: str, ts, h: int, w: int) -> None:
    count, witnesses = wt.count_torus(ts, h, w)
    print("torus", label, f"{h}x{w}", count, *map(digest, witnesses[:1]))


def smallest(wt, label: str, ts, max_area: int) -> None:
    res = wt.smallest_torus(ts, max_area)
    if res is None:
        print("smallest", label, max_area, None)
        return
    print("smallest", label, max_area, res.min_area, res.dims, res.count,
          res.dim_counts, digest(res.witnesses[0]),
          *(digest(wt.count_torus(ts, *d)[1][0]) for d, _ in res.dim_counts))


def pack(wt, label: str, ts, h: int, w: int, periodic: bool) -> None:
    res = wt.pack_tiles(ts, h, w, periodic=periodic)
    # the order label keeps the lines comparable with older checkouts' output
    print("pack", label, f"{h}x{w}", "periodic" if periodic else "open",
          "most-constrained", res.status, res.stats["nodes"],
          "-" if res.witness is None else digest(res.witness))


def pack_instances(wt, random_packing_set, shapes) -> None:
    rng = random.Random(41)
    cases = []
    for n in range(300):
        h, w = shapes[n % len(shapes)]
        cases.append((f"random{n}", random_packing_set(rng, h * w), h, w))
    c2, fig3 = wt.complete_stochastic_set(2), wt.builtin_set("fig3")
    cases += [("complete:2", c2, h, w)
              for h, w in ((4, 4), (2, 8), (8, 2), (1, 16), (16, 1))]
    cases += [("fig3", fig3, 1, 3), ("fig3", fig3, 3, 1)]
    for label, ts, h, w in cases:
        for periodic in (False, True):
            pack(wt, label, ts, h, w, periodic)
    for periodic in (False, True):
        pack(wt, "complete:3", wt.complete_stochastic_set(3), 9, 9, periodic)


def random_instances(wt, random_tileset) -> None:
    rng = random.Random(12)
    for n in range(640):
        ts = random_tileset(rng, max_colors=3, max_tiles=8)
        label = f"random{n}"
        h, w = rng.randint(1, 6), rng.randint(1, 6)
        decide(wt, label, ts, h, w)
        h, w = rng.randint(1, 6), rng.randint(1, 6)
        bcs = random_conditions(wt, rng, ts, h, w)
        decide(wt, label + "+conds", ts, h, w, bcs)
        h, w = rng.randint(1, 6), rng.randint(1, 6)
        oracle(wt, label, ts, h, w)
        h, w = rng.randint(1, 4), rng.randint(1, 4)
        decide(wt, label + "+periodic", ts, h, w, [wt.PeriodicFixed()])
        h, w = rng.randint(1, 3), rng.randint(1, 4)
        torus(wt, label, ts, h, w)
        if n % 16 == 0:
            decide(wt, label + "+cap", ts, 6, 6, cap=rng.randint(1, 40))
            smallest(wt, label, ts, 6)


def named_instances(wt) -> None:
    rng = random.Random(7)
    corners = wt.translate_horizontal(wt.builtin_set("ammann16"))
    corner_set = wt.corner_to_wang(corners.corners, corners.n_vc)
    conditions = [wt.ForceTile(1, 1, 0), wt.ForbidTile(8, 11, 5),
                  wt.ForceEdgeColor(2, 10, "s", 3), wt.ForbidEdgeColor(8, 3, "e", 2)]
    for copy in range(3):
        def named(name, base=None):
            ts = base if base is not None else wt.builtin_set(name)
            return (name, ts) if copy == 0 else (f"{name}~{copy}", renamed(wt, ts, rng))

        for name, h, w in (("finite1", 15, 12), ("finite2", 10, 10),
                           ("ammann16", 8, 8), ("finite1", 8, 5),
                           ("ammann16", 5, 5), ("fig3", 5, 7)):
            decide(wt, *named(name), h, w)
        label, ts = named("ammann16")
        # the benchmark's conditions name ids and colours of the unrenamed set
        decide(wt, label + "+conds", ts, 8, 11, conditions if copy == 0 else
               random_conditions(wt, rng, ts, 8, 11))
        for name, h, w in (("finite1", 6, 6), ("ammann16", 5, 5),
                           ("finite1", 4, 4), ("ammann16", 3, 3)):
            oracle(wt, *named(name), h, w)
        for h, w in ((3, 3), (2, 4), (2, 3)):
            torus(wt, *named("complete:2", wt.complete_stochastic_set(2)), h, w)
        smallest(wt, *named("ammann16-corners", corner_set), 6)
    decide(wt, "finite2", wt.builtin_set("finite2"), 15, 15)
    decide(wt, "finite1+cap", wt.builtin_set("finite1"), 6, 6, cap=10)
    decide(wt, "ammann16+cap", wt.builtin_set("ammann16"), 9, 9, cap=20_000)
    one = wt.TileSet([wt.Tile(0, 0, 1, 1)], num_colors=2)
    oracle(wt, "one-tile", one, 40, 40, budget_states=20_000)
    oracle(wt, "one-tile", one, 3, 40)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(f"usage: {argv[0]} <checkout root>\n")
        return 3
    sys.path.insert(0, os.path.join(argv[1], "src"))
    import wangtiler as wt
    from helpers import PACK_SHAPES, random_packing_set, random_tileset

    random_instances(wt, random_tileset)
    named_instances(wt)
    pack_instances(wt, random_packing_set, PACK_SHAPES)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
