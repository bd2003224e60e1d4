"""Print one line per seeded cover over a fixed matrix of cases.

    python tests/cover_matrix.py <checkout root> > covers.txt

The script imports ``wangtiler`` from ``<checkout root>/src`` and, for each
case, prints the set, size, init, improve flag, seed, the SHA-256 of the
cells, and the run's ``placed``, ``iterations``, ``sweeps`` and ``bound``.
Comparing the output of two checkouts with ``cmp`` shows whether a change
keeps every seeded tiling.  The matrix:

- fig3, finite1, finite2, ammann16 and complete:2..4, at 20x20 and 9x14,
  under the three inits, with and without improvement, seeds 0-99;
- the same sets, inits and flags at 1x7 and 7x1, seeds 0-9;
- ammann16 and finite1 at 100x100, simple init with improvement, seeds 0-3.

It takes about 15 s on one core.  Its name keeps pytest from collecting it.
"""

from __future__ import annotations

import hashlib
import os
import sys

SETS = ("fig3", "finite1", "finite2", "ammann16",
        "complete:2", "complete:3", "complete:4")
INITS = ("simple", "half", "twothirds")


def cases():
    for sizes, seeds in ((((20, 20), (9, 14)), range(100)),
                         (((1, 7), (7, 1)), range(10))):
        for name in SETS:
            for h, w in sizes:
                for init in INITS:
                    for improve in (True, False):
                        for seed in seeds:
                            yield name, h, w, init, improve, seed
    for name in ("ammann16", "finite1"):
        for seed in range(4):
            yield name, 100, 100, "simple", True, seed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(f"usage: {argv[0]} <checkout root>\n")
        return 3
    sys.path.insert(0, os.path.join(argv[1], "src"))
    from wangtiler import cover
    from wangtiler.bench import resolve_set

    sets = {name: resolve_set(name) for name in SETS}
    for name, h, w, init, improve, seed in cases():
        run = cover(sets[name], h, w, init, seed, improve)
        digest = hashlib.sha256(run.tiling.cells.tobytes()).hexdigest()
        print(name, f"{h}x{w}", init, int(improve), seed, digest, run.placed,
              run.iterations, run.sweeps, run.bound)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
