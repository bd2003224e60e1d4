"""Print one line per ILP spec over a fixed matrix of cases.

    python tests/lp_matrix.py <checkout root> > models.txt

The script imports ``wangtiler`` from ``<checkout root>/src`` and, for each
spec, prints its label, the SHA-256 of ``emit_lp(build_model(spec))``, the
SHA-256 of ``emit_lp(parse_lp(...))`` of that text, the model's
(variables, constraints, nonzeros) and the evaluation of the parsed model
on one tiling seeded by the label (random tile ids, about a quarter of the
cells VOID): ``feasible``, the objective and the SHA-256 of the violated
row names, or the exception's class where ``evaluate_assignment`` raises
``StructuralError``.  The two hashes match when the text survives a parse;
comparing the output of two checkouts with ``cmp`` shows whether a change
keeps every emitted byte and every evaluation.  The matrix:

- fig3, finite1, finite2, ammann16 and complete:2, at 1x1, 1x3, 3x1, 2x3
  and 3x2, under each formulation: with no extension, with each per-cell
  kind, and with each pair kind at two distinct cells and at one cell;
- periodic with decision and max_csp, periodic-var and smallest (alone and
  together) with max_rect, and packing with decision and max_rect wherever
  the set has h*w tiles, plus complete:2 packing at 4x4.

Its name keeps pytest from collecting it.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys

SETS = ("fig3", "finite1", "finite2", "ammann16", "complete:2")
GRIDS = ((1, 1), (1, 3), (3, 1), (2, 3), (3, 2))


def cases(wt, sets):
    """(label, spec) pairs in a fixed order."""
    from wangtiler.ilp import FORMULATIONS, ModelSpec

    def spec(name, h, w, formulation, *exts):
        label = " ".join([formulation, name, f"{h}x{w}", *map(repr, exts)])
        return label, ModelSpec(sets[name], h, w, formulation, exts)

    for name in SETS:
        for h, w in GRIDS:
            ts = sets[name]
            last = (h, w)
            cell = (wt.ForceTile(h, w, len(ts) - 1), wt.ForbidTile(1, 1, 0),
                    wt.ForceEdgeColor(h, w, "n", 0), wt.ForbidEdgeColor(1, 1, "e", 0))
            pairs = [(cls(1, 1, *last), cls(1, 1, 1, 1))
                     for cls in (wt.SameTile, wt.DifferentTile)]
            pairs += [(cls(1, 1, "s", *last, "n"), cls(1, 1, "n", 1, 1, "n"))
                      for cls in (wt.EqualEdgeColors, wt.DifferentEdgeColors)]
            for formulation in FORMULATIONS:
                yield spec(name, h, w, formulation)
                for ext in cell:
                    yield spec(name, h, w, formulation, ext)
                for distinct, same in pairs:
                    if last != (1, 1):
                        yield spec(name, h, w, formulation, distinct)
                    yield spec(name, h, w, formulation, same)
            for formulation in ("decision", "max_csp"):
                yield spec(name, h, w, formulation, wt.PeriodicFixed())
            for exts in ((wt.PeriodicVariable(),), (wt.SmallestObjective(),),
                         (wt.PeriodicVariable(), wt.SmallestObjective())):
                yield spec(name, h, w, "max_rect", *exts)
            if len(ts) == h * w:
                for formulation in ("decision", "max_rect"):
                    yield spec(name, h, w, formulation, wt.Packing())
    for formulation in ("decision", "max_rect"):
        yield spec("complete:2", 4, 4, formulation, wt.Packing())


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(f"usage: {argv[0]} <checkout root>\n")
        return 3
    sys.path.insert(0, os.path.join(argv[1], "src"))
    import wangtiler as wt
    from wangtiler.bench import resolve_set
    from wangtiler.ilp import build_model, emit_lp, evaluate_assignment, parse_lp

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    def evaluation(label, spec, parsed) -> str:
        rng, n = random.Random(label), len(spec.tileset)
        tiling = wt.Tiling([[wt.VOID if rng.random() < 0.25 else rng.randrange(n)
                             for _ in range(spec.width)] for _ in range(spec.height)])
        try:
            ev = evaluate_assignment(parsed, tiling)
        except wt.StructuralError as exc:
            return type(exc).__name__
        return f"{ev.feasible} {ev.objective!r} {sha(chr(10).join(ev.violated))}"

    sets = {name: resolve_set(name) for name in SETS}
    for label, spec in cases(wt, sets):
        model = build_model(spec)
        text = emit_lp(model)
        parsed = parse_lp(text)
        print(label, sha(text), sha(emit_lp(parsed)),
              len(model.variables), len(model.constraints),
              len(model.constraints.indices), evaluation(label, spec, parsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
