"""Print one line per mutated LP text over a fixed matrix of cases.

    python tests/lp_error_matrix.py <checkout root> > errors.txt

The script imports ``wangtiler`` from ``<checkout root>/src``, emits a few
small ``lp_matrix`` specs (one with an objective constant, two with a
coefficient of 2, one with wrapped rows, one with bounds) and mutates the
text at fixed places.  For each case it prints its label and either the
``ValueError`` of ``parse_lp`` or the SHA-256 of ``emit_lp(parse_lp(...))``.
Comparing the output of two checkouts with ``cmp`` shows whether a change
keeps every message of the LP reader.  The mutations, on the objective,
the first two and the last constraint, the first continuation line and
the first bounds line:

- drop, duplicate, or swap with the next, the token at a few fixed
  positions;
- turn each of the first two signs into the other sign, or into a number;
- swap the first declared name for an undeclared one;
- move the last term onto a three-space continuation line;
- write a non-finite number for the right-hand side, the first
  coefficient, the objective constant and a bound;
- cut the text after the header line, after the objective and after the
  first constraint.

Its name keeps pytest from collecting it.
"""

from __future__ import annotations

import hashlib
import os
import sys

SPECS = ("max_csp fig3 1x3",
         "max_rect fig3 1x1 PeriodicVariable()",
         "decision fig3 1x1 DifferentEdgeColors(i=1, j=1, side='n', p=1, q=1, side2='n')",
         "max_cover complete:2 1x1",
         "decision finite1 1x3")
POSITIONS = (0, 1, 2, 3, -3, -2, -1)
UNDECLARED = "zz_9"


def targets(lines: list[str]) -> list[int]:
    """The indices of the lines to mutate, in text order."""
    sub, rest = lines.index("Subject To"), [h for h in ("Bounds", "Binaries", "End")
                                            if h in lines]
    rows = [k for k in range(sub + 1, lines.index(rest[0]))
            if not lines[k].startswith("   ")]
    picked = [1, *rows[:2], rows[-1]]
    picked += [k for k in range(len(lines)) if lines[k].startswith("   ")][:1]
    if "Bounds" in lines:
        picked.append(lines.index("Bounds") + 1)
    return sorted(set(picked))


def mutations(toks: list[str], names: set[str]):
    """(label, new lines as token lists) pairs for one line's tokens."""
    def put(p, *new):
        return [toks[:p] + list(new) + toks[p + 1:]]

    for p in sorted({p % len(toks) for p in POSITIONS if -len(toks) <= p < len(toks)}):
        yield f"drop {p}", put(p)
        yield f"duplicate {p}", put(p, toks[p], toks[p])
        if p + 1 < len(toks):
            yield f"swap {p}", [toks[:p] + [toks[p + 1], toks[p]] + toks[p + 2:]]
    signs = [p for p, tok in enumerate(toks) if tok in ("+", "-")]
    for p in signs[:2]:
        yield f"flip sign {p}", put(p, "-" if toks[p] == "+" else "+")
        yield f"sign to number {p}", put(p, "2")
    for p in [p for p, tok in enumerate(toks) if tok in names][:1]:
        yield f"undeclared {p}", put(p, UNDECLARED)
    for p in [p for p, tok in enumerate(toks) if tok[0].isdigit()][:1]:
        yield f"non-finite {p}", put(p, "1e999")
    if toks[-1][0].isdigit():
        for value in ("nan", "-inf"):
            yield f"last to {value}", put(len(toks) - 1, value)
    if signs and signs[-1] >= 2:
        yield "continue last term", [toks[:signs[-1]], toks[signs[-1]:]]


def cases(text: str):
    """(label, text) pairs for one emitted text."""
    lines = text.splitlines()
    names = set(" ".join(lines[lines.index("Binaries") + 1:-1]).split())
    if "Bounds" in lines:
        names.update(line.split()[2] for line in lines[lines.index("Bounds") + 1:
                                                      lines.index("Binaries")])
    for k in targets(lines):
        indent = "   " if lines[k].startswith("   ") else " "
        for label, new in mutations(lines[k].split(), names):
            body = [indent + " ".join(new[0])] + ["   " + " ".join(t) for t in new[1:]]
            yield f"line {k + 1} {label}", "\n".join(lines[:k] + body + lines[k + 1:]) + "\n"
    sub = lines.index("Subject To")
    for cut in (1, sub, sub + 2):
        yield f"cut after line {cut}", "\n".join(lines[:cut]) + "\n"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(f"usage: {argv[0]} <checkout root>\n")
        return 3
    sys.path.insert(0, os.path.join(argv[1], "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import lp_matrix
    import wangtiler as wt
    from wangtiler.bench import resolve_set
    from wangtiler.ilp import build_model, emit_lp, parse_lp

    sets = {name: resolve_set(name) for name in lp_matrix.SETS}
    specs = dict(lp_matrix.cases(wt, sets))
    for spec in SPECS:
        for label, text in cases(emit_lp(build_model(specs[spec]))):
            try:
                out = hashlib.sha256(emit_lp(parse_lp(text)).encode()).hexdigest()
            except ValueError as exc:
                out = f"ValueError: {exc}"
            print(f"{spec} | {label} | {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
