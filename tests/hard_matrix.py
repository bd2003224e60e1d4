"""Print one line per hard exact instance, at the default cap or budget.

    python tests/hard_matrix.py <checkout root> [--timings] > hard.txt

The script imports ``wangtiler`` from ``<checkout root>/src`` and prints,
for each instance:

- decision: the status, ``stats`` (stored states, and the row or column
  where the sweep stopped) and the SHA-256 of the witness cells;
- oracle: the optimum and the SHA-256 of the witness, or the text of the
  ``BudgetExceededError`` raised at the budget.

The instances are the ones ``exact_matrix.py`` leaves out because they run
into the cap or budget, or nearly so:

- decisions: finite1 15x12, finite2 12x12, ammann16 10x10, 12x12 and
  14x14, fig3 100x100, and finite1 and finite2 at 20x20 and 100x100;
- oracles: finite1, finite2 and ammann16 at 8x8, and finite1 and finite2
  at 10x10 and 12x12.

A change that turns a CAPPED or budget row into an answer shows here.
Without ``--timings`` every line is deterministic, so ``same_output.py``
compares them across checkouts.  ``--timings`` runs each instance in a
fresh interpreter, one after the other, and ends its line with the wall
time of the call and the peak resident set size of that process.  The
whole list takes about 45 s on two cores, and the largest process (the
finite2 100x100 decision) peaks near 900 MB.  Its name keeps pytest from
collecting it.
"""

from __future__ import annotations

import hashlib
import os
import resource
import subprocess
import sys
import time

DECISIONS = (("finite1", 15, 12), ("finite2", 12, 12), ("ammann16", 10, 10),
             ("ammann16", 12, 12), ("ammann16", 14, 14), ("fig3", 100, 100),
             ("finite1", 20, 20), ("finite1", 100, 100), ("finite2", 20, 20),
             ("finite2", 100, 100))
ORACLES = (("finite1", 8, 8), ("finite2", 8, 8), ("ammann16", 8, 8),
           ("finite1", 10, 10), ("finite2", 10, 10), ("finite1", 12, 12),
           ("finite2", 12, 12))
INSTANCES = ([("decide",) + d for d in DECISIONS]
             + [("oracle",) + o for o in ORACLES])


def digest(tiling) -> str:
    return hashlib.sha256(tiling.cells.tobytes()).hexdigest()[:16]


def load(root: str):
    """``wangtiler`` imported from ``root``'s ``src``."""
    sys.path.insert(0, os.path.join(root, "src"))
    import wangtiler
    return wangtiler


def line(wt, n: int) -> str:
    """The output line of instance ``n``."""
    kind, name, h, w = INSTANCES[n]
    ts = wt.builtin_set(name)
    if kind == "decide":
        res = wt.solve_decision(ts, h, w)
        return " ".join(map(str, ("decide", name, f"{h}x{w}", res.status, res.stats,
                                  "-" if res.witness is None else digest(res.witness))))
    try:
        best, witness = wt.max_cover_oracle(ts, h, w)
    except wt.BudgetExceededError as exc:
        return f"oracle {name} {h}x{w} BudgetExceededError: {exc}"
    return f"oracle {name} {h}x{w} {best} {digest(witness)}"


def timed(root: str, n: int) -> None:
    """Print instance ``n``'s line with its wall time and this process's
    peak RSS; run in a fresh interpreter by ``main``."""
    wt = load(root)
    t0 = time.perf_counter()
    text = line(wt, n)
    seconds = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{text} {seconds:.2f} s {peak_mb:.0f} MB")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[2:] not in ([], ["--timings"]):
        sys.stderr.write(f"usage: {argv[0]} <checkout root> [--timings]\n")
        return 3
    root = os.path.abspath(argv[1])
    if len(argv) == 2:
        wt = load(root)
        for n in range(len(INSTANCES)):
            print(line(wt, n), flush=True)
        return 0
    here = os.path.dirname(os.path.abspath(__file__))
    for n in range(len(INSTANCES)):
        code = f"import hard_matrix; hard_matrix.timed({root!r}, {n})"
        run = subprocess.run([sys.executable, "-c", code], cwd=here,
                             stdout=subprocess.PIPE, text=True)
        if run.returncode:
            return run.returncode
        print(run.stdout, end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
