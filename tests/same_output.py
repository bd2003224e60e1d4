"""Run the four same-output scripts on two checkouts and compare them.

    python tests/same_output.py <parent root> <change root>

Each of ``exact_matrix.py``, ``cover_matrix.py``, ``lp_matrix.py`` and
``lp_error_matrix.py`` (the copies next to this file) runs once per
checkout, the two runs side by side.  For each script one line says
``identical (N lines)`` or names the first line that differs and how many
lines differ (a line missing from the shorter output counts), then shows
both versions of that first line; the exit status is 1 if any output
differs or any run fails, else 0.  It takes about as long as
``cover_matrix.py`` on one checkout, about a minute on two cores.  Its
name keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import subprocess
import sys

SCRIPTS = ("exact_matrix.py", "cover_matrix.py", "lp_matrix.py", "lp_error_matrix.py")


def compare(script: str, roots: list[str]) -> bool:
    """Print the verdict for one script; True when both outputs match."""
    runs = [subprocess.Popen([sys.executable, script, root], stdout=subprocess.PIPE,
                             text=True) for root in roots]
    outs = [run.communicate()[0].splitlines() for run in runs]
    name = os.path.basename(script)
    for root, run in zip(roots, runs):
        if run.returncode:
            print(f"{name}: failed on {root} (exit {run.returncode})")
            return False
    old, new = outs
    if old == new:
        print(f"{name}: identical ({len(old)} lines)")
        return True
    n = next((n for n, (a, b) in enumerate(zip(old, new)) if a != b), min(map(len, outs)))
    count = sum(a != b for a, b in zip(old, new)) + abs(len(old) - len(new))
    print(f"{name}: line {n + 1} differs; {count} of {max(map(len, outs))} lines differ")
    for sign, out in zip("-+", outs):
        print(f"  {sign} {out[n] if n < len(out) else '(end of output)'}")
    return False


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        sys.stderr.write(f"usage: {argv[0]} <parent root> <change root>\n")
        return 3
    here = os.path.dirname(os.path.abspath(__file__))
    same = [compare(os.path.join(here, script), argv[1:]) for script in SCRIPTS]
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
