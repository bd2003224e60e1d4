"""Benchmark of the wangtiler library: cover heuristics, exact engines and
LP round trips, called through the public API.

    python3 perfbench/run.py --workload table-exact --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.  One
run sets the workload up a few times (``setup_s`` is the import plus the
median set-up), then repeats whole rounds of its operations for as close
to ``--seconds`` as whole rounds allow, checks every output, and prints the
metrics, with every time scaled to the reference host speed (see
``reference_loop``).  The last line of standard output is one JSON object.
``--trace 1`` times the
same rounds with spans around the calls into each layer and reports the
per-layer metrics instead; ``--workload all`` runs every workload in its own
interpreter, one after the other.
"""

from __future__ import annotations

import os

# One thread per workload process; set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("table-exact", "large-ilp")
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "cover_cells_per_s": "cells/s",
    "cover_run_ms_p50": "ms",
    "cover_run_ms_p90": "ms",
    "cover_placed": "tiles",
    "decide_s": "s",
    "torus_s": "s",
    "pack_s": "s",
    "oracle_s": "s",
    "emit_s": "s",
    "parse_s": "s",
    "evaluate_s": "s",
    "peak_rss_mb": "MB",
}

#: end-to-end metric -> (family, phase): the sum over the family's
#: operations of each operation's median phase time
PHASE_METRICS = {
    "decide_s": ("decide", "decide"),
    "torus_s": ("torus", "torus"),
    "pack_s": ("pack", "pack"),
    "oracle_s": ("oracle", "oracle"),
    "emit_s": ("ilp", "emit"),
    "parse_s": ("ilp", "parse"),
    "evaluate_s": ("ilp", "evaluate"),
}


#: median time of ``reference_loop`` on the host the bounds were set on
#: (2 cores, Python 3.11.7)
REFERENCE_S = 0.0028


def reference_loop() -> float:
    """Time a fixed pure-Python loop of tuple, dict and set operations.

    The host's speed drifts by 20-50 % over minutes, and every operation of a
    run drifts with it.  The loop runs between operations; each operation's
    time is scaled by ``REFERENCE_S`` over the median of the six loop times
    around it, which cancels most of that drift.
    """
    t0 = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        seen = frozenset((i, i + 1, i % 7))
        if i in seen:
            counts[key] += len(seen)
    return time.perf_counter() - t0


def _import_program():
    """Import wangtiler from this checkout's ``src/``; fail if it is not there."""
    src = ROOT / "src"
    if not (src / "wangtiler" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'wangtiler'}; run from a full checkout")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import wangtiler
    elapsed = time.perf_counter() - t0
    if Path(wangtiler.__file__).resolve().parent != (src / "wangtiler").resolve():
        sys.exit(f"perfbench: imported {wangtiler.__file__}, not the checkout's copy")
    return elapsed


class Tally:
    """Times, placed counts and failures of the rounds of one run."""

    def __init__(self):
        self.phases: dict[str, dict[str, list[float]]] = {}
        #: reference loop times, one between every two operations, and
        #: (label, phase times, index of the loop time just before)
        self.refs: list[float] = []
        self.runs: list[tuple[str, dict[str, float], int]] = []
        self.placed_first: dict[str, int] = {}
        self.signature: dict[str, bytes] = {}
        self.round_s: list[float] = []
        self.pending: list[tuple[object, object]] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: list[str] = []

    def fail(self, label: str, reason: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.reasons) < 20:
            self.reasons.append(f"{label}: {reason}")


def run_round(plan, rec: Tally, tracer=None) -> None:
    placed: dict[str, int] = {}
    failed: set[str] = set()
    busy = 0.0
    rec.refs.append(reference_loop())
    for op in plan.ops:
        rec.attempted += 1
        if tracer:
            tracer.enabled = True
            span = tracer.open("op." + op.family)
        try:
            out, phases = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            rec.fail(op.label, "raised " + "".join(traceback.format_exception_only(exc)).strip(), False)
            failed.add(op.label)
            continue
        finally:
            if tracer:
                tracer.close(span)
                tracer.enabled = False
        rec.runs.append((op.label, phases, len(rec.refs) - 1))
        rec.refs.append(reference_loop())
        busy += sum(phases.values())
        for phase, sec in phases.items():
            rec.phases.setdefault(op.label, {}).setdefault(phase, []).append(sec)
        if op.deferred:
            rec.pending.append((op, out))
            continue
        bad = _check(op, out)
        if op.family == "cover" and bad is None:
            sig = out.tiling.cells.tobytes()
            if rec.signature.setdefault(op.label, sig) != sig:
                bad = "a repeat with the same seed gave another tiling"
            placed[op.label] = out.placed
            rec.placed_first.setdefault(op.label, placed[op.label])
        del out  # never hold two large models at once
        if bad:
            rec.fail(op.label, bad, True)
            failed.add(op.label)
    for labels, check in plan.groups:
        if any(lb in failed for lb in labels):
            continue
        bad = check(placed)
        if bad:
            for lb in labels:
                rec.fail(lb, bad, True)
    rec.round_s.append(busy)


def _check(op, out) -> str | None:
    try:
        return op.check(out)
    except Exception as exc:  # a check that cannot run fails the operation
        return "check raised " + "".join(traceback.format_exception_only(exc)).strip()


def check_pending(rec: Tally) -> None:
    """Checks that need HiGHS or a transfer-matrix count, run after the
    rounds so that their memory stays out of ``peak_rss_mb``."""
    for op, out in rec.pending:
        bad = _check(op, out)
        if bad:
            rec.fail(op.label, bad, True)
    rec.pending.clear()


def scaled_phases(rec: Tally) -> dict[str, dict[str, list[float]]]:
    """Every phase time scaled to the reference host speed."""
    out: dict[str, dict[str, list[float]]] = {}
    for label, phases, k in rec.runs:
        scale = REFERENCE_S / statistics.median(rec.refs[max(0, k - 2):k + 4])
        for phase, sec in phases.items():
            out.setdefault(label, {}).setdefault(phase, []).append(sec * scale)
    return out


def end_to_end(plan, rec: Tally, phases: dict, setup_s: float,
               peak_rss_mb: float) -> dict[str, dict]:
    ops = {op.label: op for op in plan.ops if op.label in phases}.values()
    cover = [(op.cells, t) for op in ops if op.family == "cover" for t in phases[op.label]["cover"]]
    cover_ms = [t * 1000.0 for _, t in cover]
    values = {
        "setup_s": setup_s,
        "cover_cells_per_s": sum(c for c, _ in cover) / sum(t for _, t in cover),
        "cover_run_ms_p50": statistics.median(cover_ms),
        "cover_run_ms_p90": statistics.quantiles(cover_ms, n=10, method="inclusive")[8],
        "cover_placed": sum(rec.placed_first.values()),
        "peak_rss_mb": peak_rss_mb,
    }
    for metric, (family, phase) in PHASE_METRICS.items():
        values[metric] = sum(statistics.median(phases[op.label][phase])
                             for op in ops if op.family == family)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import_s = _import_program()
    import workloads
    from spans import Tracer

    ref = reference_loop()
    import_scaled = import_s * REFERENCE_S / ref
    setups, setups_scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        plan = workloads.build(workload, seed)
        setups.append(time.perf_counter() - t0)
        ref_after = reference_loop()
        setups_scaled.append(setups[-1] * 2 * REFERENCE_S / (ref + ref_after))
        ref = ref_after
    setup_s = import_s + statistics.median(setups)
    setup_scaled = import_scaled + statistics.median(setups_scaled)

    # warm-up: every family once at probe size, untimed and unchecked, so
    # that lazy imports and first-call costs stay out of the first round
    for op in workloads.build("probe", seed).ops:
        op.run()

    rec = Tally()
    tracer = None
    if traced:
        # one untraced round first: the traced rounds' extra time is the overhead
        run_round(plan, rec)
        untraced_s = rec.round_s.pop()
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        while True:
            run_round(plan, rec, tracer)
            # stop when another whole round would end farther from
            # --seconds than stopping now does
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(rec.round_s) / 2 >= seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_pending(rec)
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{int(traced)}"
    unscaled: dict[str, dict] = {}
    if tracer:
        overhead = statistics.median(rec.round_s) - untraced_s
        metrics, absent = tracer.metrics(len(rec.round_s), overhead)
        tracer.dump(stem.with_suffix(".spans.npz"))
        if absent:
            print("absent (reported as 0): " + ", ".join(absent), file=sys.stderr)
    else:
        metrics = end_to_end(plan, rec, scaled_phases(rec), setup_scaled, peak_rss_mb)
        unscaled = end_to_end(plan, rec, rec.phases, setup_s, peak_rss_mb)
    for reason in rec.reasons:
        print("FAILED " + reason, file=sys.stderr)
    result = {"correct": rec.wrong == 0, "attempted": rec.attempted,
              "failed": rec.failed, "metrics": metrics}
    stem.with_suffix(".json").write_text(json.dumps(
        dict(result, workload=workload, seed=seed, seconds=seconds, rounds=len(rec.round_s),
             ops_per_round=len(plan.ops), unscaled=unscaled,
             op_median_s={label: {ph: statistics.median(t) for ph, t in phases.items()}
                          for label, phases in rec.phases.items()}), indent=1) + "\n")
    print(f"workload {workload}  seed {seed}  rounds {len(rec.round_s)}  "
          f"operations per round {len(plan.ops)}")
    for name, m in metrics.items():
        raw = f"   unscaled {unscaled[name]['value']:.6g}" if unscaled else ""
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']:8s}{raw}")
    print(f"  attempted {rec.attempted}  failed {rec.failed}  correct {result['correct']}")
    return result


def run_all(args) -> dict:
    """Each workload in a fresh interpreter, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {workload} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        result = run_all(args)
    else:
        sys.path.insert(0, str(HERE))
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
