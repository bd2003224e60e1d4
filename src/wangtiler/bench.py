"""Seeded benchmark harness for the cover heuristics.

Runs each (tile set, size, algorithm) combination over a block of seeds and
aggregates min/avg/max placed tiles plus mean runtime, mirroring the
randomized-restart protocol used for the published quality tables.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from .errors import ConfigurationError
from .heuristics import CoverRun, cover
from .tileset import TileSet, builtin_names, builtin_set, complete_stochastic_set

REPORT_SCHEMA_VERSION = 1

_INIT_OF = {"1": "simple", "2": "half", "3": "twothirds"}


def resolve_set(spec: str) -> TileSet:
    """Resolve a tile set spec string: a built-in name, ``complete:<n>``,
    or a path to a tile set file."""
    if spec.startswith("complete:"):
        try:
            n_c = int(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigurationError(
                f"bad tile set {spec!r}: expected complete:<n> with an "
                f"integer n") from None
        return complete_stochastic_set(n_c)
    if spec in builtin_names():
        return builtin_set(spec)
    if not os.path.isfile(spec):
        raise ConfigurationError(
            f"unknown tile set {spec!r}: not a file, a built-in set "
            f"({', '.join(builtin_names())}) or complete:<n>")
    from .fileio import load_tileset
    return load_tileset(spec)


def run_algorithm(ts: TileSet, height: int, width: int, alg: str,
                  improve: bool, seed: int):
    """One seeded run of algorithm "1"|"2"|"3", optionally with the
    improvement loop on top."""
    if alg not in _INIT_OF:
        raise ConfigurationError(f"algorithm must be one of 1/2/3, got {alg!r}")
    return cover(ts, height, width, _INIT_OF[alg], seed, improve)


@dataclass(frozen=True)
class BenchConfig:
    sets: tuple[str, ...]
    sizes: tuple[tuple[int, int], ...]
    algs: tuple[str, ...] = ("1",)
    improve: bool = True
    seeds: int = 100
    seed_base: int = 0

    def __post_init__(self):
        if self.seeds < 1:
            raise ConfigurationError("need at least one seed")


@dataclass(frozen=True)
class BenchRow:
    set_name: str
    height: int
    width: int
    alg: str
    improve: bool
    seconds_mean: float
    min_placed: int
    avg_placed: float
    max_placed: int
    runs: tuple = ()


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]

    def to_text(self) -> str:
        header = (f"{'tile set':<16} {'size':<8} {'alg':<8} "
                  f"{'t [s]':>8} {'min':>6} {'avg':>9} {'max':>6}")
        lines = [header, "-" * len(header)]
        for r in self.rows:
            alg = f"4/{r.alg}" if r.improve else r.alg
            lines.append(
                f"{r.set_name:<16} {r.height}x{r.width:<6} {alg:<8} "
                f"{r.seconds_mean:>8.3f} {r.min_placed:>6} "
                f"{r.avg_placed:>9.2f} {r.max_placed:>6}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "version": REPORT_SCHEMA_VERSION,
            "rows": [
                {
                    "set": r.set_name,
                    "height": r.height,
                    "width": r.width,
                    "alg": r.alg,
                    "improve": r.improve,
                    "seconds_mean": r.seconds_mean,
                    "min": r.min_placed,
                    "avg": r.avg_placed,
                    "max": r.max_placed,
                    "runs": list(r.runs),
                }
                for r in self.rows
            ],
        }
        return json.dumps(payload, indent=2) + "\n"


def run_seeds(ts: TileSet, height: int, width: int, alg: str,
              config: BenchConfig) -> list[tuple[CoverRun, float]]:
    """One run for each seed from seed_base to seed_base + seeds - 1,
    paired with its wall time in milliseconds."""
    pairs = []
    for s in range(config.seed_base, config.seed_base + config.seeds):
        t0 = time.perf_counter()
        run = run_algorithm(ts, height, width, alg, config.improve, s)
        pairs.append((run, (time.perf_counter() - t0) * 1000.0))
    return pairs


def bench_row(name: str, height: int, width: int, alg: str,
              config: BenchConfig, pairs: list[tuple[CoverRun, float]],
              keep_runs: bool) -> BenchRow:
    """Aggregate the (run, millis) pairs of one seed block; with keep_runs
    the row also holds one {"placed", "bound", "seed", "millis"} dict per
    run."""
    placed = [run.placed for run, _ in pairs]
    runs = tuple({"placed": run.placed, "bound": run.bound, "seed": run.seed,
                  "millis": millis} for run, millis in pairs) if keep_runs else ()
    mean_s = sum(millis for _, millis in pairs) / 1000.0 / len(pairs)
    return BenchRow(name, height, width, alg, config.improve, mean_s,
                    min(placed), sum(placed) / len(placed), max(placed), runs)


def run_benchmark(config: BenchConfig, keep_runs: bool = False) -> BenchReport:
    """One row per (set, size, algorithm); aggregation is order-independent,
    so rows are reproducible for a fixed config."""
    rows = []
    for spec in config.sets:
        ts = resolve_set(spec)
        name = ts.name or spec
        for (h, w) in config.sizes:
            for alg in config.algs:
                pairs = run_seeds(ts, h, w, alg, config)
                rows.append(bench_row(name, h, w, alg, config, pairs, keep_runs))
    return BenchReport(tuple(rows))
