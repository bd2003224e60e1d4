"""Command-line front end.

Exit codes: 0 solved/completed, 1 INFEASIBLE (or nothing found, or a witness
that fails its check), 2 CAPPED, deadline hit or state budget exceeded, 3
usage error.  The default seed is 0, overridable with the WANGTILER_SEED
environment variable or --seed; the effective seed is printed so every run
can be reproduced.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fileio
from .bench import (BenchConfig, bench_row, resolve_set, run_benchmark,
                    run_seeds)
from .errors import BudgetExceededError, ConfigurationError
from .exact import (CAPPED, DEFAULT_STATE_CAP, INFEASIBLE, VALID, pack_tiles,
                    smallest_torus, solve_decision)
from .extensions import (DifferentEdgeColors, DifferentTile, EqualEdgeColors,
                         ForbidEdgeColor, ForbidTile, ForceEdgeColor,
                         ForceTile, Packing, PeriodicFixed, PeriodicVariable,
                         SameTile, SmallestObjective)
from .ilp import ModelSpec, build_model, emit_lp
from .render import RenderStyle, render_svg
from .tileset import corner_to_wang, validate_tiling
from .transducer import (DUAL, HORIZONTAL, all_states_on_cycles,
                         build_transducer, parallel_arcs, to_dot,
                         translate_horizontal, translate_vertical)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_CAPPED = 2
EXIT_USAGE = 3

_STATUS_EXIT = {VALID: EXIT_OK, INFEASIBLE: EXIT_INFEASIBLE, CAPPED: EXIT_CAPPED}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def default_seed() -> int:
    return int(os.environ.get("WANGTILER_SEED", "0"))


def parse_extension(text: str):
    """Extension syntax: kind[:comma-separated-args]; sides are n/w/s/e."""
    kind, _, rest = text.partition(":")
    args = rest.split(",") if rest else []
    try:
        if kind == "force":
            i, j, k = map(int, args)
            return ForceTile(i, j, k)
        if kind == "forbid":
            i, j, k = map(int, args)
            return ForbidTile(i, j, k)
        if kind == "same":
            i, j, p, q = map(int, args)
            return SameTile(i, j, p, q)
        if kind == "difftile":
            i, j, p, q = map(int, args)
            return DifferentTile(i, j, p, q)
        if kind == "forcecol":
            i, j, side, l = args
            return ForceEdgeColor(int(i), int(j), side, int(l))
        if kind == "forbidcol":
            i, j, side, l = args
            return ForbidEdgeColor(int(i), int(j), side, int(l))
        if kind == "eqcol":
            i, j, side, p, q, side2 = args
            return EqualEdgeColors(int(i), int(j), side, int(p), int(q), side2)
        if kind == "neqcol":
            i, j, side, p, q, side2 = args
            return DifferentEdgeColors(int(i), int(j), side, int(p), int(q), side2)
        if kind == "periodic" and not args:
            return PeriodicFixed()
        if kind == "periodic-var" and not args:
            return PeriodicVariable()
        if kind == "smallest" and not args:
            return SmallestObjective()
        if kind == "packing" and not args:
            return Packing()
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad extension {text!r}: {exc}") from None
    raise ConfigurationError(f"unknown extension kind {kind!r}")


def _write_outputs(ts, tiling, args) -> None:
    if getattr(args, "output", None):
        fileio.save_tiling(tiling, args.output)
        print(f"tiling written to {args.output}")
    if getattr(args, "svg", None):
        style = RenderStyle(cell_px=args.cell_px)
        with open(args.svg, "w") as f:
            f.write(render_svg(ts, tiling, style))
        print(f"svg written to {args.svg}")


def cmd_solve(args) -> int:
    ts = resolve_set(args.tileset)
    bcs = [parse_extension(e) for e in args.ext]
    res = solve_decision(ts, args.height, args.width, bcs, cap=args.cap)
    print(f"status: {res.status} (states {res.stats.get('states', 0)})")
    if res.witness is not None:
        report = validate_tiling(ts, res.witness)
        if not report.is_valid:
            sys.stderr.write(f"error: the witness breaks the edge "
                             f"{report.mismatches[0]}\n")
            return EXIT_INFEASIBLE
        _write_outputs(ts, res.witness, args)
    return _STATUS_EXIT[res.status]


def cmd_cover(args) -> int:
    ts = resolve_set(args.tileset)
    h, w = args.height, args.width
    config = BenchConfig(sets=(args.tileset,), sizes=((h, w),),
                         algs=(args.alg,), improve=args.improve,
                         seeds=args.seeds, seed_base=args.seed)
    print(f"seed base: {args.seed}")
    pairs = run_seeds(ts, h, w, args.alg, config)
    row = bench_row(args.tileset, h, w, args.alg, config, pairs,
                    keep_runs=True)
    if args.report == "json":
        payload = {
            "runs": list(row.runs),
            "aggregate": {"min": row.min_placed, "avg": row.avg_placed,
                          "max": row.max_placed},
        }
        print(json.dumps(payload, indent=2))
    else:
        for r in row.runs:
            print(f"seed {r['seed']}: placed {r['placed']}/{h * w} "
                  f"bound={r['bound'] or '-'} {r['millis']:.1f} ms")
        print(f"aggregate: min {row.min_placed} avg {row.avg_placed:.2f} "
              f"max {row.max_placed}")
    best = max(pairs, key=lambda pair: pair[0].placed)[0]
    _write_outputs(ts, best.tiling, args)
    return EXIT_OK


def cmd_torus(args) -> int:
    ts = resolve_set(args.tileset)
    res = smallest_torus(ts, args.max_area)
    if res is None:
        print(f"no periodic rectangle up to area {args.max_area}")
        return EXIT_INFEASIBLE
    if args.report == "json":
        print(json.dumps({
            "min_area": res.min_area,
            "dims": list(res.dims),
            "count": res.count,
            "dim_counts": [[list(d), c] for d, c in res.dim_counts],
        }, indent=2))
    else:
        print(f"min area {res.min_area}, first dims {res.dims[0]}x{res.dims[1]}, "
              f"{res.count} labeled tilings")
        for d, c in res.dim_counts:
            print(f"  {d[0]}x{d[1]}: {c}")
    if args.output and res.witnesses:
        fileio.save_tiling(res.witnesses[0], args.output)
        print(f"witness written to {args.output}")
    return EXIT_OK


def cmd_pack(args) -> int:
    ts = resolve_set(args.tileset)
    res = pack_tiles(ts, args.height, args.width, periodic=args.periodic,
                     deadline=args.deadline,
                     most_constrained=args.most_constrained)
    print(f"status: {res.status} (nodes {res.stats.get('nodes', 0)}, "
          f"{res.stats.get('seconds', 0.0):.2f}s)")
    if res.witness is not None:
        _write_outputs(ts, res.witness, args)
    return _STATUS_EXIT[res.status]


_FORMULATION_ALIAS = {"decision": "decision", "maxrect": "max_rect",
                      "maxcover": "max_cover", "maxcsp": "max_csp"}


def cmd_emit(args) -> int:
    ts = resolve_set(args.tileset)
    exts = tuple(parse_extension(e) for e in args.ext)
    spec = ModelSpec(ts, args.height, args.width,
                     _FORMULATION_ALIAS[args.formulation], exts)
    text = emit_lp(build_model(spec))
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"model written to {args.output}")
    return EXIT_OK


def cmd_convert(args) -> int:
    with open(args.input) as f:
        text = f.read()
    if text.lstrip().startswith("corners") and args.to == "wang":
        corners, n_vc = fileio.loads_corner_set(text)
        ts = corner_to_wang(corners, n_vc)
        fileio.save_tileset(ts, args.output)
        print(f"{len(ts)} edge tiles over {ts.num_colors} colors "
              f"written to {args.output}")
        return EXIT_OK
    if args.to == "wang":
        raise ConfigurationError("input is already an edge tile set")
    ts = fileio.loads_tileset(text)
    tr = translate_horizontal(ts) if args.to == "corners-h" else translate_vertical(ts)
    fileio.save_corner_set(tr.corners, tr.n_vc, args.output)
    print(f"{len(tr.corners)} corner tiles written to {args.output}")
    print(f"lossless: {tr.bijective}"
          + ("" if tr.bijective else f" (parallel arcs: {list(tr.parallel_witnesses)})"))
    return EXIT_OK


def cmd_transducer(args) -> int:
    ts = resolve_set(args.tileset)
    g = build_transducer(ts, DUAL if args.dual else HORIZONTAL)
    print(f"{g.orientation} transducer: {g.num_states} states, {len(g.arcs)} arcs")
    if args.parallel_arcs:
        pairs = parallel_arcs(g)
        if pairs:
            for u, v, ids in pairs:
                print(f"parallel {u} -> {v}: arcs {list(ids)}")
        else:
            print("no parallel arcs")
    if args.cyclic:
        print(f"all used states on cycles: {all_states_on_cycles(g)}")
    if args.emit_dot:
        with open(args.emit_dot, "w") as f:
            f.write(to_dot(g, name=ts.name or "transducer"))
        print(f"dot written to {args.emit_dot}")
    return EXIT_OK


def cmd_render(args) -> int:
    ts = resolve_set(args.tileset)
    tiling = fileio.load_tiling(args.tiling)
    style = RenderStyle(cell_px=args.cell_px, draw_mode=args.mode,
                        show_ids=args.ids, corner_alphabet=args.corner_alphabet)
    with open(args.output, "w") as f:
        f.write(render_svg(ts, tiling, style))
    print(f"svg written to {args.output}")
    return EXIT_OK


def parse_size(token: str) -> tuple[int, int]:
    """A grid size written <h>x<w>, e.g. 20x20."""
    h, x, w = token.partition("x")
    if x:
        try:
            return int(h), int(w)
        except ValueError:
            pass
    raise ConfigurationError(f"bad size {token!r}: expected <h>x<w>, e.g. 20x20")


def cmd_bench(args) -> int:
    sizes = [parse_size(t) for t in args.sizes.split(",")] if args.sizes else []
    config = BenchConfig(sets=tuple(args.sets.split(",")) if args.sets else (),
                         sizes=tuple(sizes),
                         algs=tuple(args.algs.split(",")),
                         improve=not args.no_improve,
                         seeds=args.seeds,
                         seed_base=args.seed)
    print(f"seed base: {args.seed}")
    report = run_benchmark(config, keep_runs=args.report == "json")
    sys.stdout.write(report.to_json() if args.report == "json" else report.to_text())
    return EXIT_OK


def _add_common(p, grid=True, outputs=True):
    p.add_argument("--tileset", required=True,
                   help="built-in name, complete:<n>, or a tile set file")
    if grid:
        p.add_argument("--h", dest="height", type=int, required=True)
        p.add_argument("--w", dest="width", type=int, required=True)
    if outputs:
        p.add_argument("-o", "--output", help="write the resulting tiling here")
        p.add_argument("--svg", help="also render the result to this SVG file")
        p.add_argument("--cell-px", type=int, default=32)


def build_parser() -> _Parser:
    parser = _Parser(prog="wangtiler",
                     description="Bounded Wang tiling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact decision solve with boundary conditions")
    _add_common(p)
    p.add_argument("--ext", action="append", default=[],
                   help="per-cell condition, e.g. force:1,1,0 or forbidcol:1,2,e,1")
    p.add_argument("--cap", type=int, default=DEFAULT_STATE_CAP,
                   help="stored frontier state budget")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("cover", help="maximum-cover heuristics")
    _add_common(p)
    p.add_argument("--alg", choices=["1", "2", "3"], default="1")
    p.add_argument("--improve", action="store_true",
                   help="run the alternating row/column improvement loop")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--seed", type=int, default=default_seed())
    p.add_argument("--report", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("torus", help="smallest periodic rectangle search")
    _add_common(p, grid=False, outputs=False)
    p.add_argument("--max-area", type=int, required=True)
    p.add_argument("--report", choices=["table", "json"], default="table")
    p.add_argument("-o", "--output", help="write one witness tiling here")
    p.set_defaults(func=cmd_torus)

    p = sub.add_parser("pack", help="place every tile exactly once")
    _add_common(p)
    p.add_argument("--periodic", action="store_true")
    p.add_argument("--deadline", type=float, default=None,
                   help="wall-clock budget in seconds")
    p.add_argument("--most-constrained", action="store_true",
                   help="fill the fewest-candidates cell first")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("emit", help="write a model in LP format")
    _add_common(p, outputs=False)
    p.add_argument("--formulation", required=True,
                   choices=sorted(_FORMULATION_ALIAS))
    p.add_argument("--ext", action="append", default=[])
    p.add_argument("-o", "--output", required=True, help="output file or -")
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("convert", help="corner/edge tile set conversions")
    p.add_argument("--input", required=True)
    p.add_argument("--to", required=True, choices=["wang", "corners-h", "corners-v"])
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("transducer", help="transducer graph analysis")
    _add_common(p, grid=False, outputs=False)
    p.add_argument("--dual", action="store_true")
    p.add_argument("--parallel-arcs", action="store_true")
    p.add_argument("--cyclic", action="store_true")
    p.add_argument("--emit-dot", help="write GraphViz DOT here")
    p.set_defaults(func=cmd_transducer)

    p = sub.add_parser("render", help="render a tiling file to SVG")
    _add_common(p, grid=False, outputs=False)
    p.add_argument("--tiling", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--cell-px", type=int, default=32)
    p.add_argument("--mode", choices=["edge-triangles", "corner-squares"],
                   default="edge-triangles")
    p.add_argument("--ids", action="store_true")
    p.add_argument("--corner-alphabet", type=int, default=None)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("bench", help="seeded min/avg/max benchmark table")
    p.add_argument("--sets", required=True, help="comma-separated set specs")
    p.add_argument("--sizes", required=True, help="e.g. 20x20,25x25")
    p.add_argument("--algs", default="1", help="comma-separated among 1,2,3")
    p.add_argument("--no-improve", action="store_true")
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--seed", type=int, default=default_seed())
    p.add_argument("--report", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAPPED
    except (ConfigurationError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
