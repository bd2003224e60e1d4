"""Command-line front end.

Exit codes: 0 solved/completed, 1 INFEASIBLE (or nothing found, or a witness
that fails its check), 2 CAPPED, deadline hit or state budget exceeded, 3
usage error.  The default seed of ``cover`` and ``bench`` is 0, overridable
with the WANGTILER_SEED environment variable or --seed; the effective seed
is printed so every run can be reproduced.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import fileio
from .bench import BenchConfig, bench_row, resolve_set, run_benchmark
from .errors import BudgetExceededError, ConfigurationError
from .exact import (CAPPED, DEFAULT_STATE_CAP, INFEASIBLE, VALID, pack_tiles,
                    smallest_torus, solve_decision)
from .extensions import EXT_KINDS, PeriodicFixed
from .ilp import ModelSpec, build_model, emit_lp
from .render import RenderStyle, check_style, render_svg
from .tileset import Tiling, corner_to_wang, validate_tiling
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


def seed_base(args) -> int:
    """``--seed``, else the WANGTILER_SEED environment variable, else 0;
    read only by the commands that take a seed."""
    if args.seed is not None:
        return args.seed
    text = os.environ.get("WANGTILER_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(
            f"WANGTILER_SEED must be an integer, got {text!r}") from None


def parse_extension(text: str):
    """Extension syntax: kind[:comma-separated-args]; the arguments are the
    extension's fields in order, sides (``side*``) are n/w/s/e, the rest are
    integers."""
    kind, _, rest = text.partition(":")
    cls = EXT_KINDS.get(kind)
    if cls is None:
        raise ConfigurationError(f"unknown extension kind {kind!r}")
    fields = dataclasses.fields(cls)
    args = rest.split(",") if rest else []
    if len(args) != len(fields):
        raise ConfigurationError(
            f"bad extension {text!r}: expected "
            f"{','.join(f.name for f in fields) or 'no values'}")
    try:
        return cls(*(a if f.name.startswith("side") else int(a)
                     for f, a in zip(fields, args)))
    except ValueError as exc:
        raise ConfigurationError(f"bad extension {text!r}: {exc}") from None


def _write(path, text: str, what: str) -> None:
    """Write finished text to path; callers build the text first, so an
    error while building it leaves no file behind."""
    with open(path, "w") as f:
        f.write(text)
    print(f"{what} written to {path}")


def _svg_style(ts, args) -> RenderStyle:
    """The ``--svg`` style, checked when there is an svg to write, so that a
    bad one fails before any solver runs."""
    style = RenderStyle(cell_px=args.cell_px)
    if args.svg:
        check_style(ts, style)
    return style


def _write_witness(ts, tiling, periodic: bool, output, svg=None, style=None,
                   what: str = "tiling") -> int:
    """Check a tiling, tiled 2x2 on a torus to check its wrap-around edges,
    then write it to ``output`` and its render to ``svg``, where given, and
    return EXIT_OK.  A broken tiling is reported, not written, and returns
    EXIT_INFEASIBLE."""
    report = validate_tiling(ts, Tiling(np.tile(tiling.cells, (2, 2))) if periodic
                             else tiling)
    if not report.is_valid:
        sys.stderr.write(f"error: the witness breaks the edge {report.mismatches[0]}\n")
        return EXIT_INFEASIBLE
    text = render_svg(ts, tiling, style) if svg else None
    if output:
        _write(output, fileio.dumps_tiling(tiling), what)
    if text:
        _write(svg, text, "svg")
    return EXIT_OK


def cmd_solve(args) -> int:
    ts = resolve_set(args.tileset)
    style = _svg_style(ts, args)
    bcs = [parse_extension(e) for e in args.ext]
    res = solve_decision(ts, args.height, args.width, bcs, cap=args.cap)
    lead = ("no partial tiling survives" if res.status == INFEASIBLE
            else "cap crossed in")
    where = "".join(f", {lead} {k} {v}" for k, v in res.stats.items()
                    if k in ("row", "column"))
    print(f"status: {res.status} (states {res.stats.get('states', 0)}{where})")
    if res.witness is None:  # only a VALID result has one
        return _STATUS_EXIT[res.status]
    return _write_witness(ts, res.witness, PeriodicFixed() in bcs, args.output,
                          args.svg, style)


def cmd_cover(args) -> int:
    ts = resolve_set(args.tileset)
    style = _svg_style(ts, args)
    h, w = args.height, args.width
    config = BenchConfig(sets=(), sizes=(), improve=args.improve,
                         seeds=args.seeds, seed_base=seed_base(args))
    print(f"seed base: {config.seed_base}")
    row = bench_row(ts, args.tileset, h, w, args.alg, config)
    if args.report == "json":
        payload = {
            "runs": row.run_dicts(),
            "aggregate": {"min": row.min_placed, "avg": row.avg_placed,
                          "max": row.max_placed},
        }
        print(json.dumps(payload, indent=2))
    else:
        for run, millis in row.runs:
            print(f"seed {run.seed}: placed {run.placed}/{h * w} "
                  f"bound={run.bound or '-'} {millis:.1f} ms")
        print(f"aggregate: min {row.min_placed} avg {row.avg_placed:.2f} "
              f"max {row.max_placed}")
    best = max(row.runs, key=lambda pair: pair[0].placed)[0]
    return _write_witness(ts, best.tiling, False, args.output, args.svg, style)


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
    return _write_witness(ts, res.witnesses[0], True, args.output, what="witness")


def cmd_pack(args) -> int:
    ts = resolve_set(args.tileset)
    style = _svg_style(ts, args)
    res = pack_tiles(ts, args.height, args.width, periodic=args.periodic,
                     deadline=args.deadline)
    print(f"status: {res.status} (nodes {res.stats.get('nodes', 0)}, "
          f"{res.stats.get('seconds', 0.0):.2f}s)")
    if res.witness is None:  # only a VALID result has one
        return _STATUS_EXIT[res.status]
    return _write_witness(ts, res.witness, args.periodic, args.output, args.svg, style)


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
        _write(args.output, text, "model")
    return EXIT_OK


def cmd_convert(args) -> int:
    with open(args.input) as f:
        text = f.read()
    if args.to == "wang":
        corners, n_vc = fileio.loads_corner_set(text)
        ts = corner_to_wang(corners, n_vc)
        _write(args.output, fileio.dumps_tileset(ts),
               f"{len(ts)} edge tiles over {ts.num_colors} colors")
        return EXIT_OK
    try:
        ts = fileio.loads_tileset(text)
    except ValueError:
        fileio.loads_corner_set(text)  # names the fault of a file that is neither
        raise ValueError("the input is a corner set; use --to wang") from None
    tr = translate_horizontal(ts) if args.to == "corners-h" else translate_vertical(ts)
    _write(args.output, fileio.dumps_corner_set(tr.corners, tr.n_vc),
           f"{len(tr.corners)} corner tiles")
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
        _write(args.emit_dot, to_dot(g, name=ts.name or "transducer"), "dot")
    return EXIT_OK


def cmd_render(args) -> int:
    ts = resolve_set(args.tileset)
    tiling = fileio.load_tiling(args.tiling)
    style = RenderStyle(cell_px=args.cell_px, draw_mode=args.mode,
                        show_ids=args.ids, corner_alphabet=args.corner_alphabet)
    _write(args.output, render_svg(ts, tiling, style), "svg")
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
                         seed_base=seed_base(args))
    print(f"seed base: {config.seed_base}")
    report = run_benchmark(config)
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
                   help="per-cell condition, e.g. force:1,1,0 or "
                        "forbidcol:1,2,e,1, or periodic for the torus")
    p.add_argument("--cap", type=int, default=DEFAULT_STATE_CAP,
                   help="stored frontier state budget")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("cover", help="maximum-cover heuristics")
    _add_common(p)
    p.add_argument("--alg", choices=["1", "2", "3"], default="1")
    p.add_argument("--improve", action="store_true",
                   help="run the alternating row/column improvement loop")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--seed", type=int)
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
    p.add_argument("--seed", type=int)
    p.add_argument("--report", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BudgetExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAPPED
    except (ConfigurationError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
