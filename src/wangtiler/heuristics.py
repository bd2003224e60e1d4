"""Maximum-cover heuristics built on shortest paths in a layered DAG.

One row of the grid is covered at a time; a column is covered as a row of the
transposed grid over the reflected tile set.  The row problem is a layered
graph: alternating color layers and single-vertex void layers between
a source and a terminal.  Edges into a void vertex cost 1.  A tile edge costs
eps = 1/(2(width+1)) per penalty unit its vertical sides miss: each side of
each column has a constraint vector indexed by edge color that holds 0 (the
color fits, or the side is unconstrained), 1 (a soft miss: the tile would
strand a vertical neighbor) or INF (a hard miss: the tile is pruned).  A row
pays at most width * 2 * eps < 1, so the shortest path cost counts voids
first and penalty units second, and the minimum-void row always wins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ConfigurationError
from .tileset import TileSet, Tiling, VOID
from .transducer import (DUAL, HORIZONTAL, all_states_on_cycles,
                         build_transducer, longest_path_at_least,
                         reachable_sets)

INF = float("inf")


@dataclass
class LayeredDag:
    """The weighted layered graph for one row, ready for the DAG sweep.

    ``columns[j]`` holds the surviving tile edges of tile column j as
    ``(tile_id, west, east, weight)`` in insertion order; void vertices and
    their edges are implicit (full fan-in at cost 1, full fan-out at cost 0).
    Construction order is the topological order.
    """

    width: int
    num_colors: int
    columns: list

    @property
    def vertex_count(self) -> int:
        return 2 + (self.width + 1) * self.num_colors + self.width

    @property
    def edge_count(self) -> int:
        tile_edges = sum(len(col) for col in self.columns)
        return 2 * self.num_colors + 2 * self.width * self.num_colors + tile_edges


def build_layered_dag(ts: TileSet, width: int, north, south,
                      order: list[int] | None = None) -> LayeredDag:
    """Assemble the row DAG: tile k in column j costs
    ``(north[j][norths[k]] + south[j][souths[k]]) * eps`` and is dropped when
    that is INF; survivors are laid out per tile column in ``order``."""
    if width < 1:
        raise ConfigurationError("width must be positive")
    if len(north) != width or len(south) != width:
        raise ConfigurationError("constraint vectors must have one entry per column")
    if any(len(v) != ts.num_colors for side in (north, south) for v in side):
        raise ConfigurationError(
            f"each column's side vector must have one entry per color "
            f"({ts.num_colors})")
    eps = 1.0 / (2 * (width + 1))
    ids = order if order is not None else range(len(ts))
    norths, wests, souths, easts = ts.norths, ts.wests, ts.souths, ts.easts
    columns = []
    for nv, sv in zip(north, south):
        edges = []
        for k in ids:
            miss = nv[norths[k]] + sv[souths[k]]
            if miss != INF:
                edges.append((k, wests[k], easts[k], miss * eps))
        columns.append(edges)
    return LayeredDag(width, ts.num_colors, columns)


def shortest_row(dag: LayeredDag) -> tuple[list[int], float]:
    """Single-source shortest path through the layered DAG, decoded to a row.

    Vertices are relaxed in construction order; among equal-cost
    predecessors the first-inserted edge wins (tile edges before the void
    route, both in insertion order), so results are reproducible for a fixed
    edge order.
    """
    C = dag.num_colors
    dist = [0.0] * C
    parents = []
    for edges in dag.columns:
        void_dist = INF
        void_pred = -1
        for c in range(C):
            if dist[c] + 1.0 < void_dist:
                void_dist = dist[c] + 1.0
                void_pred = c
        new_dist = [INF] * C
        parent = [None] * C
        for k, w, e, weight in edges:
            d = dist[w]
            if d + weight < new_dist[e]:
                new_dist[e] = d + weight
                parent[e] = (k, w)
        for c in range(C):
            if void_dist < new_dist[c]:
                new_dist[c] = void_dist
                parent[c] = (VOID, void_pred)
        dist = new_dist
        parents.append(parent)
    best_color = 0
    for c in range(1, C):
        if dist[c] < dist[best_color]:
            best_color = c
    cost = dist[best_color]
    row = []
    c = best_color
    for j in range(dag.width - 1, -1, -1):
        k, pred = parents[j][c]
        row.append(k)
        c = pred
    row.reverse()
    return row, cost


def max_row_cover(ts: TileSet, width: int, north, south,
                  order: list[int] | None = None) -> tuple[list[int], float]:
    """Maximum cover of a single row under per-column neighbor constraints.

    ``north[j]`` and ``south[j]`` are the penalty units, indexed by edge
    color, that a tile in column j pays on that side: 0 fits, 1 is a soft
    miss costing eps = 1/(2(width+1)), INF removes the tile.  The number of
    voids in the result equals the integer part of the returned cost.
    """
    return shortest_row(build_layered_dag(ts, width, north, south, order))


@dataclass(frozen=True)
class CoverRun:
    """Outcome of one seeded heuristic run.

    ``bound`` is the proven coverage guarantee that applies to the algorithm
    on this tile set ("1/2", "2/3" or None), decided by transducer analysis
    rather than assumed.
    """

    tiling: Tiling
    placed: int
    iterations: int
    seed: int
    bound: str | None = None
    sweeps: int = 0


class _Cover:
    """A mutable grid plus the constraint builders for the plain,
    dual-lookahead and hard-only row modes.

    Constraint vectors are shared, not built per cell: ``free`` and the
    per-color ``hard`` vectors depend only on the alphabet, ``north_open``
    and ``south_open`` on the orientation, the dual-lookahead vectors on
    the lookahead distance.  Columns are solved as rows of the transposed
    grid (see ``transpose``).  The dual transducer belongs to the
    untransposed set, so the dual mode runs only before the first transpose;
    it is built on the first ``reach`` call, because only the half and
    twothirds schedules read it.
    """

    def __init__(self, ts: TileSet, height: int, width: int, seed: int):
        if height < 1 or width < 1:
            raise ConfigurationError("grid dimensions must be positive")
        self.rng = random.Random(seed)
        self.cells = [[VOID] * width for _ in range(height)]
        colors = range(ts.num_colors)
        self.free = (0,) * ts.num_colors
        self.hard = [tuple(0 if c == x else INF for c in colors) for x in colors]
        self._orient(ts, height, width)
        self._dual = None
        self._reach: dict[int, list[tuple]] = {}
        self.line_solves = 0

    def _orient(self, ts: TileSet, height: int, width: int) -> None:
        self.ts = ts
        self.height = height
        self.width = width
        self.norths, self.souths = ts.norths, ts.souths
        # 1 for each color that admits no vertical neighbor, per side.
        colors = range(ts.num_colors)
        self.north_open = tuple(0 if c in ts.souths else 1 for c in colors)
        self.south_open = tuple(0 if c in ts.norths else 1 for c in colors)

    def transpose(self) -> None:
        """Swap to the transposed grid over the diagonally reflected set, so
        that its rows are the current columns; a second call swaps back."""
        self.cells = [list(col) for col in zip(*self.cells)]
        self._orient(self.ts.reflected(), self.width, self.height)

    def reach(self, distance: int) -> list[tuple]:
        """Per south color of a placed tile, the soft vector of the north
        colors the dual transducer reaches in ``distance`` arcs."""
        if distance not in self._reach:
            if self._dual is None:
                self._dual = build_transducer(self.ts, DUAL)
            colors = range(self.ts.num_colors)
            self._reach[distance] = [
                tuple(0 if c in r else 1 for c in colors)
                for r in reachable_sets(self._dual, distance)]
        return self._reach[distance]

    def shuffled_order(self) -> list[int]:
        order = list(range(len(self.ts)))
        self.rng.shuffle(order)
        return order

    def row_constraints(self, i: int, mode: str, dual_dist: int = 0):
        """Constraint vectors for 0-based row i.

        plain:  placed neighbors are hard; in-domain void neighbors get the
                stranding soft vectors; outside the grid is free.
        dual:   like plain, but an unplaced north side is judged against the
                row ``dual_dist + 1`` above through dual-transducer
                reachability instead of the generic stranding vector.
        simple: placed neighbors are hard, everything else free.
        """
        cells, free, hard = self.cells, self.free, self.hard
        north = []
        south = []
        reach = self.reach(dual_dist) if mode == "dual" else None
        for j in range(self.width):
            above = cells[i - 1][j] if i > 0 else VOID
            if above != VOID:
                north.append(hard[self.souths[above]])
            elif mode == "plain" and i > 0:
                north.append(self.north_open)
            elif mode == "dual":
                src_i = i - dual_dist - 1
                src = cells[src_i][j] if src_i >= 0 else VOID
                north.append(free if src == VOID else reach[self.souths[src]])
            else:
                north.append(free)
            below = cells[i + 1][j] if i + 1 < self.height else VOID
            if below != VOID:
                south.append(hard[self.norths[below]])
            elif mode != "simple" and i + 1 < self.height:
                south.append(self.south_open)
            else:
                south.append(free)
        return north, south

    def solve_row(self, i: int, north, south) -> None:
        row, _ = max_row_cover(self.ts, self.width, north, south,
                               self.shuffled_order())
        self.cells[i] = row
        self.line_solves += 1

    def voids(self) -> int:
        return sum(row.count(VOID) for row in self.cells)


_INITS = ("simple", "half", "twothirds")


def _bound(ts: TileSet, init: str) -> str | None:
    """The coverage guarantee the init schedule proves on ts, if any."""
    if init == "half":
        g = build_transducer(ts, HORIZONTAL)
        return "1/2" if longest_path_at_least(g, 2) else None
    if (init == "twothirds"
            and all_states_on_cycles(build_transducer(ts, HORIZONTAL))
            and all_states_on_cycles(build_transducer(ts, DUAL))):
        return "2/3"
    return None


def _order_half(height: int) -> list[int]:
    """1-based row order 1, 3, 2, 5, 4, ... (odd rows first in each pair)."""
    seq = [1]
    m = 3
    while m <= height:
        seq += [m, m - 1]
        m += 2
    if height % 2 == 0 and height >= 2:
        seq.append(height)
    return seq


def _order_two_thirds(height: int) -> list[int]:
    """1-based row order 1, 4, 3, 2, 3, 7, 6, 5, 6, ...; every third row is
    visited twice."""
    seq = [1] if height >= 1 else []
    m = 4
    while m - 2 <= height:
        for r in (m, m - 1, m - 2, m - 1):
            if r <= height:
                seq.append(r)
        m += 3
    return seq


def _init_cover(cov: _Cover, init: str) -> None:
    """Fill the empty grid row by row with the named schedule.

    simple:    rows top to bottom, each against its placed neighbors.
    half:      in the order 1, 3, 2, 5, 4, ..., odd rows become maximum row
               covers judged two rows back through the dual transducer and
               even rows fill the gaps.  Places at least half the grid
               whenever the transducer admits a two-tile row.
    twothirds: in the order 1, 4, 3, 2, 3, ..., rows 1, 4, 7, ... are covered
               with two-arc lookahead to the anchor row three above; rows
               3, 6, ... are first covered with one-arc lookahead and tiles
               only at odd positions, then revisited plainly; rows 2, 5, ...
               are covered plainly.  Places at least two thirds of the grid
               when every used color of both transducer graphs lies on a
               cycle.
    """
    if init == "simple":
        for i in range(cov.height):
            cov.solve_row(i, *cov.row_constraints(i, "plain"))
    elif init == "half":
        for row in _order_half(cov.height):
            mode = "dual" if row % 2 == 1 else "plain"
            cov.solve_row(row - 1, *cov.row_constraints(row - 1, mode, 1))
    else:
        visited = [False] * (cov.height + 1)
        closed = (INF,) * cov.ts.num_colors
        for row in _order_two_thirds(cov.height):
            i = row - 1
            if row % 3 == 1:
                cov.solve_row(i, *cov.row_constraints(i, "dual", 2))
            elif row % 3 == 0 and not visited[row]:
                # Tiles only at odd positions: no tile fits an all-INF north.
                north, south = cov.row_constraints(i, "dual", 1)
                north[1::2] = [closed] * (cov.width // 2)
                cov.solve_row(i, north, south)
            else:
                cov.solve_row(i, *cov.row_constraints(i, "plain"))
            visited[row] = True


def cover(ts: TileSet, height: int, width: int, init: str = "simple",
          seed: int = 0, improve: bool = True) -> CoverRun:
    """Maximum-cover heuristic: the ``init`` row schedule ("simple", "half"
    or "twothirds", see ``_init_cover``), then, with ``improve``, the
    improvement loop.

    The loop alternates hard-constrained column and row re-solves while the
    void count keeps dropping.  Each re-solve admits the incumbent line, so
    the placed count never decreases.  ``bound`` is the guarantee of the
    init schedule on ``ts``; improvement keeps it.
    """
    if init not in _INITS:
        raise ConfigurationError(f"init must be one of {', '.join(_INITS)}, "
                                 f"got {init!r}")
    cov = _Cover(ts, height, width, seed)
    _init_cover(cov, init)
    sweeps = 0
    num_old = INF
    while improve and cov.voids() < num_old:
        num_old = cov.voids()
        cov.transpose()
        for i in range(cov.height):
            cov.solve_row(i, *cov.row_constraints(i, "simple"))
        sweeps += 1
    if sweeps % 2:
        cov.transpose()
    tiling = Tiling(cov.cells)
    return CoverRun(tiling, tiling.placed, cov.line_solves, seed,
                    _bound(ts, init), sweeps)


#: The former name of ``cover``, which ``perfbench/`` calls and traces.
alg4_improve = cover
