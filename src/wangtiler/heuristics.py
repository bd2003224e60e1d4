"""Maximum-cover heuristics built on shortest paths in a layered DAG.

One row of the grid is covered at a time; a column is covered as a row of the
transposed grid over the reflected tile set.  The row problem is a layered
graph: alternating color layers and single-vertex void layers between
a source and a terminal.  Tile edges cost 0 plus a small penalty when the
tile would strand a vertical neighbor; edges into a void vertex cost 1, so
the shortest path cost counts voids first and penalties second, and the
minimum-void row always wins.
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

#: Constraint entry for an unknown or out-of-domain neighbor: no pruning,
#: no penalty.
WILDCARD = None


@dataclass(frozen=True)
class Hard:
    """Admissible edge colors imposed by an actually placed neighbor."""

    colors: frozenset

    def __init__(self, colors):
        object.__setattr__(self, "colors",
                           frozenset([colors] if isinstance(colors, int) else colors))


@dataclass(frozen=True)
class Soft:
    """Preferred edge colors; a tile outside the set pays half a penalty unit."""

    colors: frozenset

    def __init__(self, colors):
        object.__setattr__(self, "colors", frozenset(colors))


@dataclass(frozen=True)
class PenaltyScheme:
    """Edge weights sized so all penalties together stay below one tile.

    With ``width`` tiles in a row the worst case is width * eps_full =
    width / (width + 1) < 1, so penalties can bias tile choice but never
    trade a placed tile away.
    """

    void_cost: float
    eps_half: float
    eps_full: float

    @classmethod
    def for_width(cls, width: int) -> "PenaltyScheme":
        if width < 1:
            raise ConfigurationError("width must be positive")
        return cls(1.0, 1.0 / (2 * (width + 1)), 1.0 / (width + 1))


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


def build_layered_dag(ts: TileSet, width: int, north_constraints,
                      south_constraints, penalties: PenaltyScheme | None = None,
                      order: list[int] | None = None,
                      blocked: list[bool] | None = None) -> LayeredDag:
    """Assemble the row DAG: prune tiles against Hard constraints, weight
    them against Soft ones, and lay the survivors out per tile column."""
    if width < 1:
        raise ConfigurationError("width must be positive")
    if len(north_constraints) != width or len(south_constraints) != width:
        raise ConfigurationError("constraint vectors must have one entry per column")
    pen = penalties or PenaltyScheme.for_width(width)
    ids = order if order is not None else range(len(ts))
    norths, wests, souths, easts = ts.norths, ts.wests, ts.souths, ts.easts
    columns = []
    for j in range(width):
        edges = []
        if not (blocked and blocked[j]):
            nc = north_constraints[j]
            sc = south_constraints[j]
            for k in ids:
                weight = 0.0
                if nc is not None:
                    if isinstance(nc, Hard):
                        if norths[k] not in nc.colors:
                            continue
                    elif norths[k] not in nc.colors:
                        weight += pen.eps_half
                if sc is not None:
                    if isinstance(sc, Hard):
                        if souths[k] not in sc.colors:
                            continue
                    elif souths[k] not in sc.colors:
                        weight += pen.eps_half
                edges.append((k, wests[k], easts[k], weight))
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


def max_row_cover(ts: TileSet, width: int, north_constraints,
                  south_constraints, penalties: PenaltyScheme | None = None,
                  order: list[int] | None = None,
                  blocked: list[bool] | None = None) -> tuple[list[int], float]:
    """Maximum cover of a single row under per-column neighbor constraints.

    Constraint entries are WILDCARD, ``Hard(colors)`` (mismatch removes the
    tile) or ``Soft(colors)`` (mismatch costs eps_half).  The number of voids
    in the result equals the integer part of the returned cost.
    """
    dag = build_layered_dag(ts, width, north_constraints, south_constraints,
                            penalties, order, blocked)
    return shortest_row(dag)


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

    Columns are solved as rows of the transposed grid (see ``transpose``).
    The dual transducer belongs to the untransposed set, so the dual mode
    runs only before the first transpose.
    """

    def __init__(self, ts: TileSet, height: int, width: int, seed: int):
        if height < 1 or width < 1:
            raise ConfigurationError("grid dimensions must be positive")
        self.rng = random.Random(seed)
        self.cells = [[VOID] * width for _ in range(height)]
        self._orient(ts, height, width)
        self._other_ts: TileSet | None = None
        self.dual = build_transducer(ts, DUAL)
        self._reach: dict[int, list[frozenset[int]]] = {}
        self.line_solves = 0

    def _orient(self, ts: TileSet, height: int, width: int) -> None:
        self.ts = ts
        self.height = height
        self.width = width
        self.norths, self.souths = ts.norths, ts.souths
        # Colors that still admit some vertical neighbor, per side.
        self.north_open = Soft(ts.souths)
        self.south_open = Soft(ts.norths)
        self.pen = PenaltyScheme.for_width(width)

    def transpose(self) -> None:
        """Swap to the transposed grid over the diagonally reflected set, so
        that its rows are the current columns; a second call swaps back."""
        if self._other_ts is None:
            self._other_ts = self.ts.reflected()
        ts, self._other_ts = self._other_ts, self.ts
        self.cells = [list(col) for col in zip(*self.cells)]
        self._orient(ts, self.width, self.height)

    def reach(self, distance: int) -> list[frozenset[int]]:
        if distance not in self._reach:
            self._reach[distance] = reachable_sets(self.dual, distance)
        return self._reach[distance]

    def shuffled_order(self) -> list[int]:
        order = list(range(len(self.ts)))
        self.rng.shuffle(order)
        return order

    def row_constraints(self, i: int, mode: str, dual_dist: int = 0):
        """Constraint vectors for 0-based row i.

        plain:  placed neighbors are Hard; in-domain void neighbors get the
                stranding Soft sets; outside the grid is WILDCARD.
        dual:   like plain, but an unplaced north side is judged against the
                row ``dual_dist + 1`` above through dual-transducer
                reachability instead of the generic stranding set.
        simple: placed neighbors are Hard, everything else WILDCARD.
        """
        cells = self.cells
        north = []
        south = []
        reach = self.reach(dual_dist) if mode == "dual" else None
        for j in range(self.width):
            above = cells[i - 1][j] if i > 0 else None
            if above is not None and above != VOID:
                north.append(Hard(self.souths[above]))
            elif mode == "plain" and i > 0:
                north.append(self.north_open)
            elif mode == "dual":
                src_i = i - dual_dist - 1
                src = cells[src_i][j] if src_i >= 0 else None
                if src is not None and src != VOID:
                    north.append(Soft(reach[self.souths[src]]))
                else:
                    north.append(WILDCARD)
            else:
                north.append(WILDCARD)
            below = cells[i + 1][j] if i + 1 < self.height else None
            if below is not None and below != VOID:
                south.append(Hard(self.norths[below]))
            elif mode in ("plain", "dual") and i + 1 < self.height:
                south.append(self.south_open)
            else:
                south.append(WILDCARD)
        return north, south

    def solve_row(self, i: int, mode: str, dual_dist: int = 0,
                  blocked: list[bool] | None = None) -> None:
        north, south = self.row_constraints(i, mode, dual_dist)
        row, _ = max_row_cover(self.ts, self.width, north, south, self.pen,
                               self.shuffled_order(), blocked)
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
            cov.solve_row(i, "plain")
    elif init == "half":
        for row in _order_half(cov.height):
            if row % 2 == 1:
                cov.solve_row(row - 1, "dual", dual_dist=1)
            else:
                cov.solve_row(row - 1, "plain")
    else:
        visited = [False] * (cov.height + 1)
        evens_blocked = [j % 2 == 1 for j in range(cov.width)]
        for row in _order_two_thirds(cov.height):
            if row % 3 == 1:
                cov.solve_row(row - 1, "dual", dual_dist=2)
            elif row % 3 == 0 and not visited[row]:
                cov.solve_row(row - 1, "dual", dual_dist=1, blocked=evens_blocked)
            else:
                cov.solve_row(row - 1, "plain")
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
            cov.solve_row(i, "simple")
        sweeps += 1
    if sweeps % 2:
        cov.transpose()
    tiling = Tiling(cov.cells)
    return CoverRun(tiling, tiling.placed, cov.line_solves, seed,
                    _bound(ts, init), sweeps)


#: The former name of ``cover``, which ``perfbench/`` calls and traces.
alg4_improve = cover
