"""Maximum-cover heuristics built on shortest paths in a layered DAG.

One row of the grid is covered at a time; a column is covered as a row of the
transposed grid over the reflected tile set.  The row problem is a layered
graph: alternating color layers and single-vertex void layers between
a source and a terminal.  Costs are integer units.  Each side of each column
has a constraint vector indexed by edge color that holds 0 (the color fits,
or the side is unconstrained), 1 (a soft miss: the tile would strand a
vertical neighbor) or INF (a hard miss: the tile is pruned).  A tile edge
costs one unit per miss, and an edge into a void vertex costs 2(width+1)
units.  A row pays at most 2 * width < 2(width+1) units in misses, so the
shortest path counts voids first and misses second, and the minimum-void
row always wins.

A run uses a handful of distinct vectors (free, hard per color, open, reach
per distance, closed), so rows pass them as ids into a table of a
``_RowKernel``, which builds the surviving tile edges of each (north,
south) pair once.  An edge depends only on its tile and its column's
vectors, never on the width, so the tile set keeps one kernel for every
width: later runs on the same set reuse its vectors and edges, and the
transducer analyses of a run (its ``bound`` and lookahead reach tables)
too.  Ties go to the tile that comes first in the line's shuffled order,
drawn as ``random.shuffle`` draws it (see ``_tie_order``): each candidate
is ranked by one integer key (see ``shortest_row``), so the order in which
edges are visited does not matter.

Edges of one column with the same (west, east, units) differ only in
rank, so only the first of them in the line's order can set a key.  Where
grouping them at least halves a pair's edges (the complete sets: on
complete:4 the free pair's 256 edges fall into 16 groups; none of the
paper's sets), each line folds every group to that one edge, and
``shortest_row`` walks the folded lists.  The DAG's ``columns`` stay the
paper's graph.

``cover`` runs an init schedule of row solves, then improvement sweeps: a
sweep re-solves every line of the other orientation against its placed
neighbors, columns first.  A re-solve admits the incumbent line, so a sweep
never loses a tile; on a full grid it could only redraw ties.  So the
sweeps run while voids remain and each one removes some.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

from .errors import ConfigurationError, grid_dims, integer
from .tileset import TileSet, Tiling, VOID
from .transducer import (DUAL, HORIZONTAL, all_states_on_cycles,
                         build_transducer, longest_path_at_least,
                         reachable_sets)

INF = float("inf")


class _RowKernel(dict):
    """The row solves of one tile set, shared by every run at every width.

    ``_kernel`` keeps one on the tile set, so the kernel lives as long as
    the set.  ``intern`` gives each distinct side vector an id into
    ``vectors`` and checks it once.  As a mapping, the kernel takes a
    (north id, south id) pair to the tile edges that survive it, as
    ``(west, east, units * radix, tile_id)`` in tile-id order; they are
    built on the pair's first lookup and then shared by every line of every
    run.  Edges depend only on the vectors, never on which run
    interned them first, so sharing cannot change a tiling.  ``groups``
    maps a pair to its edges grouped by ``(west, east, units * radix)``, as
    ``(west, east, units * radix, tile_ids)``, for the pairs where that at
    least halves the edges; ``build_layered_dag`` folds each group to the
    member that comes first in the line's order.

    The constraint tables of a run in this orientation are built with the
    kernel: ``free`` and ``closed`` vector ids, and ``hard`` and ``open``,
    the (north, south) tables of ``_Cover``.  ``draws`` holds the steps of
    the tie-break shuffle (see ``_tie_order``); ``bound`` and ``reach`` give
    the transducer analyses of the kernel's set, each computed once.
    Threads may share a kernel: a new vector is interned under a lock, and
    a pair's grouping and then its edges are stored only once built, so a
    line that finds a pair's edges finds its grouping too.
    """

    def __init__(self, ts: TileSet):
        super().__init__()
        self.ts = ts
        self.radix = len(ts) + 1
        self.vectors: list[tuple] = []
        self._ids: dict[tuple, int] = {}
        self._lock = threading.Lock()
        colors = range(ts.num_colors)
        intern = self.intern
        self.free = intern((0,) * ts.num_colors)
        self.closed = intern((INF,) * ts.num_colors)
        fits = [intern(tuple(0 if c == x else INF for c in colors)) for x in colors]
        under = [fits[c] for c in ts.souths]
        over = [fits[c] for c in ts.norths]
        self.hard = (under + [self.free], over + [self.free])
        self.open = (
            under + [intern(tuple(0 if c in ts.souths else 1 for c in colors))],
            over + [intern(tuple(0 if c in ts.norths else 1 for c in colors))])
        self.draws = _draws(len(ts))
        self.groups: dict[tuple[int, int], list] = {}
        self._bounds: dict[str, str | None] = {}
        self._dual = None
        self._reach: dict[int, list[int]] = {}

    def intern(self, vector) -> int:
        vector = tuple(vector)
        vid = self._ids.get(vector)
        if vid is None:
            if len(vector) != self.ts.num_colors:
                raise ConfigurationError(
                    f"each column's side vector must have one entry per color "
                    f"({self.ts.num_colors})")
            if not set(vector) <= {0, 1, INF}:
                raise ConfigurationError(
                    f"side vector entries must be 0, 1 or INF, got {vector}")
            with self._lock:
                vid = self._ids.get(vector)
                if vid is None:
                    vid = len(self.vectors)
                    self.vectors.append(vector)
                    self._ids[vector] = vid
        return vid

    def __missing__(self, pair: tuple[int, int]) -> list:
        ts = self.ts
        nv, sv = (self.vectors[v] for v in pair)
        edges = []
        groups: dict[tuple, list[int]] = {}
        for k in range(len(ts)):
            units = nv[ts.norths[k]] + sv[ts.souths[k]]
            if units != INF:
                edge = (ts.wests[k], ts.easts[k], int(units) * self.radix)
                edges.append((*edge, k))
                groups.setdefault(edge, []).append(k)
        if edges and 2 * len(groups) <= len(edges):
            self.groups.setdefault(pair, [(*edge, ks) for edge, ks in groups.items()])
        return self.setdefault(pair, edges)

    def bound(self, init: str) -> str | None:
        """``_bound`` of this kernel's set for ``init``, computed once."""
        if init not in self._bounds:
            self._bounds.setdefault(init, _bound(self.ts, init))
        return self._bounds[init]

    def reach(self, distance: int) -> list[int]:
        """Per tile id (VOID last, free), the id of the soft vector of the
        north colors the dual transducer of this kernel's set reaches in
        ``distance`` arcs from the tile's south; built on first use, when
        the transducer is built too."""
        reach = self._reach.get(distance)
        if reach is None:
            if self._dual is None:
                self._dual = build_transducer(self.ts, DUAL)
            colors = range(self.ts.num_colors)
            by_color = [self.intern(tuple(0 if c in r else 1 for c in colors))
                        for r in reachable_sets(self._dual, distance)]
            reach = self._reach.setdefault(
                distance, [by_color[c] for c in self.ts.souths] + [self.free])
        return reach


_KERNEL_LOCK = threading.Lock()


def _kernel(ts: TileSet) -> _RowKernel:
    """The shared kernel of ``ts``, built on first use and stored once."""
    if ts._kernel is None:
        with _KERNEL_LOCK:
            if ts._kernel is None:
                ts._kernel = _RowKernel(ts)
    return ts._kernel


def _draws(n: int) -> tuple[tuple[int, int], ...]:
    """The steps of a Fisher-Yates shuffle of n items, as CPython's
    ``random.shuffle`` takes them: swap slot i, from n - 1 down to 1, with a
    slot drawn below i + 1 from ``(i + 1).bit_length()`` random bits."""
    return tuple((i, (i + 1).bit_length()) for i in range(n - 1, 0, -1))


def _tie_order(rng: random.Random, draws) -> list[int]:
    """The tile ids ``0 .. len(draws)`` shuffled by ``draws``: the list that
    ``rng.shuffle`` makes of them, with the same ``getrandbits`` calls, so
    the generator ends in the same state."""
    getrandbits = rng.getrandbits
    order = list(range(len(draws) + 1))
    for i, bits in draws:
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        order[i], order[j] = order[j], order[i]
    return order


@dataclass
class LayeredDag:
    """The weighted layered graph for one row, ready for the DAG sweep.

    ``columns[j]`` holds the surviving tile edges of tile column j as
    ``(west, east, units * radix, tile_id)`` in tile-id order; void vertices
    and their edges are implicit (full fan-in at 2(width+1) units, full
    fan-out at 0).  ``columns``, ``vertex_count`` and ``edge_count`` describe
    the paper's graph.  ``order`` lists the tile ids by rank, the line's
    tie-break order, and ``rank`` is its inverse.  ``folded[j]`` is the list
    the search walks: ``columns[j]`` with each of the kernel's
    (west, east, units) groups replaced by its least-rank member, which is
    the only one that can set a key, or ``columns[j]`` itself where the
    kernel keeps no grouping for the column's pair.
    """

    width: int
    num_colors: int
    columns: list
    order: list[int]
    rank: list[int]
    wests: tuple[int, ...]
    folded: list

    @property
    def radix(self) -> int:
        return len(self.order) + 1

    @property
    def vertex_count(self) -> int:
        return 2 + (self.width + 1) * self.num_colors + self.width

    @property
    def edge_count(self) -> int:
        tile_edges = sum(len(col) for col in self.columns)
        return 2 * self.num_colors + 2 * self.width * self.num_colors + tile_edges


def build_layered_dag(ts: TileSet, width: int, north, south,
                      order: list[int] | None = None,
                      kernel: _RowKernel | None = None) -> LayeredDag:
    """Assemble the row DAG: tile k in column j costs
    ``north[j][norths[k]] + south[j][souths[k]]`` units and is dropped when
    that is INF.  ``order``, a permutation of the tile ids, ranks the tiles
    for ties; any other order raises ``ConfigurationError``, as does a
    width below 1.  With ``kernel`` (``ts``'s), north and south hold its
    vector ids; without, the vectors go into a new kernel that only this
    call sees, so ``ts`` keeps no state.  Pairs the kernel keeps a grouping
    for are folded once per line into ``folded``; a kernel with none costs
    one truth test."""
    width = integer(width, "width must be an integer")
    if width < 1:
        raise ConfigurationError("width must be positive")
    if kernel is None:
        kernel = _RowKernel(ts)
        north = [kernel.intern(v) for v in north]
        south = [kernel.intern(v) for v in south]
    if len(north) != width or len(south) != width:
        raise ConfigurationError("constraint vectors must have one entry per column")
    if order is None:
        order = rank = list(range(len(ts)))
    else:
        # a slot of rank left unset, or a negative id, means that order is
        # not a permutation of the tile ids
        rank = [-1] * len(ts)
        try:
            for r, k in enumerate(order):
                rank[k] = r
        except (IndexError, TypeError):
            rank = None
        if rank is None or len(order) != len(ts) or -1 in rank or min(order) < 0:
            raise ConfigurationError(
                f"order must be a permutation of the {len(ts)} tile ids")
    columns = list(map(kernel.__getitem__, zip(north, south)))
    folded = columns
    if kernel.groups:
        pairs, groups, first = list(zip(north, south)), kernel.groups, rank.__getitem__
        least = {pair: [(w, e, units, min(ks, key=first)) for w, e, units, ks in groups[pair]]
                 for pair in set(pairs) if pair in groups}
        folded = [least.get(pair, edges) for pair, edges in zip(pairs, columns)]
    return LayeredDag(width, ts.num_colors, columns, order, rank, ts.wests, folded)


def shortest_row(dag: LayeredDag) -> tuple[list[int], float]:
    """Single-source shortest path through the layered DAG, decoded to a row.

    It walks ``dag.folded``, which gives the same keys as every edge of
    ``dag.columns``: a dropped edge only loses to a kept one of its group,
    whose rank is lower.  Each color layer keeps one integer key per color:
    its distance times ``radix`` plus the rank of the edge that reached it.
    A tile edge into color e offers ``dist[west] + units * radix + rank[k]``
    and the void route ``min(dist) + void units * radix + len(order)``; the
    smallest key wins, so among equal costs the tile first in ``order``
    wins, and the void only when it is strictly cheaper.  ``key - key % radix`` is the
    distance and ``key % radix`` names the parent; a void's parent, and the
    row's last color, is the lowest color of least distance.  ``low``, the
    least key of the layer, is kept as the layer is built: it starts at the
    void key and drops with each key that beats it.
    """
    C = dag.num_colors
    R = dag.radix
    void = 2 * (dag.width + 1) * R + R - 1
    rank = dag.rank
    keys = [0] * C
    layers = [keys]
    low = 0
    for edges in dag.folded:
        low += void - low % R
        best = [low] * C
        for w, e, units, k in edges:
            key = keys[w]
            key += units + rank[k] - key % R
            if key < best[e]:
                best[e] = key
                if key < low:
                    low = key
        keys = best
        layers.append(keys)
    c = _lowest(keys, R)
    row = []
    for j in range(dag.width, 0, -1):
        r = layers[j][c] % R
        if r == R - 1:
            row.append(VOID)
            c = _lowest(layers[j - 1], R)
        else:
            k = dag.order[r]
            row.append(k)
            c = dag.wests[k]
    row.reverse()
    return row, low // R / (2 * (dag.width + 1))


def _lowest(keys: list[int], radix: int) -> int:
    """The lowest color of least distance in a layer of keys: the first
    key below the least key's distance plus ``radix``."""
    bound = min(keys)
    bound += radix - bound % radix
    for c, key in enumerate(keys):
        if key < bound:
            return c


def max_row_cover(ts: TileSet, width: int, north, south,
                  order: list[int] | None = None,
                  kernel: _RowKernel | None = None) -> tuple[list[int], float]:
    """Maximum cover of a single row under per-column neighbor constraints.

    ``north[j]`` and ``south[j]`` are the penalty units, indexed by edge
    color, that a tile in column j pays on that side: 0 fits, 1 is a soft
    miss, INF removes the tile (or, with ``kernel``, ids of such vectors,
    see ``build_layered_dag``); a width below 1 raises
    ``ConfigurationError``.  The returned cost is the row's units over the
    2(width+1) units of a void, so its integer part is the number of voids
    in the result.
    """
    return shortest_row(build_layered_dag(ts, width, north, south, order, kernel))


@dataclass(frozen=True)
class CoverRun:
    """Outcome of one seeded heuristic run.

    ``bound`` is the proven coverage guarantee that applies to the algorithm
    on this tile set ("1/2", "2/3" or None), decided by transducer analysis
    rather than assumed.  It is a share of the maximum cover of the grid
    (``max_cover_oracle``), not of its cells: where no full tiling of the
    grid exists, a run may place fewer than ``bound`` times height * width.
    ``iterations`` counts the line solves and ``sweeps`` the improvement
    sweeps, 0 when the init schedule leaves no void or ``improve`` is off.
    """

    tiling: Tiling
    placed: int
    iterations: int
    seed: int
    bound: str | None = None
    sweeps: int = 0


class _Cover:
    """A mutable grid plus the neighbor tables its line solves read.

    Row constraints are vector ids of the orientation's ``_RowKernel``, the
    one its tile set keeps, so each distinct vector is checked once and each
    (north, south) pair's edges are built once for all runs at all widths.
    The kernel's ``hard`` and ``open`` are (north, south) tables indexed by
    the neighbor's tile id, VOID (-1) last: a placed neighbor imposes its
    hard vector in both; a void is free in ``hard`` and, in ``open``, a soft
    miss for each color that admits no vertical neighbor.  Columns are
    solved as rows of the transposed grid (see ``transpose``).  The dual
    transducer belongs to the untransposed set, so lookahead runs only
    before the first transpose; the kernel builds it on its first ``reach``
    call, because only the half and twothirds schedules read it.
    """

    def __init__(self, ts: TileSet, height: int, width: int, seed: int):
        height, width = grid_dims(height, width)
        self.rng = random.Random(seed)
        self.cells = [[VOID] * width for _ in range(height)]
        self._orient(_kernel(ts), height, width)
        self.line_solves = 0

    def _orient(self, kernel: _RowKernel, height: int, width: int) -> None:
        self.kernel = kernel
        self.ts = kernel.ts
        self.height = height
        self.width = width

    def transpose(self) -> None:
        """Swap to the transposed grid over the diagonally reflected set, so
        that its rows are the current columns; a second call swaps back."""
        self.cells = [list(col) for col in zip(*self.cells)]
        self._orient(_kernel(self.ts.reflected()), self.width, self.height)

    def solve_row(self, i: int, tables, lookahead: int = 0,
                  odd: bool = False) -> None:
        """Re-solve 0-based row i against its neighbors through ``tables``
        (``hard`` or ``open``); outside the grid is free.  With
        ``lookahead``, a void north neighbor is judged instead against the
        row ``lookahead + 1`` above through dual-transducer reachability;
        ``odd`` closes the odd 0-based columns.  The tie-break order is one
        shuffle of all tile ids (see ``_tie_order``)."""
        cells, kernel = self.cells, self.kernel
        free = kernel.free
        north_of, south_of = tables
        if i == 0:
            north = [free] * self.width
        elif lookahead and i > lookahead:
            reach = kernel.reach(lookahead)
            north = [north_of[k] if k != VOID else reach[src]
                     for k, src in zip(cells[i - 1], cells[i - lookahead - 1])]
        else:
            north = [north_of[k] for k in cells[i - 1]]
        if odd:
            north[1::2] = [kernel.closed] * (self.width // 2)
        if i + 1 == self.height:
            south = [free] * self.width
        else:
            south = [south_of[k] for k in cells[i + 1]]
        order = _tie_order(self.rng, kernel.draws)
        cells[i], _ = max_row_cover(self.ts, self.width, north, south, order, kernel)
        self.line_solves += 1

    def voids(self) -> int:
        return sum(row.count(VOID) for row in self.cells)


_INITS = ("simple", "half", "twothirds")


def _bound(ts: TileSet, init: str) -> str | None:
    """The coverage guarantee the init schedule proves on ts, if any, as a
    share of the maximum cover of the grid (not of its cells)."""
    if init == "half":
        g = build_transducer(ts, HORIZONTAL)
        return "1/2" if longest_path_at_least(g, 2) else None
    if (init == "twothirds"
            and all_states_on_cycles(build_transducer(ts, HORIZONTAL))
            and all_states_on_cycles(build_transducer(ts, DUAL))):
        return "2/3"
    return None


def _schedule(init: str, height: int) -> list[tuple[int, int, bool]]:
    """The init schedule as 0-based ``(row, lookahead, odd)`` steps; each
    step re-solves its row against the ``open`` tables (see
    ``_Cover.solve_row``).

    simple:    rows top to bottom, each against its placed neighbors.
    half:      in the order 0, 2, 1, 4, 3, ..., even rows become maximum row
               covers judged two rows back through the dual transducer and
               odd rows fill the gaps.  Places at least half the maximum
               cover whenever the transducer admits a two-tile row.
    twothirds: in the order 0, 3, 2, 1, 2, ..., rows 0, 3, 6, ... are
               covered with two-arc lookahead to the anchor row three above;
               rows 2, 5, ... are first covered with one-arc lookahead and
               tiles only at even columns, then revisited plainly; rows 1,
               4, ... are covered plainly.  Places at least two thirds of
               the maximum cover when every used color of both transducer
               graphs lies on a cycle.
    """
    if init == "simple":
        return [(i, 0, False) for i in range(height)]
    if init == "half":
        steps = [(0, 1, False)]
        for i in range(2, height, 2):
            steps += [(i, 1, False), (i - 1, 0, False)]
        if height % 2 == 0:
            steps.append((height - 1, 0, False))
        return steps
    steps = [(0, 2, False)]
    for t in range(3, height + 2, 3):
        steps += [(t, 2, False), (t - 1, 1, True), (t - 2, 0, False),
                  (t - 1, 0, False)]
    return [step for step in steps if step[0] < height]


def cover(ts: TileSet, height: int, width: int, init: str = "simple",
          seed: int = 0, improve: bool = True) -> CoverRun:
    """Maximum-cover heuristic: the ``init`` row schedule ("simple", "half"
    or "twothirds", see ``_schedule``), then, with ``improve``, the
    improvement loop.

    The loop alternates hard-constrained column and row re-solves while
    voids remain and the void count keeps dropping.  Each re-solve admits
    the incumbent line, so the placed count never decreases, and a full
    grid is never swept: a run whose init schedule leaves no void returns
    that tiling, with ``sweeps`` 0.  ``bound`` is the guarantee of the init
    schedule on ``ts``, a share of the maximum cover; improvement keeps it.
    """
    if init not in _INITS:
        raise ConfigurationError(f"init must be one of {', '.join(_INITS)}, "
                                 f"got {init!r}")
    cov = _Cover(ts, height, width, seed)
    bound = cov.kernel.bound(init)
    for i, lookahead, odd in _schedule(init, height):
        cov.solve_row(i, cov.kernel.open, lookahead, odd)
    sweeps = 0
    voids, num_old = cov.voids(), INF
    while improve and 0 < voids < num_old:
        num_old = voids
        cov.transpose()
        for i in range(cov.height):
            cov.solve_row(i, cov.kernel.hard)
        sweeps += 1
        voids = cov.voids()
    if sweeps % 2:
        cov.transpose()
    tiling = Tiling(cov.cells)
    return CoverRun(tiling, tiling.placed, cov.line_solves, seed, bound, sweeps)


#: The former name of ``cover``, which ``perfbench/`` calls and traces.
alg4_improve = cover
