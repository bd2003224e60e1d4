"""Desk-scale exact solvers.

All solvers here give provable answers or an honest CAPPED status; none of
them guesses.  The decision solver, the torus counter and the max-cover
oracle share one iterative frontier sweep, the transfer-matrix method applied
cell by cell: the only information a partial tiling exposes to its unfilled
remainder is the coloring of its boundary, so partial tilings with equal
boundaries merge into one state.  Per-cell conditions reach the sweep as one
(cell, tile) mask built from ``extensions.cell_rule``, and ``PeriodicFixed``
turns it into a sweep of the torus.  Packing is a backtracking search, because
its use-every-tile-once rule has no small frontier.
"""

from __future__ import annotations

import time
from itertools import compress, product
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import BudgetExceededError, ConfigurationError
from .extensions import Packing, PeriodicFixed, cell_rule, check_extension
from .tileset import TileSet, Tiling, VOID

VALID = "VALID"
INFEASIBLE = "INFEASIBLE"
CAPPED = "CAPPED"

#: Default hard limit on stored frontier states for the decision solver.
DEFAULT_STATE_CAP = 1 << 22


@dataclass(frozen=True)
class SolveResult:
    status: str
    witness: Tiling | None = None
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TorusResult:
    """Smallest periodic rectangles of a tile set.

    ``count`` totals the distinct labeled tilings over all shapes of the
    minimum area; ``dims`` is the first shape (ordered by height) that has
    at least one solution; ``dim_counts`` breaks the count down per shape.
    """

    min_area: int
    dims: tuple[int, int]
    count: int
    witnesses: tuple[Tiling, ...]
    dim_counts: tuple[tuple[tuple[int, int], int], ...]


_NONE = -2  # exposure of a VOID cell, or of an edge that is never read


def _sweep(ts: TileSet, height: int, width: int, mask: np.ndarray | None,
           void: bool, torus: bool, links: int, cap: int):
    """Fill the grid cell by cell, row-major, merging equal frontiers.

    A state is a flat tuple: a head, then one record per column, rotated so
    that the current cell's column comes first.  The head holds the pending
    east color and the records the exposed south colors.  On a torus the
    head also holds the row's first west color and each record the first
    row's north color, which the row's last east color and the last row's
    south colors must match.  Edges nothing will read again are stored as
    _NONE, so the last layer holds at most one state.  Each state's value is
    a list: the most tiles placed, the number of ways to place that many,
    then up to ``links`` (parent index, tile) pairs.  Cell (i, j) may hold
    tile k only where ``mask[i, j, k]`` (any tile without a mask); with
    ``void`` it may stay empty.

    Returns (most placed or None if no state survives, ways, link layers,
    stored states); raises BudgetExceededError past ``cap`` stored states.
    """
    norths, wests, souths, easts = ts.norths, ts.wests, ts.souths, ts.easts
    all_ids = list(range(len(ts)))
    cell_masks = None if mask is None else mask.reshape(height * width, -1).tolist()
    size = 2 if torus else 1
    frontier = {(_NONE,) * (size * (width + 1)): [0, 1]}
    layers: list[list[list[int]]] = []
    stored = 0
    for p in range(height * width):
        i, j = divmod(p, width)
        last_row, last_col = i == height - 1, j == width - 1
        allowed = (all_ids if cell_masks is None
                   else list(compress(all_ids, cell_masks[p])))

        def pool_for(req: tuple) -> list[tuple]:
            """(tile, gain, head, record) for each tile fitting ``req``."""
            west, north = req[0], req[size]
            pool = []
            for k in allowed:
                if ((west != _NONE and wests[k] != west)
                        or (north != _NONE and norths[k] != north)):
                    continue
                east = _NONE if last_col else easts[k]
                south = _NONE if last_row else souths[k]
                if not torus:
                    pool.append((k, 1, (east,), (south,)))
                    continue
                first_w = wests[k] if j == 0 else req[1]
                first_n = norths[k] if i == 0 else req[3]
                if ((last_col and easts[k] != first_w)
                        or (last_row and souths[k] != first_n)):
                    continue
                pool.append((k, 1, (east, _NONE if last_col else first_w),
                             (south, _NONE if last_row else first_n)))
            if void:
                pool.append((VOID, 0, (_NONE,), (_NONE,)))
            return pool

        pools: dict[tuple, list[tuple]] = {}
        level: dict[tuple, list[int]] = {}
        for idx, (state, value) in enumerate(frontier.items()):
            req = state[:2 * size]
            pool = pools.get(req)
            if pool is None:
                pool = pools[req] = pool_for(req)
            rest = state[2 * size:]
            placed, ways = value[0], value[1]
            for k, gain, head, record in pool:
                key = head + rest + record
                got = placed + gain
                old = level.get(key)
                if old is None:
                    stored += 1
                    if stored > cap:
                        raise BudgetExceededError(
                            f"frontier sweep exceeded {cap} stored states")
                    level[key] = [got, ways, idx, k]
                elif got > old[0]:
                    level[key] = [got, ways, idx, k]
                elif got == old[0]:
                    old[1] += ways
                    if len(old) < 2 + 2 * links:
                        old += (idx, k)
        if not level:
            return None, 0, layers, stored
        layers.append(list(level.values()))
        frontier = level
    (best, ways, *_), = frontier.values()
    return best, ways, layers, stored


def _read_back(layers, height: int, width: int, limit: int) -> list[np.ndarray]:
    """Up to ``limit`` distinct tilings, depth first through the parent links."""
    found: list[np.ndarray] = []
    stack = [(len(layers) - 1, 0, ())]
    while stack and len(found) < limit:
        p, idx, tail = stack.pop()
        if p < 0:
            cells = []
            while tail:
                k, tail = tail
                cells.append(k)
            found.append(np.array(cells, dtype=np.int32).reshape(height, width))
            continue
        value = layers[p][idx]
        for n in range(len(value) - 2, 0, -2):
            stack.append((p - 1, value[n], (value[n + 1], tail)))
    return found


def _frontier(ts: TileSet, height: int, width: int, cap: int,
              exts: Iterable = (), void: bool = False, limit: int = 1):
    """Sweep the instance in its narrower orientation.

    ``exts`` holds per-cell conditions, which mask the tiles a cell may
    hold, and ``PeriodicFixed``, which sweeps the torus.
    Returns (most placed or None, ways, up to ``limit`` witnesses, stored).
    """
    if height < 1 or width < 1:
        raise ConfigurationError("grid dimensions must be positive")
    mask = None  # None allows every tile; built at the first per-cell rule
    torus = False
    for ext in exts:
        check_extension(ext, ts, height, width)
        rule = cell_rule(ext, ts)
        if rule is not None:
            if mask is None:
                mask = np.ones((height, width, len(ts)), dtype=bool)
            ids, force = rule
            hit = np.zeros(len(ts), dtype=bool)
            hit[list(ids)] = True
            mask[ext.i - 1, ext.j - 1] &= hit if force else ~hit
        elif isinstance(ext, PeriodicFixed):
            torus = True
        else:
            raise ConfigurationError(
                f"the frontier solver supports per-cell conditions and "
                f"PeriodicFixed, got {type(ext).__name__}")
    transpose = width > height
    if transpose:
        # The frontier grows with the width; sweep the diagonally reflected
        # instance instead (tilings of the two correspond under transposition,
        # and the reflected set keeps the tile ids).
        ts, height, width = ts.reflected(), width, height
        mask = None if mask is None else mask.transpose(1, 0, 2)
    best, ways, layers, stored = _sweep(ts, height, width, mask, void, torus,
                                        limit, cap)
    found = _read_back(layers, height, width, limit) if best is not None else []
    return best, ways, [Tiling(c.T if transpose else c) for c in found], stored


def solve_decision(ts: TileSet, height: int, width: int, bcs: Iterable = (),
                   cap: int = DEFAULT_STATE_CAP) -> SolveResult:
    """Decide whether a valid full tiling exists by a cell-by-cell frontier sweep.

    The frontier after a cell holds exactly what the remaining cells can see:
    the exposed south colors across the width plus the pending east color.
    Equal frontiers are merged, with parent links kept for witness
    reconstruction.  INFEASIBLE is a proof; CAPPED means the stored-state
    budget ran out before an answer.

    ``bcs`` may hold the per-cell conditions (``ForceTile``, ``ForbidTile``,
    ``ForceEdgeColor``, ``ForbidEdgeColor``) and ``PeriodicFixed``, which
    asks for a tiling of the height x width torus: opposite boundaries carry
    equal colors.  Any other extension raises ConfigurationError.
    """
    if cap <= 0:
        raise ConfigurationError("state cap must be positive")
    try:
        best, _, witnesses, stored = _frontier(ts, height, width, cap, bcs)
    except BudgetExceededError:
        return SolveResult(CAPPED, stats={"states": cap + 1})
    if best is None:
        return SolveResult(INFEASIBLE, stats={"states": stored})
    return SolveResult(VALID, witnesses[0], stats={"states": stored})


def count_torus(ts: TileSet, height: int, width: int,
                witness_cap: int = 100) -> tuple[int, list[Tiling]]:
    """Count labeled tilings of the (height, width) torus; collect witnesses.

    Raises BudgetExceededError past ``DEFAULT_STATE_CAP`` stored states.
    """
    _, ways, witnesses, _ = _frontier(ts, height, width, DEFAULT_STATE_CAP,
                                      [PeriodicFixed()], limit=witness_cap)
    return ways, witnesses


def smallest_torus(ts: TileSet, max_area: int,
                   witness_cap: int = 100) -> TorusResult | None:
    """Search (height, width) shapes by area, then by height, for the
    smallest periodic rectangle; counts every labeled solution of that area.
    """
    if max_area < 1:
        raise ConfigurationError("max_area must be >= 1")
    for area in range(1, max_area + 1):
        dim_counts = []
        witnesses: list[Tiling] = []
        first_dims = None
        total = 0
        for h in range(1, area + 1):
            if area % h:
                continue
            w = area // h
            count, wit = count_torus(ts, h, w, witness_cap)
            if count:
                dim_counts.append(((h, w), count))
                total += count
                witnesses.extend(wit[: max(0, witness_cap - len(witnesses))])
                if first_dims is None:
                    first_dims = (h, w)
        if total:
            return TorusResult(area, first_dims, total, tuple(witnesses),
                               tuple(dim_counts))
    return None


def pack_tiles(ts: TileSet, height: int, width: int, periodic: bool = False,
               deadline: float | None = None,
               most_constrained: bool = False) -> SolveResult:
    """Place every tile of the set exactly once on the grid.

    Backtracking with forward checking; cells are filled row-major (or by a
    fewest-candidates-first override), tiles tried in ascending id.  With
    ``periodic`` the opposite boundaries must carry equal colors.  ``deadline``
    is a wall-clock budget in seconds; hitting it returns CAPPED.
    """
    if height < 1 or width < 1:
        raise ConfigurationError("grid dimensions must be positive")
    check_extension(Packing(), ts, height, width)
    norths, wests, souths, easts = ts.norths, ts.wests, ts.souths, ts.easts
    # ascending tile ids by the (west, north) colors they fit; None fits any
    pools: dict[tuple, list[int]] = {}
    for k in range(len(ts)):
        for key in product((wests[k], None), (norths[k], None)):
            pools.setdefault(key, []).append(k)

    grid = [[VOID] * width for _ in range(height)]
    used = [False] * len(ts)
    t0 = time.monotonic()
    nodes = 0

    def facing(a: int, b: int, side: tuple[int, ...]) -> int | None:
        """The ``side`` color of the tile at (a, b), wrapping round a periodic
        grid; None for an empty cell or one off the grid."""
        if periodic:
            a, b = a % height, b % width
        elif not (0 <= a < height and 0 <= b < width):
            return None
        k = grid[a][b]
        return None if k == VOID else side[k]

    def candidates(i: int, j: int) -> list[int]:
        w_req, n_req = facing(i, j - 1, easts), facing(i - 1, j, souths)
        s_req, e_req = facing(i + 1, j, norths), facing(i, j + 1, wests)
        return [k for k in pools.get((w_req, n_req), ())
                if not used[k]
                and (s_req is None or souths[k] == s_req)
                and (e_req is None or easts[k] == e_req)]

    order = [(i, j) for i in range(height) for j in range(width)]

    def next_cell(filled: int):
        if not most_constrained:
            return order[filled], None
        best = None
        best_cands = None
        for (i, j) in order:
            if grid[i][j] != VOID:
                continue
            cands = candidates(i, j)
            if best_cands is None or len(cands) < len(best_cands):
                best, best_cands = (i, j), cands
                if not cands:
                    break
        return best, best_cands

    frames: list[list] = []  # per filled cell: [i, j, candidates, next index]
    status = VALID
    while len(frames) < height * width:
        nodes += 1
        if (deadline is not None and nodes % 1024 == 0
                and time.monotonic() - t0 > deadline):
            status = CAPPED
            break
        (i, j), cands = next_cell(len(frames))
        frames.append([i, j, candidates(i, j) if cands is None else cands, 0])
        while frames:  # place the next untried candidate, backtracking as needed
            i, j, cands, nxt = frame = frames[-1]
            if nxt:
                used[cands[nxt - 1]] = False
            if nxt < len(cands):
                grid[i][j] = cands[nxt]
                used[cands[nxt]] = True
                frame[3] += 1
                break
            grid[i][j] = VOID
            frames.pop()
        else:
            status = INFEASIBLE
            break

    stats = {"nodes": nodes, "seconds": time.monotonic() - t0}
    if status == VALID:
        return SolveResult(VALID, Tiling(np.array(grid, dtype=np.int32)), stats)
    return SolveResult(status, stats=stats)


def max_cover_oracle(ts: TileSet, height: int, width: int,
                     budget_states: int = 2_000_000) -> tuple[int, Tiling]:
    """Exact maximum cover by a frontier sweep over cells in {tiles, VOID}.

    Equal frontiers (the exposed colors of the last ``width`` cells) are
    merged, each keeping the most tiles placed so far, which keeps the search
    exhaustive while storing each distinct frontier once.  Raises
    BudgetExceededError if the sweep would store more than ``budget_states``
    frontiers rather than returning a guess.
    """
    best, _, witnesses, _ = _frontier(ts, height, width, budget_states,
                                      void=True)
    return best, witnesses[0]
