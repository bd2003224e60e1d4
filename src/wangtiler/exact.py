"""Desk-scale exact solvers.

All solvers here give provable answers or an honest CAPPED status; none of
them guesses.  The decision solver, the torus counter and the max-cover
oracle sweep a frontier, the transfer-matrix method applied cell by cell:
the only information a partial tiling exposes to its unfilled remainder is
the coloring of its boundary, so partial tilings with equal boundaries merge
into one state.  Each sweep gives one witness: a state keeps its first
(parent, tile), stored per layer as ``(parents, tiles)``, and one walk back
from the last state reads the tiling.  A rectangle (decision, max-cover
oracle) is swept in numpy, each state one int64 in mixed radix colors + 1:
about 16 bytes per stored state with its parent link, against about 230 for
a tuple key with a list value.  Equal keys merge by one in-place sort per
cell of one int64 word per child, the key above the child's deficit (for
the oracle, how many fewer tiles it placed than the most) above its index:
each group of equal keys then starts with its kept child (the first with
the most tiles placed), so the states come out in key order.  Keys of 62
bits or more run on Python ints; they, and int64 keys too wide to share a
word with the index, merge as their dense rank among the cell's keys, which
keeps their order.  One ``slack`` integer sets how many VOID cells a
rectangle's partial covers may hold: 0 for the decision sweep, which places
a tile in every cell, and s > 0 for a max-cover pass, which drops a child
with more than s voids before the merge.  The oracle runs passes from
s = 0, and the first that ends with a cover answers: a cover with more
tiles has fewer voids, so every prefix of an optimal cover survives any
pass that the optimum's voids fit, and no pass can end with more tiles
than the optimum.  A pass that dies in row r proves that any r whole rows
need more than s voids, so the next pass starts at max(1, 2s,
⌊H/r⌋(s + 1)), H the swept height.  The torus (``count_torus``,
``smallest_torus``, ``PeriodicFixed``) stays on tuple keys in a dict, which
is faster on the one-to-six-cell shapes ``smallest_torus`` tries; a torus
state also counts the ways to reach it.  Per-cell conditions reach both
sweeps as one (cell, tile) mask built from ``extensions.cell_rule``.
Packing is a backtracking search, because its use-every-tile-once rule has
no small frontier.  Each empty cell keeps the key of its pool, the tiles
that fit what its neighbours ask for, updated when a neighbour is filled or
emptied, so a node costs one pool lookup per cell that changed; the next
cell is the first argmin of the pools' free counts read through those keys.
A cell of a one-wide torus must match itself.
"""

from __future__ import annotations

import numbers
import time
from itertools import compress, product
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import BudgetExceededError, ConfigurationError, count, grid_dims
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
    at least one solution; ``dim_counts`` breaks the count down per shape,
    and ``witnesses`` holds one tiling per shape, in the same order.
    """

    min_area: int
    dims: tuple[int, int]
    count: int
    witnesses: tuple[Tiling, ...]
    dim_counts: tuple[tuple[tuple[int, int], int], ...]


#: Rectangle keys below this bound are int64; R**(width+1) at or past it
#: runs the same sweep on Python ints (``dtype=object``).
_KEY_LIMIT = 1 << 62
#: A cell merges by sorting one int64 word per child, the key above the
#: child's void deficit and index, which leaves the states in key order;
#: where the key's word would not fit in this many bits, the key's dense
#: rank takes its place, as Python ints do.
_WORD_BITS = 63


def _grid_sweep(ts: TileSet, height: int, width: int, mask: np.ndarray | None,
                cap: int, slack: int):
    """Fill the rectangle cell by cell, row-major, merging equal frontiers.

    A state is one integer in mixed radix R = colors + 1, whose digit R - 1
    stands for an edge nothing will read again, or the edge of a VOID cell.
    Its leading digit is the pending east color, then come the exposed
    south colors, one per column, rotated so that the current cell's column
    comes first: the (west, north) request is ``state // R**(w-1)``, and
    placing a tile gives ``east * R**w + (state % R**(w-1)) * R + south``.
    The last layer holds at most one state.

    ``slack`` is the number of VOID cells a partial cover may hold.  With
    slack 0 every cell holds a tile, the decision sweep; with slack > 0 a
    cell may also stay VOID, and a child whose voids so far exceed
    ``slack`` is dropped before the merge.  Each cell expands every state
    at once through a table of the tiles that fit each request (ascending
    ids, then VOID with slack > 0), built once per sweep, keeps tile k only
    where ``mask[i, j, k]`` (every tile without a mask), and merges equal
    keys.  A key keeps its first child, with slack > 0 the first of those
    with the most tiles placed, and each layer holds its states in key
    order; a child's index follows its parent's state, then its tile.  The
    merge packs each child into one int64 word, the key above the deficit
    (most placed - placed, with slack > 0) above the child's index, and
    sorts the words in place: each group of equal keys then starts with its
    kept child (``_packed_merge``).  Keys of 62 bits or more are Python
    ints in object arrays; they, and int64 keys too wide to share a word
    with the index, are first replaced by their dense rank among the cell's
    keys.  The survivors' keys are recomputed from their parent and tile.
    A layer stores one int32 parent and one int32 tile per state, about 16
    bytes with the state itself.

    Returns (most placed or None if no state survives, the witness cells,
    stored states, index of the last cell swept); it stops at the first
    cell whose layer takes the stored count past ``cap``, or that no state
    survives.  With slack > 0 the most placed is the maximum cover among
    those with at most ``slack`` VOID cells.
    """
    radix = ts.num_colors + 1
    none = radix - 1
    head, tail = radix ** width, radix ** (width - 1)
    dtype = object if radix * head >= _KEY_LIMIT else np.int64
    # bits of a packed word above the child index: the key, then the deficit
    dbits = slack.bit_length()
    high_bits = (radix * head - 1).bit_length() + dbits
    west, north = np.divmod(np.arange(radix * radix), radix)
    fits = (((west[:, None] == none) | (west[:, None] == ts.wests))
            & ((north[:, None] == none) | (north[:, None] == ts.norths)))
    if slack:  # column len(ts) of the table is VOID, which fits every request
        fits = np.column_stack((fits, np.ones(len(fits), dtype=bool)))
    request, fit_cols = np.nonzero(fits)
    counts = np.bincount(request, minlength=len(fits))
    starts = np.cumsum(counts) - counts
    tile_of = np.arange(len(ts) + 1, dtype=np.int32)
    tile_of[-1] = VOID
    gain = (tile_of != VOID).astype(np.int32)
    easts, souths = np.append(ts.easts, none), np.append(ts.souths, none)
    states = np.array([radix * head - 1], dtype=dtype)
    placed = np.zeros(1, dtype=np.int32)
    layers: list[tuple[np.ndarray, np.ndarray]] = []
    stored = 0
    for p in range(height * width):
        i, j = divmod(p, width)
        east = easts if j < width - 1 else np.full_like(easts, none)
        south = souths if i < height - 1 else np.full_like(souths, none)
        part = east.astype(dtype) * head + south.astype(dtype)
        req = (states // tail).astype(np.intp)
        num = counts[req]
        parent = np.repeat(np.arange(len(states)), num)
        col = fit_cols[np.repeat(starts[req] - (np.cumsum(num) - num), num)
                       + np.arange(len(parent))]
        keep = None if mask is None else np.append(mask[i, j], True)[col]
        if slack:  # drop the children with more than slack voids
            got = placed[parent] + gain[col]
            fresh = got > p - slack
            keep = fresh if keep is None else keep & fresh
            got = got[keep]
        if keep is not None:
            parent, col = parent[keep], col[keep]
        if not len(col):
            return None, None, stored, p
        base = states % tail * radix
        keys = base[parent] + part[col]
        deficit = got.max() - got if slack else None
        if dtype is object or high_bits + (len(keys) - 1).bit_length() > _WORD_BITS:
            # merge the keys' dense rank instead: equal keys get equal
            # ranks, in the keys' order, and a rank is below n, so the word
            # takes 2 * shift + dbits bits, within 63 for up to
            # 2**((63 - dbits) // 2) children.  The keys are freed before the
            # ranks are allocated: as Python ints they take about 48 bytes a
            # child.
            order = np.argsort(keys)
            keys = keys[order]
            step = np.zeros(len(keys), dtype=np.int64)
            np.not_equal(keys[1:], keys[:-1], out=step[1:])
            del keys
            keys = np.empty_like(step)
            keys[order] = np.cumsum(step, out=step)
            del order, step
        out = _packed_merge(keys, deficit, dbits)
        del keys
        stored += len(out)
        if stored > cap:
            return None, None, stored, p
        parent, col = parent[out], col[out]
        states = base[parent] + part[col]
        if slack:
            placed = got[out]
        layers.append((parent.astype(np.int32), tile_of[col]))
    best = int(placed[0]) if slack else height * width
    return best, _walk_back(layers, height, width), stored, height * width - 1


def _packed_merge(words: np.ndarray, deficit: np.ndarray | None,
                  dbits: int) -> np.ndarray:
    """The kept child of each key, in key order.

    ``words`` (int64 keys, overwritten) becomes one word per child,
    ``key << (dbits + shift) | deficit << shift | index`` with ``shift``
    the bit length of n - 1, and is sorted in place.  Each group of equal
    keys then starts with its kept child: the first child, or with a
    ``deficit`` (most placed - placed) the first of the most placed.
    """
    n = len(words)
    shift = (n - 1).bit_length()
    words <<= dbits + shift
    if deficit is not None:
        words |= deficit.astype(np.int64) << shift
    words |= np.arange(n)
    words.sort()
    head = words >> (dbits + shift)
    head = np.concatenate(([True], head[1:] != head[:-1]))  # each key's first
    return words[head] & ((1 << shift) - 1)


def _walk_back(layers, height: int, width: int) -> np.ndarray:
    """The witness cells: from the last layer's one state, follow each
    state's first (parent, tile) back to the start.  A layer is a pair of
    sequences, the parent index and the tile of each state."""
    cells = np.empty(height * width, dtype=np.int32)
    idx = 0
    for p in range(height * width - 1, -1, -1):
        parents, tiles = layers[p]
        cells[p], idx = tiles[idx], parents[idx]
    return cells.reshape(height, width)


_NONE = -2  # an edge that is never read again


def _torus_sweep(ts: TileSet, height: int, width: int, mask: np.ndarray | None,
                 cap: int):
    """Fill the torus cell by cell, row-major, merging equal frontiers.

    A state is a flat tuple: a head, then one record per column, rotated so
    that the current cell's column comes first.  The head holds the pending
    east color and the row's first west color, and each record the exposed
    south color and the first row's north color of its column, which the
    row's last east color and the last row's south colors must match.
    Edges nothing will read again are stored as _NONE, so the last layer
    holds at most one state.  A state keeps the number of ways to reach it
    and its first (parent index, tile), stored per layer as ``(parents,
    tiles)`` in the order the states first occur, the layout of the
    rectangle sweep.  Cell (i, j) may hold tile k only where
    ``mask[i, j, k]`` (any tile without a mask).

    The torus stays on tuple keys in a dict, unlike the rectangle sweep:
    ``smallest_torus`` sweeps many shapes of one to six cells, where the
    fixed cost of a numpy layer outweighs what it saves.

    Returns (height * width, or None if no state survives, ways, the
    witness cells, stored states, index of the last cell swept); it stops
    at the first state stored past ``cap``.
    """
    norths, wests, souths, easts = ts.norths, ts.wests, ts.souths, ts.easts
    all_ids = list(range(len(ts)))
    cell_masks = None if mask is None else mask.reshape(height * width, -1).tolist()
    frontier, ways = [(_NONE,) * (2 * width + 2)], [1]
    layers: list[tuple[list[int], list[int]]] = []
    stored = 0
    for p in range(height * width):
        i, j = divmod(p, width)
        last_row, last_col = i == height - 1, j == width - 1
        allowed = (all_ids if cell_masks is None
                   else list(compress(all_ids, cell_masks[p])))

        def pool_for(req: tuple) -> list[tuple]:
            """(tile, head, record) for each tile fitting ``req``."""
            pool = []
            for k in allowed:
                if ((req[0] != _NONE and wests[k] != req[0])
                        or (req[2] != _NONE and norths[k] != req[2])):
                    continue
                first_w = wests[k] if j == 0 else req[1]
                first_n = norths[k] if i == 0 else req[3]
                if ((last_col and easts[k] != first_w)
                        or (last_row and souths[k] != first_n)):
                    continue
                pool.append((k, (_NONE, _NONE) if last_col else (easts[k], first_w),
                             (_NONE, _NONE) if last_row else (souths[k], first_n)))
            return pool

        pools: dict[tuple, list[tuple]] = {}
        level: dict[tuple, int] = {}  # state -> its index in the layer
        counts: list[int] = []
        parents: list[int] = []
        tiles: list[int] = []
        for idx, (state, n) in enumerate(zip(frontier, ways)):
            req = state[:4]
            pool = pools.get(req)
            if pool is None:
                pool = pools[req] = pool_for(req)
            rest = state[4:]
            for k, head, record in pool:
                key = head + rest + record
                at = level.get(key)
                if at is None:
                    stored += 1
                    if stored > cap:
                        return None, 0, None, stored, p
                    level[key] = len(counts)
                    counts.append(n)
                    parents.append(idx)
                    tiles.append(k)
                else:
                    counts[at] += n
        if not level:
            return None, 0, None, stored, p
        layers.append((parents, tiles))
        frontier, ways = level, counts
    return (height * width, ways[0], _walk_back(layers, height, width),
            stored, height * width - 1)


def _frontier(ts: TileSet, height: int, width: int, cap: int,
              exts: Iterable = (), slack: int = 0):
    """Sweep the instance in its narrower orientation.

    ``exts`` holds per-cell conditions, which mask the tiles a cell may
    hold, and ``PeriodicFixed``, which sweeps the torus, counting the ways;
    otherwise the rectangle is swept, with at most ``slack`` VOID cells.
    Returns (most placed or None, ways on a torus, the witness or None,
    stats).
    ``stats["states"]`` is the stored count; past ``cap`` the sweep stops,
    most placed is None and stats also names the 1-based "row" where the
    cap was crossed, or the "column" when a grid wider than tall was swept
    transposed.  A rectangle where no state survives names the row (or
    column) of the cell that killed the last state: the rows up to it have
    no tiling on their own.  A torus that dies names nothing.
    """
    height, width = grid_dims(height, width)
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
    if torus:
        best, ways, cells, stored, last = _torus_sweep(ts, height, width, mask, cap)
    else:
        ways = None
        best, cells, stored, last = _grid_sweep(ts, height, width, mask, cap, slack)
    stats = {"states": stored}
    if stored > cap or (best is None and not torus):
        stats["column" if transpose else "row"] = last // width + 1
    witness = None if cells is None else Tiling(cells.T if transpose else cells)
    return best, ways, witness, stats


def _check_bound(bound, name: str) -> None:
    """Refuse a state cap or budget that is not a number >= 1: a NaN would
    never be crossed, and None cannot be compared."""
    if not isinstance(bound, numbers.Real) or not bound >= 1:
        raise ConfigurationError(f"{name} must be positive: a number >= 1, "
                                 f"got {bound!r}")


def _check_budget(cap: int, stats: dict, sweep: str = "") -> None:
    """Raise BudgetExceededError, saying where, if a sweep went past ``cap``;
    ``sweep`` names the sweep after the place (" of the slack-0 pass")."""
    if stats["states"] > cap:
        where = " ".join(f"{k} {v}" for k, v in stats.items() if k != "states")
        raise BudgetExceededError(
            f"frontier sweep stored {stats['states']} states, past its budget "
            f"of {cap}, in {where}{sweep}")


def solve_decision(ts: TileSet, height: int, width: int, bcs: Iterable = (),
                   cap: int = DEFAULT_STATE_CAP) -> SolveResult:
    """Decide whether a valid full tiling exists by a cell-by-cell frontier sweep.

    The frontier after a cell holds exactly what the remaining cells can see:
    the exposed south colors across the width plus the pending east color.
    Equal frontiers are merged, with parent links kept for witness
    reconstruction.  INFEASIBLE is a proof; CAPPED means the stored-state
    budget ran out before an answer.  ``stats["states"]`` counts the stored
    states; a CAPPED result counts them up to the cell where the cap was
    crossed and names its 1-based "row" (or "column", for a grid wider than
    tall, which is swept transposed).  An INFEASIBLE rectangle names the
    row (or column) where no partial tiling survived, a certificate for
    free: that many top rows (left columns) alone have no tiling.  An
    INFEASIBLE torus names neither.

    ``bcs`` may hold the per-cell conditions (``ForceTile``, ``ForbidTile``,
    ``ForceEdgeColor``, ``ForbidEdgeColor``) and ``PeriodicFixed``, which
    asks for a tiling of the height x width torus: opposite boundaries carry
    equal colors.  Any other extension raises ConfigurationError, as do a
    ``cap`` that is not a number of at least 1 and grid dimensions that are
    not integers.
    """
    _check_bound(cap, "state cap")
    best, _, witness, stats = _frontier(ts, height, width, cap, bcs)
    if best is None:
        return SolveResult(CAPPED if stats["states"] > cap else INFEASIBLE,
                           stats=stats)
    return SolveResult(VALID, witness, stats=stats)


def count_torus(ts: TileSet, height: int, width: int) -> tuple[int, list[Tiling]]:
    """Count labeled tilings of the (height, width) torus, with one witness.

    Returns (count, [witness]), or (0, []) when the torus has no tiling.
    Raises BudgetExceededError past ``DEFAULT_STATE_CAP`` stored states.
    """
    _, ways, witness, stats = _frontier(ts, height, width, DEFAULT_STATE_CAP,
                                        [PeriodicFixed()])
    _check_budget(DEFAULT_STATE_CAP, stats)
    return ways, [] if witness is None else [witness]


def smallest_torus(ts: TileSet, max_area: int) -> TorusResult | None:
    """Search (height, width) shapes by area, then by height, for the
    smallest periodic rectangle; counts every labeled solution of that area
    and keeps one witness per shape that has one.
    """
    max_area = count(max_area, "max_area")
    for area in range(1, max_area + 1):
        solved = [(dims, ways, wits[0])
                  for h in range(1, area + 1) if area % h == 0
                  for dims in [(h, area // h)]
                  for ways, wits in [count_torus(ts, *dims)] if ways]
        if solved:
            dims, counts, wits = zip(*solved)
            return TorusResult(area, dims[0], sum(counts), wits,
                               tuple(zip(dims, counts)))
    return None


def pack_tiles(ts: TileSet, height: int, width: int, periodic: bool = False,
               deadline: float | None = None) -> SolveResult:
    """Place every tile of the set exactly once on the grid.

    Backtracking with forward checking; the next cell filled is the first
    empty one with the fewest candidates, tiles tried in ascending id.  With
    ``periodic`` the opposite boundaries must carry equal colors, so a cell
    of a one-wide torus must match itself.  A cell's candidates are the
    unused tiles of one pool, keyed by the colors its four neighbours ask
    for.  Each empty cell keeps its pool key, updated when it or a
    neighbour is filled or emptied: one pool lookup per cell that changed.
    The pools keep counts of their unused tiles, and the next cell is the
    first argmin of those counts read through the cells' keys, so a node
    costs about the same whatever the grid size.  ``deadline`` is a
    wall-clock budget in seconds, at least 0; hitting it returns CAPPED.
    """
    height, width = grid_dims(height, width)
    # NaN would never trip, and a string cannot be compared
    if not (deadline is None or isinstance(deadline, numbers.Real) and deadline >= 0):
        raise ConfigurationError(f"deadline must be >= 0 seconds, got {deadline}")
    check_extension(Packing(), ts, height, width)
    # ascending tile ids by the colors a cell's (west, north, south, east)
    # neighbours ask for; None asks for nothing
    by_key: dict[tuple, list[int]] = {}
    asks: list[tuple] = [()] * len(ts)  # the keys each tile is listed under
    for k, (w, n, s, e) in enumerate(zip(ts.wests, ts.norths, ts.souths, ts.easts)):
        if periodic and ((width == 1 and w != e) or (height == 1 and n != s)):
            continue  # the cell is its own neighbour across the wrap
        asks[k] = tuple(product((w, None), (n, None), (s, None), (e, None)))
        for key in asks[k]:
            by_key.setdefault(key, []).append(k)
    # each key numbered once, plus two: ``unasked``, which no tile answers,
    # and ``filled``, a filled cell's, which counts more free tiles than any
    # pool; ``free`` counts the unused tiles of each pool, and ``counted[k]``
    # numbers the pools tile k is in
    ids = {key: i for i, key in enumerate(by_key)}
    pools = [*by_key.values(), []]
    unasked, filled = len(by_key), len(by_key) + 1
    free = np.array([len(pool) for pool in pools] + [len(ts) + 1])
    counted = [np.array([ids[key] for key in keys], dtype=np.intp) for keys in asks]
    size = height * width

    def at(i: int, j: int) -> int:
        if periodic:
            return i % height * width + j % width
        return i * width + j if 0 <= i < height and 0 <= j < width else size

    # the (west, north, south, east) neighbours of each cell; off an open
    # grid they are cell ``size``, which stays VOID
    around = [(at(i, j - 1), at(i - 1, j), at(i + 1, j), at(i, j + 1))
              for i in range(height) for j in range(width)]
    # each cell and its distinct neighbours on the grid, the cells whose key
    # a placement there changes (on a narrow torus a neighbour can repeat, or
    # be the cell itself)
    near = [tuple({p, *around[p]} - {size}) for p in range(size)]
    # the color each neighbour shows the cell; a VOID id (-1) shows None
    easts, souths, norths, wests = (side + (None,) for side in
                                    (ts.easts, ts.souths, ts.norths, ts.wests))
    cells = [VOID] * (size + 1)
    used = [False] * len(ts)
    # each cell's key: ``filled``, or the pool its neighbours ask for
    keyof = np.full(size, ids.get((None,) * 4, unasked), dtype=np.intp)
    t0 = time.monotonic()
    nodes = 0
    frames: list[tuple] = []  # per filled cell: (cell, its untried candidates)
    status = VALID
    while len(frames) < size:
        nodes += 1
        if (deadline is not None and nodes % 1024 == 0
                and time.monotonic() - t0 > deadline):
            status = CAPPED
            break
        # the first empty cell with the fewest candidates
        p = int(free[keyof].argmin())
        frames.append((p, iter([k for k in pools[keyof[p]] if not used[k]])))
        while frames:  # place the next untried candidate, backtracking as needed
            p, untried = frames[-1]
            old, k = cells[p], next(untried, VOID)
            cells[p] = k
            if old != VOID:  # take back the tile tried last
                used[old] = False
                free[counted[old]] += 1
            if k != VOID:
                used[k] = True
                free[counted[k]] -= 1
            if k != old:  # the cell changed, and with it its empty neighbours' keys
                keyof[p] = filled
                for q in near[p]:
                    if cells[q] == VOID:
                        w, n, s, e = around[q]
                        keyof[q] = ids.get((easts[cells[w]], souths[cells[n]],
                                            norths[cells[s]], wests[cells[e]]), unasked)
            if k != VOID:
                break
            frames.pop()
        else:
            status = INFEASIBLE
            break

    stats = {"nodes": nodes, "seconds": time.monotonic() - t0}
    grid = np.reshape(cells[:size], (height, width))
    return SolveResult(status, Tiling(grid) if status == VALID else None, stats)


def max_cover_oracle(ts: TileSet, height: int, width: int,
                     budget_states: int = 2_000_000) -> tuple[int, Tiling]:
    """Exact maximum cover by frontier sweeps over cells in {tiles, VOID}.

    A void-budget descent: the pass with slack s keeps only the partial
    covers with at most s VOID cells, and the first pass that ends with a
    cover answers.  Its answer is the optimum: a cover with more tiles has
    fewer voids, so every prefix of it survives the same pass.  Slack 0 is
    the decision sweep.  A pass with slack s that dies in row r (its
    ``stats["row"]``, or ``"column"`` for a grid swept transposed) proves
    that any r whole rows need more than s voids, so the ⌊H/r⌋ disjoint
    bands of r rows need at least ⌊H/r⌋(s + 1), H being the swept height
    (the larger dimension); the next pass runs at
    max(1, 2s, ⌊H/r⌋(s + 1)).  A slack of h·w or more keeps every partial
    cover, so there are at most ⌈log2(h·w)⌉ + 2 passes.  Within a pass,
    equal frontiers (the exposed colors of the last ``width`` cells) are
    merged, each keeping the most tiles placed so far, which keeps the pass
    exhaustive while storing each distinct frontier once.

    ``budget_states`` bounds the frontiers stored by each pass, not their
    total, and must be a number of at least 1.  A pass that stores more raises
    BudgetExceededError, naming the stored count, the row (or column) where
    it crossed the budget, and the pass, rather than returning a guess.
    """
    _check_bound(budget_states, "state budget")
    height, width = grid_dims(height, width)
    swept = max(height, width)  # the height of the grid as _frontier sweeps it
    slack = 0
    while True:
        best, _, witness, stats = _frontier(ts, height, width, budget_states,
                                            slack=slack)
        _check_budget(budget_states, stats, f" of the slack-{slack} pass")
        if best is not None:
            return best, witness
        dead = stats.get("row") or stats["column"]
        slack = max(1, 2 * slack, swept // dead * (slack + 1))
