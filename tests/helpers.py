"""Shared helpers for the test suite: random instance generation and small
independent brute-force oracles kept deliberately separate from the package
implementations they check."""

from __future__ import annotations

import itertools
import random

import numpy as np

from wangtiler import Tile, TileSet, VOID


def random_tileset(rng: random.Random, max_colors: int = 3,
                   max_tiles: int = 6) -> TileSet:
    nc = rng.randint(1, max_colors)
    nt = rng.randint(1, min(max_tiles, nc ** 4))
    quads = set()
    while len(quads) < nt:
        quads.add(tuple(rng.randrange(nc) for _ in range(4)))
    return TileSet([Tile(*q) for q in sorted(quads)], num_colors=nc)


#: Every grid of area at most 6, the shapes the packing checks run on.
PACK_SHAPES = tuple((h, w) for h in range(1, 7) for w in range(1, 7) if h * w <= 6)


def random_packing_set(rng: random.Random, size: int) -> TileSet:
    """``size`` distinct random tiles over 2 or 3 colours, enough to pack a
    grid of that area."""
    nc = rng.randint(2, 3)
    quads = set()
    while len(quads) < size:
        quads.add(tuple(rng.randrange(nc) for _ in range(4)))
    return TileSet([Tile(*q) for q in sorted(quads)], num_colors=nc)


def naive_packing_exists(ts: TileSet, h: int, w: int, periodic: bool) -> bool:
    """Whether some arrangement of every tile once has all its shared edges
    matching; on a torus each arrangement is checked tiled 2x2, which covers
    its wrap-around edges."""
    perms = np.array(list(itertools.permutations(range(len(ts))))).reshape(-1, h, w)
    grids = np.tile(perms, (1, 2, 2)) if periodic else perms
    n, we, s, e = (np.array(side)[grids] for side in
                   (ts.norths, ts.wests, ts.souths, ts.easts))
    fits = ((e[:, :, :-1] == we[:, :, 1:]).all(axis=(1, 2))
            & (s[:, :-1] == n[:, 1:]).all(axis=(1, 2)))
    return bool(fits.any())


def naive_max_cover(ts: TileSet, h: int, w: int) -> int:
    """Plain enumeration over all (tiles+VOID)^(h*w) assignments."""
    n, we, s, e = ts.norths, ts.wests, ts.souths, ts.easts
    best = 0
    for assign in itertools.product(range(-1, len(ts)), repeat=h * w):
        ok = True
        placed = 0
        for idx, k in enumerate(assign):
            if k == VOID:
                continue
            placed += 1
            i, j = divmod(idx, w)
            if j + 1 < w:
                r = assign[idx + 1]
                if r != VOID and e[k] != we[r]:
                    ok = False
                    break
            if i + 1 < h:
                b = assign[idx + w]
                if b != VOID and s[k] != n[b]:
                    ok = False
                    break
        if ok and placed > best:
            best = placed
    return best


def naive_row_min_voids(ts: TileSet, width: int) -> int:
    """Row-only brute force: fewest voids over all horizontally valid rows."""
    we, e = ts.wests, ts.easts
    best = width
    for assign in itertools.product(range(-1, len(ts)), repeat=width):
        ok = True
        for j in range(width - 1):
            a, b = assign[j], assign[j + 1]
            if a != VOID and b != VOID and e[a] != we[b]:
                ok = False
                break
        if ok:
            best = min(best, sum(1 for k in assign if k == VOID))
    return best


def naive_row_min_cost(ts: TileSet, width: int, north, south) -> tuple[int, int]:
    """Row-only brute force under per-column side vectors: the least
    (voids, penalty units) over all horizontally valid rows, where a tile in
    column j pays ``north[j][its north] + south[j][its south]`` units and is
    not allowed where that is infinite."""
    n, we, s, e = ts.norths, ts.wests, ts.souths, ts.easts
    best = None
    for assign in itertools.product(range(-1, len(ts)), repeat=width):
        voids = units = 0
        ok = True
        for j, k in enumerate(assign):
            if k == VOID:
                voids += 1
                continue
            pay = north[j][n[k]] + south[j][s[k]]
            nxt = assign[j + 1] if j + 1 < width else VOID
            if pay == float("inf") or (nxt != VOID and e[k] != we[nxt]):
                ok = False
                break
            units += pay
        if ok and (best is None or (voids, units) < best):
            best = (voids, units)
    return best


def insertion_order_row(ts: TileSet, width: int, north, south,
                        order: list[int]) -> list[int]:
    """The row DP with the tie-break stated as a visiting order: per column,
    tiles are tried in ``order`` and replace a color's best only when
    strictly cheaper; the void route (from the first color of least
    distance) replaces it only when strictly cheaper; the row ends in the
    first color of least distance.  Costs in units: 1 per miss, 2(width+1)
    per void."""
    void = 2 * (width + 1)
    dist = [0] * ts.num_colors
    parents = []
    for j in range(width):
        best = [None] * ts.num_colors
        for k in order:
            pay = north[j][ts.norths[k]] + south[j][ts.souths[k]]
            if pay == float("inf"):
                continue
            d = dist[ts.wests[k]] + pay
            e = ts.easts[k]
            if best[e] is None or d < best[e][0]:
                best[e] = (d, k, ts.wests[k])
        low = min(dist)
        for c in range(ts.num_colors):
            if best[c] is None or low + void < best[c][0]:
                best[c] = (low + void, VOID, dist.index(low))
        dist = [b[0] for b in best]
        parents.append(best)
    c = dist.index(min(dist))
    row = []
    for best in reversed(parents):
        _, k, c = best[c]
        row.append(k)
    return row[::-1]


def naive_full_tiling_exists(ts: TileSet, h: int, w: int) -> bool:
    """Plain enumeration over all full assignments."""
    n, we, s, e = ts.norths, ts.wests, ts.souths, ts.easts
    for assign in itertools.product(range(len(ts)), repeat=h * w):
        ok = True
        for idx, k in enumerate(assign):
            i, j = divmod(idx, w)
            if j + 1 < w and e[k] != we[assign[idx + 1]]:
                ok = False
                break
            if i + 1 < h and s[k] != n[assign[idx + w]]:
                ok = False
                break
        if ok:
            return True
    return False


def naive_torus_tilings(ts: TileSet, h: int, w: int) -> list[tuple[int, ...]]:
    """Plain enumeration of the row-major assignments that tile the h x w
    torus, where the last row meets the first and the last column the first."""
    n, we, s, e = ts.norths, ts.wests, ts.souths, ts.easts
    found = []
    for assign in itertools.product(range(len(ts)), repeat=h * w):
        if all(e[k] == we[assign[i * w + (j + 1) % w]]
               and s[k] == n[assign[(i + 1) % h * w + j]]
               for (i, j), k in zip(itertools.product(range(h), range(w)), assign)):
            found.append(assign)
    return found


def lp_row(m, r: int) -> tuple[str, dict[str, float], str, float]:
    """Row ``r`` of an ILP model, read from its CSR arrays: the row's name,
    ``{variable name: coefficient}``, sense and right-hand side."""
    con, names = m.constraints, m.variables.names
    a, b = con.indptr[r], con.indptr[r + 1]
    terms = {names[vi]: coef for vi, coef in
             zip(con.indices[a:b].tolist(), con.data[a:b].tolist())}
    return con.names[r], terms, str(con.senses[r]), float(con.rhs[r])
