"""Shared helpers for the test suite: random instance generation and small
independent brute-force oracles kept deliberately separate from the package
implementations they check."""

from __future__ import annotations

import itertools
import random
from itertools import compress

import numpy as np

from wangtiler import CAPPED, VALID, Tile, TileSet, VOID, solve_decision


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


def de_bruijn(n: int) -> list[int]:
    """The cyclic de Bruijn sequence of order 2 over n symbols: each pair
    (a, b) is (B[i], B[i+1]) for exactly one i, indices taken mod n*n.  It
    is the Lyndon words of length 1 and 2, in lexicographic order, joined:
    [0, 0, 1, 1] for n = 2."""
    return [c for a in range(n) for word in ([a], *([a, b] for b in range(a + 1, n)))
            for c in word]


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


def reference_shortest_row(dag) -> tuple[list[int], float]:
    """The row DP of ``heuristics.shortest_row`` over every tile edge of
    ``dag.columns``, the paper's graph, with no edge folded: per column,
    each edge into color e offers its west's distance plus its units, plus
    the tile's rank; the void offers the least distance plus the void's
    units, plus ``len(order)``; the least key wins.  It returns what
    ``shortest_row`` returns."""
    R = dag.radix
    void = 2 * (dag.width + 1) * R + R - 1
    keys = [0] * dag.num_colors
    layers = [keys]
    for edges in dag.columns:
        low = min(keys)
        best = [low - low % R + void] * dag.num_colors
        for w, e, units, k in edges:
            key = keys[w] - keys[w] % R + units + dag.rank[k]
            best[e] = min(best[e], key)
        keys = best
        layers.append(keys)

    def lowest(keys):
        dist = [key - key % R for key in keys]
        return dist.index(min(dist))
    c = lowest(keys)
    row = []
    for j in range(dag.width, 0, -1):
        r = layers[j][c] % R
        if r == R - 1:
            row.append(VOID)
            c = lowest(layers[j - 1])
        else:
            k = dag.order[r]
            row.append(k)
            c = dag.wests[k]
    return row[::-1], min(keys) // R / (2 * (dag.width + 1))


def naive_max_csp(ts: TileSet, h: int, w: int) -> int:
    """Plain enumeration over all full assignments: the most shared edges
    whose two sides match."""
    n, we, s, e = ts.norths, ts.wests, ts.souths, ts.easts
    pairs = ([(idx, idx + 1, e, we) for idx in range(h * w) if (idx + 1) % w]
             + [(idx, idx + w, s, n) for idx in range(h * w - w)])
    return max(sum(a[assign[x]] == b[assign[y]] for x, y, a, b in pairs)
               for assign in itertools.product(range(len(ts)), repeat=h * w))


def rect_staircase(ts: TileSet, h: int, w: int) -> list[int]:
    """For a = 1..h, the widest b <= w for which ``solve_decision(ts, a, b)``
    is VALID, 0 for none.  A sub-rectangle of a tiling is a tiling, so b
    never grows as a grows, and one walk down the staircase takes at most
    h + w decisions.  A CAPPED decision raises AssertionError."""
    widths, b = [], w
    for a in range(1, h + 1):
        while b:
            status = solve_decision(ts, a, b).status
            assert status != CAPPED, (a, b)
            if status == VALID:
                break
            b -= 1
        widths.append(b)
    return widths


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


def reference_grid_sweep(ts: TileSet, height: int, width: int, mask, cap: int,
                         slack: int):
    """The rectangle frontier sweep of ``exact._grid_sweep`` on tuple states
    in an insertion-ordered dict, returning what it returns: (most placed
    or None, the witness cells, stored states, index of the last cell).

    A state is (pending east, south of column 0, ..., south of column w-1),
    None for an edge nothing will read again.  Each state tries the tiles in
    ascending id, then VOID when ``slack`` > 0; ``mask[i][j][k]`` (when
    given) allows tile k at (i, j), and VOID is always allowed.  A child
    with more than ``slack`` VOID cells so far is dropped.  A key keeps its
    first (parent, tile), with slack > 0 the first child with the most
    tiles placed, and the states stay in the order their keys first
    appear."""
    frontier = {(None,) * (width + 1): 0}  # state -> tiles placed
    layers: list[list[tuple[int, int]]] = []
    stored = 0
    for p in range(height * width):
        i, j = divmod(p, width)
        level: dict[tuple, tuple[int, int, int]] = {}  # state -> (placed, parent, tile)
        for idx, (state, placed) in enumerate(frontier.items()):
            west, north = state[0], state[1 + j]
            for k in [*range(len(ts)), *([VOID] if slack else [])]:
                if k == VOID:
                    east = south = None
                else:
                    if ((mask is not None and not mask[i][j][k])
                            or west not in (None, ts.wests[k])
                            or north not in (None, ts.norths[k])):
                        continue
                    east = ts.easts[k] if j < width - 1 else None
                    south = ts.souths[k] if i < height - 1 else None
                got = placed + (k != VOID)
                if p + 1 - got > slack:
                    continue
                key = (east, *state[1:1 + j], south, *state[2 + j:])
                if key not in level or got > level[key][0]:
                    level[key] = (got, idx, k)
        if not level:
            return None, None, stored, p
        stored += len(level)
        if stored > cap:
            return None, None, stored, p
        layers.append([(parent, k) for _, parent, k in level.values()])
        frontier = {key: got for key, (got, _, _) in level.items()}
    cells = np.empty(height * width, dtype=np.int32)
    idx = 0
    for p in range(height * width - 1, -1, -1):
        idx, cells[p] = layers[p][idx]
    return (next(iter(frontier.values())), cells.reshape(height, width), stored,
            height * width - 1)


def lp_row(m, r: int) -> tuple[str, dict[str, float], str, float]:
    """Row ``r`` of an ILP model, read from its CSR arrays: the row's name,
    ``{variable name: coefficient}``, sense and right-hand side."""
    con, names = m.constraints, m.variables.names
    a, b = con.indptr[r], con.indptr[r + 1]
    terms = {names[vi]: coef for vi, coef in
             zip(con.indices[a:b].tolist(), con.data[a:b].tolist())}
    return con.names[r], terms, str(con.senses[r]), float(con.rhs[r])


# -- the per-row LP formatter, kept as the reference for ilp.emit_lp -----------

def _fmt_num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def _fmt_terms(indices: np.ndarray, data: np.ndarray, names, plus, minus,
               constant: float = 0.0) -> list[str]:
    """Tokens like ['x_1_1_0', '+ 2 x_1_1_1', '- x_2_1_0', '+ 760'];
    ``plus[vi]`` and ``minus[vi]`` are '+ name' and '- name'."""
    toks = [plus[vi] if c == 1.0 else minus[vi] if c == -1.0
            else f"{'-' if c < 0 else '+'} {_fmt_num(abs(c))} {names[vi]}"
            for vi, c in zip(indices.tolist(), data.tolist())]
    if toks and toks[0][0] == "+":
        toks[0] = toks[0][2:]
    if constant or not toks:
        tok = _fmt_num(abs(constant))
        sign = "-" if constant < 0 else "+"
        toks.append(f"{sign} {tok}" if toks or constant < 0 else tok)
    return toks


def _wrap(prefix: str, toks: list[str], per_line: int = 10) -> list[str]:
    lines = []
    for start in range(0, len(toks), per_line):
        chunk = " ".join(toks[start:start + per_line])
        lines.append(f"{prefix}{chunk}" if start == 0 else f"   {chunk}")
    return lines


def reference_emit_lp(m) -> str:
    """The LP text of an ILP model, formatted a row at a time: the emitter
    ``ilp.emit_lp`` replaced, which it must match byte for byte."""
    var, con, obj = m.variables, m.constraints, m.objective
    names = var.names
    plus, minus = ([f"{sign} {name}" for name in names] for sign in "+-")
    out: list[str] = []
    out.append("Maximize" if obj.sense == "max" else "Minimize")
    toks = _fmt_terms(obj.indices, obj.data, names, plus, minus, obj.constant)
    out.extend(_wrap(" obj: ", toks))
    out.append("Subject To")
    ptr = con.indptr.tolist()
    for r, (name, sense, rhs) in enumerate(zip(con.names, con.senses.tolist(),
                                               con.rhs.tolist())):
        a, b = ptr[r], ptr[r + 1]
        toks = _fmt_terms(con.indices[a:b], con.data[a:b], names, plus, minus)
        toks += [sense, _fmt_num(rhs)]
        out.extend(_wrap(f" {name}: ", toks))
    bounded = np.flatnonzero(~var.binary).tolist()
    if bounded:
        out.append("Bounds")
        for vi in bounded:
            out.append(f" {_fmt_num(var.lower[vi])} <= {names[vi]} "
                       f"<= {_fmt_num(var.upper[vi])}")
    binaries = list(compress(names, var.binary.tolist()))
    if binaries:
        out.append("Binaries")
        for start in range(0, len(binaries), 8):
            out.append(" " + " ".join(binaries[start:start + 8]))
    out.append("End")
    return "\n".join(out) + "\n"
