"""Output checks that do not trust the program under test.

Every check here recomputes what it needs with numpy, with HiGHS
(``scipy.optimize.milp``) or with a transfer-matrix count written for the
benchmark, or tests a property the method must have.  Nothing is compared
with a stored copy of an earlier output.  Each checker returns ``None`` when
the output passes and a one-line reason when it does not.

Tile sets are passed as ``quads``: an ``(n, 4)`` int array of
``(north, west, south, east)`` colors, tile id = row index.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix

VOID = -1


def quads_of(ts) -> np.ndarray:
    return np.array([t.as_tuple() for t in ts.tiles], dtype=np.int64)


# -- tilings ------------------------------------------------------------------

def mismatches(quads: np.ndarray, cells: np.ndarray, torus: bool = False) -> int:
    """Adjacent placed pairs whose shared edge colors differ (VOID matches all).

    With ``torus`` the last column also meets the first and the last row the
    first.
    """
    cells = np.asarray(cells)
    placed = cells != VOID
    k = np.where(placed, cells, 0)
    n, w, s, e = (quads[:, c][k] for c in range(4))
    if torus:
        right, below = np.roll(np.arange(cells.shape[1]), -1), np.roll(np.arange(cells.shape[0]), -1)
        hor = placed & placed[:, right] & (e != w[:, right])
        ver = placed & placed[below, :] & (s != n[below, :])
        return int(hor.sum() + ver.sum())
    hor = placed[:, :-1] & placed[:, 1:] & (e[:, :-1] != w[:, 1:])
    ver = placed[:-1, :] & placed[1:, :] & (s[:-1, :] != n[1:, :])
    return int(hor.sum() + ver.sum())


def matched_edges(quads: np.ndarray, cells: np.ndarray) -> int:
    """Adjacent pairs, both placed, whose shared edge colors agree."""
    cells = np.asarray(cells)
    placed = cells != VOID
    k = np.where(placed, cells, 0)
    n, w, s, e = (quads[:, c][k] for c in range(4))
    hor = placed[:, :-1] & placed[:, 1:] & (e[:, :-1] == w[:, 1:])
    ver = placed[:-1, :] & placed[1:, :] & (s[:-1, :] == n[1:, :])
    return int(hor.sum() + ver.sum())


def tiling_problem(quads: np.ndarray, cells, shape: tuple[int, int],
                   full: bool = False, torus: bool = False) -> str | None:
    """Shape, tile-id range, fullness and edge matching of one tiling."""
    cells = np.asarray(cells)
    if cells.shape != tuple(shape):
        return f"shape {cells.shape} != {tuple(shape)}"
    if cells.size and (cells.min() < VOID or cells.max() >= len(quads)):
        return "tile id out of range"
    if full and (cells == VOID).any():
        return "tiling is not full"
    bad = mismatches(quads, cells, torus)
    return f"{bad} mismatched edges" if bad else None


# -- HiGHS models -------------------------------------------------------------

def _milp(quads: np.ndarray, h: int, w: int, cover: bool,
          allowed: np.ndarray | None = None, time_limit: float = 120.0):
    """Decision (``cover=False``) or maximum-cover model solved by HiGHS.

    Variables x[i, j, k] place tile k at row i, column j.  Decision: one tile
    per cell and equal colors on every shared edge.  Cover: at most one tile
    per cell, and a placed east (south) color l forbids every neighbor tile
    whose west (north) color is not l.  ``allowed[i, j, k]`` False fixes
    x[i, j, k] to 0.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    nt = len(quads)
    ncol = int(quads.max()) + 1
    nv = h * w * nt
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    lo: list[float] = []
    hi: list[float] = []

    def add(cells_cols: list[np.ndarray], coefs: list[float], a: float, b: float):
        r = len(lo)
        for cc, cf in zip(cells_cols, coefs):
            rows.append(np.full(len(cc), r))
            cols.append(cc)
            vals.append(np.full(len(cc), cf, dtype=float))
        lo.append(a)
        hi.append(b)

    def var(i, j, ks):
        return (i * w + j) * nt + np.asarray(ks, dtype=np.int64)

    every = np.arange(nt)
    n_, w_, s_, e_ = (quads[:, c] for c in range(4))
    for i in range(h):
        for j in range(w):
            add([var(i, j, every)], [1.0], 0.0 if cover else 1.0, 1.0)
    pairs = [((i, j), (i, j + 1), e_, w_) for i in range(h) for j in range(w - 1)]
    pairs += [((i, j), (i + 1, j), s_, n_) for i in range(h - 1) for j in range(w)]
    for (a, b, out_c, in_c) in pairs:
        for col in range(ncol):
            if cover:
                add([var(*a, np.flatnonzero(out_c == col)),
                     var(*b, np.flatnonzero(in_c != col))], [1.0, 1.0], -np.inf, 1.0)
            else:
                add([var(*a, np.flatnonzero(out_c == col)),
                     var(*b, np.flatnonzero(in_c == col))], [1.0, -1.0], 0.0, 0.0)
    A = coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                   shape=(len(lo), nv)).tocsr()
    upper = np.ones(nv) if allowed is None else np.asarray(allowed, dtype=float).reshape(nv)
    c = -np.ones(nv) if cover else np.zeros(nv)
    return milp(c, constraints=LinearConstraint(A, lo, hi), integrality=np.ones(nv),
                bounds=Bounds(np.zeros(nv), upper),
                options={"time_limit": time_limit})


def highs_decision(quads: np.ndarray, h: int, w: int,
                   allowed: np.ndarray | None = None) -> bool:
    """True if HiGHS finds a full valid tiling, False if it proves none exists."""
    res = _milp(quads, h, w, cover=False, allowed=allowed)
    if res.status == 0:
        return True
    if res.status == 2:
        return False
    raise RuntimeError(f"HiGHS gave no answer: {res.message}")


def highs_max_cover(quads: np.ndarray, h: int, w: int) -> int:
    """Optimum of the maximum-cover model, proven by HiGHS."""
    res = _milp(quads, h, w, cover=True)
    if res.status != 0:
        raise RuntimeError(f"HiGHS gave no optimum: {res.message}")
    return int(round(-res.fun))


# -- torus counts by transfer matrix ------------------------------------------

def torus_count(quads: np.ndarray, h: int, w: int) -> int:
    """Labeled tilings of the h x w torus, as the trace of M**h (int64).

    M[p, q] counts the cyclic rows of width w (east of the last tile equal to
    west of the first) with north profile p and south profile q.
    """
    by_west: dict[int, list[int]] = {}
    for k, (_, west, _, _) in enumerate(quads.tolist()):
        by_west.setdefault(west, []).append(k)
    east = quads[:, 3].tolist()
    partial = [(k,) for k in range(len(quads))]
    for _ in range(w - 1):
        partial = [r + (k,) for r in partial for k in by_west.get(east[r[-1]], ())]
    rows = [r for r in partial if east[r[-1]] == quads[r[0], 1]]
    if not rows:
        return 0
    north, south = quads[:, 0].tolist(), quads[:, 2].tolist()
    index: dict[tuple[int, ...], int] = {}
    edges = []
    for r in rows:
        p = index.setdefault(tuple(north[k] for k in r), len(index))
        q = index.setdefault(tuple(south[k] for k in r), len(index))
        edges.append((p, q))
    p, q = np.array(edges).T
    m = csr_matrix((np.ones(len(edges), dtype=np.int64), (p, q)), shape=(len(index),) * 2)
    power = m
    for _ in range(h - 1):
        power = power @ m
    return int(power.diagonal().sum())


# -- checkers for each operation ----------------------------------------------

def check_cover(quads: np.ndarray, run, h: int, w: int, complete: bool) -> str | None:
    """A cover run: valid with voids, full on complete sets, and at least the
    share of the grid its proven bound promises."""
    cells = np.asarray(run.tiling.cells)
    bad = tiling_problem(quads, cells, (h, w))
    if bad:
        return bad
    placed = int((cells != VOID).sum())
    if run.placed != placed:
        return f"placed says {run.placed}, tiling holds {placed}"
    if complete and placed != h * w:
        return f"complete set covered {placed} of {h * w}"
    if run.bound is not None and placed < Fraction(run.bound) * h * w:
        return f"{placed} placed is below the {run.bound} bound"
    return None


def check_decision(quads: np.ndarray, res, h: int, w: int,
                   allowed: np.ndarray, highs=highs_decision) -> str | None:
    """VALID needs a full, condition-honouring witness; INFEASIBLE needs HiGHS
    to prove the decision model infeasible too."""
    if res.status == "VALID":
        if res.witness is None:
            return "VALID without a witness"
        cells = np.asarray(res.witness.cells)
        bad = tiling_problem(quads, cells, (h, w), full=True)
        if bad:
            return bad
        ii, jj = np.indices((h, w))
        if not allowed[ii, jj, cells].all():
            return "witness breaks a per-cell condition"
        return None
    if res.status == "INFEASIBLE":
        return "HiGHS tiles an instance called INFEASIBLE" if highs(quads, h, w, allowed) else None
    return f"status {res.status}"


def check_torus_count(quads: np.ndarray, result, h: int, w: int,
                      expected: int) -> str | None:
    """count_torus: the independent count, and valid distinct witnesses."""
    count, witnesses = result
    if count != expected:
        return f"count {count} != {expected}"
    seen = set()
    for t in witnesses:
        bad = tiling_problem(quads, t.cells, (h, w), full=True, torus=True)
        if bad:
            return "witness: " + bad
        seen.add(np.asarray(t.cells).tobytes())
    if len(seen) != len(witnesses) or len(witnesses) > count:
        return "witnesses are not distinct tilings"
    return None


def smallest_torus_reference(quads: np.ndarray, max_area: int):
    """(area, ((h, w), count) per shape with tilings) of the smallest torus."""
    for area in range(1, max_area + 1):
        shapes = [((h, area // h), torus_count(quads, h, area // h))
                  for h in range(1, area + 1) if area % h == 0]
        shapes = [(d, c) for d, c in shapes if c]
        if shapes:
            return area, tuple(shapes)
    return None


def check_smallest_torus(quads: np.ndarray, res, reference) -> str | None:
    if reference is None:
        return None if res is None else "torus found where none exists"
    if res is None:
        return "no torus found"
    area, dim_counts = reference
    if res.min_area != area:
        return f"min_area {res.min_area} != {area}"
    if tuple(res.dim_counts) != dim_counts:
        return f"dim_counts {res.dim_counts} != {dim_counts}"
    if res.dims != dim_counts[0][0] or res.count != sum(c for _, c in dim_counts):
        return "dims or count disagree with dim_counts"
    for t in res.witnesses:
        cells = np.asarray(t.cells)
        if cells.size != area:
            return "witness of the wrong area"
        bad = tiling_problem(quads, cells, cells.shape, full=True, torus=True)
        if bad:
            return "witness: " + bad
    return None


def check_pack(quads: np.ndarray, res, h: int, w: int, periodic: bool) -> str | None:
    if res.status != "VALID" or res.witness is None:
        return f"status {res.status}"
    cells = np.asarray(res.witness.cells)
    bad = tiling_problem(quads, cells, (h, w), full=True, torus=periodic)
    if bad:
        return bad
    if not np.array_equal(np.sort(cells, axis=None), np.arange(len(quads))):
        return "tiles are not used exactly once"
    return None


def check_oracle(quads: np.ndarray, result, h: int, w: int, optimum: int) -> str | None:
    best, witness = result
    cells = np.asarray(witness.cells)
    bad = tiling_problem(quads, cells, (h, w))
    if bad:
        return bad
    placed = int((cells != VOID).sum())
    if placed != best:
        return f"witness places {placed}, count says {best}"
    if best != optimum:
        return f"count {best} != HiGHS optimum {optimum}"
    return None


def check_ilp(built, parsed, text: str, text_again: str, evaluation,
              expect_feasible: bool, expect_objective: float | None) -> str | None:
    """emit -> parse -> emit is byte-stable, the parsed model has the built
    model's size, and the known tiling evaluates as predicted."""
    if text != text_again:
        return "emit -> parse -> emit is not byte-stable"
    size = (len(built.variables), len(built.constraints),
            sum(len(c.terms) for c in built.constraints))
    size_again = (len(parsed.variables), len(parsed.constraints),
                  sum(len(c.terms) for c in parsed.constraints))
    if size != size_again:
        return f"parsed size {size_again} != built size {size}"
    if evaluation.feasible != expect_feasible:
        return f"feasible={evaluation.feasible}, expected {expect_feasible}"
    if expect_objective is not None and abs(evaluation.objective - expect_objective) > 1e-6:
        return f"objective {evaluation.objective} != {expect_objective}"
    return None
