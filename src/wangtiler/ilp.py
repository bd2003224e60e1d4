"""Solver-agnostic binary linear models for bounded tiling, and their
deterministic LP-format emission.

Variable naming is part of the contract: tile placement variables are
``x_i_j_k`` (1-based row i, column j, 0-based tile id k); the adjacency
slack variables of the constraint-satisfaction variant are ``hv_i_j``
(east/west edge between columns j and j+1) and ``hh_i_j`` (south/north edge
between rows i and i+1).  Constraint names follow the ``v_i_j_l`` /
``h_i_j_l`` / ``occ_i_j`` scheme documented per formulation below.

Placements come first, row-major by cell, then tile id: ``x_i_j_k`` of an
h x w grid over the tile set T has index ``((i-1)*w + j-1)*|T| + k``; the
``hv`` slacks follow, then the ``hh`` slacks, each row-major.
:func:`evaluate_assignment` reads the placements from this layout: it
rebuilds the layout's names per cell (one ``x_i_j_`` prefix per cell, each
tile id appended) and compares them, in order, with the model's first
variables.

An :class:`IlpModel` stores each part once, in arrays: its
:class:`Variables` as columns (names, a binary mask, lower and upper
bounds; variable ``vi`` is index ``vi`` of each), its :class:`Constraints`
as a CSR matrix (``indptr``, ``indices``, ``data``, plus one name, sense
and right-hand side per row) and its :class:`Objective` as index and
coefficient arrays with a sense and a constant.  ``model.constraints`` is
also a read-only sequence of rows: indexing it builds a :class:`LinCon`,
which is not kept, and a slice is Constraints.

LP text goes both ways in whole-array passes.  :func:`emit_lp` formats
the objective and the constraint rows together: one table of ``" + name"``
and ``" - name"`` pieces, one take for every term, one ``np.insert`` for
the line breaks and each row's tail, one join.  :func:`parse_lp` reads the
objective and the rows' tokens in batches, with one dict lookup per token.

One name rule holds on both sides.  :func:`emit_lp` writes only names that
read back: it refuses an empty name, one with whitespace, one that starts
with a digit, ``.``, ``+`` or ``-``, and a variable name written twice.
:func:`parse_lp` reads a declared name as a term wherever it stands, even
one spelled like a number or a sign; any other ``+`` or ``-`` is a sign,
any other token that starts with a digit or ``.`` a number, and the rest
undeclared variables.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import astuple, dataclass, fields
from itertools import combinations, compress, repeat
from math import isfinite

import numpy as np

from .errors import ConfigurationError, StructuralError, grid_dims
from .extensions import (EXT_KINDS, SIDES, DifferentEdgeColors, DifferentTile,
                         EqualEdgeColors, Packing, PeriodicFixed,
                         PeriodicVariable, SameTile, SmallestObjective,
                         cell_rule, check_extension)
from .tileset import VOID, TileSet, Tiling

FORMULATIONS = ("decision", "max_rect", "max_cover", "max_csp")

LE, EQ, GE = "<=", "=", ">="
#: How far past its right-hand side a constraint's total may be and still hold.
_EVAL_TOL = 1e-9


@dataclass(frozen=True)
class LinCon:
    name: str
    terms: tuple[tuple[float, int], ...]  # (coefficient, variable index)
    sense: str
    rhs: float


class _Arrays:
    """Value equality and read-only arrays for the frozen array holders."""

    def __post_init__(self):
        for f in fields(self):
            if isinstance(x := getattr(self, f.name), np.ndarray):
                x.flags.writeable = False

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
                   for x, y in pairs)

    __hash__ = None


@dataclass(frozen=True, eq=False)
class Variables(_Arrays):
    """Variable columns; variable ``vi`` is ``names[vi]``, binary where
    ``binary[vi]`` (else continuous), within ``[lower[vi], upper[vi]]``."""
    names: tuple[str, ...]
    binary: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __len__(self) -> int:
        return len(self.names)


@dataclass(frozen=True, eq=False)
class Constraints(_Arrays, Sequence):
    """Constraint rows in CSR form: row r is ``names[r]``, the terms
    ``data[p] * x[indices[p]]`` for p in ``indptr[r]:indptr[r+1]``, its
    sense (LE, EQ or GE) and ``rhs[r]``.  Indexing builds a
    :class:`LinCon`; a slice is Constraints."""
    names: tuple[str, ...]
    senses: np.ndarray
    rhs: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, i):
        if isinstance(i, slice):
            rows = np.arange(len(self))[i]
            starts, counts = self.indptr[rows], np.diff(self.indptr)[rows]
            indptr = np.concatenate(([0], np.cumsum(counts)))
            at = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
            return Constraints(self.names[i], self.senses[rows], self.rhs[rows],
                               indptr, self.indices[at], self.data[at])
        r = range(len(self))[i]
        a, b = self.indptr[r], self.indptr[r + 1]
        terms = tuple(zip(self.data[a:b].tolist(), self.indices[a:b].tolist()))
        return LinCon(self.names[r], terms, str(self.senses[r]), float(self.rhs[r]))


@dataclass(frozen=True, eq=False)
class Objective(_Arrays):
    sense: str  # "max" | "min" | "none"
    indices: np.ndarray
    data: np.ndarray
    constant: float = 0.0


@dataclass(frozen=True)
class IlpModel:
    variables: Variables
    constraints: Constraints
    objective: Objective


@dataclass(frozen=True)
class ModelSpec:
    tileset: TileSet
    height: int
    width: int
    formulation: str
    extensions: tuple = ()


def x_name(i: int, j: int, k: int) -> str:
    return f"x_{i}_{j}_{k}"


def _x_names(h: int, w: int, n: int) -> list[str]:
    """The placement variables' names in layout order: one ``x_i_j_``
    prefix per cell, each followed by the tile ids' suffixes."""
    ks = [str(k) for k in range(n)]
    cells = [f"x_{i}_{j}_" for i in range(1, h + 1) for j in range(1, w + 1)]
    return [cell + k for cell in cells for k in ks]


def _merge(lengths: np.ndarray, indices: np.ndarray, data: np.ndarray):
    """Per row of the given lengths: equal indices summed in order, each kept
    at its first occurrence, zero sums dropped."""
    rows = np.repeat(np.arange(len(lengths)), lengths)
    key = rows * (int(indices.max(initial=0)) + 1) + indices
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    sums = np.bincount(inverse, weights=data, minlength=len(first))
    order = np.argsort(first)
    order = order[sums[order] != 0.0]
    return (np.bincount(rows[first[order]], minlength=len(lengths)),
            indices[first[order]], sums[order])


# Which extension families each formulation's base constraints can carry.
_EXT_COMPAT = {
    PeriodicFixed: ("decision", "max_csp"),
    PeriodicVariable: ("max_rect",),
    SmallestObjective: ("max_rect",),
    Packing: ("decision", "max_rect"),
}

#: The pair extensions: constraint prefix, and whether the groups at the two
#: cells must match (else they exclude each other).
_PAIR_EXTS = {SameTile: ("same", True), DifferentTile: ("diff", False),
              EqualEdgeColors: ("eqcol", True),
              DifferentEdgeColors: ("neqcol", False)}


class _Builder:
    """Collects the model's rows, a family at a time, as CSR chunks.  Every
    variable is binary or continuous within [0, 1]."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.ts = spec.tileset
        self.h, self.w = grid_dims(spec.height, spec.width)
        self.n = len(self.ts)
        self.x_names = _x_names(self.h, self.w, self.n)
        self.slack_names: list[str] = []
        self.con_names: list[str] = []
        self.senses: list[str] = []
        self.rhs: list[float] = []
        self.chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.objective = Objective("none", np.empty(0, np.int32), np.empty(0))
        # Tile-id groups: per (side, other) one array per color l of the tiles
        # whose side has color l (with other, does not); one per tile id.
        self.groups = {(s, other): [np.array([k for k, c in enumerate(self.ts.side(s))
                                              if (c != l) == other], dtype=np.int64)
                                    for l in range(self.ts.num_colors)]
                       for s in SIDES for other in (False, True)}
        self.tiles = [np.array([k]) for k in range(self.n)]
        self.all_tiles = np.arange(self.n)

    def cell(self, i: int, j: int) -> int:
        """The index of x_i_j_0; x_i_j_k follows at + k."""
        return ((i - 1) * self.w + j - 1) * self.n

    def add_slack(self, name: str) -> int:
        self.slack_names.append(name)
        return len(self.x_names) + len(self.slack_names) - 1

    def add_rows(self, names: list[str], sense: str, rhs: float, bases,
                 templates) -> None:
        """One row per instance and template, instance-major.  ``bases`` has
        one row of variable indices per instance, one column per slot (-1
        leaves the slot out); a template is a list of (slot, offsets, coef)
        parts, each the terms ``coef * x[base + offset]``.  Where two parts
        of a row can meet, equal variables are summed in first-occurrence
        order and zero sums dropped."""
        if not len(bases):
            return
        bases = np.array(bases, dtype=np.int64)
        parts = [(t, slot, np.asarray(offsets, dtype=np.int64), coef)
                 for t, template in enumerate(templates)
                 for slot, offsets, coef in template]
        sizes = [len(p[2]) for p in parts]
        of_template, slot, coef = (np.repeat([p[c] for p in parts], sizes)
                                   for c in (0, 1, 3))
        cols = bases[:, slot]
        present = cols >= 0
        lengths = (present.astype(np.int64)
                   @ (of_template[:, None] == np.arange(len(templates)))).ravel()
        indices = (cols + np.concatenate([p[2] for p in parts])).ravel()
        data = np.tile(coef.astype(float), len(bases))
        if not present.all():
            indices, data = indices[present.ravel()], data[present.ravel()]
        if any(np.any(bases[:, a] == bases[:, b]) for template in templates
               for (a, _, _), (b, _, _) in combinations(template, 2)):
            lengths, indices, data = _merge(lengths, indices, data)
        self.con_names += names
        self.senses += [sense] * len(names)
        self.rhs += [float(rhs)] * len(names)
        self.chunks.append((lengths, indices, data))

    def build(self) -> IlpModel:
        spec = self.spec
        if spec.formulation not in FORMULATIONS:
            raise ConfigurationError(
                f"formulation must be one of {FORMULATIONS}, got {spec.formulation!r}")
        self._check_extensions()
        getattr(self, f"_base_{spec.formulation}")()
        for ext in spec.extensions:
            self._apply_extension(ext)
        names = self.x_names + self.slack_names
        variables = Variables(tuple(names), np.arange(len(names)) < len(self.x_names),
                              np.zeros(len(names)), np.ones(len(names)))
        lengths, indices, data = (np.concatenate(col) for col in zip(*self.chunks))
        constraints = Constraints(tuple(self.con_names), np.array(self.senses),
                                  np.array(self.rhs),
                                  np.concatenate(([0], np.cumsum(lengths))),
                                  indices.astype(np.int32), data)
        return IlpModel(variables, constraints, self.objective)

    def _check_extensions(self) -> None:
        for ext in self.spec.extensions:
            compat = _EXT_COMPAT.get(type(ext))
            if compat is not None and self.spec.formulation not in compat:
                raise ConfigurationError(
                    f"{type(ext).__name__} is only valid with "
                    f"{'/'.join(compat)}, not {self.spec.formulation}")
            check_extension(ext, self.ts, self.h, self.w)

    # -- adjacency families -------------------------------------------------

    def _edges(self, axis: str, other: bool = False):
        """Interior edges as (tags, bases, groups, neighbor groups): axis "v"
        pairs the south of (i,j) with the north of (i+1,j), axis "h" the
        east of (i,j) with the west of (i,j+1); row-major.  ``bases`` holds
        each edge's two cells; the groups are the sides' color groups, the
        neighbor's taken with ``other``."""
        sa, sb, di, dj = ("s", "n", 1, 0) if axis == "v" else ("e", "w", 0, 1)
        cells = [(i, j) for i in range(1, self.h + 1 - di)
                 for j in range(1, self.w + 1 - dj)]
        return ([f"{axis}_{i}_{j}" for i, j in cells],
                [(self.cell(i, j), self.cell(i + di, j + dj)) for i, j in cells],
                self.groups[sa, False], self.groups[sb, other])

    @staticmethod
    def _per_group(tags, groups) -> list[str]:
        return [f"{tag}_{g}" for tag in tags for g in range(len(groups))]

    def _match(self, tags, bases, ga, gb, sense: str) -> None:
        """Per edge and group g: the tiles ga[g] at its first cell against
        the tiles gb[g] at its second."""
        self.add_rows(self._per_group(tags, ga), sense, 0.0, bases,
                      [[(0, ia, 1.0), (1, ib, -1.0)] for ia, ib in zip(ga, gb)])

    def _exclude(self, tags, bases, ga, gb) -> None:
        """Per edge and group g: at most one of the tiles ga[g] at its first
        cell and gb[g] at its second."""
        self.add_rows(self._per_group(tags, ga), LE, 1.0, bases,
                      [[(0, ia, 1.0), (1, ib, 1.0)] for ia, ib in zip(ga, gb)])

    def _occupancy(self, cells, sense: str) -> None:
        """occ_i_j over the given cells: one tile at most (LE) or exactly (EQ)."""
        self.add_rows([f"occ_{i}_{j}" for i, j in cells], sense, 1.0,
                      [(self.cell(i, j),) for i, j in cells], [[(0, self.all_tiles, 1.0)]])

    def _grid(self):
        return [(i, j) for i in range(1, self.h + 1) for j in range(1, self.w + 1)]

    def _sum_obj(self, sense: str) -> Objective:
        nx = len(self.x_names)
        return Objective(sense, np.arange(nx, dtype=np.int32), np.ones(nx))

    # -- formulations -------------------------------------------------------

    def _base_decision(self) -> None:
        """Equality color matching; occupancy pinned on the boundary only,
        from which it propagates inward through the color equalities."""
        for axis in "vh":
            self._match(*self._edges(axis), EQ)
        self._occupancy([(i, j) for i, j in self._grid()
                         if i in (1, self.h) or j in (1, self.w)], EQ)

    def _base_max_rect(self) -> None:
        """Color dominance toward the anchored top-left rectangle plus the
        staircase cut that forbids the only non-rectangular corner pattern."""
        for axis in "vh":
            self._match(*self._edges(axis), GE)
        corners = [(i, j) for i in range(1, self.h) for j in range(1, self.w)]
        every = self.all_tiles
        self.add_rows([f"rect_{i}_{j}" for i, j in corners], LE, 1.0,
                      [(self.cell(i + 1, j), self.cell(i, j + 1), self.cell(i + 1, j + 1))
                       for i, j in corners],
                      [[(0, every, 1.0), (1, every, 1.0), (2, every, -1.0)]])
        self._occupancy([(1, 1)], EQ)
        self._occupancy(self._grid()[1:], LE)
        self.objective = self._sum_obj("max")

    def _base_max_cover(self) -> None:
        """A placed east/south color forbids every mismatched neighbor tile;
        voids satisfy everything."""
        for axis in "hv":
            self._exclude(*self._edges(axis, True))
        self._occupancy(self._grid(), LE)
        self.objective = self._sum_obj("max")

    def _base_max_csp(self) -> None:
        """Full occupancy with per-edge slack; maximizing matched edges is
        maximizing sum(1 - slack) over both edge families."""
        slack = {}  # edge tag -> hv_i_j (east/west) or hh_i_j (south/north)
        for axis, name in (("h", "hv"), ("v", "hh")):
            for tag in self._edges(axis)[0]:
                slack[tag] = self.add_slack(name + tag[1:])
        s = (2, (0,), -1.0)
        for axis in "vh":
            tags, bases, ga, gb = self._edges(axis)
            self.add_rows([f"{tag}_{l}_{pm}" for tag in tags for l in range(len(ga))
                           for pm in "pm"], LE, 0.0,
                          [(a, b, slack[tag]) for tag, (a, b) in zip(tags, bases)],
                          [t for ia, ib in zip(ga, gb)
                           for t in ([(0, ia, 1.0), (1, ib, -1.0), s],
                                     [(1, ib, 1.0), (0, ia, -1.0), s])])
        self._occupancy(self._grid(), EQ)
        indices = np.array(list(slack.values()), dtype=np.int32)
        self.objective = Objective("max", indices, -np.ones(len(indices)),
                                   float(len(slack)))

    # -- extensions ---------------------------------------------------------

    def _apply_extension(self, ext) -> None:
        ts = self.ts
        rule = cell_rule(ext, ts)
        if rule is not None:
            ids, force = rule
            kind = next(n for n, cls in EXT_KINDS.items() if cls is type(ext))
            name = "_".join(map(str, (kind, *astuple(ext))))
            self.add_rows([name], EQ, float(force), [(self.cell(ext.i, ext.j),)],
                          [[(0, ids, 1.0)]])
        elif type(ext) in _PAIR_EXTS:
            prefix, equal = _PAIR_EXTS[type(ext)]
            name = "_".join(map(str, (prefix, *astuple(ext))))
            ga, gb = ((self.groups[ext.side, False], self.groups[ext.side2, False])
                      if hasattr(ext, "side") else (self.tiles, self.tiles))
            pair = ([name], [(self.cell(ext.i, ext.j), self.cell(ext.p, ext.q))], ga, gb)
            if equal:
                self._match(*pair, EQ)
            else:
                self._exclude(*pair)
        elif isinstance(ext, PeriodicFixed):
            n, s, w, e = (self.groups[side, False] for side in "nswe")
            columns, rows = range(1, self.w + 1), range(1, self.h + 1)
            self._match([f"pern_{j}" for j in columns],
                        [(self.cell(1, j), self.cell(self.h, j)) for j in columns],
                        n, s, EQ)
            self._match([f"perw_{i}" for i in rows],
                        [(self.cell(i, 1), self.cell(i, self.w)) for i in rows],
                        w, e, EQ)
        elif isinstance(ext, PeriodicVariable):
            # A tile that ends its row (no east neighbor) must wrap its east
            # color onto the row's west boundary color; same per column.
            cells = self._grid()
            for name, side, wrap_side, di, dj in (("pvh", "e", "w", 0, 1),
                                                  ("pvv", "s", "n", 1, 0)):
                lacks, has = self.groups[side, True], self.groups[wrap_side, False]
                # slots: the cell, its wrap cell, its next cell (-1 past the edge)
                bases = [(self.cell(i, j), self.cell(i, 1) if dj else self.cell(1, j),
                          self.cell(i + di, j + dj) if i + di <= self.h and j + dj <= self.w
                          else -1) for i, j in cells]
                self.add_rows(self._per_group([f"{name}_{i}_{j}" for i, j in cells], lacks),
                              LE, 1.0, bases,
                              [[(0, lack, 1.0), (1, show, 1.0), (2, self.all_tiles, -1.0)]
                               for lack, show in zip(lacks, has)])
        elif isinstance(ext, SmallestObjective):
            self.objective = self._sum_obj("min")
        elif isinstance(ext, Packing):
            cells = [self.cell(i, j) for i, j in self._grid()]
            self.add_rows([f"pack_{k}" for k in range(len(ts))], EQ, 1.0,
                          [(k,) for k in range(len(ts))], [[(0, cells, 1.0)]])
        else:
            raise ConfigurationError(f"unknown extension {ext!r}")


def build_model(spec: ModelSpec) -> IlpModel:
    """Build the binary linear model for the given formulation and extensions."""
    return _Builder(spec).build()


# -- LP text emission and parsing --------------------------------------------

#: What starts a row's next line: every tenth token of a row starts one.
_BREAK = "\n   "

#: The first characters of a number, and of a number or a sign.  No name
#: that emit_lp writes starts with one; in names joined by newlines,
#: _SIGNED_START finds one that does.
_NUMERIC = "0123456789."
_SIGNED = "+-" + _NUMERIC
_SIGNED_START = re.compile(f"\n[{re.escape(_SIGNED)}]")


def _fmt_num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def _nonfinite(values: np.ndarray) -> int:
    """The index of the first non-finite value, or -1."""
    finite = np.isfinite(values)
    return -1 if finite.all() else int(finite.argmin())


def _check_finite(m: IlpModel) -> None:
    """ValueError for a non-finite number that :func:`emit_lp` would write,
    naming its row, its variable or ``obj``."""
    var, con, obj = m.variables, m.constraints, m.objective
    names = var.names
    if (p := _nonfinite(obj.data)) >= 0:
        raise ValueError(f"obj: non-finite coefficient {float(obj.data[p])} "
                         f"of {names[obj.indices[p]]!r}")
    if not isfinite(obj.constant):
        raise ValueError(f"obj: non-finite constant {float(obj.constant)}")
    if (p := _nonfinite(con.data)) >= 0:
        r = int(np.searchsorted(con.indptr, p, side="right")) - 1
        raise ValueError(f"row {con.names[r]!r}: non-finite coefficient "
                         f"{float(con.data[p])} of {names[con.indices[p]]!r}")
    if (r := _nonfinite(con.rhs)) >= 0:
        raise ValueError(f"row {con.names[r]!r}: non-finite right-hand side "
                         f"{float(con.rhs[r])}")
    bounded = np.flatnonzero(~var.binary)
    for bound in (var.lower[bounded], var.upper[bounded]):
        if (p := _nonfinite(bound)) >= 0:
            raise ValueError(f"variable {names[bounded[p]]!r}: non-finite bound "
                             f"{float(bound[p])}")


def _check_names(m: IlpModel) -> None:
    """ValueError naming the first variable, then row, name that LP text
    cannot hold: an empty one, one with whitespace or one that starts like
    a number or a sign; or a variable name that repeats an earlier one."""
    var, con = m.variables.names, m.constraints.names
    every = var + con
    joined = "".join(every)  # with no whitespace, newlines split the next join exactly
    if (all(every) and joined.split() == [joined]
            and not _SIGNED_START.search("\n" + "\n".join(every))
            and len(set(var)) == len(var)):
        return
    seen = set()
    for kind, names in (("variable", var), ("row", con)):
        for name in names:
            if name.split() != [name] or name[0] in _SIGNED:
                raise ValueError(f"{kind} {name!r}: a name in LP text is not empty, holds "
                                 f"no whitespace and starts with no digit, '.', '+' or '-'")
            if kind == "variable" and name in seen:
                raise ValueError(f"variable {name!r} named twice")
            seen.add(name)


def _term_pieces(m: IlpModel) -> np.ndarray:
    """Every term's piece, the objective's first and then each row's:
    ``" + name"``, ``" - name"`` or, for another coefficient, ``" + 2 name"``.
    The table holds the ``" - name"`` half only when some term needs it."""
    obj, con, names = m.objective, m.constraints, m.variables.names
    indices = np.concatenate((obj.indices, con.indices))
    data = np.concatenate((obj.data, con.data))
    minus = data == -1.0
    signs = [[" + "], [" - "]] if minus.any() else [[" + "]]
    table = (np.array(signs, dtype=object) + np.array(names, dtype=object)).ravel()
    pieces = table[indices + len(names) * minus]
    odd = np.flatnonzero(np.abs(data) != 1.0)
    pieces[odd] = [f" {'-' if c < 0 else '+'} {_fmt_num(abs(c))} {names[vi]}"
                   for c, vi in zip(data[odd].tolist(), indices[odd].tolist())]
    return pieces


def _declarations(var: Variables) -> str:
    """The Bounds and Binaries sections, each only if it has a variable,
    and End."""
    lines, names = [], var.names
    bounded = np.flatnonzero(~var.binary).tolist()
    if bounded:
        lines.append("Bounds")
        lines += [f" {_fmt_num(var.lower[vi])} <= {names[vi]} <= {_fmt_num(var.upper[vi])}"
                  for vi in bounded]
    binaries = list(compress(names, var.binary.tolist()))
    if binaries:  # eight names a line, then the rest
        groups = list(map(" ".join, zip(*[iter(binaries)] * 8)))
        if rest := len(binaries) % 8:
            groups.append(" ".join(binaries[-rest:]))
        lines += ["Binaries", " " + "\n ".join(groups)]
    lines.append("End")
    return "\n" + "\n".join(lines) + "\n"


def emit_lp(m: IlpModel) -> str:
    """Deterministic LP-format text; identical models emit identical bytes.
    A non-finite coefficient, right-hand side, bound or objective constant
    raises ValueError naming its row, its variable or ``obj``, and so does
    the first variable or row name that the text cannot hold (the module's
    name rule).

    The objective is row 0 and the constraints follow it.  One take from a
    table of ``" + name"`` pieces, and ``" - name"`` pieces when some
    coefficient is -1, gives every term its piece; the few non-unit
    coefficients are written one by one, and each non-empty row's first
    piece becomes its head (``"\\n name: "`` and the term without its
    ``"+ "``).  One stable ``np.insert`` puts ``"\\n  "`` before every
    tenth term of a row, each row's tail after its terms (its sense and
    right-hand side, or the objective constant, or ``"0"`` for an empty
    row, wrapped like the terms) and the declarations at the end.  One
    join makes the text.
    """
    _check_finite(m)
    _check_names(m)
    con, obj = m.constraints, m.objective
    k = len(obj.indices)
    indptr = np.concatenate(([0], k + con.indptr))
    lengths = np.diff(indptr)
    pieces = _term_pieces(m)
    heads = [f"{'Maximize' if obj.sense == 'max' else 'Minimize'}\n obj: "]
    heads += [f"\n {name}: " for name in con.names]
    full = np.flatnonzero(lengths)
    first = indptr[full]
    pieces[first] = [heads[r] + (p[3:] if p[1] == "+" else p[1:])
                     for r, p in zip(full.tolist(), pieces[first].tolist())]
    # The tails: the objective's constant, then each row's sense and
    # right-hand side, after a "0" where the row has no terms.
    c = obj.constant
    if not k:
        tails = [heads[0] + ("- " if c < 0 else "") + _fmt_num(abs(c))]
    elif c:
        tails = [f"{' ' if k % 10 else _BREAK}{'-' if c < 0 else '+'} {_fmt_num(abs(c))}"]
    else:
        tails = [""]
    tails[0] += "\nSubject To"
    rhs, which = np.unique(con.rhs, return_inverse=True)
    rhs = np.array([_fmt_num(x) for x in rhs.tolist()], dtype=object)[which]
    rest = lengths[1:] % 10
    tails += (np.where(rest == 0, _BREAK, " ").astype(object) + con.senses
              + np.where(rest == 9, _BREAK, " ") + rhs).tolist()
    for r in np.flatnonzero(lengths[1:] == 0).tolist():
        tails[r + 1] = f"{heads[r + 1]}0 {con.senses[r]} {rhs[r]}"
    # A break before the terms 10, 20, ... of each row (a piece brings its
    # own first space), then the tails, then the declarations.
    breaks = np.maximum(lengths - 1, 0) // 10
    at = 10 * np.arange(1, breaks.sum() + 1) + np.repeat(
        indptr[:-1] - 10 * (np.cumsum(breaks) - breaks), breaks)
    pieces = np.insert(pieces, np.concatenate((at, indptr[1:], indptr[-1:])),
                       [_BREAK[:-1]] * len(at) + tails + [_declarations(m.variables)])
    return "".join(pieces.tolist())


#: Each LP header and the headers that may follow it.
_NEXT = {"Minimize": ("Subject To",), "Maximize": ("Subject To",),
         "Subject To": ("Bounds", "Binaries", "End"),
         "Bounds": ("Binaries", "End"), "Binaries": ("End",), "End": ()}


#: <expr> tokens queued per batch: enough that the array work costs little
#: per token, few enough that the queued strings stay small.
_BATCH = 1 << 16

# A token's code in the lookup: a variable index, or one of these.
_PLUS, _MINUS, _OTHER = -1, -2, -3
# Token kinds: a declared name (a term wherever it stands), a sign, a number,
# an undeclared name, and the kind before a row's first token.
_VAR, _SIGN, _NUM, _BAD, _START = range(5)


def _expected(want: tuple[str, ...], got: str) -> str:
    return f"expected {' or '.join(want) or 'nothing'}, got {got}"


def _number(tok: str) -> float:
    """``float(tok)``, refusing the non-finite values outside <number>."""
    x = float(tok)
    if not isfinite(x):
        raise ValueError(f"non-finite number {tok!r}")
    return x


class _Exprs:
    """Reads rows of <expr> tokens into CSR arrays (``indices``, ``data``,
    ``indptr``) and row constants (``consts``), a batch at a time.

    A batch is classified with one lookup per token, and only the tokens
    the lookup leaves unresolved are read one by one.  An <expr>'s only
    state is the kind of its previous token, so masks over (previous kind,
    kind) check the grammar, raising the first error in text order with
    its row's first line.
    """

    def __init__(self, lookup: dict[str, int]):
        self.get = lookup.get  # the declared names, and the signs unless declared
        self.indices, self.data = array("i"), array("d")
        self.indptr, self.consts = array("q", [0]), array("d")
        self.toks, self.starts, self.lines = [], [], []

    def add(self, line: int, toks: list[str]) -> None:
        """Queue one row's tokens; ``line`` is its first line, 0-based."""
        self.starts.append(len(self.toks))
        self.lines.append(line)
        self.toks += toks
        if len(self.toks) >= _BATCH:
            self.flush()

    def fail(self, line: int, message: str):
        """Raise ``message`` for ``line``, unless a queued row fails first."""
        self.flush()
        raise ValueError(f"line {line + 1}: {message}")

    def flush(self) -> None:
        """Check the queued rows and append their arrays."""
        if not self.starts:
            return
        toks, n, starts = self.toks, len(self.toks), np.array(self.starts)
        codes = np.fromiter(map(self.get, toks, repeat(_OTHER)), np.intc, n)
        kind = (codes < 0).view(np.int8)  # _VAR or _SIGN until resolved
        numbers, values, errors = [], [], {}
        for p in np.flatnonzero(codes == _OTHER).tolist():
            tok = toks[p]
            if tok[0] in _NUMERIC:
                kind[p] = _NUM
                try:
                    values.append(_number(tok))
                    numbers.append(p)
                except ValueError as exc:
                    errors[p] = str(exc)
            else:
                kind[p], errors[p] = _BAD, f"undeclared variable {tok!r}"
        prev = np.empty_like(kind)
        prev[1:] = kind[:-1]
        prev[starts[starts < n]] = _START
        ends = np.append(starts[1:], n)
        last = ends[ends > starts] - 1
        bad = (prev == _NUM) & (kind != _VAR)
        bad |= (prev == _SIGN) & (kind == _SIGN)
        bad |= (prev == _VAR) & (kind != _SIGN)
        bad[list(errors)] = True
        bad[last[kind[last] == _SIGN]] = True
        if bad.any():  # the first bad token's error, as the token loop gave it
            p = int(bad.argmax())
            tok, before = toks[p], prev[p]
            if before == _NUM and kind[p] != _VAR and tok[0] in _SIGNED:
                message = f"{tok!r} after a number; a constant ends the <expr>"
            elif before == _SIGN and kind[p] == _SIGN:
                message = f"{toks[p - 1]!r} without a term after it"
            elif before == _VAR and kind[p] != _SIGN:
                message = f"{tok!r} without a sign before it"
            else:
                message = errors.get(p, f"{tok!r} without a term after it")
            line = self.lines[bisect_right(self.starts, p) - 1]
            raise ValueError(f"line {line + 1}: {message}")
        # A term's coefficient is the sign or the signed number before it.
        signed = np.where(codes == _MINUS, -1.0, 1.0)
        numbers = np.array(numbers, dtype=np.intp)
        signed[numbers] = np.array(values) * np.where(
            prev[numbers] == _SIGN, signed[numbers - 1], 1.0)
        terms = np.flatnonzero(kind == _VAR)
        base = len(self.indices)
        self.indices.frombytes(codes[terms].tobytes())
        self.data.frombytes(np.where(prev[terms] == _START, 1.0,
                                     signed[terms - 1]).tobytes())
        self.indptr.frombytes((base + np.searchsorted(terms, ends)).tobytes())
        # A number that no term follows is its row's constant.
        consts = np.zeros(len(starts))
        rows = np.searchsorted(starts, numbers, side="right") - 1
        at_end = numbers + 1 == ends[rows]
        consts[rows[at_end]] = signed[numbers[at_end]]
        self.consts.frombytes(consts.tobytes())
        self.toks, self.starts, self.lines = [], [], []


def parse_lp(text: str) -> IlpModel:
    """Parse the LP text :func:`emit_lp` writes back into a model: exactly
    README's "LP output grammar", else ValueError naming the 1-based line.
    A non-finite number is refused, and so is a row constant that
    overflows its right-hand side (checked once every row has been read);
    text that stops before ``End`` names the header due next."""
    lines = text.splitlines() or [""]
    at, want, n = {}, ("Minimize", "Maximize"), 0
    try:
        for n, line in enumerate(lines):  # the headers, in their order
            if not n or not line.startswith(" "):
                if line not in want:
                    raise ValueError(_expected(want, repr(line)))
                at[line], want = n, _NEXT[line]
        if line != "End":  # the text stops before End, or goes on after it
            n = at.get("End", n) + 1
            raise ValueError(_expected(want, repr(lines[n]) if n < len(lines)
                                       else "end of text"))
        # The declarations come last: read them first, so rows resolve names.
        binaries = at.get("Binaries", n)  # n is End, the last line
        bounds = at.get("Bounds", binaries)
        names = " ".join(lines[binaries + 1:-1]).split()
        n_binary = len(names)
        lower, upper = [0.0] * n_binary, [1.0] * n_binary
        for n in range(bounds + 1, binaries):
            toks = lines[n].split()
            if len(toks) != 5 or toks[1] != LE or toks[3] != LE:
                raise ValueError(f"unsupported bounds line: {lines[n]!r}")
            names.append(toks[2])
            lower.append(_number(toks[0]))
            upper.append(_number(toks[4]))
        index = {name: vi for vi, name in enumerate(names)}
        if len(index) < len(names):  # name the first repeat, in text order
            seen = set()
            for n in [*range(bounds + 1, binaries), *range(binaries + 1, len(lines) - 1)]:
                toks = lines[n].split()
                for name in toks[2:3] if n < binaries else toks:
                    if name in seen:
                        raise ValueError(f"{name!r} declared twice")
                    seen.add(name)
        n, sub = 1, at["Subject To"]
        if not lines[1].startswith(" obj: "):
            raise ValueError(f"expected ' obj: <expr>', got {lines[1]!r}")
    except ValueError as exc:
        raise ValueError(f"line {n + 1}: {exc}") from None
    del lines[bounds + 1:]  # the declarations are read: free their lines
    index.setdefault("+", _PLUS)  # a declared name is a term, even "+" or "-"
    index.setdefault("-", _MINUS)
    rows = _Exprs(index)  # the objective is row 0, the constraints follow
    rows.add(1, " ".join(lines[1:sub])[len(" obj: "):].split())
    con_names, senses, rhs, n = [], [], [], sub + 1
    while n < bounds:  # a row is a line and its three-space continuations
        end = n + 1
        while lines[end].startswith("   "):
            end += 1
        toks = " ".join(lines[n:end]).split()
        if not toks or toks[0] == ":" or not toks[0].endswith(":"):
            rows.fail(n, f"constraint without 'name:': {lines[n]!r}")
        if len(toks) < 3 or toks[-2] not in (LE, EQ, GE):
            rows.fail(n, f"constraint without sense: {lines[n]!r}")
        rows.add(n, toks[1:-2])
        con_names.append(toks[0][:-1])
        senses.append(toks[-2])
        try:
            rhs.append(_number(toks[-1]))
        except ValueError as exc:
            rows.fail(n, str(exc))
        n = end
    rows.flush()
    terms, const = rows.indptr[1], rows.consts[0]  # the objective's
    indices, data = np.frombuffer(rows.indices, dtype=np.intc), np.frombuffer(rows.data)
    sense = "max" if lines[0] == "Maximize" else "min" if terms or const else "none"
    objective = Objective(sense, indices[:terms], data[:terms], const)
    with np.errstate(over="ignore"):
        rhs = np.array(rhs) - np.frombuffer(rows.consts)[1:]
    finite = np.isfinite(rhs)
    if not finite.all():  # name the first such row's first line
        r = int(finite.argmin())
        n = [k for k in range(sub + 1, bounds) if not lines[k].startswith("   ")][r]
        raise ValueError(f"line {n + 1}: the constant overflows the right-hand side")
    variables = Variables(tuple(names), np.arange(len(names)) < n_binary,
                          np.array(lower), np.array(upper))
    constraints = Constraints(tuple(con_names), np.array(senses, dtype="<U2"), rhs,
                              np.frombuffer(rows.indptr, dtype=np.int64)[1:] - terms,
                              indices[terms:], data[terms:])
    return IlpModel(variables, constraints, objective)


# -- assignment evaluation ----------------------------------------------------

@dataclass(frozen=True)
class Evaluation:
    feasible: bool
    objective: float
    violated: tuple[str, ...]


def evaluate_assignment(m: IlpModel, t: Tiling) -> Evaluation:
    """Map a tiling onto the model's variables and check every constraint.

    Placements are read from the layout, not from names: the first h*w*|T|
    variables must be the tiling grid's ``x_i_j_k`` in layout order, |T|
    being the number of binaries over h*w (else StructuralError, as for a
    tile id the model lacks).  The layout's names are rebuilt per cell and
    compared with the model's in one comparison, every name in its place.
    Placement variables follow the tiling; slack variables take their
    smallest feasible values given the placements.
    """
    h, w = t.height, t.width
    var, con = m.variables, m.constraints
    binaries = int(np.count_nonzero(var.binary))
    n = binaries // (h * w)
    layout = _x_names(h, w, n)
    if not n or binaries != len(layout) or var.names[:len(layout)] != tuple(layout):
        raise StructuralError(
            f"model placements do not fit the x_i_j_k layout of a "
            f"{h}x{w} tiling")
    cells = t.cells.ravel()
    if int(cells.max()) >= n:
        raise StructuralError("tiling references tile ids beyond the model's")

    values = np.zeros(len(var))
    placed = np.flatnonzero(cells != VOID)
    values[placed * n + cells[placed]] = 1.0
    rows = np.repeat(np.arange(len(con)), np.diff(con.indptr))

    def lhs() -> np.ndarray:
        return np.bincount(rows, weights=con.data * values[con.indices],
                           minlength=len(con))

    # Minimal feasible slack: the largest lower bound any <=-constraint
    # holding the slack imposes (the slacks still 0), clipped to its range.
    slack = ~var.binary
    if slack.any():
        lower = var.lower.copy()
        hit = slack[con.indices] & (con.senses == LE)[rows]
        np.maximum.at(lower, con.indices[hit], (lhs() - con.rhs)[rows[hit]])
        values[slack] = np.minimum(lower, var.upper)[slack]

    total = lhs()
    ok = np.where(con.senses == LE, total <= con.rhs + _EVAL_TOL,
                  np.where(con.senses == GE, total >= con.rhs - _EVAL_TOL,
                           np.abs(total - con.rhs) <= _EVAL_TOL))
    violated = tuple(con.names[r] for r in np.flatnonzero(~ok).tolist())
    obj = m.objective
    objective = sum((obj.data * values[obj.indices]).tolist()) + obj.constant
    return Evaluation(not violated, objective, violated)
