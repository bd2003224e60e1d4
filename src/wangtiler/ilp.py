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
:func:`evaluate_assignment` reads the placements from this layout.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

from .errors import ConfigurationError, StructuralError
from .extensions import (EXT_KINDS, SIDES, DifferentEdgeColors, DifferentTile,
                         EqualEdgeColors, Packing, PeriodicFixed,
                         PeriodicVariable, SameTile, SmallestObjective,
                         cell_rule, check_extension)
from .tileset import VOID, TileSet, Tiling

FORMULATIONS = ("decision", "max_rect", "max_cover", "max_csp")

BINARY = "binary"
CONTINUOUS = "continuous"

LE, EQ, GE = "<=", "=", ">="


@dataclass(frozen=True)
class Var:
    name: str
    kind: str
    lower: float
    upper: float


@dataclass(frozen=True)
class LinCon:
    name: str
    terms: tuple[tuple[float, int], ...]  # (coefficient, variable index)
    sense: str
    rhs: float


@dataclass(frozen=True)
class Objective:
    sense: str  # "max" | "min" | "none"
    terms: tuple[tuple[float, int], ...]
    constant: float = 0.0


@dataclass(frozen=True)
class IlpModel:
    variables: tuple[Var, ...]
    constraints: tuple[LinCon, ...]
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
    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.ts = spec.tileset
        self.h = spec.height
        self.w = spec.width
        self.vars: list[Var] = []
        self.cons: list[LinCon] = []
        self.objective = Objective("none", ())
        # Tile-id groups: per (side, other) one list per color l of the tiles
        # whose side has color l (with other, does not); one per tile id.
        self.groups = {(s, other): [[k for k, c in enumerate(self.ts.side(s))
                                     if (c != l) == other]
                                    for l in range(self.ts.num_colors)]
                       for s in SIDES for other in (False, True)}
        self.tiles = [(k,) for k in range(len(self.ts))]
        # One int object per placement variable, shared by every term that
        # names it.
        self.x_ids = list(range(self.h * self.w * len(self.ts)))

    def add_var(self, name: str, kind: str, lower: float, upper: float) -> int:
        self.vars.append(Var(name, kind, lower, upper))
        return len(self.vars) - 1

    def add_con(self, name: str, terms, sense: str, rhs: float) -> None:
        merged: dict[int, float] = {}
        for coef, vi in terms:
            merged[vi] = merged.get(vi, 0.0) + coef
        packed = tuple((c, vi) for vi, c in merged.items() if c != 0.0)
        self.cons.append(LinCon(name, packed, sense, float(rhs)))

    def cell_sum(self, i: int, j: int, ids=None, coef: float = 1.0):
        n = len(self.ts)
        base = ((i - 1) * self.w + j - 1) * n
        ids = range(n) if ids is None else ids
        return [(coef, self.x_ids[base + k]) for k in ids]

    def build(self) -> IlpModel:
        spec = self.spec
        if spec.formulation not in FORMULATIONS:
            raise ConfigurationError(
                f"formulation must be one of {FORMULATIONS}, got {spec.formulation!r}")
        if self.h < 1 or self.w < 1:
            raise ConfigurationError("grid dimensions must be positive")
        self._check_extensions()
        for i in range(1, self.h + 1):
            for j in range(1, self.w + 1):
                for k in range(len(self.ts)):
                    self.add_var(x_name(i, j, k), BINARY, 0.0, 1.0)
        getattr(self, f"_base_{spec.formulation}")()
        for ext in spec.extensions:
            self._apply_extension(ext)
        return IlpModel(tuple(self.vars), tuple(self.cons), self.objective)

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
        """Interior edges as (tag, cell, groups, neighbor, neighbor groups):
        axis "v" pairs the south of (i,j) with the north of (i+1,j), axis
        "h" the east of (i,j) with the west of (i,j+1); row-major.  These
        are the sides' color groups, the neighbor's taken with ``other``."""
        sa, sb, di, dj = ("s", "n", 1, 0) if axis == "v" else ("e", "w", 0, 1)
        ga, gb = self.groups[sa, False], self.groups[sb, other]
        return [(f"{axis}_{i}_{j}", (i, j), ga, (i + di, j + dj), gb)
                for i in range(1, self.h + 1 - di)
                for j in range(1, self.w + 1 - dj)]

    def _match(self, tag: str, a, ga, b, gb, sense: str) -> None:
        """Per group g: the tiles ga[g] at a against the tiles gb[g] at b."""
        for g, (ia, ib) in enumerate(zip(ga, gb)):
            terms = self.cell_sum(*a, ia) + self.cell_sum(*b, ib, -1.0)
            self.add_con(f"{tag}_{g}", terms, sense, 0.0)

    def _exclude(self, tag: str, a, ga, b, gb) -> None:
        """Per group g: at most one of the tiles ga[g] at a and gb[g] at b."""
        for g, (ia, ib) in enumerate(zip(ga, gb)):
            terms = self.cell_sum(*a, ia) + self.cell_sum(*b, ib)
            self.add_con(f"{tag}_{g}", terms, LE, 1.0)

    def _occupancy(self, sense) -> None:
        """occ_i_j, row-major: one tile at most (LE) or exactly (EQ) at each
        cell (i, j) where ``sense(i, j)`` is not None."""
        for i in range(1, self.h + 1):
            for j in range(1, self.w + 1):
                if (s := sense(i, j)) is not None:
                    self.add_con(f"occ_{i}_{j}", self.cell_sum(i, j), s, 1.0)

    def _sum_obj(self, sense: str) -> Objective:
        return Objective(sense, tuple((1.0, vi) for vi in self.x_ids))

    # -- formulations -------------------------------------------------------

    def _base_decision(self) -> None:
        """Equality color matching; occupancy pinned on the boundary only,
        from which it propagates inward through the color equalities."""
        for edge in self._edges("v") + self._edges("h"):
            self._match(*edge, EQ)
        self._occupancy(lambda i, j: EQ if i in (1, self.h) or j in (1, self.w)
                        else None)

    def _base_max_rect(self) -> None:
        """Color dominance toward the anchored top-left rectangle plus the
        staircase cut that forbids the only non-rectangular corner pattern."""
        for edge in self._edges("v") + self._edges("h"):
            self._match(*edge, GE)
        for i in range(1, self.h):
            for j in range(1, self.w):
                terms = (self.cell_sum(i + 1, j)
                         + self.cell_sum(i, j + 1)
                         + self.cell_sum(i + 1, j + 1, coef=-1.0))
                self.add_con(f"rect_{i}_{j}", terms, LE, 1.0)
        self._occupancy(lambda i, j: EQ if (i, j) == (1, 1) else LE)
        self.objective = self._sum_obj("max")

    def _base_max_cover(self) -> None:
        """A placed east/south color forbids every mismatched neighbor tile;
        voids satisfy everything."""
        for edge in self._edges("h", True) + self._edges("v", True):
            self._exclude(*edge)
        self._occupancy(lambda i, j: LE)
        self.objective = self._sum_obj("max")

    def _base_max_csp(self) -> None:
        """Full occupancy with per-edge slack; maximizing matched edges is
        maximizing sum(1 - slack) over both edge families."""
        slack = {}  # edge tag -> hv_i_j (east/west) or hh_i_j (south/north)
        for axis, name in (("h", "hv"), ("v", "hh")):
            for tag, *_ in self._edges(axis):
                slack[tag] = self.add_var(name + tag[1:], CONTINUOUS, 0.0, 1.0)
        for tag, a, ga, b, gb in self._edges("v") + self._edges("h"):
            s = [(-1.0, slack[tag])]
            for l, (ia, ib) in enumerate(zip(ga, gb)):
                self.add_con(f"{tag}_{l}_p", self.cell_sum(*a, ia)
                             + self.cell_sum(*b, ib, -1.0) + s, LE, 0.0)
                self.add_con(f"{tag}_{l}_m", self.cell_sum(*b, ib)
                             + self.cell_sum(*a, ia, -1.0) + s, LE, 0.0)
        self._occupancy(lambda i, j: EQ)
        terms = tuple((-1.0, vi) for vi in slack.values())
        self.objective = Objective("max", terms, float(len(slack)))

    # -- extensions ---------------------------------------------------------

    def _apply_extension(self, ext) -> None:
        ts = self.ts
        rule = cell_rule(ext, ts)
        if rule is not None:
            ids, force = rule
            kind = next(n for n, cls in EXT_KINDS.items() if cls is type(ext))
            name = "_".join(map(str, (kind, *astuple(ext))))
            self.add_con(name, self.cell_sum(ext.i, ext.j, ids), EQ, float(force))
        elif type(ext) in _PAIR_EXTS:
            prefix, equal = _PAIR_EXTS[type(ext)]
            name = "_".join(map(str, (prefix, *astuple(ext))))
            ga, gb = ((self.groups[ext.side, False], self.groups[ext.side2, False])
                      if hasattr(ext, "side") else (self.tiles, self.tiles))
            pair = (name, (ext.i, ext.j), ga, (ext.p, ext.q), gb)
            if equal:
                self._match(*pair, EQ)
            else:
                self._exclude(*pair)
        elif isinstance(ext, PeriodicFixed):
            n, s, w, e = (self.groups[side, False] for side in "nswe")
            for j in range(1, self.w + 1):
                self._match(f"pern_{j}", (1, j), n, (self.h, j), s, EQ)
            for i in range(1, self.h + 1):
                self._match(f"perw_{i}", (i, 1), w, (i, self.w), e, EQ)
        elif isinstance(ext, PeriodicVariable):
            # A tile that ends its row (no east neighbor) must wrap its east
            # color onto the row's west boundary color; same per column.
            for name, side, wrap_side, di, dj in (("pvh", "e", "w", 0, 1),
                                                  ("pvv", "s", "n", 1, 0)):
                lacks, has = self.groups[side, True], self.groups[wrap_side, False]
                for i in range(1, self.h + 1):
                    for j in range(1, self.w + 1):
                        wrap = (i, 1) if dj else (1, j)
                        for l in range(ts.num_colors):
                            terms = (self.cell_sum(i, j, lacks[l])
                                     + self.cell_sum(*wrap, has[l]))
                            if i + di <= self.h and j + dj <= self.w:
                                terms += self.cell_sum(i + di, j + dj, coef=-1.0)
                            self.add_con(f"{name}_{i}_{j}_{l}", terms, LE, 1.0)
        elif isinstance(ext, SmallestObjective):
            self.objective = self._sum_obj("min")
        elif isinstance(ext, Packing):
            for k in range(len(ts)):
                terms = [term for i in range(1, self.h + 1)
                         for j in range(1, self.w + 1)
                         for term in self.cell_sum(i, j, (k,))]
                self.add_con(f"pack_{k}", terms, EQ, 1.0)
        else:
            raise ConfigurationError(f"unknown extension {ext!r}")


def build_model(spec: ModelSpec) -> IlpModel:
    """Build the binary linear model for the given formulation and extensions."""
    return _Builder(spec).build()


# -- LP text emission and parsing --------------------------------------------

def _fmt_num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def _fmt_terms(terms, names, constant: float = 0.0) -> list[str]:
    """Tokens like ['x_1_1_0', '+ 2 x_1_1_1', '- x_2_1_0', '+ 760']."""
    toks = []
    for coef, vi in terms:
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        body = names[vi] if mag == 1 else f"{_fmt_num(mag)} {names[vi]}"
        if not toks and sign == "+":
            toks.append(body)
        else:
            toks.append(f"{sign} {body}")
    if constant or not toks:
        sign = "-" if constant < 0 else "+"
        tok = _fmt_num(abs(constant))
        toks.append(tok if not toks else f"{sign} {tok}")
    return toks


def _wrap(prefix: str, toks: list[str], per_line: int = 10) -> list[str]:
    lines = []
    for start in range(0, len(toks), per_line):
        chunk = " ".join(toks[start:start + per_line])
        lines.append(f"{prefix}{chunk}" if start == 0 else f"   {chunk}")
    return lines


def emit_lp(m: IlpModel) -> str:
    """Deterministic LP-format text; identical models emit identical bytes."""
    names = [v.name for v in m.variables]
    out: list[str] = []
    sense = m.objective.sense
    out.append("Maximize" if sense == "max" else "Minimize")
    toks = _fmt_terms(m.objective.terms, names, m.objective.constant)
    out.extend(_wrap(" obj: ", toks))
    out.append("Subject To")
    for con in m.constraints:
        toks = _fmt_terms(con.terms, names)
        toks += [con.sense, _fmt_num(con.rhs)]
        out.extend(_wrap(f" {con.name}: ", toks))
    bounded = [v for v in m.variables if v.kind == CONTINUOUS]
    if bounded:
        out.append("Bounds")
        for v in bounded:
            out.append(f" {_fmt_num(v.lower)} <= {v.name} <= {_fmt_num(v.upper)}")
    binaries = [v.name for v in m.variables if v.kind == BINARY]
    if binaries:
        out.append("Binaries")
        for start in range(0, len(binaries), 8):
            out.append(" " + " ".join(binaries[start:start + 8]))
    out.append("End")
    return "\n".join(out) + "\n"


#: Each LP header and the headers that may follow it.
_NEXT = {"Minimize": ("Subject To",), "Maximize": ("Subject To",),
         "Subject To": ("Bounds", "Binaries", "End"),
         "Bounds": ("Binaries", "End"), "Binaries": ("End",), "End": ()}


def _parse_expr(tokens: list[str], index: dict[str, int]):
    """An <expr> -> (terms as (coef, variable index), constant)."""
    # pending: the sign still waiting for its term; None just after a term,
    # where the next token must be a sign
    terms, sign, coef, pending = [], 1.0, None, ""
    for tok in tokens:
        if coef is not None and tok[0] in "+-0123456789.":
            raise ValueError(f"{tok!r} after a number; a constant ends the <expr>")
        if tok == "+" or tok == "-":
            if pending:  # two signs in a row: the first has no term
                break
            sign, pending = 1.0 if tok == "+" else -1.0, tok
        elif pending is None:
            raise ValueError(f"{tok!r} without a sign before it")
        elif tok[0] in "0123456789.":
            coef, pending = float(tok), ""
        elif tok in index:
            terms.append((sign if coef is None else sign * coef, index[tok]))
            coef, pending = None, None
        else:
            raise ValueError(f"undeclared variable {tok!r}")
    if pending:
        raise ValueError(f"{pending!r} without a term after it")
    return tuple(terms), 0.0 if coef is None else sign * coef


def parse_lp(text: str) -> IlpModel:
    """Parse the LP text :func:`emit_lp` writes back into a model: exactly
    README's "LP output grammar", else ValueError naming the 1-based line."""
    lines = text.splitlines() or [""]
    at, want, n = {}, ("Minimize", "Maximize"), 0
    try:
        for n, line in enumerate(lines):  # the headers, in their order
            if not n or not line.startswith(" "):
                if line not in want:
                    raise ValueError(f"expected {' or '.join(want) or 'nothing'}, "
                                     f"got {line!r}")
                at[line], want = n, _NEXT[line]
        if line != "End":
            raise ValueError(f"expected End, got {line!r}")
        # The declarations come last: read them first, so rows resolve names.
        binaries = at.get("Binaries", n)  # n is End, the last line
        bounds = at.get("Bounds", binaries)
        variables = [Var(name, BINARY, 0.0, 1.0)
                     for name in " ".join(lines[binaries + 1:-1]).split()]
        for n in range(bounds + 1, binaries):
            toks = lines[n].split()
            if len(toks) != 5 or toks[1] != LE or toks[3] != LE:
                raise ValueError(f"unsupported bounds line: {lines[n]!r}")
            variables.append(Var(toks[2], CONTINUOUS, float(toks[0]), float(toks[4])))
        index = {v.name: vi for vi, v in enumerate(variables)}
        n, sub = 1, at["Subject To"]
        if not lines[1].startswith(" obj: "):
            raise ValueError(f"expected ' obj: <expr>', got {lines[1]!r}")
        terms, const = _parse_expr(" ".join(lines[1:sub]).split()[1:], index)
        sense = "max" if lines[0] == "Maximize" else "min" if terms or const else "none"
        objective = Objective(sense, terms, const)
        cons, n = [], sub + 1
        while n < bounds:  # a row is a line and its three-space continuations
            end = n + 1
            while lines[end].startswith("   "):
                end += 1
            name, *toks = " ".join(lines[n:end]).split() or [""]
            if not name.endswith(":"):
                raise ValueError(f"constraint without 'name:': {lines[n]!r}")
            if len(toks) < 2 or toks[-2] not in (LE, EQ, GE):
                raise ValueError(f"constraint without sense: {lines[n]!r}")
            terms, const = _parse_expr(toks[:-2], index)
            cons.append(LinCon(name[:-1], terms, toks[-2], float(toks[-1]) - const))
            n = end
    except ValueError as exc:
        raise ValueError(f"line {n + 1}: {exc}") from None
    return IlpModel(tuple(variables), tuple(cons), objective)


# -- assignment evaluation ----------------------------------------------------

@dataclass(frozen=True)
class Evaluation:
    feasible: bool
    objective: float
    violated: tuple[str, ...]


def evaluate_assignment(m: IlpModel, t: Tiling, tol: float = 1e-9) -> Evaluation:
    """Map a tiling onto the model's variables and check every constraint.

    Placements are read from the layout, not from names: the first h*w*|T|
    variables must be the tiling grid's ``x_i_j_k`` in layout order, |T|
    being the number of binaries over h*w (else StructuralError, as for a
    tile id the model lacks).  Placement variables follow the tiling; slack
    variables take their smallest feasible values given the placements.
    """
    h, w = t.height, t.width
    binaries = sum(v.kind == BINARY for v in m.variables)
    n = binaries // (h * w)
    layout = [x_name(i, j, k) for i in range(1, h + 1)
              for j in range(1, w + 1) for k in range(n)]
    if (not n or binaries != len(layout)
            or [v.name for v in m.variables[:len(layout)]] != layout):
        raise StructuralError(
            f"model placements do not fit the x_i_j_k layout of a "
            f"{h}x{w} tiling")
    if int(t.cells.max()) >= n:
        raise StructuralError("tiling references tile ids beyond the model's")

    values = [0.0] * len(m.variables)
    for p, k in enumerate(t.cells.ravel().tolist()):
        if k != VOID:
            values[p * n + k] = 1.0
    slack_positions = [vi for vi, v in enumerate(m.variables)
                       if v.kind == CONTINUOUS]

    # Minimal feasible slack: the largest lower bound any <=-constraint with
    # a -1 slack coefficient imposes, clipped to the variable's range.
    if slack_positions:
        slackset = set(slack_positions)
        lower = {vi: m.variables[vi].lower for vi in slack_positions}
        for con in m.constraints:
            svars = [vi for _, vi in con.terms if vi in slackset]
            if not svars or con.sense != LE:
                continue
            lhs = sum(c * values[vi] for c, vi in con.terms if vi not in slackset)
            for vi in svars:
                lower[vi] = max(lower[vi], lhs - con.rhs)
        for vi in slack_positions:
            values[vi] = min(lower[vi], m.variables[vi].upper)

    violated = []
    for con in m.constraints:
        lhs = sum(c * values[vi] for c, vi in con.terms)
        ok = (lhs <= con.rhs + tol if con.sense == LE
              else lhs >= con.rhs - tol if con.sense == GE
              else abs(lhs - con.rhs) <= tol)
        if not ok:
            violated.append(con.name)
    objective = (sum(c * values[vi] for c, vi in m.objective.terms)
                 + m.objective.constant)
    return Evaluation(not violated, objective, tuple(violated))
