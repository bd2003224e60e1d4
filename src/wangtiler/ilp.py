"""Solver-agnostic binary linear models for bounded tiling, and their
deterministic LP-format emission.

Variable naming is part of the contract: tile placement variables are
``x_i_j_k`` (1-based row i, column j, 0-based tile id k); the adjacency
slack variables of the constraint-satisfaction variant are ``hv_i_j``
(east/west edge between columns j and j+1) and ``hh_i_j`` (south/north edge
between rows i and i+1).  Constraint names follow the ``v_i_j_l`` /
``h_i_j_l`` / ``occ_i_j`` scheme documented per formulation below.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError, StructuralError
from .extensions import (SIDES, DifferentEdgeColors, DifferentTile,
                         EqualEdgeColors, ForbidEdgeColor, ForbidTile,
                         ForceEdgeColor, ForceTile, Packing, PeriodicFixed,
                         PeriodicVariable, SameTile, SmallestObjective)
from .tileset import TileSet, Tiling

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


_TILE_COLOR_EXTS = (ForceTile, ForbidTile, SameTile, DifferentTile,
                    ForceEdgeColor, ForbidEdgeColor, EqualEdgeColors,
                    DifferentEdgeColors)

# Which extension families each formulation's base constraints can carry.
_EXT_COMPAT = {
    PeriodicFixed: ("decision", "max_csp"),
    PeriodicVariable: ("max_rect",),
    SmallestObjective: ("max_rect",),
    Packing: ("decision", "max_rect"),
}


class _Builder:
    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.ts = spec.tileset
        self.h = spec.height
        self.w = spec.width
        self.vars: list[Var] = []
        self.index: dict[str, int] = {}
        self.cons: list[LinCon] = []
        self.objective = Objective("none", ())
        side_colors = {"n": self.ts.norths, "w": self.ts.wests,
                       "s": self.ts.souths, "e": self.ts.easts}
        # tiles with the given color on the given side, and the complements
        self.with_color = {s: [[] for _ in range(self.ts.num_colors)]
                           for s in SIDES}
        self.without_color = {s: [[] for _ in range(self.ts.num_colors)]
                              for s in SIDES}
        for s in SIDES:
            colors = side_colors[s]
            for k in range(len(self.ts)):
                for l in range(self.ts.num_colors):
                    (self.with_color if colors[k] == l
                     else self.without_color)[s][l].append(k)

    def add_var(self, name: str, kind: str, lower: float, upper: float) -> int:
        self.index[name] = len(self.vars)
        self.vars.append(Var(name, kind, lower, upper))
        return self.index[name]

    def x(self, i: int, j: int, k: int) -> int:
        return self.index[x_name(i, j, k)]

    def add_con(self, name: str, terms, sense: str, rhs: float) -> None:
        merged: dict[int, float] = {}
        for coef, vi in terms:
            merged[vi] = merged.get(vi, 0.0) + coef
        packed = tuple((c, vi) for vi, c in merged.items() if c != 0.0)
        self.cons.append(LinCon(name, packed, sense, float(rhs)))

    def cell_sum(self, i: int, j: int, ids=None, coef: float = 1.0):
        ids = range(len(self.ts)) if ids is None else ids
        return [(coef, self.x(i, j, k)) for k in ids]

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
            if isinstance(ext, Packing) and len(self.ts) != self.h * self.w:
                raise ConfigurationError(
                    f"packing requires exactly height*width tiles "
                    f"({self.h * self.w}), set has {len(self.ts)}")
            if isinstance(ext, _TILE_COLOR_EXTS):
                self._check_coords(ext)

    def _check_coords(self, ext) -> None:
        coords = [(ext.i, ext.j)]
        if hasattr(ext, "p"):
            coords.append((ext.p, ext.q))
        for (a, b) in coords:
            if not (1 <= a <= self.h and 1 <= b <= self.w):
                raise ConfigurationError(
                    f"{type(ext).__name__} coordinate ({a}, {b}) outside the grid")
        if hasattr(ext, "k") and not (0 <= ext.k < len(self.ts)):
            raise ConfigurationError(f"tile id {ext.k} out of range")
        for s in (getattr(ext, "side", None), getattr(ext, "side2", None)):
            if s is not None and s not in SIDES:
                raise ConfigurationError(f"side must be one of {SIDES}, got {s!r}")
        color = getattr(ext, "color", None)
        if color is not None and not (0 <= color < self.ts.num_colors):
            raise ConfigurationError(f"color {color} outside the alphabet")

    # -- adjacency families -------------------------------------------------

    def _vertical(self, sense: str) -> None:
        """Per color: tiles at (i,j) with south l vs tiles at (i+1,j) with north l."""
        for i in range(1, self.h):
            for j in range(1, self.w + 1):
                for l in range(self.ts.num_colors):
                    terms = (self.cell_sum(i, j, self.with_color["s"][l])
                             + self.cell_sum(i + 1, j, self.with_color["n"][l], -1.0))
                    self.add_con(f"v_{i}_{j}_{l}", terms, sense, 0.0)

    def _horizontal(self, sense: str) -> None:
        for i in range(1, self.h + 1):
            for j in range(1, self.w):
                for l in range(self.ts.num_colors):
                    terms = (self.cell_sum(i, j, self.with_color["e"][l])
                             + self.cell_sum(i, j + 1, self.with_color["w"][l], -1.0))
                    self.add_con(f"h_{i}_{j}_{l}", terms, sense, 0.0)

    def _boundary_cells(self):
        """Cells of the first/last row and first/last column, row-major, no duplicates."""
        for i in range(1, self.h + 1):
            for j in range(1, self.w + 1):
                if i in (1, self.h) or j in (1, self.w):
                    yield i, j

    def _sum_obj(self, sense: str) -> Objective:
        terms = tuple((1.0, self.x(i, j, k))
                      for i in range(1, self.h + 1)
                      for j in range(1, self.w + 1)
                      for k in range(len(self.ts)))
        return Objective(sense, terms)

    # -- formulations -------------------------------------------------------

    def _base_decision(self) -> None:
        """Equality color matching; occupancy pinned on the boundary only,
        from which it propagates inward through the color equalities."""
        self._vertical(EQ)
        self._horizontal(EQ)
        for i, j in self._boundary_cells():
            self.add_con(f"occ_{i}_{j}", self.cell_sum(i, j), EQ, 1.0)
        self.objective = Objective("none", ())

    def _base_max_rect(self) -> None:
        """Color dominance toward the anchored top-left rectangle plus the
        staircase cut that forbids the only non-rectangular corner pattern."""
        self._vertical(GE)
        self._horizontal(GE)
        for i in range(1, self.h):
            for j in range(1, self.w):
                terms = (self.cell_sum(i + 1, j)
                         + self.cell_sum(i, j + 1)
                         + self.cell_sum(i + 1, j + 1, coef=-1.0))
                self.add_con(f"rect_{i}_{j}", terms, LE, 1.0)
        self.add_con("occ_1_1", self.cell_sum(1, 1), EQ, 1.0)
        for i in range(1, self.h + 1):
            for j in range(1, self.w + 1):
                if (i, j) != (1, 1):
                    self.add_con(f"occ_{i}_{j}", self.cell_sum(i, j), LE, 1.0)
        self.objective = self._sum_obj("max")

    def _base_max_cover(self) -> None:
        """A placed east/south color forbids every mismatched neighbor tile;
        voids satisfy everything."""
        for i in range(1, self.h + 1):
            for j in range(1, self.w):
                for l in range(self.ts.num_colors):
                    terms = (self.cell_sum(i, j, self.with_color["e"][l])
                             + self.cell_sum(i, j + 1, self.without_color["w"][l]))
                    self.add_con(f"h_{i}_{j}_{l}", terms, LE, 1.0)
        for i in range(1, self.h):
            for j in range(1, self.w + 1):
                for l in range(self.ts.num_colors):
                    terms = (self.cell_sum(i, j, self.with_color["s"][l])
                             + self.cell_sum(i + 1, j, self.without_color["n"][l]))
                    self.add_con(f"v_{i}_{j}_{l}", terms, LE, 1.0)
        for i in range(1, self.h + 1):
            for j in range(1, self.w + 1):
                self.add_con(f"occ_{i}_{j}", self.cell_sum(i, j), LE, 1.0)
        self.objective = self._sum_obj("max")

    def _base_max_csp(self) -> None:
        """Full occupancy with per-edge slack; maximizing matched edges is
        maximizing sum(1 - slack) over both edge families."""
        hv = {}
        hh = {}
        for i in range(1, self.h + 1):
            for j in range(1, self.w):
                hv[i, j] = self.add_var(f"hv_{i}_{j}", CONTINUOUS, 0.0, 1.0)
        for i in range(1, self.h):
            for j in range(1, self.w + 1):
                hh[i, j] = self.add_var(f"hh_{i}_{j}", CONTINUOUS, 0.0, 1.0)
        for i in range(1, self.h):
            for j in range(1, self.w + 1):
                for l in range(self.ts.num_colors):
                    plus = (self.cell_sum(i, j, self.with_color["s"][l])
                            + self.cell_sum(i + 1, j, self.with_color["n"][l], -1.0))
                    self.add_con(f"v_{i}_{j}_{l}_p",
                                 plus + [(-1.0, hh[i, j])], LE, 0.0)
                    minus = (self.cell_sum(i + 1, j, self.with_color["n"][l])
                             + self.cell_sum(i, j, self.with_color["s"][l], -1.0))
                    self.add_con(f"v_{i}_{j}_{l}_m",
                                 minus + [(-1.0, hh[i, j])], LE, 0.0)
        for i in range(1, self.h + 1):
            for j in range(1, self.w):
                for l in range(self.ts.num_colors):
                    plus = (self.cell_sum(i, j, self.with_color["e"][l])
                            + self.cell_sum(i, j + 1, self.with_color["w"][l], -1.0))
                    self.add_con(f"h_{i}_{j}_{l}_p",
                                 plus + [(-1.0, hv[i, j])], LE, 0.0)
                    minus = (self.cell_sum(i, j + 1, self.with_color["w"][l])
                             + self.cell_sum(i, j, self.with_color["e"][l], -1.0))
                    self.add_con(f"h_{i}_{j}_{l}_m",
                                 minus + [(-1.0, hv[i, j])], LE, 0.0)
        for i in range(1, self.h + 1):
            for j in range(1, self.w + 1):
                self.add_con(f"occ_{i}_{j}", self.cell_sum(i, j), EQ, 1.0)
        n_edges = self.h * (self.w - 1) + (self.h - 1) * self.w
        terms = tuple((-1.0, vi) for vi in list(hv.values()) + list(hh.values()))
        self.objective = Objective("max", terms, float(n_edges))

    # -- extensions ---------------------------------------------------------

    def _apply_extension(self, ext) -> None:
        ts = self.ts
        if isinstance(ext, ForceTile):
            self.add_con(f"force_{ext.i}_{ext.j}_{ext.k}",
                         [(1.0, self.x(ext.i, ext.j, ext.k))], EQ, 1.0)
        elif isinstance(ext, ForbidTile):
            self.add_con(f"forbid_{ext.i}_{ext.j}_{ext.k}",
                         [(1.0, self.x(ext.i, ext.j, ext.k))], EQ, 0.0)
        elif isinstance(ext, SameTile):
            for k in range(len(ts)):
                self.add_con(f"same_{ext.i}_{ext.j}_{ext.p}_{ext.q}_{k}",
                             [(1.0, self.x(ext.i, ext.j, k)),
                              (-1.0, self.x(ext.p, ext.q, k))], EQ, 0.0)
        elif isinstance(ext, DifferentTile):
            for k in range(len(ts)):
                self.add_con(f"diff_{ext.i}_{ext.j}_{ext.p}_{ext.q}_{k}",
                             [(1.0, self.x(ext.i, ext.j, k)),
                              (1.0, self.x(ext.p, ext.q, k))], LE, 1.0)
        elif isinstance(ext, ForceEdgeColor):
            ids = self.with_color[ext.side][ext.color]
            self.add_con(f"forcecol_{ext.i}_{ext.j}_{ext.side}_{ext.color}",
                         self.cell_sum(ext.i, ext.j, ids), EQ, 1.0)
        elif isinstance(ext, ForbidEdgeColor):
            ids = self.with_color[ext.side][ext.color]
            self.add_con(f"forbidcol_{ext.i}_{ext.j}_{ext.side}_{ext.color}",
                         self.cell_sum(ext.i, ext.j, ids), EQ, 0.0)
        elif isinstance(ext, EqualEdgeColors):
            for l in range(ts.num_colors):
                terms = (self.cell_sum(ext.i, ext.j, self.with_color[ext.side][l])
                         + self.cell_sum(ext.p, ext.q,
                                         self.with_color[ext.side2][l], -1.0))
                self.add_con(
                    f"eqcol_{ext.i}_{ext.j}_{ext.side}_{ext.p}_{ext.q}_{ext.side2}_{l}",
                    terms, EQ, 0.0)
        elif isinstance(ext, DifferentEdgeColors):
            for l in range(ts.num_colors):
                terms = (self.cell_sum(ext.i, ext.j, self.with_color[ext.side][l])
                         + self.cell_sum(ext.p, ext.q, self.with_color[ext.side2][l]))
                self.add_con(
                    f"neqcol_{ext.i}_{ext.j}_{ext.side}_{ext.p}_{ext.q}_{ext.side2}_{l}",
                    terms, LE, 1.0)
        elif isinstance(ext, PeriodicFixed):
            for j in range(1, self.w + 1):
                for l in range(ts.num_colors):
                    terms = (self.cell_sum(1, j, self.with_color["n"][l])
                             + self.cell_sum(self.h, j, self.with_color["s"][l], -1.0))
                    self.add_con(f"pern_{j}_{l}", terms, EQ, 0.0)
            for i in range(1, self.h + 1):
                for l in range(ts.num_colors):
                    terms = (self.cell_sum(i, 1, self.with_color["w"][l])
                             + self.cell_sum(i, self.w, self.with_color["e"][l], -1.0))
                    self.add_con(f"perw_{i}_{l}", terms, EQ, 0.0)
        elif isinstance(ext, PeriodicVariable):
            # A tile that ends its row (no east neighbor) must wrap its east
            # color onto the row's west boundary color; same per column.
            for i in range(1, self.h + 1):
                for j in range(1, self.w + 1):
                    for l in range(ts.num_colors):
                        terms = (self.cell_sum(i, j, self.without_color["e"][l])
                                 + self.cell_sum(i, 1, self.with_color["w"][l]))
                        if j < self.w:
                            terms += self.cell_sum(i, j + 1, coef=-1.0)
                        self.add_con(f"pvh_{i}_{j}_{l}", terms, LE, 1.0)
            for i in range(1, self.h + 1):
                for j in range(1, self.w + 1):
                    for l in range(ts.num_colors):
                        terms = (self.cell_sum(i, j, self.without_color["s"][l])
                                 + self.cell_sum(1, j, self.with_color["n"][l]))
                        if i < self.h:
                            terms += self.cell_sum(i + 1, j, coef=-1.0)
                        self.add_con(f"pvv_{i}_{j}_{l}", terms, LE, 1.0)
        elif isinstance(ext, SmallestObjective):
            self.objective = self._sum_obj("min")
        elif isinstance(ext, Packing):
            for k in range(len(ts)):
                terms = [(1.0, self.x(i, j, k))
                         for i in range(1, self.h + 1)
                         for j in range(1, self.w + 1)]
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


def _parse_expr(tokens: list[str]):
    """Signed linear expression -> (terms as (coef, name), constant)."""
    terms: list[tuple[float, str]] = []
    constant = 0.0
    sign = 1.0
    coef: float | None = None
    for tok in tokens:
        if tok == "+":
            sign, coef = 1.0, None
        elif tok == "-":
            sign, coef = -1.0, None
        else:
            try:
                val = float(tok)
            except ValueError:
                terms.append((sign * (1.0 if coef is None else coef), tok))
                sign, coef = 1.0, None
            else:
                if coef is None:
                    coef = val
                else:  # two numbers in a row: the first was a constant
                    constant += sign * coef
                    coef = val
    if coef is not None:
        constant += sign * coef
    return terms, constant


def parse_lp(text: str) -> IlpModel:
    """Parse the LP subset produced by :func:`emit_lp` back into a model."""
    section = None
    obj_sense = "none"
    obj_tokens: list[str] = []
    con_lines: list[str] = []
    bounds: list[str] = []
    binaries: list[str] = []
    for raw in text.splitlines():
        line = raw.split("\\")[0].rstrip()
        if not line.strip():
            continue
        word = line.strip().lower()
        if word in ("maximize", "minimize"):
            section = "objective"
            obj_sense = "max" if word == "maximize" else "min"
            continue
        if word == "subject to":
            section = "constraints"
            continue
        if word == "bounds":
            section = "bounds"
            continue
        if word in ("binaries", "binary", "bin"):
            section = "binaries"
            continue
        if word == "end":
            break
        if section == "objective":
            obj_tokens.append(line.strip())
        elif section == "constraints":
            if ":" in line:
                con_lines.append(line.strip())
            else:
                con_lines[-1] += " " + line.strip()
        elif section == "bounds":
            bounds.append(line.strip())
        elif section == "binaries":
            binaries.extend(line.split())

    var_order: list[Var] = []
    index: dict[str, int] = {}
    for name in binaries:
        index[name] = len(var_order)
        var_order.append(Var(name, BINARY, 0.0, 1.0))
    for b in bounds:
        toks = b.split()
        if len(toks) != 5 or toks[1] != "<=" or toks[3] != "<=":
            raise ValueError(f"unsupported bounds line: {b!r}")
        name = toks[2]
        index[name] = len(var_order)
        var_order.append(Var(name, CONTINUOUS, float(toks[0]), float(toks[4])))

    def resolve(named_terms):
        out = []
        for coef, name in named_terms:
            if name not in index:
                raise ValueError(f"undeclared variable {name!r}")
            out.append((coef, index[name]))
        return tuple(out)

    obj_text = " ".join(obj_tokens)
    if ":" in obj_text:
        obj_text = obj_text.split(":", 1)[1]
    oterms, oconst = _parse_expr(obj_text.split())
    objective = (Objective("none", ()) if not oterms
                 else Objective(obj_sense, resolve(oterms), oconst))

    cons = []
    for line in con_lines:
        name, body = line.split(":", 1)
        toks = body.split()
        sense_pos = max(((p, t) for p, t in enumerate(toks) if t in (LE, EQ, GE)),
                        default=None)
        if sense_pos is None:
            raise ValueError(f"constraint without sense: {line!r}")
        pos, sense = sense_pos
        terms, const = _parse_expr(toks[:pos])
        rhs = float(toks[pos + 1]) - const
        cons.append(LinCon(name.strip(), resolve(terms), sense, rhs))
    return IlpModel(tuple(var_order), tuple(cons), objective)


# -- assignment evaluation ----------------------------------------------------

@dataclass(frozen=True)
class Evaluation:
    feasible: bool
    objective: float
    violated: tuple[str, ...]


def evaluate_assignment(m: IlpModel, t: Tiling, tol: float = 1e-9) -> Evaluation:
    """Map a tiling onto the model's variables and check every constraint.

    Placement variables follow the tiling; slack variables take their
    smallest feasible values given the placements.  Works for any model built
    by :func:`build_model` whose grid matches the tiling's dimensions.
    """
    dims_h = dims_w = max_k = 0
    for v in m.variables:
        if v.name.startswith("x_"):
            i, j, k = (int(p) for p in v.name.split("_")[1:])
            dims_h, dims_w, max_k = max(dims_h, i), max(dims_w, j), max(max_k, k)
    if (dims_h, dims_w) != (t.height, t.width):
        raise StructuralError(
            f"model grid {dims_h}x{dims_w} does not match tiling "
            f"{t.height}x{t.width}")
    if int(t.cells.max()) > max_k:
        raise StructuralError("tiling references tile ids beyond the model's")

    values = [0.0] * len(m.variables)
    slack_positions: list[int] = []
    for vi, v in enumerate(m.variables):
        if v.name.startswith("x_"):
            i, j, k = (int(p) for p in v.name.split("_")[1:])
            values[vi] = 1.0 if t.get(i, j) == k else 0.0
        elif v.kind == CONTINUOUS:
            slack_positions.append(vi)

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
