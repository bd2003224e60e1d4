import hashlib
import itertools
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wangtiler as wt
import wangtiler.ilp as ilp
from wangtiler import (ConfigurationError, DifferentEdgeColors, DifferentTile,
                       EqualEdgeColors, ForbidEdgeColor, ForbidTile,
                       ForceEdgeColor, ForceTile, Packing, PeriodicFixed,
                       PeriodicVariable, SameTile, SmallestObjective,
                       StructuralError, Tile, TileSet, Tiling, VOID,
                       builtin_set, complete_stochastic_set, solve_decision,
                       validate_tiling)
from wangtiler.ilp import (FORMULATIONS, ModelSpec, build_model, emit_lp,
                           evaluate_assignment, parse_lp, x_name)

import lp_matrix
from helpers import lp_row, random_tileset, reference_emit_lp
from wangtiler.bench import resolve_set


CELL_EXTS = (ForceTile(1, 1, 0), ForbidTile(2, 2, 1), SameTile(1, 1, 2, 2),
             DifferentTile(1, 2, 2, 1), ForceEdgeColor(1, 1, "n", 0),
             ForbidEdgeColor(2, 2, "e", 1), EqualEdgeColors(1, 1, "n", 2, 2, "w"),
             DifferentEdgeColors(1, 1, "s", 2, 2, "e"))


def spec(ts, h, w, formulation, *exts):
    return ModelSpec(ts, h, w, formulation, tuple(exts))


def names(m, prefix):
    return [c for c in m.constraints if c.name.startswith(prefix)]


def signature(m):
    return sorted((name, sense, rhs, tuple(sorted(terms.items())))
                  for name, terms, sense, rhs in
                  (lp_row(m, r) for r in range(len(m.constraints))))


# -- builder -------------------------------------------------------------------

def test_decision_fig3_2x2_counts():
    m = build_model(spec(builtin_set("fig3"), 2, 2, "decision"))
    assert len(m.variables) == 12
    assert m.variables.binary.all()
    assert len(names(m, "v_")) == 1 * 2 * 2
    assert len(names(m, "h_")) == 2 * 1 * 2
    assert len(names(m, "occ_")) == 4
    assert len(m.constraints) == 12
    assert m.objective.sense == "none"


def test_decision_boundary_union_no_duplicates():
    m = build_model(spec(builtin_set("fig3"), 1, 3, "decision"))
    occ = names(m, "occ_")
    assert [c.name for c in occ] == ["occ_1_1", "occ_1_2", "occ_1_3"]
    m = build_model(spec(builtin_set("fig3"), 1, 1, "decision"))
    assert [c.name for c in names(m, "occ_")] == ["occ_1_1"]


def test_variable_naming_scheme():
    m = build_model(spec(builtin_set("fig3"), 2, 3, "decision"))
    assert m.variables.names[0] == "x_1_1_0"
    assert x_name(2, 3, 1) == "x_2_3_1"
    assert m.variables.names[-1] == "x_2_3_2"


def test_max_rect_structure():
    m = build_model(spec(builtin_set("fig3"), 3, 3, "max_rect"))
    assert all(c.sense == ">=" for c in names(m, "v_") + names(m, "h_"))
    assert len(names(m, "rect_")) == 4
    anchor = next(c for c in m.constraints if c.name == "occ_1_1")
    assert anchor.sense == "=" and anchor.rhs == 1
    others = [c for c in names(m, "occ_") if c.name != "occ_1_1"]
    assert all(c.sense == "<=" for c in others)
    assert m.objective.sense == "max" and len(m.objective.indices) == 27


def test_max_cover_structure():
    ts = builtin_set("fig3")
    m = build_model(spec(ts, 2, 2, "max_cover"))
    assert all(c.sense == "<=" for c in m.constraints)
    # paired indicator families: e=l on the left cell, w!=l on the right
    _, terms, _, _ = lp_row(m, m.constraints.names.index("h_1_1_0"))
    assert terms == {"x_1_1_0": 1.0, "x_1_2_0": 1.0, "x_1_2_1": 1.0}


def test_max_csp_structure():
    m = build_model(spec(builtin_set("fig3"), 2, 2, "max_csp"))
    var, slack = m.variables, ~m.variables.binary
    slack_names = [name for name, s in zip(var.names, slack) if s]
    assert slack_names == ["hv_1_1", "hv_2_1", "hh_1_1", "hh_1_2"]
    assert (var.lower[slack] == 0.0).all() and (var.upper[slack] == 1.0).all()
    assert len(names(m, "v_")) == 2 * 2 * 2  # _p and _m per (i,j,l)
    assert len(names(m, "h_")) == 2 * 2 * 2
    assert m.objective.sense == "max"
    assert m.objective.constant == 4.0


def test_extension_compatibility_matrix():
    ts = builtin_set("fig3")
    build_model(spec(ts, 2, 2, "decision", PeriodicFixed()))
    build_model(spec(ts, 2, 2, "max_csp", PeriodicFixed()))
    with pytest.raises(ConfigurationError):
        build_model(spec(ts, 2, 2, "max_rect", PeriodicFixed()))
    build_model(spec(ts, 2, 2, "max_rect", PeriodicVariable()))
    with pytest.raises(ConfigurationError):
        build_model(spec(ts, 2, 2, "max_cover", PeriodicVariable()))
    build_model(spec(ts, 2, 2, "max_rect", SmallestObjective()))
    with pytest.raises(ConfigurationError):
        build_model(spec(ts, 2, 2, "decision", SmallestObjective()))


@pytest.mark.parametrize("h, w, formulation, exts, message", [
    (2, 2, "bogus", (), "formulation must be one of"),
    (0, 2, "decision", (), "grid dimensions must be positive"),
    (2, 2, "decision", ("not an extension",), "unknown extension 'not an extension'"),
    (2.0, 3, "decision", (), "grid dimensions must be integers"),
])
def test_build_rejects_a_spec_it_cannot_model(h, w, formulation, exts, message):
    with pytest.raises(ConfigurationError, match=message):
        build_model(spec(builtin_set("fig3"), h, w, formulation, *exts))


def test_model_parts_compare_by_value_and_type():
    m = build_model(spec(builtin_set("fig3"), 1, 2, "max_csp"))
    again = build_model(spec(builtin_set("fig3"), 1, 2, "max_csp"))
    assert m.variables == again.variables and m.objective == again.objective
    assert m.variables != m.objective and m.constraints != 5


def test_a_constraints_slice_is_constraints():
    m = build_model(spec(builtin_set("fig3"), 2, 2, "max_rect"))
    con = m.constraints
    for part in (slice(1, 4), slice(None, None, -2), slice(5, 5)):
        rows = range(len(con))[part]
        got = con[part]
        assert isinstance(got, ilp.Constraints) and len(got) == len(rows)
        assert [got[r] for r in range(len(got))] == [con[r] for r in rows]


def test_packing_requires_matching_cardinality():
    ts = complete_stochastic_set(2)
    m = build_model(spec(ts, 4, 4, "decision", Packing()))
    assert len(names(m, "pack_")) == 16
    with pytest.raises(ConfigurationError):
        build_model(spec(ts, 3, 4, "decision", Packing()))
    with pytest.raises(ConfigurationError):
        build_model(spec(ts, 4, 4, "max_cover", Packing()))


def test_tile_and_color_extensions_build_everywhere():
    ts = builtin_set("fig3")
    for formulation in FORMULATIONS:
        m = build_model(spec(ts, 2, 2, formulation, *CELL_EXTS))
        assert names(m, "force_1_1_0") and names(m, "eqcol_")


def test_extension_coordinate_validation():
    ts = builtin_set("fig3")
    with pytest.raises(ConfigurationError):
        build_model(spec(ts, 2, 2, "decision", ForceTile(3, 1, 0)))
    with pytest.raises(ConfigurationError):
        build_model(spec(ts, 2, 2, "decision", ForceTile(1, 1, 9)))
    with pytest.raises(ConfigurationError):
        build_model(spec(ts, 2, 2, "decision", ForceEdgeColor(1, 1, "x", 0)))
    with pytest.raises(ConfigurationError):
        build_model(spec(ts, 2, 2, "decision", ForceEdgeColor(1, 1, "n", 5)))


def test_smallest_objective_flips_sense():
    m = build_model(spec(builtin_set("fig3"), 2, 2, "max_rect",
                         PeriodicVariable(), SmallestObjective()))
    assert m.objective.sense == "min"
    assert names(m, "pvh_") and names(m, "pvv_")


# -- emission and parsing ---------------------------------------------------------

def test_emit_decision_header():
    m = build_model(spec(builtin_set("fig3"), 1, 1, "decision"))
    text = emit_lp(m)
    lines = text.splitlines()
    assert lines[0] == "Minimize"
    assert lines[1] == " obj: 0"
    assert "Binaries" in lines
    assert lines[-1] == "End"


def test_emit_deterministic():
    s = spec(builtin_set("finite1"), 3, 4, "max_csp", ForceTile(1, 1, 2))
    assert emit_lp(build_model(s)) == emit_lp(build_model(s))


def pinned_specs():
    fig3, finite1 = builtin_set("fig3"), builtin_set("finite1")
    cases = {}
    for f in FORMULATIONS:
        cases[f"{f} fig3 2x3"] = spec(fig3, 2, 3, f)
        cases[f"{f} finite1 3x2"] = spec(finite1, 3, 2, f)
        cases[f"{f} fig3 1x1"] = spec(fig3, 1, 1, f)
    for ext in CELL_EXTS:
        cases[f"decision fig3 2x3 {type(ext).__name__}"] = spec(
            fig3, 2, 3, "decision", ext)
    for f in ("decision", "max_csp"):
        cases[f"{f} finite1 3x2 PeriodicFixed"] = spec(
            finite1, 3, 2, f, PeriodicFixed())
    cases["max_rect finite1 3x2 PeriodicVariable SmallestObjective"] = spec(
        finite1, 3, 2, "max_rect", PeriodicVariable(), SmallestObjective())
    cases["decision complete:2 4x4 Packing"] = spec(
        complete_stochastic_set(2), 4, 4, "decision", Packing())
    # Rows of 256 terms: their occ rows wrap onto 26 lines.
    c4 = complete_stochastic_set(4)
    for f in ("max_cover", "max_csp"):
        cases[f"{f} complete:4 2x2"] = spec(c4, 2, 2, f)
    cases["decision complete:4 2x2 PeriodicFixed"] = spec(
        c4, 2, 2, "decision", PeriodicFixed())
    return cases


# SHA-256 of the emitted LP text; pins constraint order and term order,
# which the sorted signature() comparisons above do not see.
PINNED_LP = {
    "decision fig3 2x3":
        "77d6cd6a19ea23355e270ab233050b2c66f82338b963f29ae7b83327a93c5ec3",
    "decision finite1 3x2":
        "0aea6af91a9a4705b6010f1940f6026380f54e09ef12cf67518145221ea942ab",
    "decision fig3 1x1":
        "493f2616471e5203adf6c0fab27b1f965713b974397f7ba376cb8676775ba0f8",
    "max_rect fig3 2x3":
        "b045ef44a23fb5ef95049c3c20ea3b1986493bf1cf1b510c4698dc97b3e39b3a",
    "max_rect finite1 3x2":
        "f392e6c4586147a240c88ee9e4111cd3e8e9c60e5ae2cb105091971d49b008af",
    "max_rect fig3 1x1":
        "abbafcce871180f3198e13cedb959fa97c107dede1bd29d478012ec5ed6d9cd5",
    "max_cover fig3 2x3":
        "5919769d4e3987f7bd1722d6c69e5eca01e14906796164ef422ee8185796d270",
    "max_cover finite1 3x2":
        "1d13d8d77ef309bae7ea00c1df27ae70c602920708d418b83909e7234767d36e",
    "max_cover fig3 1x1":
        "546e9b065a99c8da5602cce4045926f3b37587da311e42c5c4a07fb660a2de25",
    "max_csp fig3 2x3":
        "03e493e93753848b3c9419b3dd53bb94c596cdaae348add017b1466baffc5650",
    "max_csp finite1 3x2":
        "f85d93a9cc47cabb9e4b6c786d6a210624e87d35f1936744870cde1839839fef",
    "max_csp fig3 1x1":
        "8d5449717738b04b4d42a89cb4ad510300dc1cb344bb8ca8554fca159942fffb",
    "decision fig3 2x3 ForceTile":
        "142a3f37b11a1f8585ccfa2b53f1f4fe6f6f01cc696e67e39cd5ce3bd92edae0",
    "decision fig3 2x3 ForbidTile":
        "8283c90472e1aa051daebdb7d496197a2470f4d4e83ea0d7040bb2acaec3fb2c",
    "decision fig3 2x3 SameTile":
        "aa61a9619f2382c10a3bd1497286fc283aa138db213455f1d1666dd471b31414",
    "decision fig3 2x3 DifferentTile":
        "69f95a1ffa075c9438b946f53d8124fb1c53cc75379df46e09e4c8496fa88d43",
    "decision fig3 2x3 ForceEdgeColor":
        "19e453d810347bff8e9a8f447031c473e740068ff5619f53ae10dd364ecf5a25",
    "decision fig3 2x3 ForbidEdgeColor":
        "2e068ea598ed3c12e30a18f68767b9040571671ec3ad6d04c014a8244ffb83e6",
    "decision fig3 2x3 EqualEdgeColors":
        "fb6836b688dc20f7e884d306e105a2cf398d29ea31ee3a9ee6efe63546bb14d8",
    "decision fig3 2x3 DifferentEdgeColors":
        "9c1053d5040f228fc04f08f128712e141acbf268762fefab9e595aa2b97df695",
    "decision finite1 3x2 PeriodicFixed":
        "4f660180881c476ad0d447971edf40d78a6fa6ab39ed197d1a73d4aa49cc0ea1",
    "max_csp finite1 3x2 PeriodicFixed":
        "47b63569772d71c33c5424b75c7b8e783cf7cc921abd74b94dbda16a5127a00a",
    "max_rect finite1 3x2 PeriodicVariable SmallestObjective":
        "403ef58412eb96e43767feedfe5832716cee264e9ac7f917b01bf3a733f04458",
    "decision complete:2 4x4 Packing":
        "ee6f38a1bffc2ca796a71a4b82e581df67a020bf15080f3d554e5d1d051ba97a",
    "max_cover complete:4 2x2":
        "861401929bc9641fc715d5de604d54805330440a15588fe0f7b93d6a749d6794",
    "max_csp complete:4 2x2":
        "0b9640f732d1346db0aa71d7f351173332ce96c7326b4f333033d098ada564d5",
    "decision complete:4 2x2 PeriodicFixed":
        "9f5fe494db1ba2a9497c2becf358c05fe8f03c4f012e7f83623c2b01a4e1e968",
}


def test_emit_lp_pinned():
    got = {label: hashlib.sha256(emit_lp(build_model(s)).encode()).hexdigest()
           for label, s in pinned_specs().items()}
    assert got == PINNED_LP


@st.composite
def lp_models(draw):
    """A hand-built model: up to 6 variables, binary or bounded; up to 4
    rows of 0-25 terms, so that the sense and the right-hand side fall on
    both sides of a line break; an objective of 0-25 terms with or without
    a constant."""
    n = draw(st.integers(0, 6))
    binary = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    bound = st.sampled_from([0.0, 1.0, -2.5, 3.0])
    coef = st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 1e-7, -1e-7, 1e16, -1e16])

    def terms():
        size = draw(st.integers(0, 25 if n else 0))
        indices = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=size,
                                max_size=size))
        data = draw(st.lists(coef, min_size=size, max_size=size))
        return np.array(indices, dtype=np.int32), np.array(data)

    variables = ilp.Variables(tuple(f"v_{vi}" for vi in range(n)), binary,
                              np.array(draw(st.lists(bound, min_size=n, max_size=n))),
                              np.array(draw(st.lists(bound, min_size=n, max_size=n))))
    rows = [terms() for _ in range(draw(st.integers(0, 4)))]
    constraints = ilp.Constraints(
        tuple(f"c_{r}" for r in range(len(rows))),
        np.array(draw(st.lists(st.sampled_from(["<=", "=", ">="]), min_size=len(rows),
                               max_size=len(rows))), dtype="<U2"),
        np.array(draw(st.lists(st.sampled_from([0.0, 1.0, -3.0, 2.5, 1e16]),
                               min_size=len(rows), max_size=len(rows)))),
        np.cumsum([0] + [len(i) for i, _ in rows]),
        np.concatenate([np.empty(0, np.int32)] + [i for i, _ in rows]),
        np.concatenate([np.empty(0)] + [d for _, d in rows]))
    objective = ilp.Objective(draw(st.sampled_from(["max", "min", "none"])), *terms(),
                              draw(st.sampled_from([0.0, 760.0, -3.0, 2.5])))
    return ilp.IlpModel(variables, constraints, objective)


@settings(max_examples=300, deadline=None)
@given(lp_models())
def test_emit_lp_matches_the_row_by_row_formatter(m):
    text = emit_lp(m)
    assert text == reference_emit_lp(m)
    back = parse_lp(text)
    assert emit_lp(back) == text
    assert back.objective.constant == m.objective.constant


def test_emit_keeps_the_sign_of_a_term_less_objective_constant():
    # An objective with no terms is its constant alone; a negative one keeps
    # its sign as a "- " token, a positive one is written bare.
    for constant, line in ((-3.0, " obj: - 3"), (760.0, " obj: 760"), (0.0, " obj: 0")):
        m = ilp.IlpModel(ilp.Variables((), np.empty(0, bool), np.empty(0), np.empty(0)),
                         ilp.Constraints((), np.empty(0, "<U2"), np.empty(0),
                                         np.zeros(1, np.int64), np.empty(0, np.int32),
                                         np.empty(0)),
                         ilp.Objective("min", np.empty(0, np.int32), np.empty(0), constant))
        text = emit_lp(m)
        assert text.splitlines()[1] == line
        assert parse_lp(text).objective.constant == constant


def with_value(m, part, field, at, value):
    """The model with ``value`` written into one field of one of its parts,
    at index ``at`` of an array field (``None`` for a number)."""
    holder = getattr(m, part)
    new = value
    if at is not None:
        new = getattr(holder, field).copy()
        new[at] = value
    return replace(m, **{part: replace(holder, **{field: new})})


# A number written into a built model, and the error emit_lp raises.
NONFINITE = [
    ("decision fig3 1x1", "constraints", "rhs", 0, np.inf,
     "row 'occ_1_1': non-finite right-hand side inf"),
    ("decision fig3 1x1", "constraints", "data", 1, np.nan,
     "row 'occ_1_1': non-finite coefficient nan of 'x_1_1_1'"),
    ("max_csp fig3 1x3", "variables", "upper", -1, np.inf,
     "variable 'hv_1_2': non-finite bound inf"),
    ("max_csp fig3 1x3", "variables", "lower", -2, -np.inf,
     "variable 'hv_1_1': non-finite bound -inf"),
    ("max_csp fig3 1x3", "objective", "data", 0, -np.inf,
     "obj: non-finite coefficient -inf of 'hv_1_1'"),
    ("max_csp fig3 1x3", "objective", "constant", None, np.nan,
     "obj: non-finite constant nan"),
]


@pytest.mark.parametrize("label, part, field, at, value, message", NONFINITE)
def test_emit_rejects_a_non_finite_number(label, part, field, at, value, message):
    formulation, name, size = label.split()
    h, w = map(int, size.split("x"))
    m = build_model(spec(builtin_set(name), h, w, formulation))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        emit_lp(with_value(m, part, field, at, value))


def with_name(m, part, at, name):
    """The model with ``name`` written over one name of its variables or
    constraints."""
    holder = getattr(m, part)
    names = list(holder.names)
    names[at] = name
    return replace(m, **{part: replace(holder, names=tuple(names))})


NAME_RULE = ("a name in LP text is not empty, holds no whitespace and starts "
             "with no digit, '.', '+' or '-'")


@pytest.mark.parametrize("part, at, name, message", [
    ("variables", 0, "a b", f"variable 'a b': {NAME_RULE}"),
    ("variables", -1, "x_1_1_0", "variable 'x_1_1_0' named twice"),
    ("variables", 2, "-a", f"variable '-a': {NAME_RULE}"),
    ("constraints", 0, "", f"row '': {NAME_RULE}"),
    ("constraints", -1, "2c", f"row '2c': {NAME_RULE}"),
    ("constraints", 1, ".5", f"row '.5': {NAME_RULE}"),
    ("constraints", 1, "a\tb", f"row 'a\\tb': {NAME_RULE}"),
])
def test_emit_refuses_a_name_that_does_not_read_back(part, at, name, message):
    m = build_model(spec(builtin_set("fig3"), 1, 3, "max_csp"))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        emit_lp(with_name(m, part, at, name))


#: The characters of the names drawn below: letters, digits, whitespace and
#: the characters that start a number or a sign.
NAME_CHARS = "abZ09 .+-:"


def first_unwritable(m):
    """(kind, name) of the first variable, then row, name that LP text
    cannot hold, or None."""
    seen = set()
    for kind, names in (("variable", m.variables.names), ("row", m.constraints.names)):
        for name in names:
            if not re.fullmatch(r"[^\s0-9.+-]\S*", name) or (kind == "variable"
                                                            and name in seen):
                return kind, name
            seen.add(name)
    return None


@st.composite
def named_lp_models(draw):
    """An lp_models model with up to 3 of its variable and row names
    replaced by text over NAME_CHARS or by a variable's name."""
    m = draw(lp_models())
    for _ in range(draw(st.integers(0, 3))):
        part = draw(st.sampled_from(["variables", "constraints"]))
        if names := getattr(m, part).names:
            name = draw(st.text(NAME_CHARS, max_size=3)
                        | st.sampled_from(m.variables.names or ("",)))
            m = with_name(m, part, draw(st.integers(0, len(names) - 1)), name)
    return m


@settings(max_examples=300, deadline=None)
@given(named_lp_models())
def test_emit_lp_writes_only_names_that_read_back(m):
    if bad := first_unwritable(m):
        kind, name = bad
        with pytest.raises(ValueError, match=f"^{re.escape(f'{kind} {name!r}')}[: ]"):
            emit_lp(m)
        return
    text = emit_lp(m)
    back = parse_lp(text)
    assert emit_lp(back) == text
    binary = m.variables.binary  # the Binaries are declared before the Bounds
    order = np.concatenate((np.flatnonzero(binary), np.flatnonzero(~binary)))
    assert back.variables.names == tuple(m.variables.names[vi] for vi in order)
    assert back.constraints.names == m.constraints.names


def test_emit_parse_round_trip_decision():
    m = build_model(spec(builtin_set("fig3"), 2, 2, "decision"))
    m2 = parse_lp(emit_lp(m))
    assert signature(m) == signature(m2)
    assert emit_lp(m2) == emit_lp(m)


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_emit_parse_round_trip_all_formulations(formulation):
    specs = [s for s in pinned_specs().values() if s.formulation == formulation]
    for s in specs:
        m = build_model(s)
        m2 = parse_lp(emit_lp(m))
        assert signature(m) == signature(m2)
        assert m2.objective == m.objective
        assert m.variables.names == m2.variables.names
        assert emit_lp(m2) == emit_lp(m)


def test_parse_gives_back_the_csr_arrays():
    # Every lp_matrix case over the smaller sets: the parsed model holds the
    # built model's arrays, names, senses, right-hand sides and objective.
    sets = {name: resolve_set(name) for name in lp_matrix.SETS}
    small = [(label, s) for label, s in lp_matrix.cases(wt, sets)
             if s.tileset is not sets["ammann16"]]
    assert len(small) > 500
    for label, s in small:
        m = build_model(s)
        m2 = parse_lp(emit_lp(m))
        assert m2.constraints == m.constraints, label
        assert m2.variables == m.variables, label
        assert m2.objective == m.objective, label


def add_con(terms):
    """The row a list of (coef, variable index) terms makes: equal variables
    summed in order, each at its first occurrence, zero sums dropped."""
    merged = {}
    for coef, vi in terms:
        merged[vi] = merged.get(vi, 0.0) + coef
    return tuple((c, vi) for vi, c in merged.items() if c != 0.0)


def test_rows_that_name_a_cell_twice_merge():
    ts = complete_stochastic_set(2)
    n = len(ts)

    def cell(i, j, w, ids, coef=1.0):
        return [(coef, ((i - 1) * w + j - 1) * n + k) for k in ids]

    def tiles(side, color, other=False):
        return [k for k, c in enumerate(ts.side(side)) if (c != color) == other]

    def rows(m):
        return {c.name: c for c in m.constraints}

    # A pair extension at one cell cancels to empty rows.
    got = rows(build_model(spec(ts, 2, 2, "decision", SameTile(1, 1, 1, 1),
                                EqualEdgeColors(1, 1, "n", 1, 1, "n"))))
    for k in range(n):
        assert got[f"same_1_1_1_1_{k}"].terms == () == add_con(
            cell(1, 1, 2, [k]) + cell(1, 1, 2, [k], -1.0))
    for l in range(2):
        row = got[f"eqcol_1_1_n_1_1_n_{l}"]
        assert row.terms == () and row.sense == "=" and row.rhs == 0.0
    # PeriodicFixed on one row matches each cell's north with its own south.
    got = rows(build_model(spec(ts, 1, 3, "decision", PeriodicFixed())))
    for j in range(1, 4):
        for l in range(2):
            raw = cell(1, j, 3, tiles("n", l)) + cell(1, j, 3, tiles("s", l), -1.0)
            assert got[f"pern_{j}_{l}"].terms == add_con(raw)
            assert add_con(raw) != tuple(raw)
    # PeriodicVariable at the first column wraps onto the cell itself, where
    # a tile lacking east l and showing west l counts twice.
    got = rows(build_model(spec(ts, 2, 2, "max_rect", PeriodicVariable())))
    for i in (1, 2):
        for l in range(2):
            raw = (cell(i, 1, 2, tiles("e", l, True)) + cell(i, 1, 2, tiles("w", l))
                   + cell(i, 2, 2, range(n), -1.0))
            assert got[f"pvh_{i}_1_{l}"].terms == add_con(raw)
            assert 2.0 in [c for c, _ in add_con(raw)]


# Each malformed text, and the line its error names.
MALFORMED = [
    ("Minimize\n obj: 0\nSubject To\n c1: x_1_1_0 = 1\nEnd\n",
     "line 4: undeclared variable 'x_1_1_0'"),
    ("Minimize\n obj: 0\nSubject To\n c1: x_1_1_0 + x_1_1_1\n"
     "Binaries\n x_1_1_0 x_1_1_1\nEnd\n", "line 4: constraint without sense"),
    ("Minimize\n obj: 0\nSubject To\n x_1_1_0 = 1\nBinaries\n x_1_1_0\nEnd\n",
     "line 4: constraint without 'name:'"),
    # an empty row name, which emit_lp would refuse
    ("Minimize\n obj: 0\nSubject To\n : x <= 1\nBinaries\n x\nEnd\n",
     "line 4: constraint without 'name:'"),
    ("Minimize\n obj: 0\nSubject To\n c: x >= 0\n :\n   x <= 1\nBinaries\n x\nEnd\n",
     "line 5: constraint without 'name:'"),
    ("Maximize\n obj: hv_1_1\nSubject To\nBounds\n 0 <= hv_1_1\nEnd\n",
     "line 5: unsupported bounds line"),
    ("Minimize\n obj: 0\nSubject To\n c1: x_1_1_0 + 5 + x_1_1_1 = 1\n"
     "Binaries\n x_1_1_0 x_1_1_1\nEnd\n", "line 4: '.' after a number"),
    ("Minimize\n obj: 0\nSubject To\n c1: x + = 1\nBinaries\n x y\nEnd\n",
     "line 4: '\\+' without a term after it"),
    ("Minimize\n obj: 0\nSubject To\n c1: x + - y = 1\nBinaries\n x y\nEnd\n",
     "line 4: '\\+' without a term after it"),
    ("Minimize\n obj: 0\nSubject To\n c1: - = 1\nBinaries\n x y\nEnd\n",
     "line 4: '-' without a term after it"),
    ("Maximize\n obj: x -\nSubject To\nBinaries\n x\nEnd\n",
     "line 2: '-' without a term after it"),
    ("Minimize\n obj: 0\nSubject To\n c1: x - y z = 1\nBinaries\n x y z\nEnd\n",
     "line 4: 'z' without a sign before it"),
    ("Minimize\n obj: 0\nSubject To\n c1: x y = 1\nBinaries\n x y\nEnd\n",
     "line 4: 'y' without a sign before it"),
    ("Minimize\n obj: 0\nSubject To\n c1: x 2 y = 1\nBinaries\n x y\nEnd\n",
     "line 4: '2' without a sign before it"),
    ("", "line 1: expected Minimize or Maximize"),
    ("\\ a comment\nMinimize\n obj: 0\nSubject To\nEnd\n",
     "line 1: expected Minimize or Maximize"),
    ("minimize\n obj: 0\nSubject To\nEnd\n", "line 1: expected Minimize"),
    ("Minimize\n obj: 0\nSubject To\n c1: x + y = 1\nBounds\n 0 <= x <= 1\n"
     "Binaries\n x y x\nEnd\n", "line 8: 'x' declared twice"),
    # Text that stops early names the header due next; text after End, that
    # nothing may follow.
    ("Minimize\n", "line 2: expected Subject To, got end of text"),
    ("Minimize\n obj: 0\nSubject To\n c1: x = 1\n",
     "line 5: expected Bounds or Binaries or End, got end of text"),
    ("Minimize\n obj: 0\nSubject To\nEnd\n x\n", "line 5: expected nothing, got ' x'"),
    # Non-finite numbers, wherever a number may stand.
    ("Minimize\n obj: 0\nSubject To\n c1: x = nan\nBinaries\n x\nEnd\n",
     "line 4: non-finite number 'nan'"),
    ("Minimize\n obj: 0\nSubject To\n c1: x = 1e999\nBinaries\n x\nEnd\n",
     "line 4: non-finite number '1e999'"),
    ("Minimize\n obj: 0\nSubject To\n c1: x\n   - 1e999 y = 1\nBinaries\n x y\nEnd\n",
     "line 4: non-finite number '1e999'"),
    ("Maximize\n obj: x - 1e999\nSubject To\nBinaries\n x\nEnd\n",
     "line 2: non-finite number '1e999'"),
    ("Minimize\n obj: 0\nSubject To\nBounds\n nan <= y <= inf\nEnd\n",
     "line 5: non-finite number 'nan'"),
    ("Minimize\n obj: 0\nSubject To\nBounds\n 0 <= y <= inf\nEnd\n",
     "line 5: non-finite number 'inf'"),
    # A row's constant moved into a finite right-hand side can overflow;
    # that is checked after every row is read, so other errors win.
    ("Minimize\n obj: 0\nSubject To\n c1: x + 1e308 = -1e308\nBinaries\n x\nEnd\n",
     "line 4: the constant overflows the right-hand side"),
    ("Minimize\n obj: 0\nSubject To\n c0: x = 1\n c1: x + 1e308\n   = -1e308\n"
     "Binaries\n x\nEnd\n", "line 5: the constant overflows the right-hand side"),
    ("Minimize\n obj: 0\nSubject To\n c1: x + 1e308 = -1e308\n c2: z = 1\n"
     "Binaries\n x\nEnd\n", "line 5: undeclared variable 'z'"),
    # The first error in text order: an <expr> error before its row's
    # right-hand side, a row's error before the next row's name or sense.
    ("Minimize\n obj: 0\nSubject To\n c1: x y = nan\nBinaries\n x y\nEnd\n",
     "line 4: 'y' without a sign before it"),
    ("Minimize\n obj: 0\nSubject To\n c1: x + 2x = 1\n c2 x = 1\nBinaries\n x\nEnd\n",
     "line 4: could not convert string to float: '2x'"),
    ("Minimize\n obj: 0\nSubject To\n c1: x + z = 1\n c2: x 1\nBinaries\n x\nEnd\n",
     "line 4: undeclared variable 'z'"),
    ("Minimize\n x: 0\nSubject To\nEnd\n", "line 2: expected ' obj: <expr>', got ' x: 0'"),
    # A declared name is a term, so a sign must still come between two.
    ("Minimize\n obj: 0\nSubject To\n c1: -a x = 1\nBinaries\n -a x\nEnd\n",
     "line 4: 'x' without a sign before it"),
]


@pytest.mark.filterwarnings("error")
def test_parse_rejects_garbage():
    for text, message in MALFORMED:
        with pytest.raises(ValueError, match=message):
            parse_lp(text)


def test_a_name_that_starts_like_a_sign_is_a_term():
    m = parse_lp("Minimize\n obj: -a\nSubject To\n c1: +b - 2 x + -a = 1\n"
                 "Binaries\n x -a +b\nEnd\n")
    assert m.objective.data.tolist() == [1.0]
    assert m.objective.indices.tolist() == [1]
    assert m.constraints[0].terms == ((1.0, 2), (-2.0, 0), (1.0, 1))


@pytest.mark.parametrize("row, names, terms", [
    ("- 2c", "2c", ((-1.0, 0),)),  # spelled like a number
    ("2 -a", "-a", ((2.0, 0),)),  # spelled like a sign, after a number
    ("x + -", "x -", ((1.0, 0), (1.0, 1))),  # a declared sign is no sign
    ("x - +", "x +", ((1.0, 0), (-1.0, 1))),
])
def test_a_declared_name_is_a_term_wherever_it_stands(row, names, terms):
    m = parse_lp(f"Minimize\n obj: 0\nSubject To\n c1: {row} = 1\n"
                 f"Binaries\n {names}\nEnd\n")
    assert m.constraints[0].terms == terms


# -- token batches ------------------------------------------------------------------

def batched_model():
    """complete:2 30x30 max_cover, whose rows hold about two batches of
    <expr> tokens: the model, its text's lines, each row's first line, and
    where each row's <expr> tokens start and end among all rows'."""
    m = build_model(spec(complete_stochastic_set(2), 30, 30, "max_cover"))
    lines = emit_lp(m).splitlines()
    end = lines.index("Binaries")
    first = [k for k in range(lines.index("Subject To") + 1, end)
             if not lines[k].startswith("   ")]
    sizes = [len(" ".join(lines[a:b]).split()) - 3  # less name, sense and rhs
             for a, b in zip(first, first[1:] + [end])]
    ends = np.cumsum(sizes)
    return m, lines, first, ends - sizes, ends


def test_a_row_across_the_batch_size_parses_to_the_built_arrays():
    m, lines, first, starts, ends = batched_model()
    assert ends[-1] > 2 * ilp._BATCH
    assert np.any((starts < ilp._BATCH) & (ends > ilp._BATCH))
    m2 = parse_lp("\n".join(lines) + "\n")
    assert m2.constraints == m.constraints
    assert m2.variables == m.variables and m2.objective == m.objective


def past_the_first_batch(starts) -> int:
    """A row of the second batch, with rows of the same batch after it."""
    return int(np.argmax(starts > ilp._BATCH)) + 3


def test_an_error_past_the_first_batch_names_its_rows_first_line():
    m, lines, first, starts, ends = batched_model()
    r = past_the_first_batch(starts)
    k = first[r] + 1  # the row's second line
    assert lines[k].startswith("   + x_")
    lines[k] = lines[k].replace("+ x_", "+ y_", 1)
    with pytest.raises(ValueError, match=f"^line {first[r] + 1}: undeclared variable 'y_"):
        parse_lp("\n".join(lines) + "\n")


@pytest.mark.parametrize("at, old, new, message", [
    (0, ": ", " ", "constraint without 'name:'"),
    (-1, "<= 1", "== 1", "constraint without sense"),
    (-1, "<= 1", "<= one", "could not convert string to float: 'one'"),
    (-1, "<= 1", "<= inf", "non-finite number 'inf'")])
def test_a_rows_expr_error_comes_before_the_next_rows_error(at, old, new, message):
    m, lines, first, starts, ends = batched_model()
    r = past_the_first_batch(starts)
    k = (first[r + 1], first[r + 2] - 1)[at]  # the next row's first or last line
    assert old in lines[k]
    lines[k] = lines[k].replace(old, new, 1)
    with pytest.raises(ValueError, match=f"^line {first[r + 1] + 1}: {message}"):
        parse_lp("\n".join(lines) + "\n")
    lines[first[r]] = lines[first[r]].replace(": x_", ": z_", 1)
    with pytest.raises(ValueError, match=f"^line {first[r] + 1}: undeclared variable 'z_"):
        parse_lp("\n".join(lines) + "\n")


# -- evaluation ---------------------------------------------------------------------

def test_evaluate_decision_valid_and_invalid():
    ts = builtin_set("fig3")
    m = build_model(spec(ts, 2, 2, "decision"))
    res = solve_decision(ts, 2, 2)
    ev = evaluate_assignment(m, res.witness)
    assert ev.feasible and ev.objective == 0.0
    bad = Tiling([[0, 0], [0, 0]])
    assert not validate_tiling(ts, bad).is_valid
    ev = evaluate_assignment(m, bad)
    assert not ev.feasible and ev.violated


def test_evaluate_all_void_max_cover():
    m = build_model(spec(builtin_set("fig3"), 2, 2, "max_cover"))
    ev = evaluate_assignment(m, Tiling.filled(2, 2))
    assert ev.feasible and ev.objective == 0.0


def test_evaluate_max_cover_objective_counts_tiles():
    ts = builtin_set("fig3")
    m = build_model(spec(ts, 3, 3, "max_cover"))
    run = wt.cover(ts, 3, 3, "simple", seed=0)
    ev = evaluate_assignment(m, run.tiling)
    assert ev.feasible
    assert ev.objective == run.placed


def test_evaluate_max_csp_mismatch_drops_objective():
    ts = TileSet([Tile(0, 0, 0, 0), Tile(1, 1, 1, 1)], num_colors=2)
    m = build_model(spec(ts, 1, 2, "max_csp"))
    good = evaluate_assignment(m, Tiling([[0, 0]]))
    bad = evaluate_assignment(m, Tiling([[0, 1]]))
    assert good.feasible and bad.feasible
    assert good.objective == 1.0
    assert bad.objective == 0.0


def test_evaluate_max_csp_full_valid_identity():
    ts = complete_stochastic_set(2)
    for (h, w) in [(3, 3), (4, 5)]:
        run = wt.cover(ts, h, w, "simple", seed=1, improve=False)
        assert run.placed == h * w
        m = build_model(spec(ts, h, w, "max_csp"))
        ev = evaluate_assignment(m, run.tiling)
        assert ev.feasible
        assert ev.objective == 2 * h * w - h - w


def test_evaluate_dimension_mismatch():
    m = build_model(spec(builtin_set("fig3"), 2, 2, "decision"))
    with pytest.raises(StructuralError):
        evaluate_assignment(m, Tiling.filled(2, 3))
    with pytest.raises(StructuralError, match="tile ids beyond the model's"):
        evaluate_assignment(m, Tiling([[0, 1], [2, 3]]))
    # Placements are read from the layout: binaries out of x_i_j_k order, or
    # one that is no placement, do not fit it.
    ts = TileSet([Tile(0, 0, 0, 0), Tile(1, 1, 1, 1)])
    text = emit_lp(build_model(spec(ts, 1, 1, "decision")))
    swapped = text.replace(" x_1_1_0 x_1_1_1\n", " x_1_1_1 x_1_1_0\n")
    for lp in (swapped, text.replace("x_1_1_1", "y")):
        with pytest.raises(StructuralError):
            evaluate_assignment(parse_lp(lp), Tiling([[0]]))


@pytest.mark.parametrize("h, w, n", [(1, 1, 1), (3, 12, 11), (12, 3, 16)])
def test_x_names_are_the_layout(h, w, n):
    # one- and two-digit rows, columns and tile ids
    assert ilp._x_names(h, w, n) == [
        x_name(i, j, k) for i, j, k in itertools.product(range(1, h + 1),
                                                         range(1, w + 1), range(n))]


def test_evaluate_refuses_swapped_placements():
    # The right names in the wrong order: two placements of different cells
    # and tiles swap places in the Binaries, the constraints unchanged.
    ts = complete_stochastic_set(2)
    text = emit_lp(build_model(spec(ts, 2, 11, "max_cover")))
    head, binaries = text.split("\nBinaries\n")
    other = {"x_1_10_3": "x_2_1_10", "x_2_1_10": "x_1_10_3"}
    swapped = re.sub(r"(?<=\s)x_(1_10_3|2_1_10)(?=\s)",
                     lambda m: other[m.group()], binaries)
    assert swapped != binaries and sorted(swapped.split()) == sorted(binaries.split())
    tiling = Tiling.filled(2, 11)
    assert evaluate_assignment(parse_lp(text), tiling).feasible
    with pytest.raises(StructuralError, match="x_i_j_k layout of a 2x11 tiling"):
        evaluate_assignment(parse_lp(head + "\nBinaries\n" + swapped), tiling)


@st.composite
def tilings(draw):
    """A random set (``helpers.random_tileset``), a grid up to 4x4 and a full
    tiling of it, either random or a decision witness, plus the same tiling
    with some cells VOID."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ts = random_tileset(rng, max_colors=3, max_tiles=6)
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    res = solve_decision(ts, h, w) if draw(st.booleans()) else None
    if res is not None and res.status == wt.VALID:
        cells = res.witness.cells
    else:
        cells = np.array([[rng.randrange(len(ts)) for _ in range(w)]
                          for _ in range(h)], dtype=np.int32)
    voids = np.array(draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w)))
    return ts, Tiling(cells), Tiling(np.where(voids.reshape(h, w), VOID, cells))


def round_trip(ts, h, w, formulation):
    return parse_lp(emit_lp(build_model(spec(ts, h, w, formulation))))


@settings(max_examples=200, deadline=None)
@given(tilings())
def test_evaluation_agrees_with_validation(case):
    ts, full, partial = case
    h, w = full.height, full.width
    ev = evaluate_assignment(round_trip(ts, h, w, "max_cover"), partial)
    assert ev.feasible == validate_tiling(ts, partial).is_valid
    assert ev.objective == partial.placed
    e, wst, s, n = (np.array(side)[full.cells] for side in
                    (ts.easts, ts.wests, ts.souths, ts.norths))
    matched = (np.count_nonzero(e[:, :-1] == wst[:, 1:])
               + np.count_nonzero(s[:-1] == n[1:]))
    valid = validate_tiling(ts, full).is_valid
    ev = evaluate_assignment(round_trip(ts, h, w, "max_csp"), full)
    assert ev.feasible and ev.objective == matched
    assert (ev.objective == 2 * h * w - h - w) == valid
    assert evaluate_assignment(round_trip(ts, h, w, "decision"), full).feasible == valid


def test_evaluate_periodic_fixed():
    ts = complete_stochastic_set(2)
    m = build_model(spec(ts, 2, 2, "decision", PeriodicFixed()))
    torus = wt.count_torus(ts, 2, 2)[1][0]
    assert evaluate_assignment(m, torus).feasible
    res = solve_decision(ts, 2, 2)
    ev = evaluate_assignment(m, res.witness)
    # a generic witness need not wrap; the validator just has to notice
    wraps = all(ts.easts[res.witness.get(i, 2)] == ts.wests[res.witness.get(i, 1)]
                for i in (1, 2)) and \
            all(ts.souths[res.witness.get(2, j)] == ts.norths[res.witness.get(1, j)]
                for j in (1, 2))
    assert ev.feasible == wraps


def test_decision_model_agrees_with_exact_solver():
    rng = random.Random(12)
    for _ in range(30):
        ts = random_tileset(rng, max_colors=3, max_tiles=6)
        h, w = rng.randint(1, 4), rng.randint(1, 4)
        m = build_model(spec(ts, h, w, "decision"))
        res = solve_decision(ts, h, w)
        if res.status == wt.VALID:
            assert evaluate_assignment(m, res.witness).feasible


def test_max_rect_full_assignments_match_decision():
    rng = random.Random(13)
    for _ in range(20):
        ts = random_tileset(rng, max_colors=2, max_tiles=5)
        h, w = 2, 2
        md = build_model(spec(ts, h, w, "decision"))
        mr = build_model(spec(ts, h, w, "max_rect"))
        for assign in itertools.product(range(len(ts)), repeat=h * w):
            t = Tiling(np.array(assign, dtype=np.int32).reshape(h, w))
            assert (evaluate_assignment(md, t).feasible
                    == evaluate_assignment(mr, t).feasible)


def test_max_rect_partial_rectangle_feasible():
    ts = builtin_set("fig3")
    m = build_model(spec(ts, 2, 2, "max_rect"))
    ev = evaluate_assignment(m, Tiling([[1, 0], [VOID, VOID]]))
    assert ev.feasible and ev.objective == 2.0
    # detached tile without the anchor violates the dominance constraints
    ev = evaluate_assignment(m, Tiling([[VOID, VOID], [VOID, 1]]))
    assert not ev.feasible
