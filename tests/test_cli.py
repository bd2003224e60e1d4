import hashlib
import json
import os
import re

import numpy as np
import pytest

import wangtiler as wt
from wangtiler.bench import resolve_set
from wangtiler.cli import main, parse_extension
from wangtiler.fileio import load_tileset, load_tiling, save_tileset


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_extension_forms():
    from wangtiler import (DifferentTile, ForceEdgeColor, ForceTile, Packing,
                           PeriodicFixed, PeriodicVariable, SmallestObjective)
    assert parse_extension("force:1,2,3") == ForceTile(1, 2, 3)
    assert parse_extension("forcecol:1,2,n,0") == ForceEdgeColor(1, 2, "n", 0)
    assert parse_extension("difftile:1,1,2,2") == DifferentTile(1, 1, 2, 2)
    assert parse_extension("periodic") == PeriodicFixed()
    assert parse_extension("periodic-var") == PeriodicVariable()
    assert parse_extension("smallest") == SmallestObjective()
    assert parse_extension("packing") == Packing()
    assert parse_extension("eqcol:1,1,n,2,2,w") == wt.EqualEdgeColors(
        1, 1, "n", 2, 2, "w")
    for text, message in [
            ("force:1,2", "bad extension 'force:1,2': expected i,j,k"),
            ("force:1,2,3,4", "bad extension 'force:1,2,3,4': expected i,j,k"),
            ("forcecol:1,2,n", "expected i,j,side,color"),
            ("periodic:1", "bad extension 'periodic:1': expected no values"),
            ("force:a,2,3", "invalid literal for int()"),
            ("mystery:1", "unknown extension kind 'mystery'")]:
        with pytest.raises(wt.ConfigurationError, match=re.escape(message)):
            parse_extension(text)


def test_solve_exit_codes_and_output(tmp_path, capsys):
    out = tmp_path / "w.tiling"
    code, text, _ = run(capsys, "solve", "--tileset", "fig3", "--h", "3",
                        "--w", "3", "-o", str(out))
    assert code == 0 and "VALID" in text
    tiling = load_tiling(out)
    assert wt.validate_tiling(wt.builtin_set("fig3"), tiling).is_valid

    code, text, _ = run(capsys, "solve", "--tileset", "finite1",
                        "--h", "8", "--w", "5")
    assert code == 1
    assert "status: INFEASIBLE (states 1988, no partial tiling survives row 8)" in text
    code, text, _ = run(capsys, "solve", "--tileset", "finite1",
                        "--h", "12", "--w", "15")
    assert code == 1 and "no partial tiling survives column 5" in text
    assert "cap crossed" not in text

    code, text, _ = run(capsys, "solve", "--tileset", "finite1",
                        "--h", "6", "--w", "6", "--cap", "10")
    assert code == 2 and "status: CAPPED (states 18, cap crossed in row 1)" in text


def test_solve_with_extensions(capsys):
    code, text, _ = run(capsys, "solve", "--tileset", "fig3", "--h", "1",
                        "--w", "1", "--ext", "force:1,1,2")
    assert code == 0
    code, text, _ = run(capsys, "solve", "--tileset", "complete:2", "--h", "2",
                        "--w", "3", "--ext", "periodic")
    assert code == 0 and "VALID" in text
    # finite1 has no torus of area 30 or less
    code, text, _ = run(capsys, "solve", "--tileset", "finite1", "--h", "3",
                        "--w", "3", "--ext", "periodic")
    assert code == 1 and "INFEASIBLE" in text


@pytest.mark.parametrize("ext, fragment", [
    ("forcecol:1,1,q,1", "side"),
    ("force:1,1,9", "tile id 9"),
    ("forbid:1,1,9", "tile id 9"),
    ("forcecol:1,1,n,9", "color 9"),
    ("force:1,5,0", "(1, 5) outside the 2x3 grid"),
])
def test_solve_rejects_bad_cell_conditions(capsys, ext, fragment):
    code, _, err = run(capsys, "solve", "--tileset", "fig3", "--h", "2",
                       "--w", "3", "--ext", ext)
    assert code == 3
    assert err.startswith("error:") and fragment in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--tileset", "fig3", "--h", "2"])  # missing --w
    assert exc.value.code == 3


def test_unreadable_tileset_is_usage_error(capsys):
    code, _, err = run(capsys, "solve", "--tileset", "/nonexistent.tiles",
                       "--h", "2", "--w", "2")
    assert code == 3 and "error" in err


def test_cover_json_report(capsys):
    code, text, _ = run(capsys, "cover", "--tileset", "complete:2", "--h", "6",
                        "--w", "6", "--alg", "1", "--improve", "--seeds", "2",
                        "--report", "json")
    assert code == 0
    payload = json.loads(text[text.index("{"):])
    assert payload["aggregate"]["min"] == 36
    assert {"placed", "bound", "seed", "millis"} == set(payload["runs"][0])


def test_cover_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("WANGTILER_SEED", "17")
    code, text, _ = run(capsys, "cover", "--tileset", "fig3", "--h", "2",
                        "--w", "2")
    assert code == 0 and "seed base: 17" in text and "seed 17:" in text
    code, text, _ = run(capsys, "cover", "--tileset", "fig3", "--h", "2",
                        "--w", "2", "--seed", "3")
    assert code == 0 and "seed base: 3" in text


def test_non_integer_seed_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("WANGTILER_SEED", "abc")
    for argv in (["cover", "--tileset", "fig3", "--h", "2", "--w", "2"],
                 ["bench", "--sets", "fig3", "--sizes", "2x2", "--seeds", "1"]):
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert err.startswith("error:") and "WANGTILER_SEED" in err


def test_seedless_commands_ignore_a_bad_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("WANGTILER_SEED", "abc")
    code, text, err = run(capsys, "emit", "--tileset", "fig3", "--h", "2",
                          "--w", "2", "--formulation", "decision", "-o", "-")
    assert code == 0 and text.startswith("Minimize") and not err
    code, _, err = run(capsys, "solve", "--tileset", "fig3", "--h", "2",
                       "--w", "2")
    assert code == 0 and not err


def test_torus_subcommand(tmp_path, capsys):
    out = tmp_path / "torus.tiling"
    code, text, _ = run(capsys, "torus", "--tileset", "fig3", "--max-area",
                        "4", "-o", str(out))
    assert code == 0 and "min area 1" in text
    assert load_tiling(out).placed == 1

    code, text, _ = run(capsys, "torus", "--tileset", "finite2",
                        "--max-area", "2")
    assert code == 1

    code, text, _ = run(capsys, "torus", "--tileset", "fig3", "--max-area", "4",
                        "--report", "json")
    report = json.loads(text)
    assert code == 0 and report["min_area"] == 1 and report["dims"] == [1, 1]
    assert report["count"] == sum(c for _, c in report["dim_counts"])


def test_pack_subcommand(tmp_path, capsys):
    out = tmp_path / "pack.tiling"
    code, text, _ = run(capsys, "pack", "--tileset", "complete:2", "--h", "4",
                        "--w", "4", "--periodic", "-o", str(out))
    assert code == 0 and "VALID" in text
    tiling = load_tiling(out)
    assert sorted(tiling.cells.flatten().tolist()) == list(range(16))
    # only tile 1 of fig3 has north == south: no one-row torus packs all three
    code, text, _ = run(capsys, "pack", "--tileset", "fig3", "--h", "1",
                        "--w", "3", "--periodic")
    assert code == 1 and "INFEASIBLE" in text
    # (-1)*(-3) = 3 tiles fills no grid: a usage error, not a traceback
    code, _, err = run(capsys, "pack", "--tileset", "fig3", "--h", "-1",
                       "--w", "-3")
    assert code == 3 and "grid dimensions must be positive" in err


def test_emit_subcommand(tmp_path, capsys):
    out = tmp_path / "m.lp"
    code, text, _ = run(capsys, "emit", "--tileset", "fig3", "--h", "2",
                        "--w", "2", "--formulation", "maxcsp",
                        "--ext", "force:1,1,0", "-o", str(out))
    assert code == 0
    content = out.read_text()
    assert content.startswith("Maximize")
    assert "force_1_1_0:" in content
    from wangtiler.ilp import parse_lp
    model = parse_lp(content)
    assert "hv_1_1" in model.variables.names


def test_convert_round_trip(tmp_path, capsys):
    edge = tmp_path / "amm.tiles"
    save_tileset(wt.builtin_set("ammann16"), edge)
    corners = tmp_path / "amm.corners"
    code, text, _ = run(capsys, "convert", "--input", str(edge), "--to",
                        "corners-h", "-o", str(corners))
    assert code == 0 and "44 corner tiles" in text and "lossless: False" in text

    wang = tmp_path / "amm44.tiles"
    code, text, _ = run(capsys, "convert", "--input", str(corners), "--to",
                        "wang", "-o", str(wang))
    assert code == 0
    ts = load_tileset(wang)
    assert len(ts) == 44 and ts.num_colors == 36


def test_transducer_subcommand(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    code, text, _ = run(capsys, "transducer", "--tileset", "ammann16",
                        "--parallel-arcs", "--cyclic", "--emit-dot", str(dot))
    assert code == 0
    assert "parallel 1 -> 0: arcs [3, 4]" in text
    assert "all used states on cycles: True" in text
    assert dot.read_text().startswith("digraph")
    code, text, _ = run(capsys, "transducer", "--tileset", "fig3", "--parallel-arcs")
    assert code == 0 and "no parallel arcs" in text


def test_render_subcommand(tmp_path, capsys):
    tiling = tmp_path / "t.tiling"
    tiling.write_text("tiling 1 2\n1 0\n")
    svg = tmp_path / "t.svg"
    code, _, _ = run(capsys, "render", "--tileset", "fig3", "--tiling",
                     str(tiling), "-o", str(svg), "--ids")
    assert code == 0
    assert svg.read_text().startswith("<svg")


def test_render_rejects_tile_id_outside_the_set(tmp_path, capsys):
    tiling = tmp_path / "t.tiling"
    tiling.write_text("tiling 2 2\n0 1\n7 2\n")
    svg = tmp_path / "t.svg"
    code, _, err = run(capsys, "render", "--tileset", "fig3", "--tiling",
                       str(tiling), "-o", str(svg))
    assert code == 3
    assert "error:" in err and "tile id 7" in err
    assert not svg.exists()


def test_render_edge_inputs_write_nothing(tmp_path, capsys):
    tiling = tmp_path / "t.tiling"
    tiling.write_text("tiling 1 2\n1 0\n")
    svg = tmp_path / "t.svg"
    for extra, fragment in [
            (("--cell-px", "-4"), "cell size must be at least 1 px"),
            (("--mode", "corner-squares", "--corner-alphabet", "0"),
             "corner alphabet size must be positive")]:
        code, _, err = run(capsys, "render", "--tileset", "fig3", "--tiling",
                           str(tiling), "-o", str(svg), *extra)
        assert code == 3
        assert err.startswith("error:") and fragment in err
        assert not svg.exists()


def test_svg_error_leaves_no_file(tmp_path, capsys):
    # 40 colors, more than the default palette holds
    big = tmp_path / "big.tiles"
    big.write_text("".join(f"{i} {i} {i} {(i + 1) % 40}\n" for i in range(40)))
    out, svg = tmp_path / "x.tiling", tmp_path / "x.svg"
    code, _, err = run(capsys, "cover", "--tileset", str(big), "--h", "2",
                       "--w", "2", "-o", str(out), "--svg", str(svg))
    assert code == 3 and err.startswith("error: palette has")
    assert not svg.exists() and not out.exists()


def test_bad_svg_style_fails_before_any_solver(tmp_path, capsys):
    svg = tmp_path / "x.svg"
    for argv in (["cover", "--seeds", "3"], ["solve"], ["pack"]):
        code, text, err = run(capsys, *argv, "--tileset", "fig3", "--h", "2",
                              "--w", "2", "--svg", str(svg), "--cell-px", "-4")
        assert code == 3 and err == "error: cell size must be at least 1 px, got -4\n"
        assert "seed 0:" not in text and "status" not in text
        assert not svg.exists()


def test_convert_reads_a_commented_corner_file(tmp_path, capsys):
    corners = tmp_path / "c.corners"
    corners.write_text("# my corners\ncorners 2\n0 1 1 0\n")
    out = tmp_path / "w.tiles"
    code, _, _ = run(capsys, "convert", "--input", str(corners), "--to",
                     "wang", "-o", str(out))
    assert code == 0 and len(load_tileset(out)) == 1
    edge = tmp_path / "e.tiles"
    edge.write_text("# edges\n0 1 1 0\n")
    out.unlink()
    code, _, err = run(capsys, "convert", "--input", str(edge), "--to",
                       "wang", "-o", str(out))
    assert code == 3 and err == "error: the input is already an edge tile set\n"
    assert not out.exists()


def test_convert_to_corners_names_to_wang_for_a_corner_file(tmp_path, capsys):
    corners = tmp_path / "c.corners"
    corners.write_text("corners 2\n0 1 1 0\n")
    out = tmp_path / "x.tiles"
    for to in ("corners-h", "corners-v"):
        code, _, err = run(capsys, "convert", "--input", str(corners), "--to",
                           to, "-o", str(out))
        assert code == 3
        assert err == "error: the input is a corner set; use --to wang\n"
        assert not out.exists()


def test_header_without_a_count_is_usage_error(tmp_path, capsys):
    tiles = tmp_path / "h.tiles"
    tiles.write_text("colors\n0 0 0 0\n")
    code, _, err = run(capsys, "cover", "--tileset", str(tiles), "--h", "2",
                       "--w", "2")
    assert code == 3 and err.startswith("error:") and "'colors <n>'" in err
    corners = tmp_path / "h.corners"
    corners.write_text("corners\n0 0 0 0\n")
    out = tmp_path / "out.tiles"
    code, _, err = run(capsys, "convert", "--input", str(corners), "--to",
                       "wang", "-o", str(out))
    assert code == 3 and err.startswith("error:") and "'corners <n>'" in err
    assert not out.exists()


def test_bench_subcommand(capsys):
    code, text, _ = run(capsys, "bench", "--sets", "fig3,complete:2",
                        "--sizes", "5x5", "--algs", "1", "--seeds", "3",
                        "--report", "json")
    assert code == 0
    payload = json.loads(text[text.index("{"):])
    assert len(payload["rows"]) == 2


def test_unknown_tileset_names_the_choices(capsys):
    with pytest.raises(wt.ConfigurationError, match="fig3.*complete:<n>"):
        resolve_set("nosuchset")
    code, _, err = run(capsys, "solve", "--tileset", "nosuchset", "--h", "2",
                       "--w", "2")
    assert code == 3 and "unknown tile set 'nosuchset'" in err


def test_solve_rejects_a_broken_witness(capsys, monkeypatch):
    import wangtiler.cli as cli
    # fig3 tile 0 has east 0, tile 1 has west 1: the edge between them breaks.
    bad = wt.SolveResult(wt.VALID, wt.Tiling([[0, 1]]), {"states": 1})
    monkeypatch.setattr(cli, "solve_decision", lambda *a, **k: bad)
    code, _, err = run(capsys, "solve", "--tileset", "fig3", "--h", "1",
                       "--w", "2")
    assert code != 0 and err.startswith("error:")


def test_solve_rejects_a_broken_wrap_around(capsys, monkeypatch):
    import wangtiler.cli as cli
    # fig3 tile 0 alone fits a 1x1 rectangle, but not the 1x1 torus: its
    # north is 0 and its south 1.
    ok = wt.SolveResult(wt.VALID, wt.Tiling([[0]]), {"states": 1})
    monkeypatch.setattr(cli, "solve_decision", lambda *a, **k: ok)
    argv = ["solve", "--tileset", "fig3", "--h", "1", "--w", "1"]
    assert run(capsys, *argv)[0] == 0
    code, _, err = run(capsys, *argv, "--ext", "periodic")
    assert code == 1 and err.startswith("error: the witness breaks the edge")


def test_pack_solves_complete3_9x9_torus(tmp_path, capsys):
    # Fewest candidates first solves this in about 30 000 nodes.
    out = tmp_path / "pack.tiling"
    code, text, _ = run(capsys, "pack", "--tileset", "complete:3", "--h", "9",
                        "--w", "9", "--periodic", "--deadline", "10", "-o", str(out))
    assert code == 0 and "VALID" in text
    cells = load_tiling(out).cells
    assert sorted(cells.flatten().tolist()) == list(range(81))
    ts = wt.complete_stochastic_set(3)
    assert wt.validate_tiling(ts, wt.Tiling(np.tile(cells, (2, 2)))).is_valid
    # the one order takes no option
    with pytest.raises(SystemExit) as exc:
        main(["pack", "--tileset", "complete:3", "--h", "9", "--w", "9",
              "--most-constrained"])
    assert exc.value.code == 3


def test_pack_rejects_a_broken_witness(tmp_path, capsys, monkeypatch):
    import wangtiler.cli as cli
    out = tmp_path / "pack.tiling"
    # fig3 tile 0 has east 0, tile 1 has west 1: the edge between them breaks.
    bad = wt.SolveResult(wt.VALID, wt.Tiling([[0, 1, 2]]), {"nodes": 3})
    monkeypatch.setattr(cli, "pack_tiles", lambda *a, **k: bad)
    code, _, err = run(capsys, "pack", "--tileset", "fig3", "--h", "1",
                       "--w", "3", "-o", str(out))
    assert code == 1 and err.startswith("error: the witness breaks the edge")
    assert not out.exists()


def test_pack_rejects_a_broken_wrap_around(capsys, monkeypatch):
    import wangtiler.cli as cli
    # fig3 tiles 0, 2, 1 in a row match east to west, and across the wrap,
    # but tile 0 (north 0, south 1) cannot meet itself on a one-row torus.
    ok = wt.SolveResult(wt.VALID, wt.Tiling([[0, 2, 1]]), {"nodes": 3})
    monkeypatch.setattr(cli, "pack_tiles", lambda *a, **k: ok)
    argv = ["pack", "--tileset", "fig3", "--h", "1", "--w", "3"]
    assert run(capsys, *argv)[0] == 0
    code, _, err = run(capsys, *argv, "--periodic")
    assert code == 1 and err.startswith("error: the witness breaks the edge")


def test_pack_rejects_an_unusable_deadline(capsys):
    for deadline in ("nan", "-1"):
        code, _, err = run(capsys, "pack", "--tileset", "complete:3", "--h", "9",
                           "--w", "9", "--periodic", "--deadline", deadline)
        assert code == 3 and err.startswith("error: deadline")


def test_torus_budget_exceeded_exits_capped(capsys, monkeypatch):
    import wangtiler.exact as exact
    monkeypatch.setattr(exact, "DEFAULT_STATE_CAP", 2)
    code, _, err = run(capsys, "torus", "--tileset", "finite1",
                       "--max-area", "4")
    assert code == 2 and err.startswith("error:")


def test_cover_needs_a_seed(capsys):
    for seeds in ("0", "-1"):
        code, _, err = run(capsys, "cover", "--tileset", "fig3", "--h", "2",
                           "--w", "2", "--seeds", seeds)
        assert code == 3 and err == "error: need at least one seed\n"


def test_malformed_size_and_set_name_the_form(capsys):
    code, _, err = run(capsys, "bench", "--sets", "fig3", "--sizes", "5")
    assert code == 3 and "<h>x<w>" in err
    code, _, err = run(capsys, "bench", "--sets", "fig3", "--sizes", "5xw")
    assert code == 3 and "<h>x<w>" in err
    code, _, err = run(capsys, "cover", "--tileset", "complete:x", "--h", "2",
                       "--w", "2")
    assert code == 3 and "complete:<n>" in err


# Recorded from the commands below before the CLI's output code was
# refactored; every run must keep writing these exact bytes.
PINNED_FILES = {
    "solve.tiling":
        "107c7b45fad69cf2e8d5bb577c45b32cf7953221354cd85b8daa4572f1b35db6",
    "cover.tiling":
        "692434b5a6794e874ef780e2738458edfb150873f76bab27604523a1c497e1aa",
    "cover.svg":
        "5cd2347bef44b9b57a3bea87410c62167921adfa4b08572f575d08ecd3fbdd66",
    "torus.tiling":
        "7a845f021eedacd9436fd4916b873719c0fafdd2ab22f91e4d45271a998f094b",
    "model.lp":
        "918d734d8522331872a035103c05ab91b36e7cc61f7d5c26b1ca389b2fd2278a",
    "amm.corners":
        "daaf6642cb6c5f191f4b045e92b05d4d35e8b509ef71120982766db77528d521",
    "amm44.tiles":
        "eaf2f2cf75cf67aadd922288a435f485def4c04cdef2935bbc35e22c1a48ab5a",
    "g.dot":
        "5c62bd08c0cf08fd97cfb50c08dccf17dcd413203998330d9ef2c6cb8b8f2f6c",
    "edge.svg":
        "8e69252de9e887a2194f9b6f87b41a57e5299b0112143c3bfa4178b28b34da06",
    "corner.svg":
        "e14e94c1ae140c6e46c1c8620c34fd854b41178509e0d1edba6b304c2cdd94d3",
}
PINNED_COVER_TABLE = (
    "seed base: 5\n"
    "seed 5: placed 36/42 bound=2/3 <ms> ms\n"
    "seed 6: placed 35/42 bound=2/3 <ms> ms\n"
    "seed 7: placed 39/42 bound=2/3 <ms> ms\n"
    "aggregate: min 35 avg 36.67 max 39\n"
    "tiling written to cover.tiling\n"
    "svg written to cover.svg\n")
PINNED_COVER_JSON = (
    "68f82310538751e64e934a8f3bddd7d8c8d03fd7cdd8448a838cc171b4228709")


def _masked(text):
    text = re.sub(r"\d+\.\d ms", "<ms> ms", text)
    return re.sub(r'"millis": [0-9.e+-]+', '"millis": <ms>', text)


def test_cli_outputs_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_tileset(wt.builtin_set("ammann16"), "amm.tiles")
    (tmp_path / "edge.tiling").write_text("tiling 2 2\n1 0\n. 2\n")
    (tmp_path / "corner.tiling").write_text("tiling 1 3\n0 5 .\n")
    commands = [
        ("solve", "--tileset", "fig3", "--h", "3", "--w", "3",
         "-o", "solve.tiling"),
        ("torus", "--tileset", "fig3", "--max-area", "4", "-o", "torus.tiling"),
        ("emit", "--tileset", "fig3", "--h", "2", "--w", "2", "--formulation",
         "maxcsp", "--ext", "force:1,1,0", "-o", "model.lp"),
        ("convert", "--input", "amm.tiles", "--to", "corners-h",
         "-o", "amm.corners"),
        ("convert", "--input", "amm.corners", "--to", "wang",
         "-o", "amm44.tiles"),
        ("transducer", "--tileset", "ammann16", "--emit-dot", "g.dot"),
        ("render", "--tileset", "fig3", "--tiling", "edge.tiling",
         "-o", "edge.svg", "--ids"),
        ("render", "--tileset", "amm44.tiles", "--tiling", "corner.tiling",
         "-o", "corner.svg", "--mode", "corner-squares",
         "--corner-alphabet", "6", "--cell-px", "20"),
    ]
    for argv in commands:
        assert run(capsys, *argv)[0] == 0, argv
    cover = ("cover", "--tileset", "ammann16", "--h", "6", "--w", "7",
             "--alg", "3", "--improve", "--seeds", "3", "--seed", "5")
    code, table, _ = run(capsys, *cover, "-o", "cover.tiling",
                         "--svg", "cover.svg", "--cell-px", "16")
    assert code == 0
    code, payload, _ = run(capsys, *cover, "--report", "json")
    assert code == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED_FILES}
    assert digests == PINNED_FILES
    assert _masked(table) == PINNED_COVER_TABLE
    assert (hashlib.sha256(_masked(payload).encode()).hexdigest()
            == PINNED_COVER_JSON)
