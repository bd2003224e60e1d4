import json
import os
import re

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
    assert code == 1 and "INFEASIBLE" in text

    code, text, _ = run(capsys, "solve", "--tileset", "finite1",
                        "--h", "6", "--w", "6", "--cap", "10")
    assert code == 2 and "CAPPED" in text


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
    import wangtiler.cli as cli
    monkeypatch.setenv("WANGTILER_SEED", "17")
    parser = cli.build_parser()
    args = parser.parse_args(["cover", "--tileset", "fig3", "--h", "2",
                              "--w", "2"])
    assert args.seed == 17


def test_non_integer_seed_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("WANGTILER_SEED", "abc")
    code, _, err = run(capsys, "solve", "--tileset", "fig3", "--h", "2",
                       "--w", "2")
    assert code == 3
    assert err.startswith("error:") and "WANGTILER_SEED" in err


def test_torus_subcommand(tmp_path, capsys):
    out = tmp_path / "torus.tiling"
    code, text, _ = run(capsys, "torus", "--tileset", "fig3", "--max-area",
                        "4", "-o", str(out))
    assert code == 0 and "min area 1" in text
    assert load_tiling(out).placed == 1

    code, text, _ = run(capsys, "torus", "--tileset", "finite2",
                        "--max-area", "2")
    assert code == 1


def test_pack_subcommand(tmp_path, capsys):
    out = tmp_path / "pack.tiling"
    code, text, _ = run(capsys, "pack", "--tileset", "complete:2", "--h", "4",
                        "--w", "4", "--periodic", "-o", str(out))
    assert code == 0 and "VALID" in text
    tiling = load_tiling(out)
    assert sorted(tiling.cells.flatten().tolist()) == list(range(16))
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
    assert any(v.name == "hv_1_1" for v in model.variables)


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
