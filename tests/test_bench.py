import json

import pytest

from wangtiler import ConfigurationError
from wangtiler.bench import (BenchConfig, resolve_set, run_algorithm,
                             run_benchmark)


def test_resolve_set_builtin_and_complete():
    assert len(resolve_set("fig3")) == 3
    assert len(resolve_set("complete:3")) == 81
    with pytest.raises(ConfigurationError, match="complete:<n>"):
        resolve_set("complete:x")


def test_resolve_set_file(tmp_path):
    path = tmp_path / "two.tiles"
    path.write_text("0 0 0 0\n1 1 1 1\n")
    assert len(resolve_set(str(path))) == 2


def test_run_algorithm_dispatch():
    raw = run_algorithm(resolve_set("fig3"), 4, 4, "2", improve=False, seed=0)
    assert raw.bound == "1/2"
    improved = run_algorithm(resolve_set("fig3"), 4, 4, "2", improve=True, seed=0)
    assert improved.placed >= raw.placed
    with pytest.raises(ConfigurationError):
        run_algorithm(resolve_set("fig3"), 4, 4, "9", improve=False, seed=0)


def test_empty_sizes_empty_report():
    report = run_benchmark(BenchConfig(sets=("fig3",), sizes=(), seeds=5))
    assert report.rows == ()
    assert report.to_text().count("\n") == 2  # header + rule only


def test_stochastic_full_coverage_row():
    config = BenchConfig(sets=("complete:2",), sizes=((10, 10),),
                         algs=("1",), improve=True, seeds=5)
    report = run_benchmark(config)
    row = report.rows[0]
    assert (row.min_placed, row.avg_placed, row.max_placed) == (100, 100.0, 100)


def test_report_formats():
    config = BenchConfig(sets=("fig3",), sizes=((5, 5),), algs=("1", "3"),
                         improve=True, seeds=3)
    report = run_benchmark(config, keep_runs=True)
    text = report.to_text()
    assert "fig3" in text and "5x5" in text
    payload = json.loads(report.to_json())
    assert payload["version"] == 1
    assert len(payload["rows"]) == 2
    run = payload["rows"][0]["runs"][0]
    assert set(run) == {"placed", "bound", "seed", "millis"}


def test_benchmark_deterministic():
    config = BenchConfig(sets=("finite1",), sizes=((8, 8),), algs=("1",),
                         improve=True, seeds=4, seed_base=7)
    r1 = run_benchmark(config)
    r2 = run_benchmark(config)
    assert [(x.min_placed, x.avg_placed, x.max_placed) for x in r1.rows] == \
           [(x.min_placed, x.avg_placed, x.max_placed) for x in r2.rows]


def test_benchmark_requires_seeds():
    with pytest.raises(ConfigurationError):
        run_benchmark(BenchConfig(sets=(), sizes=(), seeds=0))
