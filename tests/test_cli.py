import argparse
import csv
import errno
import functools
import gzip
import hashlib
import importlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gridhot.centrality
import gridhot.cli
import gridhot.graph
import gridhot.ingest
import gridhot.synth
import oracles
from gridhot.cli import main
from gridhot.fileio import atomic_write_text, sha256_file
from gridhot.ingest import GridCell, IngestConfig, TimeWindow, TrafficAggregate

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_CONFIG = REPO_ROOT / "docs" / "synth-example.cfg"

WEEK = ("--window-start", "2013-11-18", "--window-end", "2013-11-25")


def synth_config(tmp_path, **overrides):
    values = {
        "grid_side": 6,
        "n_centers": 2,
        "concentration": 8.0,
        "decay_radius": 2.0,
        "noise": 0.2,
        "seed": 3,
        "records_per_cell": 2,
        "window_start": "2013-11-18",
        "window_end": "2013-11-25",
    }
    values.update(overrides)
    path = tmp_path / "synth.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return path


def run_synth(tmp_path, **overrides):
    out = tmp_path / "city"
    code = main(["synth", "--config", str(synth_config(tmp_path, **overrides)), "--out", str(out)])
    assert code == 0
    return out


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class TestSynthCommand:
    def test_example_config_smoke(self, tmp_path):
        out = tmp_path / "city"
        code = main(["synth", "--config", str(EXAMPLE_CONFIG), "--out", str(out)])
        assert code == 0
        for name in ("activity.tsv", "interactions.tsv", "grid.geojson", "manifest.json"):
            assert (out / name).exists()

    def test_manifest_digests_reproducible(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = synth_config(tmp_path)
        assert main(["synth", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["synth", "--config", str(cfg), "--out", str(out_b)]) == 0
        manifest_a = json.loads((out_a / "manifest.json").read_text())
        manifest_b = json.loads((out_b / "manifest.json").read_text())
        digests = lambda m: {k: v["sha256"] for k, v in m["outputs"].items()}
        assert digests(manifest_a) == digests(manifest_b)

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        code = main(
            ["synth", "--config", str(synth_config(tmp_path, grid_side=0)), "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "grid_side" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(noise="nan"), "noise must be finite and nonnegative, got nan"),
            (dict(concentration="inf"), "concentration must be finite and nonnegative, got inf"),
            # strengths reach the largest intensity squared, past the largest float
            (dict(concentration="1e200"), "squared is not finite"),
            (dict(concentration="1e308", n_centers=4, decay_radius=50),
             "intensity of cell 1 passes the largest float"),
            # the intensities divide by the radius squared, which overflows or is 0
            *[(dict(grid_side=4, decay_radius=radius),
               f"decay_radius must be positive with a finite, nonzero square, got {float(radius)!r}")
              for radius in ("1e155", "1e200", "1e-200")],
        ],
        ids=["nan-noise", "inf-concentration", "inf-strengths", "bumps-overflow",
             "radius-1e155", "radius-1e200", "radius-1e-200"],
    )
    def test_non_finite_intensities_exit_one(self, tmp_path, capsys, overrides, message):
        out = tmp_path / "city"
        assert main(["synth", "--config", str(synth_config(tmp_path, **overrides)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gridhot synth: ") and message in err and err.count("\n") == 1
        assert not out.exists()


def synth_workers(monkeypatch, workers):
    """Write the synth files with ``workers`` CPUs, however small the city."""
    monkeypatch.setattr(gridhot.synth, "_worker_count", lambda: workers)
    monkeypatch.setattr(gridhot.synth, "PARALLEL_MIN_LINES", 1)


class TestParallelSynth:
    def test_outputs_identical_for_any_worker_count(self, tmp_path, monkeypatch):
        out = tmp_path / "city"
        trees = {}
        for workers in (1, 2, 3):
            synth_workers(monkeypatch, workers)
            assert main(["synth", "--config", str(EXAMPLE_CONFIG), "--out", str(out)]) == 0
            trees[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            shutil.rmtree(out)
            assert_no_children()
        assert len(trees[1]) == 4 and "manifest.json" in trees[1]
        assert trees[1] == trees[2] == trees[3]

    def test_dead_worker_exits_one(self, tmp_path, monkeypatch, capsys):
        synth_workers(monkeypatch, 2)
        monkeypatch.setattr(gridhot.synth, "_activity_chunks", lambda *args: os._exit(3))
        out = tmp_path / "city"
        assert main(["synth", "--config", str(synth_config(tmp_path)), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "gridhot synth: synth worker 1 of 1 exited with status 3"
            " before finishing activity.tsv and grid.geojson\n"
        )
        assert not (out / "manifest.json").exists()
        assert_no_children()

    @pytest.mark.parametrize(
        "failing",
        [{"activity.tsv"}, {"grid.geojson"}, {"interactions.tsv"},
         {"grid.geojson", "interactions.tsv"}],
        ids=["activity", "grid", "interactions", "grid-and-interactions"],
    )
    def test_write_error_same_for_any_worker_count(self, tmp_path, monkeypatch, capsys, failing):
        real_write = gridhot.synth.atomic_write_text

        def write(path, text):
            if path.name in failing:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            real_write(path, text)

        monkeypatch.setattr(gridhot.synth, "atomic_write_text", write)
        config = synth_config(tmp_path)
        out = tmp_path / "city"
        errors = []
        for workers in (1, 2):
            synth_workers(monkeypatch, workers)
            assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
            errors.append(capsys.readouterr().err)
            assert not (out / "manifest.json").exists()
            assert_no_children()
        # in one process the files are written in the order activity, grid,
        # interactions, and the first failure ends the run
        first = next(name for name in ("activity.tsv", "grid.geojson", "interactions.tsv")
                     if name in failing)
        assert errors == [f"gridhot synth: [Errno 28] No space left on device: '{out / first}'\n"] * 2


class TestHotspotsCommand:
    def test_flat_city_all_cells(self, tmp_path):
        city = run_synth(tmp_path, n_centers=0, noise=0)
        out = tmp_path / "hs"
        code = main(
            ["hotspots", "--activity", str(city / "activity.tsv"), *WEEK, "--p", "0.5", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out / "hotspots.csv")
        assert len(rows) == 36
        threshold = json.loads((out / "threshold.json").read_text())
        assert threshold["p"] == 0.5
        assert not threshold["truncated"]

    def test_calibrated_k(self, tmp_path):
        city = run_synth(tmp_path, grid_side=10, n_centers=4, concentration=8.0, noise=0.3)
        out = tmp_path / "hs"
        code = main(
            ["hotspots", "--activity", str(city / "activity.tsv"), *WEEK, "--k", "20", "--out", str(out)]
        )
        assert code == 0
        assert len(read_csv(out / "hotspots.csv")) == 20

    def test_heatmap_written_with_grid(self, tmp_path):
        city = run_synth(tmp_path)
        out = tmp_path / "hs"
        code = main(
            [
                "hotspots", "--activity", str(city / "activity.tsv"), *WEEK,
                "--p", "0.5", "--grid", str(city / "grid.geojson"), "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "heatmap.geojson").read_text())
        assert doc["type"] == "FeatureCollection"
        assert all("is_hotspot" in f["properties"] for f in doc["features"])

    def test_missing_activity_file_exits_two(self, tmp_path, capsys):
        code = main(
            ["hotspots", "--activity", str(tmp_path / "nope.tsv"), *WEEK, "--p", "0.5", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "nope.tsv" in capsys.readouterr().err

    def test_unreachable_k_exits_one(self, tmp_path, capsys):
        city = run_synth(tmp_path, grid_side=3, n_centers=1, concentration=50.0, noise=0)
        code = main(
            ["hotspots", "--activity", str(city / "activity.tsv"), *WEEK, "--k", "9", "--out", str(tmp_path / "o")]
        )
        assert code == 1

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_quantity_exits_one(self, tmp_path, capsys, raw):
        activity = tmp_path / "a.tsv"
        activity.write_text(
            f"1\t1384732800000\t0\t10\n2\t1384732800000\t0\t{raw}\n", encoding="utf-8"
        )
        code = main(
            ["hotspots", "--activity", str(activity), *WEEK, "--p", "0.5", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{activity}:2" in err
        assert "sms_in must be finite" in err
        assert not (tmp_path / "o" / "hotspots.csv").exists()

    @pytest.mark.parametrize("select", [("--p", "0.5"), ("--k", "1")])
    def test_total_past_largest_float_exits_one(self, tmp_path, capsys, select):
        # each cell's sum is finite, their total is not
        activity = tmp_path / "a.tsv"
        activity.write_text(
            "1\t1384732800000\t0\t1e308\n2\t1384732800000\t0\t1e308\n", encoding="utf-8"
        )
        out = tmp_path / "o"
        code = main(["hotspots", "--activity", str(activity), *WEEK, *select, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "gridhot hotspots: the activity of all 2 cells sums past the largest float\n"
        )
        assert not out.exists()

    def test_bad_grid_writes_nothing(self, tmp_path, capsys):
        city = run_synth(tmp_path)
        grid = tmp_path / "points.geojson"
        point = {"type": "Feature", "properties": {"cellId": 1},
                 "geometry": {"type": "Point", "coordinates": [9.0, 45.0]}}
        grid.write_text(json.dumps({"type": "FeatureCollection", "features": [point]}))
        out = tmp_path / "hs"
        code = main(
            ["hotspots", "--activity", str(city / "activity.tsv"), *WEEK, "--p", "0.5",
             "--grid", str(grid), "--out", str(out)]
        )
        assert code == 1
        assert "Point" in capsys.readouterr().err
        for name in ("hotspots.csv", "threshold.json", "heatmap.geojson", "manifest.json"):
            assert not (out / name).exists(), name

    def test_grid_of_wrong_shape_exits_one(self, tmp_path, capsys):
        city = run_synth(tmp_path)
        grid = tmp_path / "bad.geojson"
        grid.write_text(json.dumps({"type": "FeatureCollection", "features": 5}))
        out = tmp_path / "hs"
        code = main(
            ["hotspots", "--activity", str(city / "activity.tsv"), *WEEK, "--p", "0.5",
             "--grid", str(grid), "--out", str(out)]
        )
        assert code == 1
        assert "features must be a JSON array" in capsys.readouterr().err
        assert not (out / "hotspots.csv").exists()

    def test_ingest_counts_in_manifest(self, tmp_path):
        activity = tmp_path / "a.tsv"
        activity.write_text(
            "1\t1384732800000\t0\t10\n"
            "bad line\n"
            "2\t1384732799999\t0\t5\n"  # one millisecond before the window
            "3\t1384732800001\t0\t2\n"
            "3\t1384732800002\t0\t2\n",
            encoding="utf-8",
        )
        cfg = tmp_path / "ingest.cfg"
        cfg.write_text("on_malformed = skip\n", encoding="utf-8")
        out = tmp_path / "hs"
        code = main(
            ["hotspots", "--activity", str(activity), *WEEK, "--p", "0.5", "--config", str(cfg),
             "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"] == {
            "ingest": {"lines": 5, "parsed": 4, "skipped": 1, "in_window": 3, "cells": 2}
        }

    def test_p_and_k_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["hotspots", "--activity", "x", *WEEK, "--p", "0.5", "--k", "3", "--out", "y"])
        assert info.value.code == 2


def not_utf8(data):
    return b"\xff\xfe" + data


def truncated_gz(data):
    return gzip.compress(data)[:-12]


def corrupted_gz(data):
    packed = bytearray(gzip.compress(data))
    packed[10:14] = b"\xff\xff\xff\xff"  # the first bytes of the deflate stream
    return bytes(packed)


# command, the input file it reads, how that file's bytes are spoiled
UNREADABLE_CASES = [
    ("hotspots", "activity.tsv", not_utf8),
    ("synth", "synth.cfg", not_utf8),
    ("centrality", "hotspots.csv", not_utf8),
    ("compare", "centrality.csv", not_utf8),
    ("hotspots", "activity.tsv", truncated_gz),
    ("hotspots", "activity.tsv", corrupted_gz),
]


@pytest.mark.parametrize(
    "command, spoiled, spoil",
    UNREADABLE_CASES,
    ids=[f"{spoiled}-{spoil.__name__}" for _, spoiled, spoil in UNREADABLE_CASES],
)
def test_unreadable_input_exits_two(tmp_path, capsys, command, spoiled, spoil):
    city = run_synth(tmp_path)
    hs, cen = tmp_path / "hs", tmp_path / "cen"
    assert main(["hotspots", "--activity", str(city / "activity.tsv"), *WEEK, "--k", "4",
                 "--out", str(hs)]) == 0
    assert main(["centrality", "--interactions", str(city / "interactions.tsv"),
                 "--hotspots", str(hs / "hotspots.csv"), *WEEK, "--out", str(cen)]) == 0
    target = {
        "activity.tsv": city / "activity.tsv",
        "synth.cfg": tmp_path / "synth.cfg",
        "hotspots.csv": hs / "hotspots.csv",
        "centrality.csv": cen / "centrality.csv",
    }[spoiled]
    target.write_bytes(spoil(target.read_bytes()))
    capsys.readouterr()
    argv = {
        "synth": ["synth", "--config", str(target), "--out", str(tmp_path / "again")],
        "hotspots": ["hotspots", "--activity", str(target), *WEEK, "--p", "0.5",
                     "--out", str(tmp_path / "o")],
        "centrality": ["centrality", "--interactions", str(city / "interactions.tsv"),
                       "--hotspots", str(target), *WEEK, "--out", str(tmp_path / "o")],
        "compare": ["compare", str(target), str(target), "--out", str(tmp_path / "o")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"gridhot {command}: ") and err.count("\n") == 1, err
    assert str(target) in err
    assert "Traceback" not in err


# the lines a pipe holds for each input it stands in for, and the command
# line that reads it, given the pipe's path, the city and the hotspots run
PIPED_INPUTS = {
    "hotspots-activity": (
        "{}\t1384732800000\t39\t1.0\t1.0\t1.0\t1.0\t1.0\n",
        lambda pipe, city, hs: ["hotspots", "--activity", pipe, *WEEK, "--k", "5"],
    ),
    "centrality-interactions": (
        "{}\t7\t1384732800000\t1.0\n",
        lambda pipe, city, hs: ["centrality", "--interactions", pipe,
                                "--hotspots", str(hs / "hotspots.csv"), *WEEK],
    ),
    "hotspots-config": (
        "# line {}\n",
        lambda pipe, city, hs: ["hotspots", "--activity", str(city / "activity.tsv"), *WEEK,
                                "--k", "5", "--config", pipe],
    ),
}


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
@pytest.mark.parametrize("case", PIPED_INPUTS)
def test_piped_input_exits_two(tmp_path, capsys, case):
    """An input that is not a regular file, here a pipe holding 500 lines,
    exits 2 before it is read: a pipe gives its bytes once, and an input is
    read by the gzip probe, the parse and the digest in turn."""
    city = run_synth(tmp_path)
    hs = tmp_path / "hs"
    assert main(["hotspots", "--activity", str(city / "activity.tsv"), *WEEK, "--k", "4",
                 "--out", str(hs)]) == 0
    line, argv = PIPED_INPUTS[case]
    read_end, write_end = os.pipe()
    try:
        # 500 short lines fit in a pipe's buffer, so the write does not wait
        os.write(write_end, "".join(line.format(100 + i % 20) for i in range(500)).encode())
        os.close(write_end)
        pipe = f"/dev/fd/{read_end}"
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([*argv(pipe, city, hs), "--out", str(out)]) == 2
    finally:
        os.close(read_end)
    command = argv(pipe, city, hs)[0]
    assert capsys.readouterr().err == f"gridhot {command}: cannot read {pipe}: not a regular file\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["hotspots", "heatmap"])
def test_grid_nested_too_deeply_exits_one(tmp_path, capsys, command):
    """json's decoder recurses once per level of nesting: a grid nested past
    the recursion limit is invalid GeoJSON, and nothing is written."""
    city = run_synth(tmp_path)
    grid = tmp_path / "deep.geojson"
    grid.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    out = tmp_path / ("hs" if command == "hotspots" else "heat.geojson")
    argv = [command, "--activity", str(city / "activity.tsv"), *WEEK, "--grid", str(grid),
            "--out", str(out)]
    capsys.readouterr()
    assert main(argv + (["--k", "4"] if command == "hotspots" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"gridhot {command}: invalid GeoJSON: ") and err.count("\n") == 1, err
    assert err.endswith(f" ({grid})\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["city", "deep.geojson", "synth.cfg"]


def run_pipeline(tmp_path, **synth_overrides):
    city = run_synth(tmp_path, **synth_overrides)
    hs_dir = tmp_path / "hs"
    assert (
        main(["hotspots", "--activity", str(city / "activity.tsv"), *WEEK, "--k", "12", "--out", str(hs_dir)])
        == 0
    )
    cen_dir = tmp_path / "cen"
    code = main(
        [
            "centrality", "--interactions", str(city / "interactions.tsv"),
            "--hotspots", str(hs_dir / "hotspots.csv"), *WEEK, "--out", str(cen_dir),
        ]
    )
    assert code == 0
    return city, hs_dir, cen_dir


class TestCentralityCommand:
    def test_all_metrics_present(self, tmp_path):
        _, _, cen_dir = run_pipeline(tmp_path, grid_side=8, n_centers=3)
        rows = read_csv(cen_dir / "centrality.csv")
        metrics = {row["metric"] for row in rows}
        assert metrics == {"closeness", "betweenness", "degree", "pagerank", "eigenvector"}
        manifest = json.loads((cen_dir / "manifest.json").read_text())
        assert all(status == "ok" for status in manifest["status"].values())
        diagnostics = manifest["diagnostics"]
        assert sorted(diagnostics) == sorted([*manifest["status"], "ingest", "graph"])
        assert set(diagnostics["ingest"]) == {"lines", "parsed", "skipped", "in_window"}
        assert diagnostics["closeness"]["on_component"] is False
        assert diagnostics["pagerank"]["iterations"] >= 1
        assert diagnostics["eigenvector"]["iterations"] >= 1
        assert diagnostics["eigenvector"]["lambda"] > 0
        rankings = read_csv(cen_dir / "rankings.csv")
        assert rankings[0]["rank"] == "1"

    def test_two_entry_hotspots_partial(self, tmp_path):
        city = run_synth(tmp_path)
        hotspots = tmp_path / "two.csv"
        rows = read_csv_from_synth_hotspots(city, tmp_path)
        hotspots.write_text(
            "cell_id,intensity\n" + "".join(f"{r[0]},{r[1]}\n" for r in rows[:2]),
            encoding="utf-8",
        )
        out = tmp_path / "cen"
        code = main(
            [
                "centrality", "--interactions", str(city / "interactions.tsv"),
                "--hotspots", str(hotspots), *WEEK, "--out", str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"]["betweenness"].startswith("error")
        assert manifest["status"]["degree"] == "ok"
        assert "betweenness" not in manifest["diagnostics"]
        assert manifest["diagnostics"]["degree"] == {}

    def test_graph_size_in_manifest(self, tmp_path):
        # a triangle, a pair seen in one direction only and an isolated node
        interactions = tmp_path / "interactions.tsv"
        interactions.write_text(
            "".join(
                f"{src}\t{dst}\t1384732800000\t{w}\n"
                for src, dst, w in [(1, 5, 1.0), (5, 1, 2.0), (5, 3, 2.0), (3, 1, 1.0), (2, 6, 4.0)]
            ),
            encoding="utf-8",
        )
        hotspots = tmp_path / "hotspots.csv"
        hotspots.write_text("cell_id,intensity\n" + "".join(f"{c},1.0\n" for c in range(1, 7)))
        out = tmp_path / "cen"
        assert main(["centrality", "--interactions", str(interactions), "--hotspots",
                     str(hotspots), *WEEK, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"]["graph"] == {
            "nodes": 6, "edges": 4, "path_edges": 4, "components": 3
        }
        assert "got 3 components" in manifest["status"]["eigenvector"]

    @pytest.mark.parametrize("cell", ["2", "0", "-3"], ids=["repeated", "zero", "negative"])
    def test_bad_hotspot_cell_id_is_malformed_row(self, tmp_path, capsys, cell):
        interactions = tmp_path / "interactions.tsv"
        interactions.write_text("1\t2\t1384732800000\t1.0\n", encoding="utf-8")
        hotspots = tmp_path / "hotspots.csv"
        hotspots.write_text(f"cell_id,intensity\n1,2.0\n2,1.0\n{cell},0.5\n", encoding="utf-8")
        out = tmp_path / "cen"
        assert main(["centrality", "--interactions", str(interactions), "--hotspots",
                     str(hotspots), *WEEK, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"gridhot centrality: malformed row 4 in {hotspots}\n"
        assert not out.exists()

    @pytest.mark.parametrize("metrics, path_pass", [
        ("degree,pagerank,eigenvector", False), ("closeness", True), ("betweenness,degree", True)
    ])
    def test_path_edges_only_with_the_path_pass(self, tmp_path, monkeypatch, metrics, path_pass):
        interactions = tmp_path / "interactions.tsv"
        interactions.write_text(
            "".join(f"{src}\t{dst}\t1384732800000\t{w}\n"
                    for src, dst, w in [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 5.0)]),
            encoding="utf-8",
        )
        hotspots = tmp_path / "hotspots.csv"
        hotspots.write_text("cell_id,intensity\n1,1.0\n2,1.0\n3,1.0\n", encoding="utf-8")
        built = []
        real = gridhot.graph.WeightedGraph.path_adjacency.func
        counted = functools.cached_property(lambda g: built.append(g) or real(g))
        counted.__set_name__(gridhot.graph.WeightedGraph, "path_adjacency")
        monkeypatch.setattr(gridhot.graph.WeightedGraph, "path_adjacency", counted)
        out = tmp_path / "cen"
        assert main(["centrality", "--interactions", str(interactions), "--hotspots",
                     str(hotspots), *WEEK, "--metrics", metrics, "--out", str(out)]) == 0
        graph = json.loads((out / "manifest.json").read_text())["diagnostics"]["graph"]
        facts = {"nodes": 3, "edges": 3, "components": 1}
        # the detour 1-2-3 beats the edge {1, 3}
        assert graph == ({**facts, "path_edges": 2} if path_pass else facts)
        assert len(built) == (1 if path_pass else 0)

    @pytest.mark.parametrize("metrics, directions", [
        ("closeness,betweenness,degree,pagerank,eigenvector", [False, True]), ("pagerank", [True]),
        ("closeness,degree,eigenvector", [False]),
    ])
    def test_rows_built_once_per_graph(self, tmp_path, monkeypatch, metrics, directions):
        interactions = tmp_path / "interactions.tsv"
        interactions.write_text(
            "".join(f"{src}\t{dst}\t1384732800000\t{w}\n"
                    for src, dst, w in [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 5.0), (3, 4, 2.0)]),
            encoding="utf-8",
        )
        hotspots = tmp_path / "hotspots.csv"
        hotspots.write_text("cell_id,intensity\n1,1.0\n2,1.0\n3,1.0\n4,1.0\n", encoding="utf-8")
        built = []
        real = gridhot.graph.WeightedGraph.rows.func
        counted = functools.cached_property(lambda g: built.append(g) or real(g))
        counted.__set_name__(gridhot.graph.WeightedGraph, "rows")
        monkeypatch.setattr(gridhot.graph.WeightedGraph, "rows", counted)
        out = tmp_path / "cen"
        assert main(["centrality", "--interactions", str(interactions), "--hotspots",
                     str(hotspots), *WEEK, "--metrics", metrics, "--out", str(out)]) == 0
        status = json.loads((out / "manifest.json").read_text())["status"]
        assert set(status.values()) == {"ok"}
        # degree, eigenvector and the path pass share the undirected graph's rows
        assert sorted(g.directed for g in built) == directions

    def test_overflowing_undirected_edge_exits_one(self, tmp_path, capsys):
        # each direction's sum is finite, the undirected edge's is not
        interactions = tmp_path / "interactions.tsv"
        interactions.write_text(
            "1\t2\t1384732800000\t1e308\n2\t1\t1384732800000\t1e308\n"
            "2\t3\t1384732800000\t1.0\n",
            encoding="utf-8",
        )
        hotspots = tmp_path / "hotspots.csv"
        hotspots.write_text("cell_id,intensity\n1,1.0\n2,1.0\n3,1.0\n")
        out = tmp_path / "cen"
        assert main(["centrality", "--interactions", str(interactions), "--hotspots",
                     str(hotspots), *WEEK, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "gridhot centrality: the strengths of pair 1 <-> 2 sum past the largest float\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "overflowing, named",
        [([(4, 9)], None), ([(5, 2), (4, 9)], "5 -> 2"), ([(7, 1), (3, 2)], "3 -> 2")],
    )
    def test_overflow_between_hotspots_only_exits_one(
        self, tmp_path, capsys, overflowing, named
    ):
        # only pairs between hotspots 2, 3 and 5 are summed and checked
        base = "2\t3\t1384732800000\t1.0\n5\t3\t1384732800000\t2.0\n"
        hotspots = tmp_path / "hotspots.csv"
        hotspots.write_text("cell_id,intensity\n2,1.0\n3,1.0\n5,1.0\n")

        def centrality(name, text):
            interactions = tmp_path / f"{name}.tsv"
            interactions.write_text(text, encoding="utf-8")
            out = tmp_path / name
            code = main(["centrality", "--interactions", str(interactions), "--hotspots",
                         str(hotspots), *WEEK, "--out", str(out)])
            return code, out

        code, out = centrality("cen", base + "".join(
            f"{src}\t{dst}\t{t}\t1e308\n"
            for src, dst in overflowing for t in (1384732800000, 1384819200000)
        ))
        if named is not None:
            assert code == 1
            assert capsys.readouterr().err == (
                f"gridhot centrality: in-window strength of pair {named} sums past the largest float\n"
            )
            assert not out.exists()
            return
        # a non-member pair's sum is never formed: the outputs are those of a
        # run without it, and only the manifest's input digest and counts differ
        assert code == 0
        code, without = centrality("without", base)
        assert code == 0
        for name in ("centrality.csv", "rankings.csv"):
            assert (out / name).read_bytes() == (without / name).read_bytes()
        manifests = [json.loads((d / "manifest.json").read_text()) for d in (out, without)]
        assert [m["diagnostics"]["ingest"] for m in manifests] == [
            {"lines": 4, "parsed": 4, "skipped": 0, "in_window": 4},
            {"lines": 2, "parsed": 2, "skipped": 0, "in_window": 2},
        ]
        assert manifests[0]["status"] == manifests[1]["status"]
        assert {**manifests[0]["diagnostics"], "ingest": None} == {
            **manifests[1]["diagnostics"], "ingest": None
        }

    def test_pairs_outside_hotspots_counted(self, tmp_path):
        lines = [
            (2, 3, 1.0), (2, 3, 2.0), (3, 2, 0.0),  # hotspot pairs: one positive
            (2, 9, 1.0), (9, 8, 0.5), (9, 8, 0.5), (8, 9, 0.0), (8, 9, 0.0), (7, 1, 3.0),
        ]
        interactions = tmp_path / "interactions.tsv"
        interactions.write_text(
            "".join(f"{src}\t{dst}\t1384732800000\t{w}\n" for src, dst, w in lines)
            + "6\t7\t1384300800000\t1.0\n",  # before the window
            encoding="utf-8",
        )
        hotspots = tmp_path / "hotspots.csv"
        hotspots.write_text("cell_id,intensity\n2,1.0\n3,1.0\n5,1.0\n")
        out = tmp_path / "cen"
        assert main(["centrality", "--interactions", str(interactions), "--hotspots",
                     str(hotspots), *WEEK, "--out", str(out)]) == 0
        diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
        # every in-window record is counted, its pair summed or not
        assert diagnostics["ingest"] == {"lines": 10, "parsed": 10, "skipped": 0, "in_window": 9}
        assert diagnostics["graph"] == {"nodes": 3, "edges": 1, "path_edges": 1, "components": 2}

    def test_metric_sums_past_largest_float_are_statuses(self, tmp_path):
        # every edge is finite; node 2's degree and the path 1 -> 3 are not
        interactions = tmp_path / "interactions.tsv"
        interactions.write_text(
            "1\t2\t1384732800000\t1e308\n2\t3\t1384732800000\t1e308\n", encoding="utf-8"
        )
        hotspots = tmp_path / "hotspots.csv"
        hotspots.write_text("cell_id,intensity\n1,1.0\n2,1.0\n3,1.0\n")
        out = tmp_path / "cen"
        assert main(["centrality", "--interactions", str(interactions), "--hotspots",
                     str(hotspots), *WEEK, "--out", str(out)]) == 0
        status = json.loads((out / "manifest.json").read_text())["status"]
        assert status["degree"] == "error: the edge weights of node 2 sum past the largest float"
        assert status["pagerank"] == "ok"
        assert all(text.startswith("error: ") for name, text in status.items() if name != "pagerank")
        rows = read_csv(out / "centrality.csv")
        assert {row["metric"] for row in rows} == {"pagerank"}
        assert [row["cell_id"] for row in rows] == ["1", "2", "3"]

    def test_pagerank_out_weight_past_largest_float_is_a_status(self, tmp_path):
        # node 1's two finite out-edges sum to inf, which would make their shares 0;
        # with no metric left the run exits 1, its manifest still written
        interactions = tmp_path / "interactions.tsv"
        interactions.write_text(
            "1\t2\t1384732800000\t1e308\n1\t3\t1384732800000\t1e308\n"
            "2\t1\t1384732800000\t1.0\n3\t1\t1384732800000\t1.0\n",
            encoding="utf-8",
        )
        hotspots = tmp_path / "hotspots.csv"
        hotspots.write_text("cell_id,intensity\n1,1.0\n2,1.0\n3,1.0\n")
        out = tmp_path / "cen"
        assert main(["centrality", "--interactions", str(interactions), "--hotspots",
                     str(hotspots), *WEEK, "--metrics", "pagerank", "--out", str(out)]) == 1
        status = json.loads((out / "manifest.json").read_text())["status"]
        assert status == {
            "pagerank": "error: the out-edge weights of node 1 sum past the largest float"
        }
        assert read_csv(out / "centrality.csv") == []

    def test_metric_subset_flag(self, tmp_path):
        city, hs_dir, _ = run_pipeline(tmp_path)
        out = tmp_path / "subset"
        code = main(
            [
                "centrality", "--interactions", str(city / "interactions.tsv"),
                "--hotspots", str(hs_dir / "hotspots.csv"), *WEEK,
                "--metrics", "closeness,pagerank", "--out", str(out),
            ]
        )
        assert code == 0
        assert {row["metric"] for row in read_csv(out / "centrality.csv")} == {"closeness", "pagerank"}

    def test_unknown_metric_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(
                ["centrality", "--interactions", "x", "--hotspots", "y", *WEEK,
                 "--metrics", "closeness,fame", "--out", "z"]
            )
        assert info.value.code == 2

    def test_csv_rows_sorted(self, tmp_path):
        """Rows run metric by metric in METRICS order, cell ids ascending as numbers."""
        _, _, cen_dir = run_pipeline(tmp_path)
        rows = [(row["metric"], int(row["cell_id"])) for row in read_csv(cen_dir / "centrality.csv")]
        cells = sorted({cell for _, cell in rows})
        assert cells[0] < 10 <= cells[-1]
        assert rows == [(metric, cell) for metric in gridhot.centrality.METRICS for cell in cells]


@pytest.mark.parametrize(
    "argv",
    [
        ["centrality", "--interactions", "x", "--hotspots", "y", *WEEK,
         "--metrics", "degree,pagerank,degree", "--out", "z"],
        ["compare", "a.csv", "b.csv", "--metrics", "closeness,closeness", "--out", "z"],
    ],
    ids=["centrality", "compare"],
)
def test_repeated_metric_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    metric = argv[argv.index("--metrics") + 1].split(",")[0]
    assert f"metric {metric!r} is given more than once" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def centrality_above_fork_threshold(tmp_path, out):
    """Run ``centrality`` on a graph large enough for the path pass to fork."""
    city = tmp_path / "city"
    if not city.exists():
        run_synth(tmp_path, grid_side=10, n_centers=0, noise=0.5)
    hotspots = tmp_path / "big.csv"
    members = range(1, gridhot.centrality.PARALLEL_MIN_NODES + 7)
    hotspots.write_text("cell_id,intensity\n" + "".join(f"{c},1.0\n" for c in members))
    return main(["centrality", "--interactions", str(city / "interactions.tsv"),
                 "--hotspots", str(hotspots), *WEEK, "--out", str(out)])


class TestParallelCentrality:
    def test_outputs_identical_for_any_worker_count(self, tmp_path, monkeypatch):
        real_fork = os.fork
        forked = []
        monkeypatch.setattr(os, "fork", lambda: forked.append(1) or real_fork())
        out = tmp_path / "cen"
        digests = {}
        for workers in (1, 2):
            monkeypatch.setattr(gridhot.centrality, "_worker_count", lambda: workers)
            assert centrality_above_fork_threshold(tmp_path, out) == 0
            digests[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            shutil.rmtree(out)
        assert sorted(digests[1]) == ["centrality.csv", "manifest.json", "rankings.csv"]
        assert digests[1] == digests[2]
        assert len(forked) == 2
        manifest = json.loads(digests[2]["manifest.json"])
        assert set(manifest["status"].values()) == {"ok"}
        assert manifest["diagnostics"]["graph"]["nodes"] >= gridhot.centrality.PARALLEL_MIN_NODES

    def test_dead_worker_exits_one(self, tmp_path, monkeypatch, capsys):
        real_terms = gridhot.centrality._source_terms

        def dying_terms(adj, s, *args):
            if s == 3:
                os._exit(3)
            return real_terms(adj, s, *args)

        monkeypatch.setattr(gridhot.centrality, "_worker_count", lambda: 2)
        monkeypatch.setattr(gridhot.centrality, "_source_terms", dying_terms)
        run_synth(tmp_path, grid_side=10, n_centers=0, noise=0.5)
        capsys.readouterr()
        out = tmp_path / "cen"
        assert centrality_above_fork_threshold(tmp_path, out) == 1
        err = capsys.readouterr().err
        assert err == (
            "gridhot centrality: shortest-path worker 2 of 2 exited with status 3"
            " before sending the paths from node 4\n"
        )
        assert not out.exists() or list(out.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def ingest_workers(monkeypatch, workers):
    """Read every input with ``workers`` CPUs, however small it is."""
    monkeypatch.setattr(gridhot.ingest, "_worker_count", lambda: workers)
    monkeypatch.setattr(gridhot.ingest, "PARALLEL_MIN_BYTES", 1)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParallelIngest:
    def test_outputs_identical_for_any_worker_count(self, tmp_path, monkeypatch):
        city = run_synth(tmp_path, grid_side=8, records_per_cell=6)
        lines = (city / "activity.tsv").read_bytes().splitlines(keepends=True)
        parts = [tmp_path / "a1.tsv", tmp_path / "a2.tsv"]
        parts[0].write_bytes(b"".join(lines[: len(lines) // 3]))
        parts[1].write_bytes(b"".join(lines[len(lines) // 3:]))
        activity = [arg for part in parts for arg in ("--activity", str(part))]
        out = tmp_path / "out"
        # a copy of hotspots.csv with no manifest beside it: that heatmap reads the files
        bare = tmp_path / "bare" / "hotspots.csv"
        bare.parent.mkdir()
        read_heatmap = tmp_path / "read.geojson"
        steps = [
            ["hotspots", *activity, *WEEK, "--k", "6", "--grid", str(city / "grid.geojson"),
             "--out", str(out / "hs")],
            ["heatmap", *activity, "--grid", str(city / "grid.geojson"), *WEEK,
             "--hotspots", str(out / "hs" / "hotspots.csv"), "--out", str(out / "heat.geojson")],
            ["heatmap", *activity, "--grid", str(city / "grid.geojson"), *WEEK,
             "--hotspots", str(bare), "--out", str(read_heatmap)],
            ["centrality", "--interactions", str(city / "interactions.tsv"),
             "--hotspots", str(out / "hs" / "hotspots.csv"), *WEEK, "--out", str(out / "cen")],
        ]
        real_fork = os.fork
        forked = []
        monkeypatch.setattr(os, "fork", lambda: forked.append(1) or real_fork())
        trees = {}
        for workers in (1, 2, 3):
            ingest_workers(monkeypatch, workers)
            for argv in steps:
                if str(bare) in argv:
                    shutil.copyfile(out / "hs" / "hotspots.csv", bare)
                assert main(argv) == 0, argv
            trees[workers] = {
                str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
            }
            # hotspots --grid and a heatmap that reads the files write the same heatmap
            assert read_heatmap.read_bytes() == trees[workers]["hs/heatmap.geojson"]
            shutil.rmtree(out)
            assert_no_children()
        assert len(trees[1]) == 9 and "cen/manifest.json" in trees[1]
        assert trees[1] == trees[2] == trees[3]
        # hotspots --grid and heatmap --hotspots write the same heatmap
        assert trees[1]["hs/heatmap.geojson"] == trees[1]["heat.geojson"]
        # hotspots and the heatmap that reads fork one ingest worker per CPU
        # after the first; the heatmap that copies reads nothing, and
        # centrality reads its interactions in-process
        assert len(forked) == 2 * (1 + 2)

    def test_dead_worker_exits_one(self, tmp_path, monkeypatch, capsys):
        city = run_synth(tmp_path)
        ingest_workers(monkeypatch, 2)
        monkeypatch.setattr(gridhot.ingest, "_reduce_share", lambda *args: os._exit(3))
        capsys.readouterr()
        out = tmp_path / "hs"
        activity = str(city / "activity.tsv")
        assert main(["hotspots", "--activity", activity, *WEEK, "--k", "4", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "gridhot hotspots: ingest worker 1 of 1 exited with status 3"
            f" before sending its sums of {activity}\n"
        )
        assert not out.exists()
        assert_no_children()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "first, last",
        [("1\t1384732800000\t0\t1e308", "1\t1384732800001\t0\t1e308"),
         ("1\t1384732800000\t0\t1e308\t1e308", "3\t1384732800000\t0\t1.0")],
        ids=["two-records", "one-record"],
    )
    def test_overflowing_sums_exit_one(self, tmp_path, monkeypatch, capsys, workers, first, last):
        ingest_workers(monkeypatch, workers)
        activity = tmp_path / "a.tsv"
        activity.write_text(f"{first}\n" + "2\t1384732800000\t0\t1.0\n" * 20 + f"{last}\n")
        interactions = tmp_path / "i.tsv"
        interactions.write_text(
            "1\t2\t1384732800000\t1e308\n" + "2\t1\t1384732800000\t1.0\n" * 20
            + "1\t2\t1384732800001\t1e308\n"
        )
        members = tmp_path / "hs.csv"
        members.write_text("cell_id,intensity\n1,1.0\n2,1.0\n")
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["hotspots", "--activity", str(activity), *WEEK, "--p", "0.5",
                     "--out", str(out)]) == 1
        assert main(["centrality", "--interactions", str(interactions), "--hotspots", str(members),
                     *WEEK, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "gridhot hotspots: in-window activity of cell 1 sums past the largest float\n"
            "gridhot centrality: in-window strength of pair 1 -> 2 sums past the largest float\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bad_line_before_undecodable_chunk_exits_one(self, tmp_path, monkeypatch, capsys,
                                                          workers):
        """A bad line in an earlier 8 KiB decode chunk than an undecodable byte
        is the error a line-by-line read meets first, though one block holds both."""
        city = run_synth(tmp_path, grid_side=8, records_per_cell=6)
        lines = (city / "activity.tsv").read_bytes().splitlines(keepends=True)
        lines[2] = b"7\t1384732800000\t39\tbad\n"
        lines.insert(-1, b"\xff\n")
        activity = tmp_path / "faulty.tsv"
        activity.write_bytes(b"".join(lines))
        assert sum(map(len, lines[:-2])) > 8192 and len(lines) < gridhot.ingest._BLOCK_LINES
        ingest_workers(monkeypatch, workers)
        capsys.readouterr()
        argv = ["hotspots", "--activity", str(activity), *WEEK, "--p", "0.5",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"gridhot hotspots: malformed sms_in 'bad' ({activity}:3)\n"
        assert not (tmp_path / "o").exists()
        assert_no_children()

    def test_undecodable_later_range_exits_two(self, tmp_path, monkeypatch, capsys):
        city = run_synth(tmp_path)
        activity = city / "activity.tsv"
        activity.write_bytes(activity.read_bytes()[:-30] + b"\xff\n")
        ingest_workers(monkeypatch, 3)
        capsys.readouterr()
        argv = ["hotspots", "--activity", str(activity), *WEEK, "--p", "0.5", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gridhot hotspots: cannot read {activity}: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()
        assert_no_children()

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), fault=st.sampled_from([b"\xff", b"\n7\t1384732800000\t39\tbad\n"]))
    def test_fault_anywhere_same_line_for_any_workers(self, tmp_path, capsys, data, fault):
        city = tmp_path / "city"
        if not city.exists():
            run_synth(tmp_path, grid_side=8, records_per_cell=6)
        clean = (city / "activity.tsv").read_bytes()
        at = data.draw(st.integers(0, len(clean)), label="offset")
        activity = tmp_path / "faulty.tsv"
        activity.write_bytes(clean[:at] + fault + clean[at:])
        capsys.readouterr()
        outcomes = set()
        for workers in (1, 2, 3):
            with pytest.MonkeyPatch.context() as patch:
                ingest_workers(patch, workers)
                out = tmp_path / f"hs{workers}"
                code = main(["hotspots", "--activity", str(activity), *WEEK, "--p", "0.5",
                             "--out", str(out)])
            err = capsys.readouterr().err
            # a malformed line exits 1, an undecodable byte 2
            assert code == (2 if fault == b"\xff" else 1)
            assert err.count("\n") == 1 and "Traceback" not in err
            assert not out.exists()
            assert_no_children()
            outcomes.add((code, err))
        assert len(outcomes) == 1


def read_csv_from_synth_hotspots(city, tmp_path):
    hs_dir = tmp_path / "hs_helper"
    assert (
        main(["hotspots", "--activity", str(city / "activity.tsv"), *WEEK, "--p", "0.0", "--out", str(hs_dir)])
        == 0
    )
    return [(row["cell_id"], row["intensity"]) for row in read_csv(hs_dir / "hotspots.csv")]


class TestCompareCommand:
    def test_identity_comparison_zeros(self, tmp_path):
        _, _, cen_dir = run_pipeline(tmp_path)
        out = tmp_path / "cmp"
        code = main(
            ["compare", str(cen_dir / "centrality.csv"), str(cen_dir / "centrality.csv"),
             "--metrics", "closeness,pagerank", "--out", str(out)]
        )
        assert code == 0
        for metric in ("closeness", "pagerank"):
            diffs = read_csv(out / f"{metric}_reldiff.csv")
            assert all(float(row["rel_diff_pct"]) == 0.0 for row in diffs)
            corr = read_csv(out / f"{metric}_corr_diff.csv")
            assert all(float(row["diff_pct"]) == 0.0 for row in corr)

    def test_scaled_week_five_percent(self, tmp_path):
        _, _, cen_dir = run_pipeline(tmp_path)
        scaled = tmp_path / "scaled.csv"
        rows = read_csv(cen_dir / "centrality.csv")
        scaled.write_text(
            "cell_id,metric,score\n"
            + "".join(f"{r['cell_id']},{r['metric']},{float(r['score']) * 1.05!r}\n" for r in rows),
            encoding="utf-8",
        )
        out = tmp_path / "cmp"
        code = main(
            ["compare", str(cen_dir / "centrality.csv"), str(scaled),
             "--metrics", "closeness", "--out", str(out)]
        )
        assert code == 0
        for row in read_csv(out / "closeness_reldiff.csv"):
            assert float(row["rel_diff_pct"]) == pytest.approx(5.0, rel=1e-9)

    def test_mismatched_node_sets_exit_one(self, tmp_path, capsys):
        _, _, cen_dir = run_pipeline(tmp_path)
        truncated = tmp_path / "short.csv"
        rows = read_csv(cen_dir / "centrality.csv")
        dropped = rows[0]["cell_id"]
        truncated.write_text(
            "cell_id,metric,score\n"
            + "".join(
                f"{r['cell_id']},{r['metric']},{r['score']}\n"
                for r in rows
                if r["cell_id"] != dropped
            ),
            encoding="utf-8",
        )
        code = main(
            ["compare", str(cen_dir / "centrality.csv"), str(truncated), "--out", str(tmp_path / "cmp")]
        )
        assert code == 1
        assert dropped in capsys.readouterr().err


    def test_dispersion_past_largest_float_is_metric_status(self, tmp_path):
        # 1e200 squared passes the largest float; the other metric is unaffected
        report = tmp_path / "week.csv"
        report.write_text(
            "cell_id,metric,score\n1,degree,1e200\n2,degree,1.0\n3,degree,2.0\n"
            "1,pagerank,0.25\n2,pagerank,0.25\n3,pagerank,0.5\n",
            encoding="utf-8",
        )
        out = tmp_path / "cmp"
        assert main(["compare", str(report), str(report), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == {
            "degree": "error: the dispersion of degree in week 1 passes the largest float",
            "pagerank": "ok",
        }
        assert sorted(manifest["outputs"]) == [
            "pagerank_comparison.json", "pagerank_corr_diff.csv", "pagerank_reldiff.csv"
        ]
        assert main(["compare", str(report), str(report), "--metrics", "degree",
                     "--out", str(tmp_path / "alone")]) == 1


    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_is_malformed_row(self, tmp_path, capsys, score):
        report = tmp_path / "week.csv"
        report.write_text(
            f"cell_id,metric,score\n1,degree,1.0\n2,degree,{score}\n3,degree,2.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "cmp"
        assert main(["compare", str(report), str(report), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"gridhot compare: malformed row 3 in {report}\n"
        assert not out.exists()

    def test_repeated_metric_and_cell_is_malformed_row(self, tmp_path, capsys):
        # the same cell under another metric is no repeat
        report = tmp_path / "week.csv"
        report.write_text(
            "cell_id,metric,score\n1,degree,1.0\n2,degree,2.0\n1,pagerank,0.5\n"
            "2,pagerank,0.5\n2,degree,0.5\n",
            encoding="utf-8",
        )
        out = tmp_path / "cmp"
        assert main(["compare", str(report), str(report), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"gridhot compare: malformed row 6 in {report}\n"
        assert not out.exists()

    @pytest.mark.parametrize("rows", ["", "1,foo,1.0\n2,foo,2.0\n"], ids=["header-only", "foo-only"])
    def test_no_known_metric_exits_one(self, tmp_path, capsys, rows):
        week1, week2 = tmp_path / "week1.csv", tmp_path / "week2.csv"
        for report in (week1, week2):
            report.write_text("cell_id,metric,score\n" + rows, encoding="utf-8")
        out = tmp_path / "cmp"
        assert main(["compare", str(week1), str(week2), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"gridhot compare: report {week1} holds none of the metrics "
            "closeness, betweenness, degree, pagerank, eigenvector\n"
        )
        assert not out.exists()


class TestWarnings:
    """Each warning is one ``gridhot <command>: warning:`` line on stderr."""

    def test_skipped_malformed_lines(self, tmp_path, capsys):
        activity = tmp_path / "a.tsv"
        activity.write_text("1\t1384732800000\t0\t1.0\nbad line\n2\t1384732800000\t0\t2.0\n")
        ingest_cfg = tmp_path / "ingest.cfg"
        ingest_cfg.write_text("on_malformed = skip\n", encoding="utf-8")
        out = tmp_path / "hs"
        assert main(["hotspots", "--activity", str(activity), *WEEK, "--p", "0.5",
                     "--config", str(ingest_cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "gridhot hotspots: warning: skipped 1 malformed activity line(s)\n"
        )
        assert json.loads((out / "manifest.json").read_text())["diagnostics"]["ingest"]["skipped"] == 1

    @pytest.mark.parametrize("command", ["hotspots", "heatmap"])
    def test_active_cells_without_geometry(self, tmp_path, capsys, command):
        city = run_synth(tmp_path, grid_side=2)
        activity = tmp_path / "a.tsv"
        activity.write_text(
            (city / "activity.tsv").read_text() + "9\t1384732800000\t0\t1.0\n7\t1384732800000\t0\t1.0\n"
        )
        argv = {
            "hotspots": ["hotspots", "--activity", str(activity), *WEEK, "--p", "0.5",
                         "--grid", str(city / "grid.geojson"), "--out", str(tmp_path / "hs")],
            "heatmap": ["heatmap", "--activity", str(activity), "--grid", str(city / "grid.geojson"),
                        *WEEK, "--out", str(tmp_path / "heat.geojson")],
        }[command]
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().err == (
            f"gridhot {command}: warning: 2 active cell(s) have no grid geometry and were skipped\n"
        )

    def test_failed_metric(self, tmp_path, capsys):
        interactions = tmp_path / "interactions.tsv"
        interactions.write_text("1\t2\t1384732800000\t1.0\n3\t4\t1384732800000\t1.0\n")
        hotspots = tmp_path / "hotspots.csv"
        hotspots.write_text("cell_id,intensity\n1,1.0\n2,1.0\n3,1.0\n4,1.0\n")
        out = tmp_path / "cen"
        assert main(["centrality", "--interactions", str(interactions), "--hotspots",
                     str(hotspots), *WEEK, "--metrics", "degree,eigenvector", "--out", str(out)]) == 0
        status = json.loads((out / "manifest.json").read_text())["status"]
        assert status["degree"] == "ok" and status["eigenvector"].startswith("error: ")
        assert capsys.readouterr().err == (
            f"gridhot centrality: warning: metric eigenvector failed: {status['eigenvector'][7:]}\n"
        )

    def test_failed_comparison(self, tmp_path, capsys):
        report = tmp_path / "week.csv"
        report.write_text(
            "cell_id,metric,score\n1,degree,1e200\n2,degree,1.0\n"
            "1,pagerank,0.5\n2,pagerank,0.5\n",
            encoding="utf-8",
        )
        assert main(["compare", str(report), str(report), "--out", str(tmp_path / "cmp")]) == 0
        assert capsys.readouterr().err == (
            "gridhot compare: warning: comparison for degree failed:"
            " the dispersion of degree in week 1 passes the largest float\n"
        )


class TestHeatmapCommand:
    def test_three_cell_normalization(self, tmp_path):
        activity = tmp_path / "a.tsv"
        activity.write_text(
            "1\t1384732800000\t0\t10\n2\t1384732800000\t0\t20\n3\t1384732800000\t0\t30\n",
            encoding="utf-8",
        )
        grid = tmp_path / "g.geojson"
        features = []
        for cell in (1, 2, 3):
            features.append(
                {
                    "type": "Feature",
                    "properties": {"cellId": cell},
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [[[cell, 0], [cell + 1, 0], [cell + 1, 1], [cell, 1], [cell, 0]]],
                    },
                }
            )
        grid.write_text(json.dumps({"type": "FeatureCollection", "features": features}), encoding="utf-8")
        out = tmp_path / "heat.geojson"
        code = main(["heatmap", "--activity", str(activity), "--grid", str(grid), *WEEK, "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        norms = {f["properties"]["cell_id"]: f["properties"]["intensity_norm"] for f in doc["features"]}
        assert norms == {1: 0.0, 2: 0.5, 3: 1.0}
        assert (tmp_path / "heat.geojson.manifest.json").exists()

    def test_flat_city_norms_zero(self, tmp_path):
        city = run_synth(tmp_path, n_centers=0, noise=0)
        out = tmp_path / "heat.geojson"
        code = main(
            ["heatmap", "--activity", str(city / "activity.tsv"), "--grid", str(city / "grid.geojson"),
             *WEEK, "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert {f["properties"]["intensity_norm"] for f in doc["features"]} == {0.0}

    def test_hotspot_marking(self, tmp_path):
        city = run_synth(tmp_path)
        hs_dir = tmp_path / "hs"
        assert (
            main(["hotspots", "--activity", str(city / "activity.tsv"), *WEEK, "--k", "5", "--out", str(hs_dir)])
            == 0
        )
        out = tmp_path / "heat.geojson"
        code = main(
            ["heatmap", "--activity", str(city / "activity.tsv"), "--grid", str(city / "grid.geojson"),
             *WEEK, "--hotspots", str(hs_dir / "hotspots.csv"), "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        flagged = [f["properties"]["cell_id"] for f in doc["features"] if f["properties"]["is_hotspot"]]
        expected = [int(row["cell_id"]) for row in read_csv(hs_dir / "hotspots.csv")]
        assert sorted(flagged) == expected

    def test_repeated_hotspot_cell_is_malformed_row(self, tmp_path, capsys):
        city = run_synth(tmp_path)
        hotspots = tmp_path / "hotspots.csv"
        hotspots.write_text("cell_id,intensity\n3,2.0\n5,1.0\n3,2.0\n", encoding="utf-8")
        out = tmp_path / "heat.geojson"
        capsys.readouterr()
        assert main(["heatmap", "--activity", str(city / "activity.tsv"), "--grid",
                     str(city / "grid.geojson"), *WEEK, "--hotspots", str(hotspots),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"gridhot heatmap: malformed row 4 in {hotspots}\n"
        assert not out.exists()


def reuse_city(tmp_path):
    """A hotspots run under ``on_malformed = skip`` on an activity file with one
    malformed line and one active cell (99) that the grid has no polygon for.

    Returns the city, the activity file, the ingest config and the run's directory.
    """
    city = run_synth(tmp_path)
    activity = tmp_path / "a.tsv"
    activity.write_text(
        (city / "activity.tsv").read_text() + "bad line\n"
        "99\t1384732800000\t0\t0.1\n7\t1384732800000\t0\t0.25\n",
        encoding="utf-8",
    )
    cfg = tmp_path / "skip.cfg"
    cfg.write_text("on_malformed = skip\n", encoding="utf-8")
    hs = tmp_path / "hs"
    assert main(["hotspots", "--activity", str(activity), *WEEK, "--k", "6",
                 "--grid", str(city / "grid.geojson"), "--config", str(cfg), "--out", str(hs)]) == 0
    return city, activity, cfg, hs


def heatmap_argv(city, activity, cfg, hotspots, out, window=WEEK):
    return ["heatmap", "--activity", str(activity), "--grid", str(city / "grid.geojson"), *window,
            "--hotspots", str(hotspots), "--config", str(cfg), "--out", str(out)]


def heatmap_outcome(argv, out, capsys):
    """Exit code, stderr, GeoJSON bytes and the manifest without its paths."""
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    manifest = Path(str(out) + ".manifest.json")
    if not manifest.exists():
        return code, err, None, None
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    for entry in [*doc["inputs"].values(), *doc["outputs"].values()]:
        del entry["path"]
    return code, err, out.read_bytes(), doc


def break_window(tmp_path, hs):
    return ("--window-start", "2013-11-18", "--window-end", "2013-11-24")


def break_policy(tmp_path, hs):
    (tmp_path / "skip.cfg").write_text("on_malformed = abort\n", encoding="utf-8")


def break_activity_byte(tmp_path, hs):
    data = (tmp_path / "a.tsv").read_bytes()
    assert data.count(b"\t0.25\n") == 1
    (tmp_path / "a.tsv").write_bytes(data.replace(b"\t0.25\n", b"\t0.26\n"))


def break_other_k(tmp_path, hs):
    other = tmp_path / "hs_other"
    assert main(["hotspots", "--activity", str(tmp_path / "a.tsv"), *WEEK, "--k", "9",
                 "--config", str(tmp_path / "skip.cfg"), "--out", str(other)]) == 0
    shutil.copyfile(other / "hotspots.csv", hs / "hotspots.csv")


def edit_manifest(edit):
    def spoil(tmp_path, hs):
        doc = json.loads((hs / "manifest.json").read_text(encoding="utf-8"))
        edit(doc)
        (hs / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")

    return spoil


def write_manifest_text(text):
    def spoil(tmp_path, hs):
        (hs / "manifest.json").write_text(text, encoding="utf-8")

    return spoil


def rerun_without_grid(tmp_path, hs):
    # the earlier run's heatmap.geojson stays beside the new run's outputs
    assert main(["hotspots", "--activity", str(tmp_path / "a.tsv"), *WEEK, "--k", "6",
                 "--config", str(tmp_path / "skip.cfg"), "--out", str(hs)]) == 0
    assert (hs / "heatmap.geojson").exists()


def reformat_grid(tmp_path, hs):
    # the same cells in other bytes
    grid = tmp_path / "city" / "grid.geojson"
    grid.write_text(json.dumps(json.loads(grid.read_text(encoding="utf-8"))), encoding="utf-8")


def alter_heatmap(tmp_path, hs):
    path = hs / "heatmap.geojson"
    data = path.read_bytes()
    assert data.count(b'"is_hotspot": true') == 6
    path.write_bytes(data.replace(b'"is_hotspot": true', b'"is_hotspot": false', 1))


def heatmap_not_utf8(tmp_path, hs):
    path = hs / "heatmap.geojson"
    path.write_bytes(path.read_bytes().replace(b"{", b"\xff", 1))


# each case breaks one condition of copying the run's heatmap and keeps the
# others: heatmap reads the activity files and the grid
BROKEN_REUSE = {
    "window-end": break_window,
    "on-malformed": break_policy,
    "activity-byte": break_activity_byte,
    "hotspots-of-other-k": break_other_k,
    "hotspots-without-grid": rerun_without_grid,
    "other-grid": reformat_grid,
    "heatmap-deleted": lambda tmp_path, hs: (hs / "heatmap.geojson").unlink(),
    "heatmap-altered": alter_heatmap,
    "heatmap-not-utf8": heatmap_not_utf8,
    "manifest-deleted": lambda tmp_path, hs: (hs / "manifest.json").unlink(),
    "manifest-truncated": write_manifest_text("{"),
    "manifest-list": write_manifest_text("[]"),
    "manifest-nested-past-recursion-limit": write_manifest_text("[" * 100_000),
    "other-tool-version": edit_manifest(lambda doc: doc.update(tool_version="0.0.0")),
    "no-diagnostics": edit_manifest(lambda doc: doc.pop("diagnostics")),
    "non-int-cell-count": edit_manifest(lambda doc: doc["diagnostics"]["ingest"].update(cells=1.0)),
    "no-geometry-less-count": edit_manifest(lambda doc: doc["diagnostics"].pop("heatmap")),
    "non-int-geometry-less-count": edit_manifest(
        lambda doc: doc["diagnostics"]["heatmap"].update(cells_without_geometry=1.0)
    ),
    "no-recorded-heatmap-digest": edit_manifest(
        lambda doc: doc["outputs"]["heatmap.geojson"].pop("sha256")
    ),
    # conditions that no change to the heatmap's own inputs breaks alone
    "recorded-policy": edit_manifest(lambda doc: doc["config"].update(on_malformed="abort")),
    "no-recorded-config": edit_manifest(lambda doc: doc["inputs"].pop("config")),
    "extra-recorded-activity": edit_manifest(
        lambda doc: doc["inputs"].update({"activity[1]": doc["inputs"]["activity[0]"]})
    ),
    "recorded-inputs-a-list": edit_manifest(lambda doc: doc.update(inputs=[1])),
}


def count_heatmap_reads(monkeypatch):
    """The activity files and grids that heatmap reads, as two lists of calls."""
    parsed, grids = [], []
    real_parse, real_grid = gridhot.cli.parse_activity, gridhot.cli.parse_grid
    monkeypatch.setattr(
        gridhot.cli, "parse_activity", lambda *a, **kw: parsed.append(a) or real_parse(*a, **kw)
    )
    monkeypatch.setattr(gridhot.cli, "parse_grid", lambda path: grids.append(path) or real_grid(path))
    return parsed, grids


def significant_digits(value: float) -> int:
    mantissa = repr(value).split("e")[0].replace(".", "").lstrip("0")
    return len(mantissa)


def record_hashing(monkeypatch):
    """The paths the CLI passes to sha256_file, and the arguments of every
    SHA-256 object made, by sha256_file or by a write, as two lists."""
    hashed, made = [], []
    real_file, real_hash = gridhot.cli.sha256_file, hashlib.sha256
    monkeypatch.setattr(gridhot.cli, "sha256_file", lambda p: hashed.append(str(p)) or real_file(p))
    monkeypatch.setattr(hashlib, "sha256", lambda *a: made.append(a) or real_hash(*a))
    return hashed, made


def assert_inputs_hashed_once(manifest_path, hashed, made):
    """The command that wrote ``manifest_path`` passed each of its inputs to
    sha256_file once and none of its outputs, and took each output's digest
    as it wrote it: one SHA-256 object per input and per file written, the
    manifest included, so nothing was read back.  Returns the manifest."""
    made_count = len(made)
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    inputs = {entry["path"] for entry in manifest["inputs"].values()}
    outputs = [entry["path"] for entry in manifest["outputs"].values()]
    assert sorted(hashed) == sorted(inputs)
    assert made_count == len(inputs) + len(outputs) + 1
    for entry in [*manifest["inputs"].values(), *manifest["outputs"].values()]:
        assert entry["sha256"] == sha256_file(entry["path"]), entry["path"]
    return manifest


class TestHeatmapReuse:
    @pytest.mark.parametrize("broken", [None, *BROKEN_REUSE], ids=["reuse", *BROKEN_REUSE])
    def test_reuses_exactly_when_the_run_matches(self, tmp_path, monkeypatch, capsys, broken):
        """A copied heatmap writes what a read writes; a broken condition of
        the copy makes heatmap read the activity files and the grid."""
        city, activity, cfg, hs = reuse_city(tmp_path)
        window = (BROKEN_REUSE[broken](tmp_path, hs) if broken else None) or WEEK
        bare = tmp_path / "bare"
        bare.mkdir()
        shutil.copyfile(hs / "hotspots.csv", bare / "hotspots.csv")

        parsed, grids = count_heatmap_reads(monkeypatch)
        out = tmp_path / "x" / "heat.geojson"
        outcome = heatmap_outcome(heatmap_argv(city, activity, cfg, hs / "hotspots.csv", out, window),
                                  out, capsys)
        assert bool(parsed) == (broken is not None)
        # an aborted read stops before the grid
        assert bool(grids) == (broken is not None and broken != "on-malformed")
        fresh_out = tmp_path / "y" / "heat.geojson"
        fresh = heatmap_outcome(heatmap_argv(city, activity, cfg, bare / "hotspots.csv", fresh_out,
                                             window), fresh_out, capsys)
        assert outcome == fresh
        if broken == "on-malformed":
            message = f"gridhot heatmap: malformed cell id 'bad line' ({activity}:73)\n"
            assert outcome[:3] == (1, message, None)
            return
        code, err, geojson, _ = outcome
        assert code == 0
        assert err == (
            "gridhot heatmap: warning: skipped 1 malformed activity line(s)\n"
            "gridhot heatmap: warning: 1 active cell(s) have no grid geometry and were skipped\n"
        )
        if broken is None:
            assert geojson == (hs / "heatmap.geojson").read_bytes()
            features = json.loads(geojson)["features"]
            values = [f["properties"]["intensity"] for f in features]
            assert any(significant_digits(v) == 17 for v in values)
            fresh_values = [f["properties"]["intensity"] for f in json.loads(fresh[2])["features"]]
            assert list(map(float.hex, values)) == list(map(float.hex, fresh_values))

    def test_copy_and_read_agree_on_a_grid_missing_an_active_cell(self, tmp_path, monkeypatch, capsys):
        """Copying the heatmap and reading the files, given a run without
        --grid or a hotspots.csv alone, give the same bytes, manifest, warning
        and exit code."""
        city = run_synth(tmp_path)
        doc = json.loads((city / "grid.geojson").read_text(encoding="utf-8"))
        dropped = doc["features"].pop(3)["properties"]
        grid = tmp_path / "grid-missing-one.geojson"
        grid.write_text(json.dumps(doc), encoding="utf-8")
        activity = city / "activity.tsv"
        run = ["hotspots", "--activity", str(activity), *WEEK, "--k", "4"]
        assert main([*run, "--grid", str(grid), "--out", str(tmp_path / "hs")]) == 0
        manifest = json.loads((tmp_path / "hs" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["diagnostics"]["heatmap"] == {"cells_without_geometry": 1}
        assert main([*run, "--out", str(tmp_path / "hs_plain")]) == 0
        (tmp_path / "bare").mkdir()
        shutil.copyfile(tmp_path / "hs" / "hotspots.csv", tmp_path / "bare" / "hotspots.csv")

        parsed, grids = count_heatmap_reads(monkeypatch)
        outcomes = {}
        for run_dir in ("hs", "hs_plain", "bare"):
            out = tmp_path / f"heat-{run_dir}" / "heat.geojson"
            argv = ["heatmap", "--activity", str(activity), "--grid", str(grid), *WEEK,
                    "--hotspots", str(tmp_path / run_dir / "hotspots.csv"), "--out", str(out)]
            outcomes[run_dir] = heatmap_outcome(argv, out, capsys), len(parsed), len(grids)
        # the copy parses nothing, each read both
        assert [outcomes[d][1:] for d in ("hs", "hs_plain", "bare")] == [(0, 0), (1, 1), (2, 2)]
        code, err, geojson, _ = outcomes["hs"][0]
        assert outcomes["hs_plain"][0] == outcomes["bare"][0] == outcomes["hs"][0]
        assert code == 0
        assert err == (
            "gridhot heatmap: warning: 1 active cell(s) have no grid geometry and were skipped\n"
        )
        assert geojson == (tmp_path / "hs" / "heatmap.geojson").read_bytes()
        cell_ids = {f["properties"]["cell_id"] for f in json.loads(geojson)["features"]}
        assert len(cell_ids) == 35 and dropped["cellId"] not in cell_ids

    @pytest.mark.parametrize("path", ["reuse", "grid-mismatch", "read"])
    def test_hashes_each_input_once(self, tmp_path, monkeypatch, path):
        city, activity, cfg, hs = reuse_city(tmp_path)
        if path == "grid-mismatch":
            # the check finds the mismatch before it hashes the config and activity
            reformat_grid(tmp_path, hs)
        if path == "read":
            # the check hashes every input before it finds the mismatch
            break_activity_byte(tmp_path, hs)
        hashing = record_hashing(monkeypatch)
        parsed, grids = count_heatmap_reads(monkeypatch)
        out = tmp_path / "heat.geojson"
        assert main(heatmap_argv(city, activity, cfg, hs / "hotspots.csv", out)) == 0
        assert bool(parsed) == bool(grids) == (path != "reuse")
        inputs = [str(activity), str(city / "grid.geojson"), str(hs / "hotspots.csv"), str(cfg)]
        manifest = assert_inputs_hashed_once(Path(str(out) + ".manifest.json"), *hashing)
        assert sorted(entry["path"] for entry in manifest["inputs"].values()) == sorted(inputs)
        assert list(manifest["outputs"]) == ["heat.geojson"]


coordinates =st.floats(allow_nan=False, allow_infinity=False)
cell_ids = st.integers(min_value=1, max_value=10**12)


@st.composite
def heatmap_inputs(draw):
    """Grid cells with rings of 4-8 points, the traffic of some of them and
    of cells without geometry, and no member set or one."""
    ids = draw(st.lists(cell_ids, unique=True, max_size=6))
    cells = []
    for cell_id in ids:
        points = draw(st.lists(st.tuples(coordinates, coordinates), min_size=3, max_size=7))
        cells.append(GridCell(cell_id, tuple(points + points[:1])))
    active = [cell_id for cell_id in ids if draw(st.booleans())]
    active += draw(st.lists(cell_ids.filter(lambda c: c not in ids), unique=True, max_size=3))
    values = st.floats(min_value=0.0, max_value=1e300)
    intensities = {cell_id: draw(values) for cell_id in sorted(active)}
    members = draw(st.none() | st.sets(st.sampled_from([*ids, 0])))
    return cells, TrafficAggregate(TimeWindow(0, 1), intensities), members


class TestStreamedHeatmap:
    @given(heatmap_inputs())
    @settings(max_examples=200, deadline=None)
    def test_text_equals_encoded_document(self, inputs):
        cells, traffic, members = inputs
        chunks, skipped = gridhot.cli.heatmap_feature_collection(cells, traffic, members)
        doc = oracles.heatmap_document(cells, traffic, members)
        assert "".join(chunks) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert skipped == doc["properties"]["cells_without_geometry"]

    def test_written_in_a_quarter_of_the_file_size(self, tmp_path):
        # 900 cells; the whole document and json's chunk list took several times the file
        cells = [
            GridCell(cell_id, ((x, y), (x + 1.5, y), (x + 1.5, y + 1.5), (x, y + 1.5), (x, y)))
            for cell_id in range(1, 901)
            for x, y in [(9.0 + cell_id % 30 / 7, 45.0 + cell_id // 30 / 7)]
        ]
        traffic = TrafficAggregate(TimeWindow(0, 1), {c: c / 3 for c in range(1, 905)})
        members = set(range(1, 901, 45))
        path = tmp_path / "heatmap.geojson"
        tracemalloc.start()
        try:
            gridhot.cli._write_heatmap("heatmap", path, cells, traffic, members)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = path.read_text(encoding="utf-8")
        doc = oracles.heatmap_document(cells, traffic, members)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert peak < len(text) / 4, (peak, len(text))

    def test_copied_in_a_quarter_of_the_file_size(self, tmp_path):
        # a 4 MB heatmap of a run; reading it whole took several times the file
        run = tmp_path / "hs"
        run.mkdir()
        source = run / "heatmap.geojson"
        source.write_text("".join(f'{{"cell_id": {i}}},\n' for i in range(200_000)), encoding="utf-8")
        grid, activity, hotspots = tmp_path / "grid.geojson", tmp_path / "a.tsv", run / "hotspots.csv"
        for path in (grid, activity, hotspots):
            path.write_text(f"{path.name}\n", encoding="utf-8")
        window = TimeWindow(0, 1)
        manifest = {
            "command": "hotspots",
            "tool_version": gridhot.__version__,
            "inputs": {"activity[0]": {"sha256": sha256_file(activity)},
                       "grid": {"sha256": sha256_file(grid)}},
            "config": {"window": window._asdict(), "on_malformed": "abort"},
            "outputs": {"hotspots.csv": {"sha256": sha256_file(hotspots)},
                        "heatmap.geojson": {"sha256": sha256_file(source)}},
            "diagnostics": {"ingest": dict.fromkeys(gridhot.cli._INGEST_KEYS, 0),
                            "heatmap": {"cells_without_geometry": 2}},
        }
        (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        out = tmp_path / "out" / "heat.geojson"
        args = argparse.Namespace(activity=[str(activity)], grid=str(grid), hotspots=str(hotspots),
                                  config=None, out=str(out))
        tracemalloc.start()
        try:
            diagnostics, digest = gridhot.cli._copied_heatmap(args, window, IngestConfig(), {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diagnostics == manifest["diagnostics"]
        assert digest == sha256_file(out)
        assert out.read_bytes() == source.read_bytes()
        assert peak < source.stat().st_size / 4, (peak, source.stat().st_size)


MANIFEST_KEYS = {"command", "tool_version", "inputs", "config", "outputs", "status", "diagnostics"}


@pytest.fixture(scope="module")
def chain_dir(tmp_path_factory):
    """One run of all five commands, with every optional input given, and a
    synth forked onto two CPUs and a heatmap that reads the files."""
    root = tmp_path_factory.mktemp("chain")
    city = run_synth(root)
    with pytest.MonkeyPatch.context() as patch:
        synth_workers(patch, 2)
        assert main(["synth", "--config", str(root / "synth.cfg"), "--out", str(root / "city_forked")]) == 0
    ingest_cfg = root / "ingest.cfg"
    ingest_cfg.write_text("on_malformed = skip\n", encoding="utf-8")
    activity = str(city / "activity.tsv")
    steps = [
        ["hotspots", "--activity", activity, *WEEK, "--k", "6", "--grid", str(city / "grid.geojson"),
         "--config", str(ingest_cfg), "--out", str(root / "hs")],
        ["hotspots", "--activity", activity, "--activity", activity, *WEEK, "--p", "0.5",
         "--out", str(root / "hs_plain")],
        ["centrality", "--interactions", str(city / "interactions.tsv"),
         "--hotspots", str(root / "hs" / "hotspots.csv"), *WEEK, "--config", str(ingest_cfg),
         "--out", str(root / "cen")],
        ["compare", str(root / "cen" / "centrality.csv"), str(root / "cen" / "centrality.csv"),
         "--metrics", "closeness,degree", "--out", str(root / "cmp")],
        ["heatmap", "--activity", activity, "--grid", str(city / "grid.geojson"), *WEEK,
         "--hotspots", str(root / "hs" / "hotspots.csv"), "--config", str(ingest_cfg),
         "--out", str(root / "heat.geojson")],
        # the run without --grid wrote no heatmap to copy
        ["heatmap", "--activity", activity, "--grid", str(city / "grid.geojson"), *WEEK,
         "--hotspots", str(root / "hs_plain" / "hotspots.csv"), "--out", str(root / "heat-read.geojson")],
    ]
    for argv in steps:
        assert main(argv) == 0
    return root


COMPARE_OUTPUTS = {
    f"{metric}_{suffix}"
    for metric in ("closeness", "degree")
    for suffix in ("comparison.json", "reldiff.csv", "corr_diff.csv")
}
ACTIVITY_COUNTS = {"lines": 72, "parsed": 72, "skipped": 0, "in_window": 72, "cells": 36}
# the deterministic diagnostics of each manifest in chain_dir; centrality adds solver params
DIAGNOSTICS = {
    "hs/manifest.json": {"ingest": ACTIVITY_COUNTS, "heatmap": {"cells_without_geometry": 0}},
    "hs_plain/manifest.json": {
        "ingest": {"lines": 144, "parsed": 144, "skipped": 0, "in_window": 144, "cells": 36}
    },
    "city/manifest.json": {
        "synth": {"cells": 36, "activity_lines": 72, "interaction_pairs": 720, "pairs_scored": 1062}
    },
    "city_forked/manifest.json": {
        "synth": {"cells": 36, "activity_lines": 72, "interaction_pairs": 720, "pairs_scored": 1062}
    },
    "cen/manifest.json": {
        "ingest": {"lines": 720, "parsed": 720, "skipped": 0, "in_window": 720},
        "graph": {"nodes": 6, "edges": 15, "path_edges": 8, "components": 1},
    },
    "heat.geojson.manifest.json": {"ingest": ACTIVITY_COUNTS},
    "heat-read.geojson.manifest.json": {"ingest": ACTIVITY_COUNTS},
}
WINDOW_BLOCK = {"start": 1384732800000, "end": 1385337600000}
# the exact config keys of each manifest in chain_dir
CONFIG_KEYS = {
    "city/manifest.json": {
        "grid_side", "n_centers", "concentration", "decay_radius", "noise", "seed",
        "records_per_cell", "window",
    },
    "city_forked/manifest.json": {
        "grid_side", "n_centers", "concentration", "decay_radius", "noise", "seed",
        "records_per_cell", "window",
    },
    "hs/manifest.json": {"window", "p", "k", "on_malformed"},
    "hs_plain/manifest.json": {"window", "p", "k", "on_malformed"},
    "cen/manifest.json": {"window", "damping", "tol", "max_iter", "metrics", "pagerank_variant"},
    "cmp/manifest.json": {"metrics"},
    "heat.geojson.manifest.json": {"window", "on_malformed"},
    "heat-read.geojson.manifest.json": {"window", "on_malformed"},
}
# manifest, command, input names, output names
MANIFEST_CASES = [
    ("city/manifest.json", "synth", {"config"}, {"activity.tsv", "interactions.tsv", "grid.geojson"}),
    ("city_forked/manifest.json", "synth", {"config"}, {"activity.tsv", "interactions.tsv", "grid.geojson"}),
    (
        "hs/manifest.json",
        "hotspots",
        {"activity[0]", "config", "grid"},
        {"hotspots.csv", "threshold.json", "heatmap.geojson"},
    ),
    (
        "hs_plain/manifest.json",
        "hotspots",
        {"activity[0]", "activity[1]"},
        {"hotspots.csv", "threshold.json"},
    ),
    (
        "cen/manifest.json",
        "centrality",
        {"interactions[0]", "hotspots", "config"},
        {"centrality.csv", "rankings.csv"},
    ),
    ("cmp/manifest.json", "compare", {"week1", "week2"}, COMPARE_OUTPUTS),
    (
        "heat.geojson.manifest.json",
        "heatmap",
        {"activity[0]", "grid", "hotspots", "config"},
        {"heat.geojson"},
    ),
    (
        "heat-read.geojson.manifest.json",
        "heatmap",
        {"activity[0]", "grid", "hotspots"},
        {"heat-read.geojson"},
    ),
]


@pytest.mark.parametrize(
    "name, command, inputs, outputs", MANIFEST_CASES, ids=[case[0] for case in MANIFEST_CASES]
)
def test_manifest_contract(chain_dir, name, command, inputs, outputs):
    manifest = json.loads((chain_dir / name).read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["command"] == command
    assert set(manifest["inputs"]) == inputs
    assert set(manifest["outputs"]) == outputs
    for entry in [*manifest["inputs"].values(), *manifest["outputs"].values()]:
        assert entry["sha256"] == sha256_file(entry["path"])
    for out_name, entry in manifest["outputs"].items():
        assert Path(entry["path"]).name == out_name
    expected = DIAGNOSTICS.get(name, {})
    if command in ("centrality", "compare"):
        assert set(manifest["status"]) == set(manifest["config"]["metrics"])
    else:
        assert manifest["status"] == {} and manifest["diagnostics"] == expected
    assert manifest["diagnostics"].get("ingest") == expected.get("ingest")
    assert manifest["diagnostics"].get("graph") == expected.get("graph")
    assert set(manifest["config"]) == CONFIG_KEYS[name]
    if "window" in manifest["config"]:
        assert manifest["config"]["window"] == WINDOW_BLOCK


@pytest.fixture(scope="module")
def output_dirs(tmp_path_factory):
    """Each command run into a directory of its own."""
    root = tmp_path_factory.mktemp("outputs")
    city = run_synth(root)
    activity, grid = str(city / "activity.tsv"), str(city / "grid.geojson")
    # the degree comparison fails, the pagerank one succeeds
    report = root / "week.csv"
    report.write_text(
        "cell_id,metric,score\n1,degree,1e200\n2,degree,1.0\n1,pagerank,0.5\n2,pagerank,0.5\n",
        encoding="utf-8",
    )
    steps = [
        ["hotspots", "--activity", activity, *WEEK, "--k", "6", "--grid", grid,
         "--out", str(root / "hs_grid")],
        ["hotspots", "--activity", activity, *WEEK, "--k", "6", "--out", str(root / "hs")],
        ["centrality", "--interactions", str(city / "interactions.tsv"),
         "--hotspots", str(root / "hs" / "hotspots.csv"), *WEEK, "--out", str(root / "cen")],
        ["compare", str(report), str(report), "--out", str(root / "cmp")],
        ["heatmap", "--activity", activity, "--grid", grid, *WEEK,
         "--out", str(root / "heat" / "heat.geojson")],
    ]
    for argv in steps:
        assert main(argv) == 0
    return root


# output directory and manifest name of each command in output_dirs
OUTPUT_DIRS = {
    "synth": ("city", "manifest.json"),
    "hotspots-grid": ("hs_grid", "manifest.json"),
    "hotspots": ("hs", "manifest.json"),
    "centrality": ("cen", "manifest.json"),
    "compare-one-failing": ("cmp", "manifest.json"),
    "heatmap": ("heat", "heat.geojson.manifest.json"),
}


@pytest.mark.parametrize("case", OUTPUT_DIRS)
def test_output_directory_holds_manifest_and_its_outputs(output_dirs, case):
    directory, manifest_name = OUTPUT_DIRS[case]
    out_dir = output_dirs / directory
    manifest = json.loads((out_dir / manifest_name).read_text())
    assert sorted(p.name for p in out_dir.iterdir()) == sorted([manifest_name, *manifest["outputs"]])
    assert {Path(entry["path"]).parent for entry in manifest["outputs"].values()} == {out_dir}
    if manifest["command"] == "compare":
        assert manifest["status"]["degree"].startswith("error: ")
        assert all(name.startswith("pagerank_") for name in manifest["outputs"])


@pytest.mark.parametrize("name", ["hs", "hs_plain"])
def test_threshold_contract(chain_dir, name):
    doc = json.loads((chain_dir / name / "threshold.json").read_text())
    assert set(doc) == {
        "p", "mean_intensity", "max_traffic", "delta", "threshold", "n_areas",
        "k", "truncated", "member_count", "window",
    }
    assert doc["window"] == WINDOW_BLOCK
    assert doc["member_count"] == len(read_csv(chain_dir / name / "hotspots.csv"))


def test_benchmark_hooks_resolve(tmp_path, monkeypatch):
    """The traced benchmark patches these module attributes and drives the parsers lazily."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    for name in tracing.CLI_WRAPS:
        assert hasattr(gridhot.cli, name), name
    for name in tracing.CENTRALITY_WRAPS:
        assert hasattr(gridhot.centrality, name), name
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    for name in tracing.PARSERS:
        records = getattr(gridhot.cli, name)(path)
        assert inspect.isgenerator(records), name
        records.close()


# Runs the command in argv and prints its exit code and the umask it left.
UMASK_PROBE = """
import os, sys
from gridhot.cli import main
code = main(sys.argv[1:])
print(code, oct(os.umask(0)))
"""


@pytest.mark.parametrize("text", ["new text\n", ("new ", "text\n")], ids=["str", "chunks"])
def test_write_of_another_digest_leaves_the_target(tmp_path, text):
    """A write whose bytes lack the expected digest raises before the
    rename: the file there keeps its bytes, and no temp file is left."""
    target = tmp_path / "heat.geojson"
    target.write_bytes(b"old bytes\n")
    with pytest.raises(ValueError):
        atomic_write_text(target, text, expect=hashlib.sha256(b"other text\n").hexdigest())
    assert target.read_bytes() == b"old bytes\n"
    assert [path.name for path in tmp_path.iterdir()] == ["heat.geojson"]
    sha256 = hashlib.sha256(b"new text\n").hexdigest()
    assert atomic_write_text(target, text, expect=sha256) == sha256
    assert target.read_bytes() == b"new text\n"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_outputs_follow_the_umask(tmp_path, umask, mode):
    """Every output gets the mode open(path, "w") gives a new file, though
    it is written through a temp file and renamed, and the process umask is
    left as it was."""
    out = tmp_path / "city"
    env = {**os.environ, "PYTHONPATH": str(Path(gridhot.cli.__file__).resolve().parents[1])}
    argv = ["synth", "--config", str(synth_config(tmp_path)), "--out", str(out)]
    done = subprocess.run([sys.executable, "-c", UMASK_PROBE, *argv], env=env, umask=umask,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["0", oct(umask)]
    modes = {path.name: oct(path.stat().st_mode & 0o777) for path in out.iterdir()}
    names = ("activity.tsv", "interactions.tsv", "grid.geojson", "manifest.json")
    assert modes == dict.fromkeys(names, oct(mode))


def test_import_generates_no_classes_at_start_up():
    """Every command pays for its imports; records are named tuples, so
    neither dataclasses nor the inspect module it needs is loaded."""
    src = Path(gridhot.cli.__file__).resolve().parents[1]
    probe = "import sys, gridhot.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def chain_argv(root: Path) -> dict[str, list[str]]:
    """Every command of one chain on a tiny city under ``root``, by case, in
    the order they run.  ``heatmap`` copies the heatmap of the ``hotspots``
    run, and reads the files given the run without ``--grid`` or no run."""
    city, hs, hs_plain = root / "city", root / "hs", root / "hs_plain"
    activity, grid = str(city / "activity.tsv"), str(city / "grid.geojson")
    heatmap = ["heatmap", "--activity", activity, "--grid", grid, *WEEK]
    return {
        "synth": ["synth", "--config", str(synth_config(root)), "--out", str(city)],
        "hotspots": ["hotspots", "--activity", activity, *WEEK, "--k", "6", "--grid", grid,
                     "--out", str(hs)],
        "hotspots-plain": ["hotspots", "--activity", activity, *WEEK, "--p", "0.5",
                           "--out", str(hs_plain)],
        "centrality": ["centrality", "--interactions", str(city / "interactions.tsv"),
                       "--hotspots", str(hs / "hotspots.csv"), *WEEK, "--out", str(root / "cen")],
        "compare": ["compare", str(root / "cen" / "centrality.csv"),
                    str(root / "cen" / "centrality.csv"), "--out", str(root / "cmp")],
        "heatmap-copy": [*heatmap, "--hotspots", str(hs / "hotspots.csv"),
                         "--out", str(root / "heat.geojson")],
        "heatmap-plain-run": [*heatmap, "--hotspots", str(hs_plain / "hotspots.csv"),
                              "--out", str(root / "heat-plain-run.geojson")],
        "heatmap-read": [*heatmap, "--out", str(root / "heat-read.geojson")],
    }


def test_tracer_spans_every_wrapped_name(tmp_path, monkeypatch):
    """The traced benchmark sets its wrappers on gridhot.cli by name.  A
    chain that calls every wrapped name records a span for each, though a
    command binds the names it takes from other modules only when it runs,
    and the originals are back once the wrappers are taken out."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    originals = {name: getattr(gridhot.cli, name) for name in tracing.CLI_WRAPS}
    # as in a new process, where no command has bound its names yet
    for name in gridhot.cli._LAZY:
        monkeypatch.delitem(vars(gridhot.cli), name, raising=False)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, gridhot.cli, gridhot.centrality):
        for argv in chain_argv(tmp_path).values():
            assert main(argv) == 0, argv
    spanned = {span["name"] for span in tracer.spans}
    assert set(tracing.CLI_WRAPS.values()) - spanned == set()
    for name, original in originals.items():
        assert getattr(gridhot.cli, name) is original, name


@pytest.mark.parametrize("case", ["synth", "hotspots", "centrality", "compare"])
def test_every_command_hashes_each_input_once(tmp_path, monkeypatch, case):
    """As heatmap does on each of its paths: hotspots with --grid, and
    compare given one report as both weeks."""
    steps = chain_argv(tmp_path)
    order = ["synth", "hotspots", "centrality", "compare"]
    for before in order[:order.index(case)]:
        assert main(steps[before]) == 0
    hashing = record_hashing(monkeypatch)
    argv = steps[case]
    assert main(argv) == 0
    assert_inputs_hashed_once(Path(argv[argv.index("--out") + 1]) / "manifest.json", *hashing)


# Prints the exit code and the modules loaded by the command in argv, those
# of gridhot without their package prefix.
MODULE_PROBE = """
import sys
from gridhot.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --version and --help
    code = exc.code
print(code, *sorted(name.removeprefix("gridhot.") for name in sys.modules))
"""
# The modules each case of chain_argv, and the version and help texts, leave
# unloaded.  Without a bytecode cache a process compiles every module it
# imports: ingest holds the record readers, csv is needed only for a CSV
# input, and _strptime only for a window bound in none of the canonical ISO
# forms, which every case gives.
LOADED_ON_USE = {"centrality", "graph", "compare", "hotspot", "synth"}
READS_NO_RECORD = LOADED_ON_USE | {"workers", "ingest", "csv", "_strptime"}
NOT_LOADED = {
    "version": READS_NO_RECORD,
    "centrality-help": READS_NO_RECORD,
    "synth": {"centrality", "graph", "hotspot", "compare", "csv", "_strptime"},
    "hotspots": {"centrality", "graph", "compare", "synth", "csv", "_strptime"},
    "hotspots-plain": {"centrality", "graph", "compare", "synth", "csv", "_strptime"},
    "centrality": {"hotspot", "compare", "synth", "_strptime"},
    "compare": {"centrality", "graph", "hotspot", "synth", "workers", "ingest", "_strptime"},
    "heatmap-copy": READS_NO_RECORD,
    "heatmap-plain-run": LOADED_ON_USE | {"_strptime"},
    "heatmap-read": LOADED_ON_USE | {"_strptime"},
}
# What some cases must still load: a read of the files loads the readers.
LOADED = {
    "heatmap-plain-run": {"ingest", "csv"},
    "heatmap-read": {"ingest"},
    "compare": {"compare", "csv"},
}


@pytest.fixture(scope="module")
def loaded_modules(tmp_path_factory):
    """The modules each case of NOT_LOADED loads, each in a new process,
    less those a bare interpreter start loads, which no command can avoid."""
    root = tmp_path_factory.mktemp("imports")
    cases = {"version": ["--version"], "centrality-help": ["centrality", "--help"],
             **chain_argv(root)}
    env = {**os.environ, "PYTHONPATH": str(Path(gridhot.cli.__file__).resolve().parents[1])}
    bare = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"], env=env,
                          capture_output=True, text=True, check=True)
    at_start = set(bare.stdout.split())
    loaded = {}
    for case, argv in cases.items():
        done = subprocess.run([sys.executable, "-c", MODULE_PROBE, *argv], env=env,
                              capture_output=True, text=True, check=True)
        code, *names = done.stdout.splitlines()[-1].split()
        assert code == "0", (case, done.stderr)
        loaded[case] = set(names) - at_start
    return loaded


@pytest.mark.parametrize("case", NOT_LOADED)
def test_command_imports_only_what_it_runs(loaded_modules, case):
    assert {"cli", *LOADED.get(case, ())} <= loaded_modules[case]
    assert loaded_modules[case] & NOT_LOADED[case] == set()


# The SHA-256 of the heatmap.geojson that hotspots writes for one fixed city,
# by tool version.  heatmap copies this file from a run whose manifest records
# the running __version__, so a change to its bytes must bump __version__ (in
# pyproject.toml too) and pin the new digest here.
COPIED_HEATMAP_DIGESTS = {
    "0.1.0": "76fc40b4f10bb380dcf7f1894d6fb278c6dce9bebaf1e855fcd20ddddb2cf97f",
}


def test_reused_outputs_are_pinned_to_the_version(tmp_path):
    city = run_synth(tmp_path, grid_side=5, n_centers=2, seed=11)
    hs = tmp_path / "hs"
    assert main(["hotspots", "--activity", str(city / "activity.tsv"), *WEEK, "--k", "4",
                 "--grid", str(city / "grid.geojson"), "--out", str(hs)]) == 0
    digest = sha256_file(hs / "heatmap.geojson")
    assert digest == COPIED_HEATMAP_DIGESTS.get(gridhot.__version__), (
        "the heatmap that heatmap copies changed: bump __version__ and pin its new digest"
    )


def test_package_and_pyproject_agree_on_the_version():
    """The reuse checks compare tool_version, so a bump must land in both places."""
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    if sys.version_info >= (3, 11):
        import tomllib

        version = tomllib.loads(text)["project"]["version"]
    else:
        version = re.search(r'^version = "([^"]*)"$', text, re.MULTILINE).group(1)
    assert version == gridhot.__version__


def test_metric_names_are_defined_once():
    """The parser reads them from the package, without importing the solvers."""
    assert gridhot.cli.METRICS is gridhot.centrality.METRICS is gridhot.METRICS
    assert gridhot.cli.PAGERANK_VARIANTS is gridhot.centrality.PAGERANK_VARIANTS


# Tiny synth configs for the chain fuzz; a second window that holds no records.
TINY_CITIES = st.fixed_dictionaries({
    "grid_side": st.integers(min_value=1, max_value=5),
    "n_centers": st.integers(min_value=0, max_value=3),
    "concentration": st.sampled_from([0.0, 1.0, 8.0, 1e6]),
    "decay_radius": st.sampled_from([0.3, 1.0, 2.5, 40.0]),
    "noise": st.sampled_from([0.0, 0.3, 1.0, 2.0]),
    "seed": st.integers(min_value=0, max_value=2**32),
    "records_per_cell": st.integers(min_value=1, max_value=3),
})
EMPTY_WEEK = ("--window-start", "2013-12-02", "--window-end", "2013-12-09")


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    city=TINY_CITIES,
    window=st.sampled_from([WEEK, WEEK, EMPTY_WEEK]),
    cutoff=st.one_of(
        st.integers(min_value=1, max_value=8).map(lambda k: ("--k", str(k))),
        st.sampled_from(["0", "0.5", "1"]).map(lambda p: ("--p", p)),
    ),
    max_iter=st.sampled_from(["1", "10000"]),
    variant=st.sampled_from(["weighted", "literal"]),
)
def test_chain_fuzz_exits_cleanly(capsys, city, window, cutoff, max_iter, variant):
    """synth -> hotspots -> centrality -> compare -> heatmap on tiny cities:
    each command exits 0, 1 or 2 without a traceback, and a centrality
    manifest gives every metric a status."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        city_dir = root / "city"
        hotspots = str(root / "hs" / "hotspots.csv")
        steps = [
            ["synth", "--config", str(synth_config(root, **city)), "--out", str(city_dir)],
            ["hotspots", "--activity", str(city_dir / "activity.tsv"), *window, *cutoff,
             "--grid", str(city_dir / "grid.geojson"), "--out", str(root / "hs")],
            ["centrality", "--interactions", str(city_dir / "interactions.tsv"),
             "--hotspots", hotspots, *window, "--max-iter", max_iter,
             "--pagerank-variant", variant, "--out", str(root / "cen")],
            ["compare", str(root / "cen" / "centrality.csv"), str(root / "cen" / "centrality.csv"),
             "--out", str(root / "cmp")],
            ["heatmap", "--activity", str(city_dir / "activity.tsv"),
             "--grid", str(city_dir / "grid.geojson"), *window, "--hotspots", hotspots,
             "--out", str(root / "heat.geojson")],
        ]
        for argv in steps:
            capsys.readouterr()
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (argv, code)
            assert "Traceback" not in err, err
        manifest = root / "cen" / "manifest.json"
        if manifest.exists():
            doc = json.loads(manifest.read_text())
            metrics = set(gridhot.centrality.METRICS)
            assert set(doc["status"]) == set(doc["config"]["metrics"]) == metrics
            assert all(s == "ok" or s.startswith("error: ") for s in doc["status"].values())
