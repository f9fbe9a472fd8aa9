import csv
import errno
import gzip
import importlib
import inspect
import json
import os
import shutil
from pathlib import Path

import pytest

import gridhot.centrality
import gridhot.cli
import gridhot.ingest
import gridhot.synth
from gridhot.cli import main
from gridhot.fileio import sha256_file

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
        assert set(diagnostics["ingest"]) == {"lines", "parsed", "skipped", "in_window", "pairs"}
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
        assert manifest["diagnostics"]["graph"] == {"nodes": 6, "edges": 4, "components": 3}
        assert "got 3 components" in manifest["status"]["eigenvector"]

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
        steps = [
            ["hotspots", *activity, *WEEK, "--k", "6", "--grid", str(city / "grid.geojson"),
             "--out", str(out / "hs")],
            ["heatmap", *activity, "--grid", str(city / "grid.geojson"), *WEEK,
             "--hotspots", str(out / "hs" / "hotspots.csv"), "--out", str(out / "heat.geojson")],
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
                assert main(argv) == 0, argv
            trees[workers] = {
                str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
            }
            shutil.rmtree(out)
            assert_no_children()
        assert len(trees[1]) == 9 and "cen/manifest.json" in trees[1]
        assert trees[1] == trees[2] == trees[3]
        # hotspots and heatmap fork one ingest worker per CPU after the first;
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


MANIFEST_KEYS = {"command", "tool_version", "inputs", "config", "outputs", "status", "diagnostics"}


@pytest.fixture(scope="module")
def chain_dir(tmp_path_factory):
    """One run of all five commands, with every optional input given."""
    root = tmp_path_factory.mktemp("chain")
    city = run_synth(root)
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
    "hs/manifest.json": {"ingest": ACTIVITY_COUNTS},
    "hs_plain/manifest.json": {
        "ingest": {"lines": 144, "parsed": 144, "skipped": 0, "in_window": 144, "cells": 36}
    },
    "city/manifest.json": {
        "synth": {"cells": 36, "activity_lines": 72, "interaction_pairs": 720, "pairs_scored": 1062}
    },
    "cen/manifest.json": {
        "ingest": {"lines": 720, "parsed": 720, "skipped": 0, "in_window": 720, "pairs": 720},
        "graph": {"nodes": 6, "edges": 15, "components": 1},
    },
    "heat.geojson.manifest.json": {"ingest": ACTIVITY_COUNTS},
}
WINDOW_BLOCK = {"start": 1384732800000, "end": 1385337600000}
# the exact config keys of each manifest in chain_dir
CONFIG_KEYS = {
    "city/manifest.json": {
        "grid_side", "n_centers", "concentration", "decay_radius", "noise", "seed",
        "records_per_cell", "window",
    },
    "hs/manifest.json": {"window", "p", "k", "on_malformed"},
    "hs_plain/manifest.json": {"window", "p", "k", "on_malformed"},
    "cen/manifest.json": {"window", "damping", "tol", "max_iter", "metrics", "pagerank_variant"},
    "cmp/manifest.json": {"metrics"},
    "heat.geojson.manifest.json": {"window", "on_malformed"},
}
# manifest, command, input names, output names
MANIFEST_CASES = [
    ("city/manifest.json", "synth", {"config"}, {"activity.tsv", "interactions.tsv", "grid.geojson"}),
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
