#!/usr/bin/env python3
"""gridhot benchmark: the CLI chain synth -> hotspots -> centrality -> compare
-> heatmap on three deterministic synthetic cities.

Run from the repository root:

    python3 perfbench/run.py --workload ingest-week --seed 1 --seconds 15 --trace 0

One run is one serial batch job: a closed loop with a single client that
starts each command in a fresh ``python -m gridhot.cli`` process and waits
for it.  With ``--trace 0`` the run sets the city up three times
(``setup_s`` is the median), repeats the chain until ``--seconds`` of chain
time is used, and reports each time metric as the mean over the chains.
With ``--trace 1`` it reports per-layer metrics from the chain run
in-process under the tracer (see tracing.py).  Every chain's outputs pass
the correctness gate (gate.py) before any number is printed; when the gate
fails the run prints no numbers and exits with 1.
The last stdout line is the result; the line before it is host context.
See README.md in this directory for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gate
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"
DECLARED = ROOT / "BENCHMARK.json"

WEEK_A = ("2013-11-18", "2013-11-25")
WEEK_B = ("2013-11-25", "2013-12-02")
SETUP_REPEATS = 3
GRID_SIDE = 30
SYNTH_FILES = ("activity.tsv", "interactions.tsv", "grid.geojson")


@dataclass(frozen=True)
class Workload:
    name: str
    n_centers: int
    records_per_cell: int
    synth_window: tuple[str, str]
    k: int
    weeks: tuple[tuple[str, str], ...]
    gzip: bool

    def synth_config(self) -> str:
        return "".join(
            f"{key} = {value}\n"
            for key, value in (
                ("grid_side", GRID_SIDE),
                ("n_centers", self.n_centers),
                ("concentration", 8.0),
                ("decay_radius", 2.5),
                ("noise", 0.3),
                ("seed", 7),
                ("records_per_cell", self.records_per_cell),
                ("window_start", self.synth_window[0]),
                ("window_end", self.synth_window[1]),
            )
        )


# Why each workload exists is in README.md.  The city is fixed (synth seed
# 7); --seed only permutes the lines of the input files, which changes the
# bytes the program reads but neither the work nor any output.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ingest-week", 4, 200, WEEK_A, 20, (WEEK_A,), gzip=False),
        Workload("month-gz", 4, 200, ("2013-11-04", WEEK_B[1]), 20, (WEEK_A, WEEK_B), gzip=True),
        Workload("graph-k250", 12, 8, (WEEK_A[0], WEEK_B[1]), 250, (WEEK_A, WEEK_B), gzip=False),
    )
}


@dataclass(frozen=True)
class Inputs:
    activity: Path
    interactions: Path
    grid: Path


@dataclass
class Chain:
    """One pass of the chain: per-command (label, exit code, wall s, peak RSS MB)."""

    commands: list[tuple[str, int, float, float]] = field(default_factory=list)
    wall_s: float = 0.0
    statuses: dict[str, dict[str, str]] = field(default_factory=dict)

    def seconds(self, label: str) -> float:
        return sum(wall for name, _, wall, _ in self.commands if name == label)

    def operations(self) -> tuple[int, int]:
        """(attempted, failed): command exits plus every per-metric status."""
        states = [s for status in self.statuses.values() for s in status.values()]
        attempted = len(self.commands) + len(states)
        failed = sum(1 for _, rc, _, _ in self.commands if rc != 0)
        failed += sum(1 for s in states if s != "ok")
        return attempted, failed


class Launcher:
    """Runs commands through ``launcher.py``, a process started while this one
    is still small; see that file for why.  Use as a context manager."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env.pop("HOTSPOT_LOG", None)
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()

    def run(self, argv: list[str], log: Path) -> tuple[int, float, float]:
        """(exit code, wall s, the command's own peak RSS MB)."""
        self._proc.stdin.write(json.dumps({"argv": argv, "log": str(log)}) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        gate.require(bool(reply), "the command launcher exited")
        rc, wall, rss = json.loads(reply)
        return rc, wall, rss

    def cli(self, argv: list[str], log: Path) -> tuple[int, float, float]:
        return self.run([sys.executable, "-m", "gridhot.cli", *argv], log)


def chain_commands(wl: Workload, inputs: Inputs, out: Path) -> list[tuple[str, list[str]]]:
    a_start, a_end = wl.weeks[0]
    hotspots_csv = str(out / "hs" / "hotspots.csv")
    commands = [
        ("hotspots", ["hotspots", "--activity", str(inputs.activity), "--window-start", a_start,
                      "--window-end", a_end, "--k", str(wl.k), "--grid", str(inputs.grid),
                      "--out", str(out / "hs")]),
    ]
    for index, (start, end) in enumerate(wl.weeks):
        commands.append(
            ("centrality", ["centrality", "--interactions", str(inputs.interactions),
                            "--hotspots", hotspots_csv, "--window-start", start,
                            "--window-end", end, "--out", str(out / f"cen{index}")])
        )
    # one analysed week: the report is compared against itself
    commands.append(
        ("compare", ["compare", str(out / "cen0" / "centrality.csv"),
                     str(out / f"cen{len(wl.weeks) - 1}" / "centrality.csv"),
                     "--metrics", ",".join(gate.METRICS), "--out", str(out / "cmp")])
    )
    commands.append(
        ("heatmap", ["heatmap", "--activity", str(inputs.activity), "--grid", str(inputs.grid),
                     "--window-start", a_start, "--window-end", a_end,
                     "--hotspots", hotspots_csv, "--out", str(out / "heatmap.geojson")])
    )
    return commands


def run_chain(wl: Workload, inputs: Inputs, out: Path, run_command) -> Chain:
    """Run the chain's commands in order; ``run_command(argv)`` -> (rc, wall, rss)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    chain = Chain()
    started = perf_counter()
    for label, argv in chain_commands(wl, inputs, out):
        rc, wall, rss = run_command(argv)
        chain.commands.append((label, rc, wall, rss))
        if rc != 0:
            break
    chain.wall_s = perf_counter() - started
    return chain


def check_chain(wl: Workload, chain: Chain, out: Path, digests: dict[str, str]) -> list[int]:
    """The correctness gate for one chain; fills ``chain.statuses``."""
    for label, rc, _, _ in chain.commands:
        gate.require(rc == 0, f"{label} exited with {rc}; see {out.parent / 'stderr.log'}")
    gate.require(len(chain.commands) == len(wl.weeks) + 3, "the chain stopped early")
    members = gate.check_hotspots(out / "hs" / "hotspots.csv", wl.k, digests["hotspots.csv"])
    for index in range(len(wl.weeks)):
        chain.statuses[f"centrality[{index}]"] = gate.check_centrality(out / f"cen{index}", members)
    chain.statuses["compare"] = gate.check_compare(out / "cmp")
    gate.check_heatmap(out / "heatmap.geojson", members, GRID_SIDE**2)
    return members


def setup(wl: Workload, seed: int, work: Path, digests: dict[str, str], launcher) -> tuple[Inputs, float]:
    """Generate the city, permute its lines by ``seed`` and gzip if asked
    (level 6, the gzip tool's default).

    Returns the inputs and the set-up time; hashing the synth output against
    the pinned digests is not timed.
    """
    config = work / "synth.cfg"
    config.write_text(wl.synth_config(), encoding="utf-8")
    city = work / "city"
    shutil.rmtree(city, ignore_errors=True)
    rc, elapsed, _ = launcher.cli(["synth", "--config", str(config), "--out", str(city)], work / "stderr.log")
    gate.require(rc == 0, f"synth exited with {rc}; see {work / 'stderr.log'}")
    for name in SYNTH_FILES:
        gate.check_digest(city / name, digests[name])

    started = perf_counter()
    rng = random.Random(seed)
    paths = []
    for name in ("activity.tsv", "interactions.tsv"):
        lines = (city / name).read_bytes().splitlines(keepends=True)
        rng.shuffle(lines)
        data = b"".join(lines)
        del lines
        target = work / (name + ".gz" if wl.gzip else name)
        if wl.gzip:
            with open(target, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", compresslevel=6, mtime=0) as gz:
                gz.write(data)
        else:
            target.write_bytes(data)
        paths.append(target)
    elapsed += perf_counter() - started
    return Inputs(paths[0], paths[1], city / "grid.geojson"), elapsed


def end_to_end(chains: list[Chain], setups: list[float]) -> dict[str, float]:
    """Times are means over the chains: the host's speed drifts over tens of
    seconds, and the mean averages that drift over the whole run, where the
    median follows whichever speed held for most of it (see README.md)."""
    attempted = sum(c.operations()[0] for c in chains)
    failed = sum(c.operations()[1] for c in chains)
    return {
        "chain_s": statistics.fmean(c.wall_s for c in chains),
        "hotspots_s": statistics.fmean(c.seconds("hotspots") for c in chains),
        "centrality_s": statistics.fmean(c.seconds("centrality") for c in chains),
        "compare_s": statistics.fmean(c.seconds("compare") for c in chains),
        "heatmap_s": statistics.fmean(c.seconds("heatmap") for c in chains),
        "peak_rss_mb": statistics.median(max(rss for *_, rss in c.commands) for c in chains),
        "setup_s": statistics.median(setups),
        "failed_ratio": failed / attempted,
    }


def import_gridhot():
    """Import the package from this checkout's ``src`` only."""
    sys.path.insert(0, str(SRC))
    import gridhot.centrality
    import gridhot.cli
    import gridhot.synth

    located = Path(gridhot.cli.__file__).resolve()
    gate.require(SRC.resolve() in located.parents, f"gridhot imported from {located}, not {SRC}")
    return gridhot


def traced_synth(gridhot, work: Path, digests: dict[str, str]) -> tuple[dict, list[dict]]:
    """synth.* metrics: the generator in-process, with its distance evaluations counted."""
    tracer = tracing.Tracer()
    city = work / "traced_city"
    with tracing.installed(tracer, gridhot.cli, gridhot.centrality):
        with tracing.counting_sqrt(gridhot.synth) as sqrt_calls:
            rc = gridhot.cli.main(["synth", "--config", str(work / "synth.cfg"), "--out", str(city)])
    gate.require(rc == 0, f"traced synth exited with {rc}")
    for name in SYNTH_FILES:
        gate.check_digest(city / name, digests[name])
    lines = 0
    for name in ("activity.tsv", "interactions.tsv"):
        with open(city / name, "rb") as handle:
            lines += sum(1 for _ in handle)
    shutil.rmtree(city)
    metrics = {
        "synth.generate_city_s": sum(
            tracing.duration(s) for s in tracer.spans if s["name"] == "synth.generate_city"
        ),
        "synth.pairs_scored": sqrt_calls[0],
        "synth.lines_written": lines,
    }
    return metrics, tracer.spans


def traced_chains(gridhot, wl, inputs, out, seconds, digests, launcher, log):
    """Alternate untraced and traced chains until ``seconds`` of chain time is used.

    The traced chain runs in-process.  Before each of its commands the run
    times ``python -c "import gridhot.cli"``: the interpreter start-up and
    imports that the in-process call skips.  Returns the untraced chains,
    the traced chains, their per-layer metrics and their spans.
    """
    untraced, traced, samples, spans = [], [], [], []
    used = 0.0
    while used < seconds:
        chain = run_chain(wl, inputs, out, lambda argv: launcher.cli(argv, log))
        check_chain(wl, chain, out, digests)
        untraced.append(chain)

        tracer = tracing.Tracer()
        startup = []

        def in_process(argv):
            rc, wall, _ = launcher.run([sys.executable, "-c", "import gridhot.cli"], log)
            gate.require(rc == 0, f"importing gridhot.cli exited with {rc}")
            startup.append(wall)
            with tracing.installed(tracer, gridhot.cli, gridhot.centrality):
                with tracer.span("cli.main", command=argv[0]) as span:
                    rc = gridhot.cli.main(argv)
            return rc, tracing.duration(span), 0.0

        chain = run_chain(wl, inputs, out, in_process)
        check_chain(wl, chain, out, digests)
        metrics = tracing.chain_metrics(tracer.spans, sum(startup))
        metrics["trace.remainder_s"] = chain.wall_s - tracing.accounted_s(tracer.spans, sum(startup))
        traced.append(chain)
        samples.append(metrics)
        spans.append(tracer.spans)
        used += untraced[-1].wall_s + chain.wall_s
    return untraced, traced, samples, spans


def aggregate_peak_mb(wl: Workload, inputs: Inputs) -> float:
    """tracemalloc peak of parsing and aggregating week A's activity, as the CLI does."""
    from gridhot.ingest import TimeWindow, aggregate_traffic, parse_activity, parse_epoch_ms

    window = TimeWindow(parse_epoch_ms(wl.weeks[0][0]), parse_epoch_ms(wl.weeks[0][1]))
    tracemalloc.start()
    try:
        aggregate_traffic(parse_activity(inputs.activity), window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def traced_run(wl, seed, seconds, work, out, digests, launcher, context):
    """--trace 1: per-layer metrics, and the tracing overhead against untraced chains."""
    gridhot = import_gridhot()
    log = work / "stderr.log"
    inputs, _ = setup(wl, seed, work, digests, launcher)
    synth_metrics, synth_spans = traced_synth(gridhot, work, digests)
    untraced, traced, samples, spans = traced_chains(
        gridhot, wl, inputs, out, seconds, digests, launcher, log
    )
    layer = tracing.medians(samples)
    layer.update(synth_metrics)
    layer["ingest.aggregate_peak_mb"] = aggregate_peak_mb(wl, inputs)
    layer["trace.overhead_s"] = statistics.median(c.wall_s for c in traced) - statistics.median(
        c.wall_s for c in untraced
    )
    spans_path = work / "spans.json"
    spans_path.write_text(
        json.dumps({"synth": synth_spans, "chains": spans}, default=str) + "\n", encoding="utf-8"
    )
    context["trace"] = {
        "untraced_chain_s": [c.wall_s for c in untraced],
        "traced_chain_s": [c.wall_s for c in traced],
        "overhead_s": layer["trace.overhead_s"],
        "remainder_s": layer["trace.remainder_s"],
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return untraced + traced, layer


def timed_run(wl, seed, seconds, work, out, digests, launcher, context):
    """--trace 0: end-to-end metrics over repeated set-ups and chains.

    ``SETUP_REPEATS`` set-ups come first; they also warm the file cache and
    the compiled modules that the chains use.  Chains then repeat until
    ``seconds`` of chain time is used.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        inputs, elapsed = setup(wl, seed, work, digests, launcher)
        setups.append(elapsed)
    chains = []
    used = 0.0
    while used < seconds:
        chain = run_chain(wl, inputs, out, lambda argv: launcher.cli(argv, work / "stderr.log"))
        members = check_chain(wl, chain, out, digests)
        chains.append(chain)
        used += chain.wall_s
    context["setup_s"] = setups
    if wl.name == "graph-k250":
        context["networkx_max_rel_error"] = gate.check_networkx(
            inputs.interactions, wl.weeks[0], members, out / "cen0"
        )
    return chains, end_to_end(chains, setups)


def host_ref_s() -> float:
    """Median time of a fixed pure-Python loop: host speed context, not a metric."""
    samples = []
    for _ in range(3):
        started = perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc + i * i) % 1_000_003
        samples.append(perf_counter() - started)
    return statistics.median(samples)


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return "unavailable"


def positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=positive, required=True, help="chain time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gridhot" / "cli.py").is_file():
        print(f"perfbench: no gridhot sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))[wl.name]
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "run"
    context = {"workload": wl.name, "seed": args.seed, "host_ref_s": host_ref_s(), "loadavg": loadavg()}

    declared = json.loads(DECLARED.read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    try:
        with Launcher() as launcher:
            run = traced_run if args.trace else timed_run
            chains, values = run(wl, args.seed, args.seconds, work, out, digests, launcher, context)
    except gate.GateError as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    context["host_ref_end_s"] = host_ref_s()
    context["loadavg_end"] = loadavg()
    context["statuses"] = chains[-1].statuses
    context["chains"] = [
        {"wall_s": c.wall_s, "commands": c.commands, "statuses": c.statuses} for c in chains
    ]
    (work / "context.json").write_text(json.dumps(context, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work / "city", ignore_errors=True)
    print(json.dumps({"context": {k: v for k, v in context.items() if k != "chains"}}))
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} differ from {DECLARED.name}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    # top-level operations are the commands run; the gate has already
    # refused any that exited non-zero
    commands = sum(len(c.commands) for c in chains)
    print(json.dumps({"correct": True, "attempted": commands, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
