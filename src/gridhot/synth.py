"""Deterministic synthetic city datasets for pipeline testing.

Cell intensities follow a flat background plus Gaussian bumps around a
configurable number of centers; pairwise interactions follow a gravity
rule (product of intensities over 1 + grid distance).  The emitted files
use the exact formats the ingest module reads, and identical configs
produce byte-identical files on any platform.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from .errors import DomainError
from .fileio import atomic_write_text
from .ingest import (
    ActivityRecord,
    InteractionRecord,
    TimeWindow,
    format_activity_line,
    format_interaction_line,
    parse_epoch_ms,
    read_key_values,
)
from .workers import Workers
from .workers import worker_count as _worker_count

BACKGROUND_INTENSITY = 1.0
# share of each record put into sms_in, sms_out, call_in, call_out, internet
ACTIVITY_SPLIT = (0.15, 0.15, 0.20, 0.20, 0.30)
# the interaction file keeps the strongest 20 * n_cells ordered pairs
TOP_PAIRS_PER_CELL = 20
# pair selection: the radius that sets the strength cut, and the side of
# the cell blocks that are skipped whole when they cannot reach it
LOCAL_RADIUS = 3
PRUNE_BLOCK = 6
GRID_ORIGIN_LON = 9.0
GRID_ORIGIN_LAT = 45.0
GRID_STEP_DEG = 0.01
# Smaller cities write all three files in this process.  On a 2-core host
# the forked worker broke even near 500 activity lines when both CPUs were
# free, and cost 2-3 ms at any size when they were not; the tables are in
# CHANGES.md.
PARALLEL_MIN_LINES = 2_000


class SplitMix64:
    """SplitMix64 generator (Steele, Lea & Flood 2014): a 64-bit counter
    state advanced by the fixed odd constant ``GAMMA``, output mixed by two
    xor-shift multiplications.  Ten lines reproduce it identically in any
    language, which keeps generated datasets portable.

    The state after k draws is ``seed + k * GAMMA mod 2**64``, so
    ``SplitMix64(seed, k)`` starts at draw k of ``seed`` without making the
    k draws before it.
    """

    MASK = (1 << 64) - 1
    GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int, draws: int = 0):
        self._state = (seed + draws * self.GAMMA) & self.MASK

    def next_u64(self) -> int:
        self._state = (self._state + self.GAMMA) & self.MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) built from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the generator; identical configs give identical bytes."""

    grid_side: int
    window: TimeWindow
    n_centers: int = 3
    concentration: float = 10.0
    decay_radius: float = 2.0
    noise: float = 0.0
    seed: int = 0
    records_per_cell: int = 4

    def __post_init__(self):
        if self.grid_side < 1:
            raise DomainError(f"grid_side must be at least 1, got {self.grid_side}")
        if self.n_centers < 0:
            raise DomainError(f"n_centers must be nonnegative, got {self.n_centers}")
        if self.concentration < 0:
            raise DomainError(f"concentration must be nonnegative, got {self.concentration}")
        if not self.decay_radius > 0:
            raise DomainError(f"decay_radius must be positive, got {self.decay_radius}")
        if self.noise < 0:
            raise DomainError(f"noise must be nonnegative, got {self.noise}")
        if self.records_per_cell < 1:
            raise DomainError(f"records_per_cell must be at least 1, got {self.records_per_cell}")


@dataclass(frozen=True)
class SynthStats:
    """Deterministic counts of one run, for the manifest's ``diagnostics``."""

    cells: int
    activity_lines: int
    interaction_pairs: int
    pairs_scored: int


@dataclass(frozen=True)
class GeneratedCity:
    activity_path: Path
    interactions_path: Path
    grid_path: Path
    stats: SynthStats


def cell_intensities(cfg: SynthConfig, rng: SplitMix64) -> dict[int, float]:
    """Per-cell base intensity: background plus Gaussian center bumps,
    multiplicatively jittered by ``noise`` (clamped at 0).

    Consumes 2 draws per center, then 1 draw per cell, in cell-id order.
    """
    side = cfg.grid_side
    centers = [(rng.next_float() * side, rng.next_float() * side) for _ in range(cfg.n_centers)]
    intensities: dict[int, float] = {}
    for row in range(side):
        for col in range(side):
            cell_id = row * side + col + 1
            cy, cx = row + 0.5, col + 0.5
            bumps = math.fsum(
                cfg.concentration * math.exp(-((cy - y) ** 2 + (cx - x) ** 2) / cfg.decay_radius**2)
                for y, x in centers
            )
            base = BACKGROUND_INTENSITY + bumps
            jitter = 1.0 + cfg.noise * (2.0 * rng.next_float() - 1.0)
            intensities[cell_id] = max(base * jitter, 0.0)
    return intensities


def _timestamps(cfg: SynthConfig, draw: int):
    """Endless timestamps uniform over the window, from draw ``draw`` of the
    seed on: ``start + int(next_float() * span)``, one draw each.

    The draw is made inline, not through :meth:`SplitMix64.next_float`: its
    calls made 180k timestamps take 128 ms instead of 95 ms (2-core host).
    """
    mask, gamma = SplitMix64.MASK, SplitMix64.GAMMA
    state = SplitMix64(cfg.seed, draw)._state
    start, span = cfg.window.start, cfg.window.end - cfg.window.start
    while True:
        state = (state + gamma) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield start + int(((z ^ (z >> 31)) >> 11) * 2.0**-53 * span)


def _activity_chunks(cfg: SynthConfig, intensities: dict[int, float], draw: int):
    """activity.tsv a cell at a time: ``records_per_cell`` lines per cell,
    each with an equal slice of the cell's intensity and its own timestamp,
    drawn in line order from draw ``draw`` on."""
    timestamps = _timestamps(cfg, draw)
    for cell_id, intensity in sorted(intensities.items()):
        slice_total = intensity / cfg.records_per_cell
        quantities = (slice_total * share for share in ACTIVITY_SPLIT)
        # the default layout leads with cell id and time, so the records
        # of one cell differ only in the text before the second tab
        tail = format_activity_line(ActivityRecord(cell_id, 0, *quantities)).split("\t", 2)[2]
        yield "".join(
            [f"{cell_id}\t{t}\t{tail}\n" for t in islice(timestamps, cfg.records_per_cell)]
        )


def _grid_geojson(cfg: SynthConfig):
    """The grid FeatureCollection as text chunks, one per grid row.

    The bytes are those of ``json.dumps(doc, sort_keys=True, indent=2)`` of
    the whole document, but only one row of features is held at a time.
    """
    yield '{\n  "features": [\n'
    for row in range(cfg.grid_side):
        features = []
        for col in range(cfg.grid_side):
            cell_id = row * cfg.grid_side + col + 1
            lon0 = GRID_ORIGIN_LON + col * GRID_STEP_DEG
            lat0 = GRID_ORIGIN_LAT + row * GRID_STEP_DEG
            lon1 = lon0 + GRID_STEP_DEG
            lat1 = lat0 + GRID_STEP_DEG
            ring = [[lon0, lat0], [lon1, lat0], [lon1, lat1], [lon0, lat1], [lon0, lat0]]
            features.append(
                {
                    "type": "Feature",
                    "properties": {"cellId": cell_id},
                    "geometry": {"type": "Polygon", "coordinates": [ring]},
                }
            )
        # the row's "[\n  {...},\n  {...}\n]" without brackets, indented
        # to the depth of the document's feature list
        text = json.dumps(features, sort_keys=True, indent=2)[2:-2].replace("\n", "\n  ")
        yield ("  " if row == 0 else ",\n  ") + text
    yield '\n  ],\n  "type": "FeatureCollection"\n}\n'


def _select_pairs(intensities: list[float], side: int) -> tuple[list[tuple[float, int, int]], int]:
    """The ``TOP_PAIRS_PER_CELL * n`` strongest ordered pairs (strength, u, v)
    in (u, v) order, and the number of strengths evaluated to find them.

    ``intensities[i]`` belongs to cell id ``i + 1``.  A pair's strength is
    symmetric to the bit (the product commutes and the centre offsets are
    exact integers), so each unordered pair is scored once.  ``tau`` is a
    lower bound on the K-th largest strength: first the K-th over the pairs
    within Chebyshev radius ``LOCAL_RADIUS``, later the K-th of the pairs
    kept so far.  Every pair that can make the cut scores at least ``tau``.
    A block of cells is skipped when the strength formula, fed the block's
    largest intensity and the floor of its smallest distance, falls below
    ``tau``: rounding is monotone, so that bound is never below a strength
    inside the block.
    """
    top = TOP_PAIRS_PER_CELL * len(intensities)
    cells = [(i + 1, *divmod(i, side), intensity) for i, intensity in enumerate(intensities)]
    local = []
    for u, ru, cu, iu in cells:
        for dy in range(min(LOCAL_RADIUS, side - 1 - ru) + 1):
            for dx in range(-min(LOCAL_RADIUS, cu) if dy else 1, min(LOCAL_RADIUS, side - 1 - cu) + 1):
                iv = intensities[u - 1 + dy * side + dx]
                local.append(iu * iv / (1.0 + math.sqrt(dy * dy + dx * dx)))
    # each unordered pair stands for two ordered pairs of equal strength
    tau = sorted(local, reverse=True)[(top + 1) // 2 - 1] if 2 * len(local) >= top else 0.0
    evaluated = len(local)

    starts = range(0, side, PRUNE_BLOCK)
    blocks = [[[] for _ in starts] for _ in starts]
    for cell in cells:
        blocks[cell[1] // PRUNE_BLOCK][cell[2] // PRUNE_BLOCK].append(cell)
    tops = [[max(cell[3] for cell in block) for block in row] for row in blocks]
    pairs = []  # (-strength, u, v): plain tuple order is the order of the cut
    for u, ru, cu, iu in cells:
        for by in range(ru // PRUNE_BLOCK, len(starts)):
            dy = max(starts[by] - ru, 0)
            for bx, block in enumerate(blocks[by]):
                dx = max(starts[bx] - cu, cu - starts[bx] - PRUNE_BLOCK + 1, 0)
                if iu * tops[by][bx] / (1.0 + math.isqrt(dy * dy + dx * dx)) < tau:
                    continue
                for v, rv, cv, iv in block:
                    if v > u:
                        evaluated += 1
                        s = iu * iv / (1.0 + math.sqrt((rv - ru) ** 2 + (cv - cu) ** 2))
                        if s > 0.0 and s >= tau:
                            pairs += ((-s, u, v), (-s, v, u))
        if len(pairs) > 2 * top:
            # a pair outside the best K of a subset is outside the best K of all
            pairs.sort()
            del pairs[top:]
            tau = -pairs[-1][0]
    pairs.sort()
    kept = sorted(pairs[:top], key=lambda item: (item[1], item[2]))
    return [(-neg, u, v) for neg, u, v in kept], evaluated


def generate_city(cfg: SynthConfig, out_dir) -> GeneratedCity:
    """Write activity.tsv, interactions.tsv and grid.geojson into ``out_dir``.

    Activity: ``records_per_cell`` records per cell, each carrying an equal
    slice of the cell intensity split over the five quantities, timestamps
    uniform over the window.  Interactions: one record per emitted ordered
    pair (u, v) with strength ``I_u * I_v / (1 + distance(u, v))`` where
    distance is Euclidean between cell centers in cell units; only the
    strongest ``TOP_PAIRS_PER_CELL * n_cells`` pairs are kept.

    The intensities take the first ``2 * n_centers + cells`` draws of the
    seed, the activity lines the next ``cells * records_per_cell`` and the
    interaction lines those after.  Each file starts at its own first draw,
    so with two or more CPUs and ``PARALLEL_MIN_LINES`` activity lines or
    more, a forked worker writes activity.tsv and grid.geojson while this
    process searches the pairs and writes interactions.tsv.  The bytes, and
    the error raised when a write fails, are the same for any number of CPUs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / name for name in ("activity.tsv", "interactions.tsv", "grid.geojson")]
    intensities = cell_intensities(cfg, SplitMix64(cfg.seed))
    cells = len(intensities)
    lines = cells * cfg.records_per_cell
    activity_draw = 2 * cfg.n_centers + cells

    def write_activity_and_grid() -> None:
        atomic_write_text(paths[0], _activity_chunks(cfg, intensities, activity_draw))
        atomic_write_text(paths[2], _grid_geojson(cfg))

    def write_interactions() -> tuple[int, int]:
        kept, scored = _select_pairs([intensities[c] for c in sorted(intensities)], cfg.grid_side)
        atomic_write_text(
            paths[1],
            (
                format_interaction_line(InteractionRecord(u, v, t, s)) + "\n"
                for (s, u, v), t in zip(kept, _timestamps(cfg, activity_draw + lines))
            ),
        )
        return len(kept), scored

    if _worker_count() < 2 or lines < PARALLEL_MIN_LINES:
        write_activity_and_grid()
        pairs, scored = write_interactions()
    else:

        def worker(_, send) -> None:
            send(_os_error_args(write_activity_and_grid))

        with Workers("synth", 1, worker) as workers:
            try:
                pairs, scored = write_interactions()
            except OSError:
                # in one process the worker's files are written first, so
                # their error is the one to raise
                _raise_worker_error(workers)
                raise
            _raise_worker_error(workers)
    return GeneratedCity(*paths, SynthStats(cells, lines, pairs, scored))


def _os_error_args(job) -> tuple | None:
    """Run ``job``; None if it returns, else the arguments that rebuild the
    ``OSError`` it raised, text and subclass included."""
    try:
        job()
    except OSError as exc:
        if exc.filename is None:
            return exc.args
        return (*exc.args[:2], exc.filename, None, exc.filename2)
    return None


def _raise_worker_error(workers: Workers) -> None:
    """Raise the ``OSError`` the synth worker met, if it met one."""
    args = workers.receive(0, "finishing activity.tsv and grid.geojson")
    if args is not None:
        raise OSError(*args)


_INT_KEYS = ("grid_side", "n_centers", "seed", "records_per_cell")
_FLOAT_KEYS = ("concentration", "decay_radius", "noise")


def load_synth_config(path) -> SynthConfig:
    """Read a ``key = value`` generator config.

    Required keys: ``grid_side``, ``window_start``, ``window_end``.  Window
    bounds accept epoch milliseconds or ISO dates.  Remaining keys default
    as in :class:`SynthConfig`.
    """
    raw = {key: value for _, key, value in read_key_values(path)}
    known = set(_INT_KEYS) | set(_FLOAT_KEYS) | {"window_start", "window_end"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise DomainError(f"unknown synth config key(s): {unknown}")
    for key in ("grid_side", "window_start", "window_end"):
        if key not in raw:
            raise DomainError(f"synth config is missing required key {key!r}")

    kwargs: dict[str, object] = {}
    try:
        for key in _INT_KEYS:
            if key in raw:
                kwargs[key] = int(raw[key])
        for key in _FLOAT_KEYS:
            if key in raw:
                kwargs[key] = float(raw[key])
    except ValueError as exc:
        raise DomainError(f"malformed synth config value: {exc}") from None
    window = TimeWindow(parse_epoch_ms(raw["window_start"]), parse_epoch_ms(raw["window_end"]))
    return SynthConfig(window=window, **kwargs)
