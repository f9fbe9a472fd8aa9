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

BACKGROUND_INTENSITY = 1.0
# share of each record put into sms_in, sms_out, call_in, call_out, internet
ACTIVITY_SPLIT = (0.15, 0.15, 0.20, 0.20, 0.30)
# the interaction file keeps the strongest 20 * n_cells ordered pairs
TOP_PAIRS_PER_CELL = 20
GRID_ORIGIN_LON = 9.0
GRID_ORIGIN_LAT = 45.0
GRID_STEP_DEG = 0.01


class SplitMix64:
    """SplitMix64 generator: 64-bit counter state advanced by a fixed odd
    constant, output mixed by two xor-shift multiplications.  Ten lines
    reproduce it identically in any language, which keeps generated
    datasets portable.
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self.MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self.MASK
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
class GeneratedCity:
    activity_path: Path
    interactions_path: Path
    grid_path: Path


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


def _cell_center(cell_id: int, side: int) -> tuple[float, float]:
    row, col = divmod(cell_id - 1, side)
    return row + 0.5, col + 0.5


def _draw_timestamp(rng: SplitMix64, window: TimeWindow) -> int:
    span = window.end - window.start
    return window.start + int(rng.next_float() * span)


def _grid_geojson(cfg: SynthConfig) -> str:
    features = []
    for row in range(cfg.grid_side):
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
    doc = {"type": "FeatureCollection", "features": features}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def generate_city(cfg: SynthConfig, out_dir) -> GeneratedCity:
    """Write activity.tsv, interactions.tsv and grid.geojson into ``out_dir``.

    Activity: ``records_per_cell`` records per cell, each carrying an equal
    slice of the cell intensity split over the five quantities, timestamps
    uniform over the window.  Interactions: one record per emitted ordered
    pair (u, v) with strength ``I_u * I_v / (1 + distance(u, v))`` where
    distance is Euclidean between cell centers in cell units; only the
    strongest ``TOP_PAIRS_PER_CELL * n_cells`` pairs are kept.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = SplitMix64(cfg.seed)
    intensities = cell_intensities(cfg, rng)
    side = cfg.grid_side

    activity_lines = []
    for cell_id in sorted(intensities):
        slice_total = intensities[cell_id] / cfg.records_per_cell
        for _ in range(cfg.records_per_cell):
            record = ActivityRecord(
                cell_id=cell_id,
                timestamp=_draw_timestamp(rng, cfg.window),
                sms_in=slice_total * ACTIVITY_SPLIT[0],
                sms_out=slice_total * ACTIVITY_SPLIT[1],
                call_in=slice_total * ACTIVITY_SPLIT[2],
                call_out=slice_total * ACTIVITY_SPLIT[3],
                internet=slice_total * ACTIVITY_SPLIT[4],
            )
            activity_lines.append(format_activity_line(record))

    pairs = []
    cells = sorted(intensities)
    for u in cells:
        uy, ux = _cell_center(u, side)
        for v in cells:
            if u == v:
                continue
            vy, vx = _cell_center(v, side)
            distance = math.sqrt((uy - vy) ** 2 + (ux - vx) ** 2)
            strength = intensities[u] * intensities[v] / (1.0 + distance)
            if strength > 0.0:
                pairs.append((strength, u, v))
    pairs.sort(key=lambda item: (-item[0], item[1], item[2]))
    kept = sorted(pairs[: TOP_PAIRS_PER_CELL * len(cells)], key=lambda item: (item[1], item[2]))
    interaction_lines = []
    for strength, u, v in kept:
        record = InteractionRecord(
            src_id=u,
            dst_id=v,
            timestamp=_draw_timestamp(rng, cfg.window),
            strength=strength,
        )
        interaction_lines.append(format_interaction_line(record))

    city = GeneratedCity(
        activity_path=out_dir / "activity.tsv",
        interactions_path=out_dir / "interactions.tsv",
        grid_path=out_dir / "grid.geojson",
    )
    atomic_write_text(city.activity_path, "".join(line + "\n" for line in activity_lines))
    atomic_write_text(city.interactions_path, "".join(line + "\n" for line in interaction_lines))
    atomic_write_text(city.grid_path, _grid_geojson(cfg))
    return city


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
