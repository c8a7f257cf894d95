"""Procedural 1-D heightfields: curriculum terrains and benchmark tracks.

A heightfield is a row of elevation cells along the direction of travel.
Gap cells are flagged as void; a foot descending into one ends the episode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated, ClassVar

import numpy as np

from .codec import NON_NEGATIVE, POSITIVE, Bound, Bounded

TERRAIN_KINDS = ("flat", "rough", "gap", "step", "stair")
NON_EMPTY = Bound(len, "{name} must name at least one terrain kind")
TERRAIN_KIND = Bound(TERRAIN_KINDS.__contains__, f"{{name}}: unknown terrain kind {{value!r}}, "
                     f"not one of {TERRAIN_KINDS}", each=True)

# Curriculum obstacle parameter ranges (meters), interpolated by difficulty.
GAP_RANGE = (0.05, 0.45)
STEP_RANGE = (0.05, 0.30)
STAIR_RANGE = (0.05, 0.15)
ROUGH_RANGE = (0.01, 0.08)

# Benchmark obstacle parameter ranges (meters) per difficulty mode.
BENCH_RANGES = {
    ("gap", "easy"): (0.25, 0.40),
    ("gap", "hard"): (0.40, 0.60),
    ("step", "easy"): (0.15, 0.25),
    ("step", "hard"): (0.25, 0.35),
    ("stair", "easy"): (0.05, 0.15),
    ("stair", "hard"): (0.15, 0.25),
}

VOID_DEPTH = -1.0  # rendered floor of a gap cell

HEIGHTFIELD_FORMAT_VERSION = 1


@dataclass
class TerrainConfig(Bounded):
    """A run's ``terrain`` section: curriculum kinds and the tracks' geometry."""

    kinds: Annotated[tuple[str, ...], NON_EMPTY, TERRAIN_KIND] = TERRAIN_KINDS
    track_length: Annotated[float, POSITIVE] = 14.0
    cell_size: Annotated[float, POSITIVE] = 0.05
    start_clear: Annotated[float, NON_NEGATIVE] = 2.0  # 0: obstacles from the spawn on

    def __post_init__(self):
        super().__post_init__()
        if int(round(self.track_length / self.cell_size)) < 1:
            raise ValueError("track_length must hold at least one cell_size cell")


@dataclass
class Obstacle:
    kind: str
    value: float  # gap width / step height / stair rise (m)
    start: int  # first cell index
    end: int  # one past last cell index
    surface: float  # terrain height the obstacle is cut from / rises to


@dataclass
class Heightfield:
    """One track of cells; x maps to cell ``int(x / cell_size)``, clamped.

    ``heights`` and ``void`` are read through zero-copy views made at
    construction (``height_view``, ``void_view``; indexing a view yields a
    Python float or bool).  The arrays may be changed in place, as the
    generators below do, but must never be rebound or resized: a rebound
    array would leave the views reading the old one.
    """

    format_version: ClassVar[int] = HEIGHTFIELD_FORMAT_VERSION
    cell_size: float
    heights: np.ndarray  # [n_cells] elevation (m)
    void: np.ndarray  # [n_cells] bool, true inside gaps
    obstacles: list[Obstacle] = field(default_factory=list)
    kind: str = "flat"
    difficulty: float = 0.0

    def __post_init__(self):
        # a no-op for arrays of these dtypes, so the views below see the caller's
        self.heights = np.asarray(self.heights, dtype=np.float64)
        self.void = np.asarray(self.void, dtype=bool)
        # hot-path lookup constants; cell COUNT is fixed after construction
        self._inv_cell = 1.0 / self.cell_size
        self._last = len(self.heights) - 1
        self.height_view = memoryview(self.heights)
        self.void_view = memoryview(self.void)

    @property
    def n_cells(self) -> int:
        return len(self.heights)

    @property
    def track_length(self) -> float:
        return self.n_cells * self.cell_size

    def cell_at(self, x: float) -> int:
        i = int(x * self._inv_cell)
        if i < 0:
            return 0
        return i if i < self._last else self._last

    def height_at(self, x: float) -> float:
        return self.height_view[self.cell_at(x)]

    def is_void(self, x: float) -> bool:
        return self.void_view[self.cell_at(x)]

    def surface_at(self, x: float) -> float:
        """Walkable surface height: for void cells, the edge level of the gap."""
        i = self.cell_at(x)
        if not self.void_view[i]:
            return self.height_view[i]
        for ob in self.obstacles:
            if ob.start <= i < ob.end:
                return ob.surface
        return 0.0


def _blank(terrain: TerrainConfig, kind: str, difficulty: float) -> Heightfield:
    n = int(round(terrain.track_length / terrain.cell_size))
    return Heightfield(
        cell_size=terrain.cell_size,
        heights=np.zeros(n),
        void=np.zeros(n, dtype=bool),
        kind=kind,
        difficulty=difficulty,
    )


def _lerp(lo: float, hi: float, t: float) -> float:
    return lo + (hi - lo) * t


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """The float ``rng.uniform(lo, hi)`` returns, ``lo + (hi - lo) * u`` from
    the same one double ``u``, without that call's argument checks."""
    return lo + (hi - lo) * rng.random()


def _fill(hf: Heightfield, x: float, length: float, level: float) -> tuple[int, int]:
    """Set the cells from ``x`` through ``x + length`` to ``level``; returns their range."""
    i0 = hf.cell_at(x)
    i1 = min(hf.cell_at(x + length) + 1, hf.n_cells)
    hf.heights[i0:i1] = level
    return i0, i1


def _lay_out(hf: Heightfield, kind: str, rng: np.random.Generator, size,
             gap_spacing_hi: float, terrain: TerrainConfig) -> None:
    """Lay gap, step or stair obstacles along ``hf`` from ``terrain.start_clear``
    to ``terrain.track_length``.

    ``size()`` gives the gap width, step height or stair rise of each
    obstacle just before it is placed, so a sampler that draws from ``rng``
    draws ahead of that obstacle's spacing.  Gaps are ``uniform(1.2,
    gap_spacing_hi)`` apart.
    """
    track_length, x = terrain.track_length, terrain.start_clear
    obstacles = hf.obstacles
    level = 0.0
    if kind == "gap":
        heights, void, n_cells = hf.heights, hf.void, hf.n_cells
        while True:
            width = size()
            if x + width + 1.0 >= track_length:
                return
            i0 = hf.cell_at(x)
            i1 = min(i0 + max(1, int(round(width / hf.cell_size))), n_cells)
            heights[i0:i1] = VOID_DEPTH  # cut from level ground
            void[i0:i1] = True
            obstacles.append(Obstacle("gap", width, i0, i1, 0.0))
            x += width + _uniform(rng, 1.2, gap_spacing_hi)

    if kind == "step":
        up = True
        while x + 1.0 < track_length:
            height = size()
            level = level + height if up else max(level - height, 0.0)
            up = not up
            run = _uniform(rng, 1.0, 1.8)
            obstacles.append(Obstacle("step", height, *_fill(hf, x, run, level), level))
            x += run
        return

    # stair: flights of rising steps with landings between
    run = 0.30
    while x + run + 1.5 < track_length:
        for _ in range(int(rng.integers(3, 6))):
            if x + run + 1.5 >= track_length:
                break
            rise = size()
            level += rise
            obstacles.append(Obstacle("stair", rise, *_fill(hf, x, run, level), level))
            x += run
        landing = _uniform(rng, 1.0, 2.0)
        _fill(hf, x, landing, level)
        x += landing


def generate_terrain(
    kind: str, difficulty: float, seed: int, terrain: TerrainConfig = TerrainConfig()
) -> Heightfield:
    """Curriculum terrain with obstacle size interpolated linearly by difficulty,
    laid out on ``terrain``'s geometry.

    Placement/spacing is randomized by seed; the obstacle parameter itself is a
    pure function of difficulty so the curriculum level is exactly auditable.
    """
    if kind not in TERRAIN_KINDS:
        raise ValueError(f"unknown terrain kind: {kind!r}")
    if not 0.0 <= difficulty <= 1.0:
        raise ValueError("difficulty must be in [0, 1]")
    hf = _blank(terrain, kind, float(difficulty))
    if kind == "flat":  # it draws nothing, so it builds no generator
        return hf
    rng = np.random.default_rng(
        np.random.SeedSequence([TERRAIN_KINDS.index(kind), seed & 0xFFFFFFFF])
    )

    if kind == "rough":
        amp = _lerp(*ROUGH_RANGE, difficulty)
        n0 = hf.cell_at(terrain.start_clear)
        hf.heights[n0:] = rng.uniform(-amp, amp, size=hf.n_cells - n0)
        hf.obstacles.append(Obstacle("rough", amp, n0, hf.n_cells, 0.0))
        return hf

    ranges = {"gap": GAP_RANGE, "step": STEP_RANGE, "stair": STAIR_RANGE}
    value = _lerp(*ranges[kind], difficulty)
    _lay_out(hf, kind, rng, lambda: value, 2.2, terrain)
    return hf


def build_benchmark_track(
    obstacle: str, mode: str, seed: int, terrain: TerrainConfig = TerrainConfig()
) -> Heightfield:
    """Evaluation track on ``terrain``'s geometry: one obstacle type,
    parameters sampled per instance."""
    if obstacle not in ("gap", "step", "stair"):
        raise ValueError(f"unknown benchmark obstacle: {obstacle!r}")
    if mode not in ("easy", "hard"):
        raise ValueError(f"unknown benchmark mode: {mode!r}")
    lo, hi = BENCH_RANGES[(obstacle, mode)]
    rng = np.random.default_rng(
        np.random.SeedSequence(
            [0xBE, TERRAIN_KINDS.index(obstacle), 0 if mode == "easy" else 1, seed & 0xFFFFFFFF]
        )
    )
    hf = _blank(terrain, obstacle, 1.0 if mode == "hard" else 0.5)
    _lay_out(hf, obstacle, rng, lambda: _uniform(rng, lo, hi), 2.0, terrain)
    return hf
