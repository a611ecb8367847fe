"""Synthetic scooping world: materials, terrains, rewards and datasets.

A material is a point in a 4-d latent property space (scoopability gain,
jamming propensity, depth sensitivity, slope-direction preference) plus an
appearance vector whose correlation with the latent properties is
controlled by rho. Terrains compose one to three materials over a
0.9 m x 0.6 m tray under four layouts; rewards come from a noisy oracle
over scooped volume in cm^3. Datasets round-trip through a canonical
plain-text format, one file per dataset: each task's header line, then
one line per record. The reader parses each task's record lines as one
block in one C call, and grids sampled at the same points share one set
of bilinear interpolation weights.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .config import seed_sequence
from .errors import IngestError, SerializationError
from .serialize import open_file, read_container, write_atomic, write_container

TRAY_W = 0.9            # meters, x extent
TRAY_H = 0.6            # meters, y extent
DEPTH_MIN = 0.03
DEPTH_MAX = 0.08
N_YAWS = 8              # 45 degrees apart
DRAG_LEN = 0.06         # scoop drag length, meters
SCOOP_W = 0.08          # scoop width, meters
MAX_ELEVATION = 0.2     # meters
MAX_SLOPE = float(np.tan(np.deg2rad(30.0)))
HIDDEN_DEPTH = 0.05     # below this depth a hidden layer governs the reward

# The scoop rig, the same for every task family: heightmap resolution, the
# local observation patch (PATCH_CELLS x PATCH_CELLS points reaching
# PATCH_EXTENT ahead of the scoop start), appearance channels, reward noise
CELL = 0.01             # heightmap resolution, meters
PATCH_CELLS = 8
PATCH_EXTENT = 0.14     # meters
APPEARANCE_DIM = 3
NOISE_FRAC = 0.10       # reward noise std: this fraction of the noiseless value
NOISE_FLOOR_CM3 = 2.0   # plus this absolute floor
OBS_DIM = PATCH_CELLS + 3 + APPEARANCE_DIM
GP_INPUT_DIM = OBS_DIM + 2  # observation features plus (depth, stiffness flag)
GRID_SHAPE = (int(round(TRAY_H / CELL)), int(round(TRAY_W / CELL)))  # heightmap rows, columns

COMPOSITIONS = ("single", "mixture", "partition", "layers")
STIFFNESS_LEVELS = ("soft", "hard")

# Reward shaping constants (cm^3 scale calibrated against the desk-size tray)
FILL_BASE = 0.10
FILL_DEPTH = 0.60
# fill response saturates for extreme depth sensitivity (overfilled scoops
# shed material); the knee sits past the band sampled for training materials
FILL_KNEE = 1.10
FILL_KNEE_WIDTH = 0.08
SLOPE_GAIN = 0.5
SLOPE_REF = 0.15
JAM_BASE = 0.35
JAM_DEPTH = 0.65
JAM_SLOPE_REF = 0.08
JAM_HARD_RELIEF = 0.35
# interlock regime: grains lock up once jamming propensity crosses the knee,
# killing deep scoops regardless of scoop stiffness
JAM_LOCK_KNEE = 0.78
JAM_LOCK_WIDTH = 0.04
JAM_LOCK_BASE = 0.15
JAM_LOCK_DEPTH = 0.85
GATE_MIN = 0.05

LATENT_DIM = 4
# reference boxes used both for sampling training materials and for
# standardizing latents before mixing them into appearances
TRAIN_LATENT_LO = np.array([0.25, 0.05, 0.10, -0.80])
TRAIN_LATENT_HI = np.array([0.95, 0.70, 0.90, 0.80])
LATENT_PHYS_LO = np.array([0.0, 0.0, 0.0, -1.0])
LATENT_PHYS_HI = np.array([1.4, 1.0, 1.5, 1.0])


@dataclass(frozen=True)
class Material:
    id: str
    latent: np.ndarray      # (LATENT_DIM,) hidden physical properties
    appearance: np.ndarray  # visible pseudo-color, arbitrary units

    def __post_init__(self):
        lat = np.asarray(self.latent, dtype=np.float64)
        app = np.asarray(self.appearance, dtype=np.float64)
        if lat.shape != (LATENT_DIM,):
            raise ValueError(f"latent must have shape ({LATENT_DIM},), got {lat.shape}")
        if app.shape != (APPEARANCE_DIM,):
            raise ValueError(f"appearance must have shape ({APPEARANCE_DIM},), got {app.shape}")
        lat.flags.writeable = False
        app.flags.writeable = False
        object.__setattr__(self, "latent", lat)
        object.__setattr__(self, "appearance", app)

    @property
    def scoop_gain(self) -> float:
        return float(self.latent[0])

    @property
    def jam(self) -> float:
        return float(self.latent[1])

    @property
    def depth_sens(self) -> float:
        return float(self.latent[2])

    @property
    def slope_pref(self) -> float:
        return float(self.latent[3])


@dataclass(frozen=True)
class MaterialPool:
    """Training materials plus an out-of-distribution pool whose latents sit
    outside the training pool's convex hull in at least one coordinate."""

    training: tuple
    ood: tuple


def generate_materials(n_train: int, n_ood: int, rho: float, seed) -> MaterialPool:
    """Sample a material pool.

    Appearances mix an affine image of the standardized latent with
    independent noise at correlation level rho: rho=1 makes appearance an
    exact affine function of the latent, rho=0 makes it independent. Each
    OOD material has at least one latent coordinate pushed strictly past
    the training pool's range, which puts it outside the training hull.
    """
    if n_train < 1:
        raise ValueError("need at least one training material")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    rng = np.random.default_rng(seed)

    mixing = rng.normal(size=(APPEARANCE_DIM, LATENT_DIM))
    mixing /= np.linalg.norm(mixing, axis=1, keepdims=True)

    def appearance_of(latent: np.ndarray) -> np.ndarray:
        std = 2.0 * (latent - TRAIN_LATENT_LO) / (TRAIN_LATENT_HI - TRAIN_LATENT_LO) - 1.0
        signal = mixing @ std
        noise = rng.normal(size=APPEARANCE_DIM)
        return 0.5 + 0.25 * (rho * signal + np.sqrt(1.0 - rho * rho) * noise)

    train_latents = rng.uniform(TRAIN_LATENT_LO, TRAIN_LATENT_HI, size=(n_train, LATENT_DIM))
    training = tuple(
        Material(f"mat{i:02d}", train_latents[i], appearance_of(train_latents[i]))
        for i in range(n_train)
    )

    lo = train_latents.min(axis=0)
    hi = train_latents.max(axis=0)
    # push order: gain low (a barely scoopable analog), jam high, depth
    # sensitivity high, gain high (free-flowing fines that pack far beyond
    # anything in the training stock)
    pushes = [(0, -1), (1, +1), (2, +1), (0, +1)]
    ood = []
    for i in range(n_ood):
        coord, sign = pushes[i % len(pushes)]
        latent = rng.uniform(TRAIN_LATENT_LO, TRAIN_LATENT_HI)
        if coord == 1:
            # a jamming-novelty material stays scoopable in shallow strokes,
            # so the surprise is the interlock, not a dead tray
            latent[0] = rng.uniform(0.55, 0.90)
        margin = rng.uniform(0.25, 0.45) * (TRAIN_LATENT_HI[coord] - TRAIN_LATENT_LO[coord])
        # the training box lies strictly inside the physical one, so a positive
        # margin always takes the value past the training range
        if sign > 0:
            latent[coord] = min(hi[coord] + margin, LATENT_PHYS_HI[coord])
        else:
            latent[coord] = max(lo[coord] - margin, LATENT_PHYS_LO[coord])
        # the pushed coordinate leaves no visual trace: the appearance is
        # rendered from a disguise latent whose novel coordinate is redrawn
        # inside the training band, so the material looks unremarkable. The
        # over-packing fines look like the best stock on the bench; they
        # still outperform that look.
        shown = latent.copy()
        if coord == 0 and sign > 0:
            shown[coord] = rng.uniform(lo[coord] + 0.7 * (hi[coord] - lo[coord]), hi[coord])
        else:
            shown[coord] = rng.uniform(lo[coord], hi[coord])
        ood.append(Material(f"ood{i:02d}", latent, appearance_of(shown)))
    return MaterialPool(training=training, ood=tuple(ood))


@dataclass
class TerrainTask:
    """One tray-scale terrain. heightmap is meters on the CELL grid,
    region_map indexes into materials per cell, hidden_map (layers only)
    gives the material below HIDDEN_DEPTH."""

    id: str
    composition: str
    materials: tuple
    heightmap: np.ndarray
    region_map: np.ndarray
    hidden_map: np.ndarray | None = None

    def __post_init__(self):
        if self.composition not in COMPOSITIONS:
            raise ValueError(f"unknown composition {self.composition!r}")
        if self.heightmap.shape != self.region_map.shape:
            raise ValueError("heightmap and region_map shapes differ")
        if self.hidden_map is not None and self.hidden_map.shape != self.region_map.shape:
            raise ValueError("hidden_map shape differs from region_map")

    @property
    def material_ids(self) -> tuple:
        return tuple(m.id for m in self.materials)

    def copy(self) -> "TerrainTask":
        return TerrainTask(
            id=self.id,
            composition=self.composition,
            materials=self.materials,
            heightmap=self.heightmap.copy(),
            region_map=self.region_map.copy(),
            hidden_map=None if self.hidden_map is None else self.hidden_map.copy(),
        )


def _action_rules(x, y, yaw_index, depth, hard) -> tuple:
    """Whether each range rule of an action holds, for one action's values or
    elementwise over columns; hard is the stiffness bit (1 for hard, 0 for
    soft). _ACTION_MESSAGES says, in the same order, what each rule wants."""
    return ((0.0 <= x) & (x <= TRAY_W) & (0.0 <= y) & (y <= TRAY_H),
            (0 <= yaw_index) & (yaw_index < N_YAWS) & (yaw_index % 1 == 0),
            (DEPTH_MIN - 1e-9 <= depth) & (depth <= DEPTH_MAX + 1e-9),
            (hard == 0.0) | (hard == 1.0))


_ACTION_MESSAGES = ("scoop start ({x}, {y}) outside the tray",
                    f"yaw_index must be in [0, {N_YAWS}), got {{yaw_index}}",
                    f"depth {{depth}} outside [{DEPTH_MIN}, {DEPTH_MAX}]",
                    f"stiffness must be one of {STIFFNESS_LEVELS}, got {{stiffness!r}}")
_STIFFNESS_BITS = {level: float(bit) for bit, level in enumerate(STIFFNESS_LEVELS)}


# cos and sin of every yaw index: index k drags k * 45 degrees from the +x axis
_YAW_COS = np.array([np.cos(k * (2.0 * np.pi / N_YAWS)) for k in range(N_YAWS)])
_YAW_SIN = np.array([np.sin(k * (2.0 * np.pi / N_YAWS)) for k in range(N_YAWS)])


def _depth_norm(depth):
    """Scoop depth rescaled from [DEPTH_MIN, DEPTH_MAX] to [0, 1]."""
    return (depth - DEPTH_MIN) / (DEPTH_MAX - DEPTH_MIN)


def _placements_feasible(x, y, yaw_index):
    """Whether the full drag segment stays inside the tray, for one action's
    x, y and integer yaw_index or elementwise over their columns."""
    ex = x + _YAW_COS[yaw_index] * DRAG_LEN
    ey = y + _YAW_SIN[yaw_index] * DRAG_LEN
    return (0.0 <= ex) & (ex <= TRAY_W) & (0.0 <= ey) & (ey <= TRAY_H)


# The deployment grid: 15 x positions 3 cm apart and 12 y positions 2 cm
# apart, centred on the tray, times 8 yaws give its 1440 placements; 4
# depths times 2 stiffness bits are the 8 settings tried at each one.
GRID_XS = tuple(float(x) for x in 0.5 * (TRAY_W - 14 * 0.03) + 0.03 * np.arange(15))
GRID_YS = tuple(float(y) for y in 0.5 * (TRAY_H - 11 * 0.02) + 0.02 * np.arange(12))
GRID_SETTINGS = tuple((float(d), float(bit)) for d in DEPTH_MIN + (DEPTH_MAX - DEPTH_MIN) / 3.0 * np.arange(4)
                      for bit in range(len(STIFFNESS_LEVELS)))


def enumerate_action_grid() -> np.ndarray:
    """The 11520 grid action rows (x, y, yaw_index, depth, stiffness bit) in
    grid order: by x, then y, yaw index and setting (GRID_SETTINGS, depth
    then stiffness)."""
    grid = np.empty((len(GRID_XS), len(GRID_YS), N_YAWS, len(GRID_SETTINGS), 5))
    grid[..., 0] = np.reshape(GRID_XS, (-1, 1, 1, 1))
    grid[..., 1] = np.reshape(GRID_YS, (-1, 1, 1))
    grid[..., 2] = np.arange(N_YAWS)[:, None]
    grid[..., 3:] = GRID_SETTINGS
    return grid.reshape(-1, 5)


class ActionGrid:
    """The deployment grid: columns holds its action rows, in the order of
    enumerate_action_grid, so row i is setting i % 8 at placement i // 8.

    Feasibility and features depend only on the placement (x, y and
    yaw_index), so both are computed once per placement and repeated over
    its settings.
    """

    def __init__(self):
        self.columns = enumerate_action_grid()
        self.columns.flags.writeable = False
        self.placements = self.columns[::len(GRID_SETTINGS), :3]
        x, y, yaw = self.placements.T
        self.feasible = np.repeat(_placements_feasible(x, y, yaw.astype(np.int64)), len(GRID_SETTINGS))

    def gp_inputs(self, task: TerrainTask) -> np.ndarray:
        """Every action's GP input row against the task's current terrain:
        each placement's features broadcast over its settings."""
        features = compute_features_batch(task, self.placements)
        n = len(GRID_SETTINGS)
        return assemble_gp_input(features[:, None, :], self.columns.reshape(-1, n, 5)).reshape(len(self.columns), -1)


# The heightmap blur is scipy.ndimage.gaussian_filter(sigma=6.0, mode="reflect")
# in ndimage's own order of operations, so every heightmap has scipy's bits
# without loading ndimage: the weights are its _gaussian_kernel1d, cut at 4 sigma.
_BLUR_SIGMA = 6.0
_BLUR_RADIUS = int(4.0 * _BLUR_SIGMA + 0.5)
_BLUR_WEIGHTS = np.exp(-0.5 / (_BLUR_SIGMA * _BLUR_SIGMA) * np.arange(-_BLUR_RADIUS, _BLUR_RADIUS + 1) ** 2)
_BLUR_WEIGHTS = _BLUR_WEIGHTS / _BLUR_WEIGHTS.sum()


def _blur_axis(a: np.ndarray, axis: int) -> np.ndarray:
    """The Gaussian blur along one axis of a 2-D array. Each output starts at
    centre * w0 and adds (x[i - j] + x[i + j]) * wj for j = radius down to 1,
    the order of ndimage's symmetric-kernel loop; np.pad's "symmetric" mode
    is ndimage's "reflect". The lines are copied contiguous first: the loop
    then runs ~20% faster on the columns."""
    r, n = _BLUR_RADIUS, a.shape[axis]
    pad = [(0, 0), (0, 0)]
    pad[axis] = (r, r)
    p = np.ascontiguousarray(np.moveaxis(np.pad(a, pad, mode="symmetric"), axis, 0))
    out = p[r:r + n] * _BLUR_WEIGHTS[r]
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(p[r - j:r - j + n], p[r + j:r + j + n], out=pair)
        pair *= _BLUR_WEIGHTS[r - j]
        out += pair
    return np.ascontiguousarray(np.moveaxis(out, 0, axis))


def generate_heightmap(rng: np.random.Generator) -> np.ndarray:
    """Band-limited random field within the elevation and slope caps."""
    H, W = GRID_SHAPE
    noise = rng.normal(size=(H, W))
    h = _blur_axis(_blur_axis(noise, 0), 1)
    h -= h.min()
    peak = h.max()
    if peak <= 0.0:
        return np.zeros((H, W))
    h *= rng.uniform(0.05, MAX_ELEVATION) / peak
    gy, gx = np.gradient(h, CELL)
    slope = float(np.hypot(gx, gy).max())
    if slope > MAX_SLOPE:
        h *= MAX_SLOPE / slope
    return h


def _region_maps(rng: np.random.Generator, composition: str, n_materials: int, shape) -> tuple:
    H, W = shape
    hidden = None
    if composition == "single":
        region = np.zeros((H, W), dtype=np.int64)
    elif composition == "mixture":
        region = rng.integers(0, 2, size=(H, W)).astype(np.int64)
    elif composition == "partition":
        split = int(rng.uniform(0.35, 0.65) * W)
        region = np.zeros((H, W), dtype=np.int64)
        region[:, split:] = 1
    else:  # layers; generate_task's required_materials refuses any other composition
        split = int(rng.uniform(0.35, 0.65) * W)
        region = np.zeros((H, W), dtype=np.int64)
        region[:, split:] = 1
        side = int(rng.integers(0, 2))
        # the buried material must actually differ from the surface one
        below = n_materials - 1 if n_materials - 1 != side else 1 - side
        hidden = region.copy()
        hidden[region == side] = below
    return region, hidden


def required_materials(composition: str) -> tuple:
    """(min, max) distinct materials for a composition."""
    if composition == "single":
        return 1, 1
    if composition in ("mixture", "partition"):
        return 2, 2
    if composition == "layers":
        return 2, 3
    raise ValueError(f"unknown composition {composition!r}")


def generate_task(task_id: str, materials, composition: str, seed) -> TerrainTask:
    lo, hi = required_materials(composition)
    if not lo <= len(materials) <= hi:
        raise ValueError(f"{composition} needs between {lo} and {hi} materials, got {len(materials)}")
    rng = np.random.default_rng(seed)
    heightmap = generate_heightmap(rng)
    region, hidden = _region_maps(rng, composition, len(materials), heightmap.shape)
    return TerrainTask(
        id=task_id,
        composition=composition,
        materials=tuple(materials),
        heightmap=heightmap,
        region_map=region,
        hidden_map=hidden,
    )


def _bilinear_weights(shape, xs: np.ndarray, ys: np.ndarray) -> tuple:
    """The interpolation weights of metric points on a cell-centered grid of
    shape (H, W), clamped at the borders: each point's top-left neighbour
    as a flat index j0 * W + i0, and its fractional offsets fu and fv. They
    depend only on the points, so grids of one shape share them."""
    H, W = shape
    u = np.clip(xs / CELL - 0.5, 0.0, W - 1.0)
    v = np.clip(ys / CELL - 0.5, 0.0, H - 1.0)
    i0 = np.clip(np.floor(u).astype(int), 0, W - 2)
    j0 = np.clip(np.floor(v).astype(int), 0, H - 2)
    return j0 * W + i0, u - i0, v - j0


def _bilinear(grid: np.ndarray, weights: tuple) -> np.ndarray:
    """Sample a cell-centered grid at the points of _bilinear_weights, read
    by flat index from the raveled grid."""
    flat, fu, fv = weights
    W = grid.shape[1]
    g = grid.ravel()
    top = g[flat] * (1 - fu) + g[flat + 1] * fu
    bot = g[flat + W] * (1 - fu) + g[flat + W + 1] * fu
    return top * (1 - fv) + bot * fv


def _cells(shape, xs: np.ndarray, ys: np.ndarray) -> tuple:
    """Row and column indices of the cells holding metric points: the
    coordinates over CELL, truncated, then clamped to the grid."""
    H, W = shape
    return (np.clip((ys / CELL).astype(np.int64), 0, H - 1),
            np.clip((xs / CELL).astype(np.int64), 0, W - 1))


# actions per block in compute_features_batch: on the 11520-action grid one
# block raised peak memory by ~86 MiB, 256-row blocks by ~3 MiB, and 256 rows
# ran as fast as 1024 (64 rows ran ~40% slower)
FEATURE_BLOCK = 256


def _action_columns(actions, width: int) -> np.ndarray:
    """The first width columns (x, y, yaw_index, depth, stiffness bit) of
    action rows, given as an (n, 5) array or a sequence of rows."""
    actions = np.asarray(actions, dtype=np.float64)
    return actions[:, :width] if len(actions) else np.empty((0, width))


def compute_features_batch(task: TerrainTask, actions, *, gradient=None) -> np.ndarray:
    """Observation features for many actions against the current terrain.

    Per action: the height relief profile along the drag axis, the mean
    signed gradient along the drag, the mean gradient magnitude and the
    height spread over a local patch rotated to the yaw, and the mean
    surface appearance over the dragged cells. Purely a function of the
    task state and the action's placement: only the x, y and yaw_index
    columns of the action rows are read, so stored features can always be
    recomputed, and (n, 3) placement rows serve too. Actions are processed
    FEATURE_BLOCK rows at a time, which bounds the memory of the per-point
    arrays. gradient is
    np.gradient(task.heightmap, CELL), computed here unless the caller
    already has it.
    """
    P = PATCH_CELLS
    gy, gx = np.gradient(task.heightmap, CELL) if gradient is None else gradient
    shape = task.heightmap.shape
    app = np.stack([m.appearance for m in task.materials])

    us = np.linspace(0.0, PATCH_EXTENT, P)
    vs = np.linspace(-0.5 * PATCH_EXTENT, 0.5 * PATCH_EXTENT, P)
    UU, VV = (g.ravel() for g in np.meshgrid(us, vs, indexing="ij"))
    drag_cells = int(np.ceil(DRAG_LEN / PATCH_EXTENT * (P - 1))) + 1
    xs, ys, yaws = _action_columns(actions, 3).T
    yaws = yaws.astype(np.int64)

    out = np.empty((len(actions), OBS_DIM))
    for start in range(0, len(actions), FEATURE_BLOCK):
        rows = slice(start, start + FEATURE_BLOCK)
        x, y = xs[rows, None], ys[rows, None]
        c, s = _YAW_COS[yaws[rows], None], _YAW_SIN[yaws[rows], None]
        patch = _bilinear_weights(shape, x + UU * c - VV * s, y + UU * s + VV * c)
        h_patch = _bilinear(task.heightmap, patch)
        gx_p = _bilinear(gx, patch)
        gy_p = _bilinear(gy, patch)

        line_x = x + us * c
        line_y = y + us * s
        line = _bilinear_weights(shape, line_x, line_y)
        h_line = _bilinear(task.heightmap, line)
        # the line starts at the scoop start (us[0] is 0), so its first height is h0
        relief = h_line - h_line[:, :1]
        g_along = _bilinear(gx, line) * c + _bilinear(gy, line) * s

        drag = _cells(task.region_map.shape, line_x[:, :drag_cells], line_y[:, :drag_cells])
        surf = app[task.region_map[drag]]

        block = out[rows]
        block[:, :P] = relief
        block[:, P] = g_along.mean(axis=1)
        block[:, P + 1] = np.hypot(gx_p, gy_p).mean(axis=1)
        block[:, P + 2] = h_patch.std(axis=1)
        block[:, P + 3:] = surf.mean(axis=1)
    return out


def assemble_gp_input(features, actions) -> np.ndarray:
    """Observation-action rows consumed by the models: the features, then
    the depth rescaled to [0, 1], so it carries weight comparable to the
    observation channels, and the stiffness bit. Takes (n, F) features with
    (n, 5) action rows, or one (F,) feature row with one (5,) action row;
    leading axes broadcast, so (m, 1, F) features serve (m, k, 5) actions.
    """
    features = np.asarray(features, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    out = np.empty(np.broadcast_shapes(features.shape[:-1], actions.shape[:-1]) + (features.shape[-1] + 2,))
    out[..., :-2] = features
    out[..., -2] = _depth_norm(actions[..., 3])
    out[..., -1] = actions[..., 4]
    return out


def _expit(v: np.ndarray) -> np.ndarray:
    """The logistic 1 / (1 + exp(-v)) per element as scipy.special.expit
    computes it: through the C library's exp, which math.exp calls, and 0.0
    where exp(-v) overflows. numpy's vectorised exp differs from the C
    library's in the last bit on some inputs, which would move every reward."""
    out = []
    for t in np.ravel(v).tolist():
        try:
            out.append(1.0 / (1.0 + math.exp(-t)))
        except OverflowError:
            out.append(0.0)
    return np.array(out, dtype=np.float64).reshape(np.shape(v))


def reward_oracle(task: TerrainTask, actions, rng=None, *, gradient=None) -> np.ndarray:
    """Scooped volume in cm^3 for executing each action on the terrain.

    The material governing a scoop is the surface one at the drag
    midpoint, or the hidden layer when digging past HIDDEN_DEPTH on a
    layered terrain. actions are (n, 5) action rows, as an array or a
    sequence of rows. Noiseless when rng is None; otherwise heteroscedastic
    noise with std = NOISE_FRAC * value + NOISE_FLOOR_CM3, one normal draw
    per action in order, is added before clamping at zero. Deterministic
    for fixed (task, actions, seed), and each action's reward is the one a
    call with that action alone, on the same generator, would give.
    gradient is np.gradient(task.heightmap, CELL), computed here when not given.
    """
    x, y, yaws, depth, hard = _action_columns(actions, 5).T
    yaws = yaws.astype(np.int64)
    c, s = _YAW_COS[yaws], _YAW_SIN[yaws]
    mx = x + c * 0.5 * DRAG_LEN
    my = y + s * 0.5 * DRAG_LEN
    rows, cols = _cells(task.region_map.shape, mx, my)
    index = task.region_map[rows, cols]
    if task.hidden_map is not None:
        index = np.where(depth > HIDDEN_DEPTH, task.hidden_map[rows, cols], index)
    gain, jam, depth_sens, slope_pref = np.stack([m.latent for m in task.materials])[index].T
    gy, gx = np.gradient(task.heightmap, CELL) if gradient is None else gradient
    mid = _bilinear_weights(task.heightmap.shape, mx, my)
    g_along = _bilinear(gx, mid) * c + _bilinear(gy, mid) * s

    dn = _depth_norm(depth)
    volume_full = depth * DRAG_LEN * SCOOP_W * 1e6
    sens = depth_sens - FILL_KNEE_WIDTH * np.log1p(np.exp((depth_sens - FILL_KNEE) / FILL_KNEE_WIDTH))
    # a scoop cannot carry more than its swept volume
    fill = np.minimum(gain * (FILL_BASE + FILL_DEPTH * sens * dn), 1.0)
    slope_mod = np.maximum(1.0 + SLOPE_GAIN * slope_pref * np.tanh(g_along / SLOPE_REF), 0.15)
    jam_drive = jam * (JAM_BASE + JAM_DEPTH * dn) * _expit(g_along / JAM_SLOPE_REF)
    jam_drive = np.where(hard == 1.0, jam_drive * JAM_HARD_RELIEF, jam_drive)
    lock = _expit((jam - JAM_LOCK_KNEE) / JAM_LOCK_WIDTH) * (JAM_LOCK_BASE + JAM_LOCK_DEPTH * dn)
    gate = np.clip(1.0 - jam_drive - lock, GATE_MIN, 1.0)
    value = volume_full * fill * slope_mod * gate

    if rng is None:
        return value
    std = NOISE_FRAC * value + NOISE_FLOOR_CM3
    return np.maximum(value + np.random.default_rng(rng).normal(size=len(actions)) * std, 0.0)


def execute_scoop(task: TerrainTask, action, rng: np.random.Generator) -> float:
    """Execute one action row on the terrain: its reward_oracle reward, noised
    by a seed drawn from rng, which the heightmap loses, spread evenly over the
    cells whose centres lie within SCOOP_W / 2 of the drag segment."""
    action = np.asarray(action, dtype=np.float64)
    noise_seed = int(rng.integers(0, 2 ** 31 - 1))
    reward = float(reward_oracle(task, action[None], noise_seed)[0])
    if reward <= 0.0:
        return reward
    H, W = task.heightmap.shape
    ys, xs = np.meshgrid((np.arange(H) + 0.5) * CELL, (np.arange(W) + 0.5) * CELL, indexing="ij")
    x, y, yaw = action[:3].tolist()
    dx, dy = _YAW_COS[int(yaw)], _YAW_SIN[int(yaw)]
    rel_x, rel_y = xs - x, ys - y
    t = np.clip(rel_x * dx + rel_y * dy, 0.0, DRAG_LEN)
    footprint = np.hypot(rel_x - t * dx, rel_y - t * dy) <= 0.5 * SCOOP_W
    n_cells = int(footprint.sum())
    if n_cells:
        drop = (reward * 1e-6) / (n_cells * CELL * CELL)
        task.heightmap[footprint] = np.maximum(task.heightmap[footprint] - drop, 0.0)
    return reward


class _RuleError(ValueError):
    """A TaskDataset breaks a rule: field is the field the rule is about, row
    the index of the record that breaks it, or -1 for the task's header."""

    def __init__(self, message: str, field: str, row: int = -1):
        super().__init__(message)
        self.row = row
        self.field = field


def _read_only(values) -> np.ndarray:
    out = np.array(values, dtype=np.float64)
    out.flags.writeable = False
    return out


class TaskDataset:
    """One task's scoop records, held as read-only columns.

    actions is (n, 5): x, y, yaw_index, depth and the stiffness bit (1 for
    hard, 0 for soft); rewards() is (n,), in cm^3; features is (n, F).
    The header fields keep a records file's task header rules: a known
    composition, a task id and material ids that are each one non-empty
    token without whitespace, the material ids without commas, and at least
    one record. Every row is checked once, when the dataset is built:
    actions against _action_rules, rewards finite and non-negative,
    features finite. The first header field or row that breaks a rule
    raises ValueError.
    """

    def __init__(self, task_id: str, composition: str, material_ids, actions, rewards, features):
        if not material_ids:
            raise ValueError("material_ids must be non-empty")
        self.task_id = task_id
        self.composition = composition
        self.material_ids = mats = tuple(material_ids)
        if composition not in COMPOSITIONS:
            raise _RuleError(f"unknown composition {composition!r}", "composition")
        if task_id.split() != [task_id]:
            raise _RuleError(f"task id {task_id!r} is not one non-empty token without whitespace", "task_id")
        if any("," in m for m in mats):
            raise _RuleError(f"a material id of {mats!r} contains ','", "material_ids")
        if any(m.split() != [m] for m in mats):
            raise _RuleError(f"material ids {mats!r} are not each one non-empty token without whitespace",
                             "material_ids")
        self.actions, self._rewards, self.features = (_read_only(v) for v in (actions, rewards, features))
        if (self._rewards.ndim != 1 or self.actions.shape != (len(self._rewards), 5)
                or self.features.ndim != 2 or len(self.features) != len(self._rewards)):
            raise ValueError(f"actions {self.actions.shape}, rewards {self._rewards.shape} and features "
                             f"{self.features.shape} are not (n, 5), (n,) and (n, F) columns")
        if not len(self._rewards):
            raise _RuleError(f"task {task_id} has no records: n_records must be at least 1", "n_records")
        x, y, yaw, depth, hard = self.actions.T
        with np.errstate(invalid="ignore"):  # yaw_index % 1 is NaN for a non-finite yaw, which fails its rule
            rules = (np.isfinite(self._rewards) & (self._rewards >= 0.0),
                     *_action_rules(x, y, yaw, depth, hard),
                     np.isfinite(self.features).all(axis=1))
        bad = ~np.logical_and.reduce(rules)
        if bad.any():
            row = int(np.argmax(bad))
            raise _RuleError(*self._fault(row, next(k for k, holds in enumerate(rules) if not holds[row])), row)

    def _fault(self, row: int, rule: int) -> tuple:
        """The message and field of row's failure of rule (the order of __init__'s rules)."""
        if rule == 0:
            return f"reward {self._rewards[row]} must be finite and non-negative", "reward"
        if rule == len(_ACTION_MESSAGES) + 1:
            col = int(np.argmin(np.isfinite(self.features[row])))
            return f"feature {col} is {self.features[row, col]}, must be finite", "features"
        x, y, yaw, depth, hard = self.actions[row].tolist()
        shown = dict(x=x, y=y, yaw_index=int(yaw) if yaw.is_integer() else yaw, depth=depth, stiffness=hard)
        return _ACTION_MESSAGES[rule - 1].format(**shown), "action"

    def __len__(self) -> int:
        return len(self._rewards)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def rewards(self) -> np.ndarray:
        return self._rewards

    def gp_inputs(self) -> np.ndarray:
        """The records' assemble_gp_input rows."""
        return assemble_gp_input(self.features, self.actions)


def _sample_action(rng: np.random.Generator) -> tuple:
    """x, y, yaw_index, depth and stiffness bit of a random feasible action,
    drawn in that order and redrawn until the drag stays inside the tray."""
    while True:
        row = (float(rng.uniform(0.0, TRAY_W)), float(rng.uniform(0.0, TRAY_H)), int(rng.integers(0, N_YAWS)),
               float(rng.uniform(DEPTH_MIN, DEPTH_MAX)), int(rng.integers(0, 2)))
        if _placements_feasible(*row[:3]):
            return row


def _sample_records(task: TerrainTask, n: int, rng: np.random.Generator) -> TaskDataset:
    actions = np.array([_sample_action(rng) for _ in range(n)], dtype=np.float64).reshape(n, 5)
    # every record of a task is drawn from one unchanged terrain
    gradient = np.gradient(task.heightmap, CELL)
    feats = compute_features_batch(task, actions, gradient=gradient)
    rewards = reward_oracle(task, actions, rng, gradient=gradient)
    return TaskDataset(task.id, task.composition, task.material_ids, actions, rewards, feats)


def _allocate(total: int, weights) -> list:
    """Largest-remainder allocation of total across weights."""
    weights = np.asarray(weights, dtype=np.float64)
    raw = total * weights / weights.sum()
    counts = np.floor(raw).astype(int)
    order = np.argsort(-(raw - counts))
    for i in range(total - counts.sum()):
        counts[order[i % len(order)]] += 1
    return counts.tolist()

# composition mix of the offline database (single : partition : mixture)
OFFLINE_MIX = (8, 25, 18)


def sample_task_family(pool: MaterialPool, n_tasks: int, records_per_task: int, seed):
    """Training-side terrains and their scoop datasets.

    Compositions are allocated in the offline 8:25:18 single:partition:mixture
    proportion; materials are drawn from the training pool only.
    """
    if len(pool.training) < 2:
        raise ValueError("training pool needs at least two materials")
    ss = seed_sequence(seed, 0x7A5C5)
    rng = np.random.default_rng(ss)
    counts = _allocate(n_tasks, OFFLINE_MIX)
    comps = ["single"] * counts[0] + ["partition"] * counts[1] + ["mixture"] * counts[2]
    rng.shuffle(comps)
    tasks = []
    datasets = []
    for i, comp in enumerate(comps):
        k = required_materials(comp)[0]
        idx = rng.choice(len(pool.training), size=k, replace=False)
        mats = [pool.training[j] for j in idx]
        task = generate_task(f"task{i:03d}", mats, comp, rng)
        tasks.append(task)
        datasets.append(_sample_records(task, records_per_task, rng))
    return tasks, datasets


def sample_ood_test_family(pool: MaterialPool, n_tasks: int, records_per_task: int, seed):
    """Held-out terrains: every task contains at least one OOD material.

    Compositions rotate through single/partition/mixture/layers; layered
    terrains hide the OOD material below the surface when possible.
    """
    if not pool.ood:
        raise ValueError("material pool has no OOD materials")
    ss = seed_sequence(seed, 0x7E575)
    rng = np.random.default_rng(ss)
    tasks = []
    datasets = []
    rotation = ("single", "partition", "mixture", "layers")
    # pair each composition with the novelty type it stresses hardest:
    # jamming surprises open terrain, depth-response surprises mixtures,
    # and layered tasks hide the barely scoopable material; when a
    # composition comes around again it gets the over-packing material, so
    # the family probes surprises in both directions
    preferred = {"single": 1, "partition": 1, "mixture": 2, "layers": 0}
    repeat_preferred = {"single": 3, "partition": 3, "mixture": 3}
    for i in range(n_tasks):
        comp = rotation[i % len(rotation)]
        table = preferred if (i // len(rotation)) % 2 == 0 else repeat_preferred
        ood_mat = pool.ood[table.get(comp, i) % len(pool.ood)]
        if comp == "single":
            mats = [ood_mat]
        elif comp == "layers":
            surf = rng.choice(len(pool.training), size=2, replace=False)
            mats = [pool.training[surf[0]], pool.training[surf[1]], ood_mat]
        else:
            other = pool.training[int(rng.integers(0, len(pool.training)))]
            mats = [other, ood_mat] if rng.random() < 0.5 else [ood_mat, other]
        task = generate_task(f"test{i:03d}", mats, comp, rng)
        tasks.append(task)
        datasets.append(_sample_records(task, records_per_task, rng))
    return tasks, datasets


# ---------------------------------------------------------------------------
# Canonical dataset interchange: one records file per dataset

RECORDS_SUFFIX = ".records.txt"
RECORDS_HEADER = "# scoopgp records v2"


def _task_lines(ds):
    """The lines of one task in a records file, formatted one at a time: its
    header line, then its records."""
    yield f"task {ds.task_id} {ds.composition} {','.join(ds.material_ids)} {len(ds)} {ds.feature_dim}\n"
    # one format per stiffness level: x y yaw_index depth, the level, then reward and features
    tail = " %.9g" * (1 + ds.feature_dim) + "\n"
    formats = ["%.9g %.9g %d %.9g " + level + tail for level in STIFFNESS_LEVELS]
    rows = np.column_stack([ds.actions[:, :4], ds.rewards(), ds.features]).tolist()
    hard = ds.actions[:, 4].astype(np.int64).tolist()
    yield from (formats[h] % tuple(row) for h, row in zip(hard, rows))


def write_database(prefix: str, datasets) -> tuple:
    """Write datasets to {prefix}.records.txt in one atomic write and return
    (records_path,). Lines are formatted and written one at a time, so only
    one task's numbers are held as Python values at once. TaskDataset holds
    each task's header fields to the reader's rules; an empty list, which
    the reader rejects, or a task id that repeats an earlier one raises
    ValueError, and the atomic write leaves no file."""
    records_path = prefix + RECORDS_SUFFIX
    if not datasets:
        raise ValueError(f"{records_path}: no tasks to write; read_database rejects an empty dataset")
    seen = set()

    def lines():
        yield RECORDS_HEADER + "\n"
        for ds in datasets:
            if ds.task_id in seen:
                raise ValueError(f"task {ds.task_id!r} is a duplicate, so its records file could not be read back")
            seen.add(ds.task_id)
            yield from _task_lines(ds)

    write_atomic({records_path: lines()})
    return (records_path,)


def _parse_number(kind, token: str, path: str, line: int, fieldname: str):
    try:
        return kind(token)
    except ValueError as exc:
        raise IngestError(f"cannot parse {kind.__name__} {token!r}", path, line, fieldname) from exc


def _raise_unparsed(parts: list, path: str, line: int) -> None:
    """Raise the IngestError naming the first number field of a record line
    that does not parse; called when the line's one conversion failed."""
    for column, kind, name in ((0, float, "x"), (1, float, "y"), (2, int, "yaw_index"), (3, float, "depth"),
                               (5, float, "reward")):
        _parse_number(kind, parts[column], path, line, name)
    for token in parts[6:]:
        _parse_number(float, token, path, line, "features")


def _task_header(parts: list, path: str, line: int, seen: set) -> tuple:
    """task_id, composition, material_ids token, n_records and feature_dim of
    a task header line; seen holds the task ids of the lines before it."""
    if len(parts) != 6:
        raise IngestError(f"task header has {len(parts)} fields, expected 6", path, line)
    _, task_id, comp, mats, n_records, feature_dim = parts
    if task_id in seen:
        raise IngestError(f"duplicate task {task_id!r}", path, line, "task_id")
    seen.add(task_id)
    feature_dim = _parse_number(int, feature_dim, path, line, "feature_dim")
    if feature_dim < 0:
        raise IngestError(f"feature_dim {feature_dim} is negative", path, line, "feature_dim")
    return task_id, comp, mats, _parse_number(int, n_records, path, line, "n_records"), feature_dim


def _yaw_value(token: str) -> float:
    int(token)  # a yaw index is an integer token; "5.0" is not one
    return float(token)


# the C parse of a record block: float columns, with the yaw index checked as
# an integer and the stiffness level turned into its bit (a KeyError there
# reaches the caller as loadtxt's ValueError)
_RECORD_CONVERTERS = {2: _yaw_value, 4: _STIFFNESS_BITS.__getitem__}


def _block_table(block: list, n_records: int, feature_dim: int):
    """A task's record lines parsed in one np.loadtxt call, as its (n_records,
    6 + feature_dim) table, or None when the C parse refuses them or gives
    another shape (a blank line, which loadtxt skips, or a short block)."""
    if len(block) != n_records or not n_records:  # loadtxt warns on no lines
        return None
    try:
        table = np.loadtxt(block, dtype=np.float64, comments=None, ndmin=2, converters=_RECORD_CONVERTERS)
    except ValueError:
        return None
    return table if table.shape == (n_records, 6 + feature_dim) else None


def _parse_records(block: list, task_id: str, n_records: int, feature_dim: int, path: str,
                   header_line: int) -> np.ndarray:
    """A task's record lines, which follow its header line, parsed one at a
    time, for a block the C parse refuses: the table, or the IngestError
    naming the line and field at fault."""
    numbers, rows = array("d"), 0
    for lineno, line in enumerate(block, start=header_line + 1):
        parts = line.split()
        if parts[:1] == ["task"]:
            break
        if len(parts) - 6 != feature_dim:
            raise IngestError(f"feature count {len(parts) - 6} does not match the header's dim {feature_dim}",
                              path, lineno, "features")
        bit = _STIFFNESS_BITS.get(parts[4])
        if bit is None:
            raise IngestError(_ACTION_MESSAGES[3].format(stiffness=parts[4]), path, lineno, "action")
        parts[4] = bit  # float() passes it through
        try:
            int(parts[2])
            numbers.extend(map(float, parts))
        except ValueError:
            _raise_unparsed(parts, path, lineno)
        rows += 1
    if rows != n_records:
        raise IngestError(f"task {task_id} has {rows} records, its header declares {n_records}",
                          path, header_line, "n_records")
    return np.frombuffer(numbers).reshape(rows, 6 + feature_dim)


def read_database(path: str) -> list:
    """Read datasets back from a records file (or its prefix).

    The first line names the format, RECORDS_HEADER. Each task then has a
    header line, `task <task_id> <composition> <material_ids> <n_records>
    <feature_dim>`, followed by exactly n_records record lines, `x y
    yaw_index depth stiffness reward features...`. Any violation raises
    IngestError naming the file, line and field.

    A task's record lines are read as one block, the unit of memory, and
    parsed in one np.loadtxt call. A block the C parse refuses (a short
    block, a blank or header line inside it, a bad token, or a number
    only Python's float() reads, such as "1_0") is parsed again line by
    line, which gives the same values or the IngestError at fault. The
    range rules are checked per task on the columns, and a row that breaks
    one is reported at its line; a header field that breaks TaskDataset's
    rules, n_records 0 among them, is reported at the header line.
    """
    path = path if path.endswith(RECORDS_SUFFIX) else path + RECORDS_SUFFIX
    datasets, seen = [], set()
    with open_file(path, "records file", IngestError, "r", encoding="utf-8") as fh:
        try:
            first = fh.readline().split()
            if first != RECORDS_HEADER.split():
                raise IngestError(f"first line {' '.join(first)!r} is not {RECORDS_HEADER!r}: "
                                  "only records format v2 is read", path, 1)
            header_line = 1
            for line in fh:
                header_line += 1
                parts = line.split()
                if parts[:1] != ["task"]:
                    after = f" after the {len(datasets[-1])} records of task {datasets[-1].task_id}" if datasets else ""
                    raise IngestError(f"expected a task header line{after}", path, header_line)
                task_id, comp, mats, n_records, feature_dim = _task_header(parts, path, header_line, seen)
                block = list(islice(fh, min(max(n_records, 0), sys.maxsize)))
                table = _block_table(block, n_records, feature_dim)
                if table is None:
                    table = _parse_records(block, task_id, n_records, feature_dim, path, header_line)
                # columns x, y, yaw_index, depth, stiffness bit, reward, features
                try:
                    datasets.append(TaskDataset(task_id, comp, mats.split(","), table[:, :5], table[:, 5],
                                                table[:, 6:]))
                except _RuleError as exc:
                    raise IngestError(str(exc), path, header_line + 1 + exc.row, exc.field) from exc
                header_line += len(block)
        except UnicodeDecodeError as exc:
            raise IngestError(f"file is not UTF-8 text: {exc}", path) from None
    if not datasets:
        raise IngestError("dataset is empty", path)
    return datasets


# ---------------------------------------------------------------------------
# Terrain bundles (binary, for live-mode deployment)

def save_terrains(path: str, tasks) -> None:
    materials = {}
    for task in tasks:
        for m in task.materials:
            materials[m.id] = m
    mat_ids = sorted(materials)
    meta = {
        "cell": CELL,
        "appearance_dim": APPEARANCE_DIM,
        "material_ids": mat_ids,
        "tasks": [
            {
                "id": t.id,
                "composition": t.composition,
                "materials": list(t.material_ids),
                "has_hidden": t.hidden_map is not None,
                "shape": list(t.heightmap.shape),
            }
            for t in tasks
        ],
    }
    blocks = [np.stack([materials[i].latent for i in mat_ids]),
              np.stack([materials[i].appearance for i in mat_ids])]
    for t in tasks:
        blocks.append(t.heightmap)
        blocks.append(t.region_map)
        if t.hidden_map is not None:
            blocks.append(t.hidden_map)
    write_container(path, "terrains", meta, blocks)


def load_terrains(path: str) -> list:
    meta, blocks = read_container(path, "terrains")
    if (meta.get("cell"), meta.get("appearance_dim")) != (CELL, APPEARANCE_DIM):
        raise SerializationError(f"bad terrain bundle {path}: cell {meta.get('cell')!r} and appearance_dim "
                                 f"{meta.get('appearance_dim')!r} differ from the rig's {CELL} and {APPEARANCE_DIM}")
    try:
        latents, appearances = blocks[0], blocks[1]
        materials = {
            mid: Material(mid, latents[i], appearances[i]) for i, mid in enumerate(meta["material_ids"])
        }
        tasks = []
        cursor = 2
        for entry in meta["tasks"]:
            heightmap = blocks[cursor]
            region = blocks[cursor + 1]
            cursor += 2
            hidden = None
            if entry["has_hidden"]:
                hidden = blocks[cursor]
                cursor += 1
            shapes = [g.shape for g in (heightmap, region, hidden) if g is not None]
            if set(shapes) | {tuple(entry["shape"])} != {GRID_SHAPE}:
                raise ValueError(f"task {entry['id']!r} has grids of shape {shapes} and shape entry "
                                 f"{entry['shape']!r}; the tray grid is {GRID_SHAPE}")
            tasks.append(TerrainTask(
                id=entry["id"],
                composition=entry["composition"],
                materials=tuple(materials[m] for m in entry["materials"]),
                heightmap=heightmap,
                region_map=region,
                hidden_map=hidden,
            ))
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad terrain bundle {path}: {exc!r}") from exc
    return tasks
