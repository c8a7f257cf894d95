"""Terrain-traversal environments for the planar biped, stepped in lockstep.

An :class:`EnvBatch` holds N envs' episodes as arrays with one row per env
(legged_gym's layout); a :class:`TerrainEnv` is one row of it, and a
standalone env is a batch of one through the same code.  An env owns its
episodes: spawn, PD actuation with domain-randomized dynamics, height-scan
exteroception, privileged sensing for the critic, periodic pushes, and
termination.  Reward evaluation lives in :mod:`gaitrl.rewards`, which reads
the batch's state rows as they are.

A control step.  ``TerrainEnv.step`` reads the env's float state row once
(``row.tolist()``, :data:`gaitrl.biped.STATE_FIELDS`), runs the push, the
four ``pd_torques``/``substep`` pairs, the torque average, the joint
acceleration, the finite check and the termination on Python floats, and
writes the row once, with the last three actions.  What the physics reads
of the DR draw is derived once per episode, in ``reset``: the PD gains,
the contact damping, the base's mass and pitch inertia, beside the friction,
motor strength and centre-of-mass shift (``TerrainEnv._kernel``); the
substep's ``dt`` once per env.  ``step`` returns only the termination and
the distance (:class:`StepResult`), ``reset`` nothing.  The envs started or
stepped since the batch's last pass are sensed in one pass over their rows
when a reader of the batch's ``rows`` (or an env's ``bundle``) asks, or
before one of them is stepped or reset again.  So an env's observation has
one home, its row of the batch: read it from ``env.bundle`` before stepping
or resetting that env again.  A pass costs a fixed set of numpy calls
whatever the number of rows: a batch of one pays for one row's arithmetic
and those calls, not for a batch.

The observation row.  Each pass writes the raw rows (``raw``, ``[N, d]``
float64) and normalizes all of them at once into a new ``[N, d]`` float32
array (``rows``, ``ROW_DTYPE``), which is never written again: a bundle or a
policy batch is a view of it.  A row's blocks, in ``BLOCKS`` order:

- ``m``: the privileged elevation map, heights around the base (m);
- ``e``: the privileged extras, what the actor never sees: the feet (m),
  the contacts (0/1), the true base velocity (m/s), the DR draw;
- ``o``: proprioception: pitch and yaw rates (rad/s), projected gravity,
  the velocity commands, q (rad), qd (rad/s) and the last action;
- ``hist``: the last H ``o`` rows, oldest first;
- ``gait``: the one-hot gait command, all zero when none is given;
- ``scans``: the previous and the current forward height scan (m).

Heights and feet are relative to the base; the scans and the elevation map
are read in one gather from the episodes' heightfields, stacked as
``[N, n_cells]`` when each episode starts.  Each column is written as
``(raw - shift) * scale`` (:func:`obs_scaling`; the gait command is not
scaled), so no network normalizes.  The dtype rule: the raw quantities, the
physics that makes them and the normalizing arithmetic are float64, and each
normalized column is rounded once to float32, the dtype the networks
compute in (:mod:`gaitrl.nets`).  The critic's blocks come first, in the
column order its weights were trained on, so its input, ``[m, e, o, hist]``
plus ``gait`` at stage 2, is a prefix of the row: a view.

The episode's memory lives where the rows read it.  A raw row's ``hist``
block is the history itself: each pass shifts it in place by one ``o`` and
writes the new ``o`` last.  An env's scan queue (``scan_queue``, a block of
``[N, L, K]``, newest last) holds its last current scans, and the row's
``scans`` are ``S_{t-1-d}`` and ``S_{t-d}`` for the episode's scan delay
``d`` in control steps.

The history rule.  Within an episode, step by step (the reset observation
is its first row), in every env's row:

- a row's history ``hist`` is the episode's last H ``o`` rows, oldest
  first, with the first one repeated until H have passed;
- a row's previous scan (the first half of ``scans``) is the row before's
  current scan, or its own current scan at an episode's first row;
- in a rollout, an env's episode starts on the row after its done row.

So ``o`` and the current scan are all that is new at a step; the rollout
buffer stores only those, normalized, and rebuilds the rest by this rule.

The episode start.  A training episode starts in
``trainer.EnvWorker.begin_episode``, and two generators per env draw it,
each in a fixed order:

- the worker's: the terrain seed (one ``integers``), the DR vector
  (:func:`sample_dr`: one call, 13 doubles; nothing when DR is off),
  ``v_cmd`` and ``w_cmd`` (one ``uniform`` each), then, at stage 2, the
  gait (one double, drawn as ``choice`` draws it);
- the env's: in ``reset``, the scan-bias sign (one double), then the first
  scan's noise; in each step, the push (one ``uniform``, when one is due),
  then the scan's noise, drawn in the step for the pass that senses it.
  A scan draws noise (one ``normal`` per point) only when the episode's
  ``scan_noise`` is positive and the env is not blind.

The terrain has a generator of its own, seeded by the terrain seed (flat
terrain draws nothing and builds none).  No draw crosses envs, so each
env's run of draws, and so every byte a run writes, rests on this order and
count whatever the order the envs are stepped and sensed in.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import add
from types import MappingProxyType
from typing import Annotated, NamedTuple

import numpy as np

from .biped import (
    ACTION,
    CONTACT,
    FOOT,
    KNEE,
    N_COLLISIONS,
    N_JOINTS,
    PITCH,
    PITCH_RATE,
    Q,
    QD,
    QDD,
    STATE_WIDTH,
    TAU,
    TIME,
    VX,
    VZ,
    X,
    YAW_RATE,
    Z,
    BipedModel,
    BipedState,
    action_targets,
    contact_damping,
    pd_gains,
    pd_torques,
    substep,
)
from .codec import NON_NEGATIVE, POSITIVE, Bounded
from .terrain import Heightfield

# "diverged": the state went non-finite (NaN or inf).  That step leaves the
# last finite observation in the env's row, returns the pre-step distance and
# ends the episode.
TERMINATIONS = ("none", "fall", "collision", "out_of_bounds", "timeout", "diverged")

# Domain randomization ranges (uniform), one row per dynamic parameter.
DR_RANGES = {
    "friction": (0.5, 2.0),
    "payload": (-3.0, 3.0),  # kg
    "com_shift": (-0.03, 0.03),  # m
    "motor_strength": (0.8, 1.2),
    "kp_scale": (0.8, 1.2),
    "kd_scale": (0.8, 1.2),
    "init_joint_scale": (0.5, 1.5),
    "restitution": (0.0, 1.0),
    "action_delay_ms": (0.0, 40.0),
    "link_mass_scale": (0.8, 1.2),
    "scan_noise": (0.0, 0.05),  # m, gaussian sigma
    "scan_bias": (0.0, 0.15),  # m, per-episode deviation
    "scan_delay_ms": (0.0, 8.0),
}

DR_FIELDS = tuple(DR_RANGES.keys())
# the ranges' bounds as read-only vectors in DR_FIELDS order, and their widths
DR_LOW, DR_HIGH = (np.array(b) for b in zip(*DR_RANGES.values()))
DR_SPAN = DR_HIGH - DR_LOW
DR_LOW.flags.writeable = DR_HIGH.flags.writeable = DR_SPAN.flags.writeable = False
# e's columns before the DR draw: feet relative to the base (4), contacts (2), true velocity (2)
N_EXTRAS = 8
# the dtype of a normalized observation row
ROW_DTYPE = np.dtype(np.float32)


@dataclass
class DRConfig:
    friction: float = 1.0
    payload: float = 0.0
    com_shift: float = 0.0
    motor_strength: float = 1.0
    kp_scale: float = 1.0
    kd_scale: float = 1.0
    init_joint_scale: float = 1.0
    restitution: float = 0.0
    action_delay_ms: float = 0.0
    link_mass_scale: float = 1.0
    scan_noise: float = 0.0
    scan_bias: float = 0.0
    scan_delay_ms: float = 0.0

    def action_delay_steps(self, dt: float) -> int:
        return int(round(self.action_delay_ms / (dt * 1000.0)))

    def scan_delay_steps(self) -> int:
        """The scan delay in control steps, counted in units of the top of its
        DR range whatever the control period: 8 ms is one step, so a 40 ms
        scan delay is 5 steps where a 40 ms action delay is 2
        (:meth:`action_delay_steps` at dt = 0.02 s).  A draw inside the DR
        range is 0 or 1 step."""
        return int(round(self.scan_delay_ms / DR_RANGES["scan_delay_ms"][1]))

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, f) for f in DR_FIELDS], dtype=np.float64)


def sample_dr(rng: np.random.Generator, enabled: bool = True) -> DRConfig:
    """Uniform draw of every dynamic parameter inside its table range.

    One draw of ``len(DR_FIELDS)`` doubles ``u``, in ``DR_FIELDS`` order:
    each value is ``lo + (hi - lo) * u``, the floats ``rng.uniform(lo, hi)``
    gives field by field, from the same generator output, without its
    per-call argument checks.
    """
    if not enabled:
        return DRConfig()
    return DRConfig(*(DR_LOW + DR_SPAN * rng.random(len(DR_FIELDS))).tolist())


@dataclass
class CommandState:
    v_cmd: float = 0.0  # forward linear velocity command (m/s)
    w_cmd: float = 0.0  # yaw-rate command on the yaw proxy (rad/s)
    gait: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.gait = np.asarray(self.gait, dtype=np.float64)


def one_hot(i: int, n: int) -> np.ndarray:
    v = np.zeros(n)
    v[i] = 1.0
    return v


@dataclass
class EnvConfig(Bounded):
    dt: Annotated[float, POSITIVE] = 0.02  # control period, 50 Hz
    substeps: Annotated[int, POSITIVE] = 4  # physics at 200 Hz
    history_len: Annotated[int, POSITIVE] = 5
    scan_points: Annotated[int, POSITIVE] = 16
    scan_lookahead: Annotated[float, NON_NEGATIVE] = 1.2  # 0: every scan point under the base
    scan_clip: Annotated[float, POSITIVE] = 1.5
    elev_points: Annotated[int, POSITIVE] = 11
    elev_halfwidth: Annotated[float, NON_NEGATIVE] = 0.5  # 0: every point under the base
    max_episode_s: Annotated[float, POSITIVE] = 20.0
    push_interval_s: Annotated[float, POSITIVE] = 8.0
    push_vel_max: Annotated[float, NON_NEGATIVE] = 0.5  # 0: no pushes (evaluation's setting)
    spawn_x: Annotated[float, NON_NEGATIVE] = 0.5  # along the track, which starts at 0
    min_base_height: Annotated[float, POSITIVE] = 0.40
    max_pitch: Annotated[float, POSITIVE] = 1.0
    blind: bool = False
    n_gaits: int = 3  # RunConfig bounds it by the reference gaits

    def scan_offsets(self) -> np.ndarray:
        return np.linspace(0.0, self.scan_lookahead, self.scan_points)

    def elev_offsets(self) -> np.ndarray:
        return np.linspace(-self.elev_halfwidth, self.elev_halfwidth, self.elev_points)


def obs_dims(cfg: EnvConfig) -> dict:
    """Each block's width, keyed ``"d_" + block`` (the two scans are ``d_scan``)."""
    d_o = 2 + 2 + 2 + 3 * N_JOINTS  # [omega, gravity, velocity cmd, q, qd, last action]
    return {
        "d_o": d_o,
        "d_hist": cfg.history_len * d_o,
        "d_scan": 2 * cfg.scan_points,
        "d_m": cfg.elev_points,
        "d_e": N_EXTRAS + len(DR_FIELDS),
        "d_gait": cfg.n_gaits,
    }


# the row's blocks in row order, each with its ``obs_dims`` width key
BLOCKS = (("m", "d_m"), ("e", "d_e"), ("o", "d_o"), ("hist", "d_hist"), ("gait", "d_gait"),
          ("scans", "d_scan"))


def obs_slices(dims: dict) -> dict[str, slice]:
    """Each block's columns in the row; they tile it in ``BLOCKS`` order."""
    out, col = {}, 0
    for name, key in BLOCKS:
        out[name] = slice(col, col + dims[key])
        col += dims[key]
    return out


def obs_scaling(model: BipedModel, dims: Mapping[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """Each column's ``(shift, scale)`` for the blocks ``dims`` gives
    (:func:`obs_dims`): the row holds ``(raw - shift) * scale``."""
    sl = obs_slices(dims)
    shift, scale = np.zeros(sl["scans"].stop), np.ones(sl["scans"].stop)
    nj, H = N_JOINTS, model.standing_height()
    o_shift, o_scale = shift[sl["o"]], scale[sl["o"]]
    o_scale[0:2] = 0.25  # angular rates
    o_shift[6 : 6 + nj] = model.nominal()
    o_scale[6 + nj : 6 + 2 * nj] = 0.05  # joint velocities
    o_scale[6 + 2 * nj :] = 0.25  # previous action
    for a in (shift, scale):  # each history row is an o
        a[sl["hist"]] = np.tile(a[sl["o"]], dims["d_hist"] // dims["d_o"])
    for name in ("m", "scans"):  # heights relative to the base sit around -H
        shift[sl[name]] = -H
        scale[sl[name]] = 2.0
    e_shift, e_scale = shift[sl["e"]], scale[sl["e"]]
    e_shift[1] = e_shift[3] = -H  # the feet's vertical offsets
    e_shift[N_EXTRAS:] = 0.5 * (DR_LOW + DR_HIGH)
    e_scale[N_EXTRAS:] = 2.0 / np.maximum(DR_SPAN, 1e-9)
    return shift, scale


@dataclass(frozen=True, eq=False)
class EnvLayout:
    """What an env derives from its model and config alone, read-only: each
    block's width (``dims``, :func:`obs_dims`) and columns (``slices``,
    :func:`obs_slices`), the x offsets of the height scan and of the
    elevation map, each column's ``shift`` and ``scale``
    (:func:`obs_scaling`), and the index map of the sensing pass's one
    gather: the raw columns (``sensed_cols``) that take state columns
    (``state_cols``) as they are.  The envs of a run share one
    (:func:`env_layout`)."""

    dims: Mapping[str, int]
    slices: Mapping[str, slice]
    scan_offsets: np.ndarray
    elev_offsets: np.ndarray
    shift: np.ndarray
    scale: np.ndarray
    sensed_cols: np.ndarray
    state_cols: np.ndarray


def _sensing_map(slices: Mapping[str, slice]) -> tuple[np.ndarray, np.ndarray]:
    """``(raw columns, state columns)``: ``o``'s rates, q, qd and last
    action, and ``e``'s feet (relative to the base once the pass subtracts
    it), contacts and true velocity."""
    o, e = slices["o"].start, slices["e"].start
    raw_cols = [o, o + 1, *range(o + 6, o + 6 + 3 * N_JOINTS), *range(e, e + N_EXTRAS)]
    state_cols = [PITCH_RATE, YAW_RATE, *range(Q, QDD), *range(ACTION, ACTION + N_JOINTS),
                  *range(FOOT, FOOT + 4), CONTACT, CONTACT + 1, VX, VZ]
    return np.array(raw_cols), np.array(state_cols)


def env_layout(model: BipedModel, cfg: EnvConfig) -> EnvLayout:
    """The layout of ``cfg`` for ``model``, built once per pair of values."""
    # an EnvConfig holds its fields and nothing else, in field order
    return _layout(model, tuple(vars(cfg).values()))


@functools.lru_cache(maxsize=8)
def _layout(model: BipedModel, cfg_fields: tuple) -> EnvLayout:
    cfg = EnvConfig(*cfg_fields)
    dims = obs_dims(cfg)
    slices = obs_slices(dims)
    arrays = (cfg.scan_offsets(), cfg.elev_offsets(), *obs_scaling(model, dims),
              *_sensing_map(slices))
    for a in arrays:
        a.flags.writeable = False
    return EnvLayout(MappingProxyType(dims), MappingProxyType(slices), *arrays)


@dataclass(frozen=True, eq=False)
class ObservationBundle:
    """One observation row, normalized and read-only (float32 as the env
    writes it); each block is a view of its columns (``slices``, from
    :func:`obs_slices`)."""

    row: np.ndarray  # [d]
    slices: dict[str, slice]

    def __post_init__(self):
        self.row.flags.writeable = False

    m = property(lambda self: self.row[self.slices["m"]])  # privileged elevation, critic only
    e = property(lambda self: self.row[self.slices["e"]])  # privileged extras, critic only
    o = property(lambda self: self.row[self.slices["o"]])
    hist = property(lambda self: self.row[self.slices["hist"]])  # H rows of o, oldest first
    gait = property(lambda self: self.row[self.slices["gait"]])  # one-hot, all zero when none
    scans = property(lambda self: self.row[self.slices["scans"]])  # previous scan, then current

    def with_gait(self, gait: np.ndarray) -> "ObservationBundle":
        """A copy that shows ``gait`` as the command (its block is not scaled)."""
        row = self.row.copy()
        row[self.slices["gait"]] = gait
        return ObservationBundle(row, self.slices)


class StepResult(NamedTuple):
    """One env's control step: its termination and the distance it reports.
    The observation after it is the env's row of the batch (``env.bundle``):
    read it before stepping or resetting that env again."""

    termination: str
    distance: float

    @property
    def done(self) -> bool:
        return self.termination != "none"


def _is_finite(s: list) -> bool:
    """Every integrated component of the float state ``s`` is finite.

    One float sum, finite only if every term is; finite terms that overflow
    it also read as non-finite, which only a diverging state reaches.
    """
    return math.isfinite(sum(s[:QDD]))


def _spawn_state(model: BipedModel, terrain: Heightfield, x: float, joint_scale: float) -> BipedState:
    """An episode's first state: at rest at ``x``, the nominal pose times
    ``joint_scale`` clipped to the joint limits, the base dropped until the
    lower foot touches the local ground.  The floats of ``np.clip`` and of
    two ``leg_points`` passes per leg (from the origin, then from the placed
    base), with each leg's sines and cosines taken once."""
    q = []
    for n, lo, hi in zip(model.nominal_pose, model.joint_lower, model.joint_upper):
        v = joint_scale * n
        v = lo if v <= lo else v  # np.clip's order: the lower limit first; NaN passes
        q.append(hi if v >= hi else v)
    links, z = [], -math.inf
    for side in (0, 1):
        a1 = 0.0 + q[3 * side]  # the pitch is 0
        a2 = a1 + q[3 * side + 1]
        a3 = a2 + q[3 * side + 2]
        link = (model.thigh_len * math.sin(a1), model.thigh_len * math.cos(a1),
                model.shin_len * math.sin(a2), model.shin_len * math.cos(a2),
                model.foot_len * math.sin(a3), model.foot_len * math.cos(a3))
        links.append(link)
        # the foot relative to the base, summed as from a base at the origin
        gx = x + (0.0 + link[0] + link[2] + link[4])
        if terrain.is_void(gx):
            raise ValueError("spawn places a foot over a void cell")
        z = max(z, terrain.height_at(gx) - (0.0 - link[1] - link[3] - link[5]))
    feet, knees = [], []
    for sx, cx, sa, ca, sf, cf in links:
        kx, kz = x + sx, z - cx
        feet.append((kx + sa + sf, kz - ca - cf))
        knees.append(kz - terrain.height_at(kx))
    return BipedState(x=x, z=z, joint_pos=np.array(q), foot_pos=np.array(feet),
                      knee_heights=np.array(knees))


class EnvBatch:
    """N envs stepped in lockstep: every per-step value of an episode is a
    row of an array here, one row per env (the envs, :class:`TerrainEnv`,
    hold the rest: terrain, DR draw, generator, action queue).

    - ``state``: ``[N, STATE_WIDTH]`` float64, each env's float state and
      last three actions (:data:`gaitrl.biped.STATE_FIELDS`);
    - ``raw``: ``[N, d]`` float64, the raw observation rows; ``rows``: the
      normalized ``[N, d]`` float32 rows, a new read-only array from each
      pass, so a bundle or batch once handed out never changes;
    - ``heights``: the episodes' heightfields as ``[N, n_cells]``, with each
      row's ``inv_cell`` and ``last_cell``;
    - ``scan_queue``: ``[N, L, K]``, each env's last ``L`` current scans,
      newest last, and its ``scan_delay``, ``scan_bias`` and ``scan_sigma``;
      ``noise``, the scan noise each env drew for its next sensing.

    What a pass reads of an episode is set when the episode starts
    (:meth:`begin`), as ``[N, 1]`` columns or flat indices: the row's first
    cell in the stacked heights and which scans of its queue the row shows.
    """

    def __init__(self, model: BipedModel, cfg: EnvConfig, n: int):
        self.model, self.cfg, self.n = model, cfg, n
        self.layout = lay = env_layout(model, cfg)
        d, K = len(lay.shift), cfg.scan_points
        self.size = 0  # rows taken by envs
        self.state = np.zeros((n, STATE_WIDTH))
        self.raw = np.zeros((n, d))
        self._rows = None  # normalized when first read
        self._env_rows = np.arange(n)[:, None]
        self.heights = np.zeros((n, 1))
        self._cell_base = self._env_rows * self.heights.shape[1]  # each row's first cell
        self.inv_cell = np.ones((n, 1))
        self.last_cell = np.zeros((n, 1), dtype=np.intp)
        self.scan_queue = np.zeros((n, 2, K))
        self.scan_delay = np.zeros(n, dtype=np.intp)
        self._scan_cols = np.arange(2 * K)
        self._pick_scans()
        self.scan_bias = np.zeros(n)
        self.scan_sigma = np.zeros(n)
        self._biased: set[int] = set()
        self._noisy: set[int] = set()
        self.noise = np.zeros((n, K))
        # the scan's points, then the elevation map's: read in one gather
        self._offsets = np.concatenate([lay.scan_offsets, lay.elev_offsets])
        # the columns a pass writes by block: o's and e's first, the
        # history's bounds and o's width, the elevation map, the scans
        sl = lay.slices
        self._blocks = (sl["o"].start, sl["e"].start, (sl["hist"].start, sl["hist"].stop),
                        lay.dims["d_o"])
        self._m, self._scans = sl["m"], sl["scans"]
        # the layout's gather as flat indices into a pass's first n raw and
        # state rows, and the base's x, z, x, z beside the feet
        self._gather = (self._env_rows * d + lay.sensed_cols,
                        self._env_rows * STATE_WIDTH + lay.state_cols)
        self._feet_base = self._env_rows * STATE_WIDTH + np.array([X, Z, X, Z])
        for a in (*self._gather, self._feet_base):
            a.flags.writeable = False
        # the envs the next pass senses, each with whether its episode starts there
        self._pending: dict[int, bool] = {}
        self._stale = True  # a raw row changed outside a pass, or none was normalized yet

    @property
    def rows(self) -> np.ndarray:
        """The normalized rows, read-only, after a pass over what changed since the last."""
        if self._pending or self._stale:
            self.flush()
        return self._rows

    def commands(self) -> np.ndarray:
        """Each env's ``(v_cmd, w_cmd)``, ``[N, 2]``: a view of the raw rows."""
        o = self.layout.slices["o"].start
        return self.raw[:, o + 4 : o + 6]

    def gaits(self) -> np.ndarray:
        """Each env's gait command, ``[N, n_gaits]``: a view of the raw rows."""
        return self.raw[:, self.layout.slices["gait"]]

    # -- passes ---------------------------------------------------------------

    def flush(self) -> None:
        """One pass: sense the envs whose episodes started, then those stepped,
        since the last pass (each group in one pass over its rows), and
        normalize every row into new rows.  An env's row is the observation
        after its last start or step until the env moves on: read it from
        ``env.bundle`` (or ``rows``) before stepping or resetting that env
        again."""
        pending, self._pending = self._pending, {}
        for start in (True, False):
            ix = [i for i, s in pending.items() if s is start]
            if ix:
                # every env, in any order: a slice, so the rows are views
                self._sense(slice(None) if len(ix) == self.n else np.array(ix), start)
        self._rows = self._normalize()
        self._stale = False

    def _normalize(self) -> np.ndarray:
        """New read-only rows: ``raw`` normalized."""
        rows = np.subtract(self.raw, self.layout.shift)
        rows *= self.layout.scale
        rows = rows.astype(ROW_DTYPE)
        rows.flags.writeable = False
        return rows

    def _sense(self, ix, start: bool) -> None:
        """Write the raw rows of envs ``ix`` (an index array or a slice) from
        their state: ``o``, the history, the scans, the elevation map and
        ``e``'s extras; the command, gait and DR columns keep what the
        episode start wrote.  ``start`` begins each env's history and scan
        queue at this row; otherwise both advance by one, in place.

        A fixed set of numpy calls whatever the number of rows: the rows are
        taken once (views for a slice) and written back once."""
        cfg, K = self.cfg, self.cfg.scan_points
        o, e, (h0, h1), d_o = self._blocks
        st, r = self.state[ix], self.raw[ix]
        n = len(st)
        to, frm = self._gather
        r.put(to[:n], st.take(frm[:n]))
        # projected gravity: -sin and -cos of the pitch, one float at a time
        pitch = st[:, PITCH].tolist()
        r[:, o + 2] = [-math.sin(p) for p in pitch]
        r[:, o + 3] = [-math.cos(p) for p in pitch]
        feet = r[:, e : e + 4]
        np.subtract(feet, st.take(self._feet_base[:n]), out=feet)
        if start:
            r[:, h0:h1] = np.tile(r[:, o : o + d_o], (h1 - h0) // d_o)
        else:
            r[:, h0 : h1 - d_o] = r[:, h0 + d_o : h1]
            r[:, h1 - d_o : h1] = r[:, o : o + d_o]

        # heights under the scan's points and the elevation map's, relative to the base
        cells = st[:, X, None] + self._offsets
        cells *= self.inv_cell[ix]
        cells = cells.astype(np.intp)
        np.maximum(cells, 0, out=cells)
        np.minimum(cells, self.last_cell[ix], out=cells)
        cells += self._cell_base[ix]
        h = self.heights.take(cells)
        h -= st[:, Z, None]
        r[:, self._m] = h[:, K:]
        if cfg.blind:
            scan = np.zeros((n, K))
        else:
            scan = h[:, :K]
            # each add only where a row's episode has it, and none when no row's has
            if self._biased:
                bias = self.scan_bias[ix, None]
                np.add(scan, bias, out=scan, where=bias != 0.0)
            if self._noisy:
                np.add(scan, self.noise[ix], out=scan, where=self.scan_sigma[ix, None] > 0.0)
            np.maximum(scan, -cfg.scan_clip, out=scan)
            np.minimum(scan, cfg.scan_clip, out=scan)
        queue = self.scan_queue
        if start:
            queue[ix] = scan[:, None]
        else:
            queue[ix, :-1] = queue[ix, 1:]
            queue[ix, -1] = scan
        # the sensor delay d: the row's scans are S_{t-1-d} and S_{t-d}
        r[:, self._scans] = queue.take(self._scan_pick[ix])
        if not isinstance(ix, slice):  # a slice's rows were written in place
            self.raw[ix] = r

    # -- what the envs call ---------------------------------------------------

    def settle(self, i: int) -> None:
        """Run the next pass now if it senses env ``i``, before the env's state
        or rows change again, so that its last start or step is sensed from
        the state it left.  What a pass senses is not kept anywhere else:
        read an env's observation from ``env.bundle`` before stepping or
        resetting that env again."""
        if i in self._pending:
            self.flush()

    def sense_next(self, i: int, start: bool) -> None:
        """Have the next pass sense env ``i`` from its episode's start
        (``start``) or after a step."""
        self._pending[i] = start

    def begin(self, i: int, terrain: Heightfield, dr: DRConfig, scan_bias: float) -> None:
        """Give env ``i`` an episode on ``terrain`` under the DR draw ``dr``,
        its scans offset by ``scan_bias``."""
        extra = terrain.n_cells - self.heights.shape[1]
        if extra > 0:
            self.heights = np.pad(self.heights, ((0, 0), (0, extra)))
            self._cell_base = self._env_rows * self.heights.shape[1]
        self.heights[i, : terrain.n_cells] = terrain.heights
        self.inv_cell[i] = 1.0 / terrain.cell_size
        self.last_cell[i] = terrain.n_cells - 1
        self.scan_bias[i], self.scan_sigma[i] = scan_bias, dr.scan_noise
        # the rows with a bias and with noise, so a pass can skip an add that none has
        self._biased.discard(i)
        self._noisy.discard(i)
        if scan_bias != 0.0:
            self._biased.add(i)
        if dr.scan_noise > 0.0:
            self._noisy.add(i)
        scan_delay = dr.scan_delay_steps()
        _, L, K = self.scan_queue.shape
        if 2 + scan_delay > L:
            self.scan_delay[i] = scan_delay
            self.scan_queue = np.pad(self.scan_queue, ((0, 0), (2 + scan_delay - L, 0), (0, 0)))
            self._pick_scans()
        elif scan_delay != self.scan_delay[i]:  # the one row of _pick_scans
            self.scan_delay[i] = scan_delay
            np.add(self._scan_cols, (i * L + L - 2 - scan_delay) * K, out=self._scan_pick[i])

    def _pick_scans(self) -> None:
        """Set each row's flat indices into ``scan_queue`` of the scans that it
        shows: ``S_{t-1-d}`` and ``S_{t-d}`` for the env's scan delay ``d``,
        ``[-2 - d]`` and ``[-1 - d]`` of its queue."""
        _, L, K = self.scan_queue.shape
        first = (self._env_rows * L + L - 2 - self.scan_delay[:, None]) * K
        self._scan_pick = first + self._scan_cols

    def touch(self) -> None:
        """Have the next pass normalize again: a raw row changed outside one."""
        self._stale = True


class TerrainEnv:
    """One biped on one heightfield, episodes run at the control rate: a row
    of an :class:`EnvBatch` (made without one, the only row of its own).

    The env's episode values are its batch's rows: ``state`` (with the last
    three actions, zeros after ``reset``) and its observation (``bundle``:
    what the next action is chosen from), with the commands in the raw row.
    """

    def __init__(self, model: BipedModel | None = None, cfg: EnvConfig | None = None, seed: int = 0,
                 batch: EnvBatch | None = None):
        if batch is None:
            batch = EnvBatch(model or BipedModel(), cfg or EnvConfig(), 1)
        elif (model or batch.model) != batch.model or (cfg or batch.cfg) != batch.cfg:
            raise ValueError("an env in a batch has the batch's model and config")
        if batch.size >= batch.n:
            raise ValueError(f"the batch holds {batch.n} envs")
        self.model, self.cfg, self.batch = batch.model, batch.cfg, batch
        self.index = batch.size
        batch.size += 1
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.layout = batch.layout
        self.dims, self.slices = self.layout.dims, self.layout.slices
        self._dt_sub = self.cfg.dt / self.cfg.substeps  # the physics' step
        # the episode; reset sets each of these
        self.terrain: Heightfield | None = None
        self.dr: DRConfig | None = None
        self._done = True

    # -- the env's rows -----------------------------------------------------

    @property
    def state(self) -> BipedState:
        """A view of the env's float state row (its last step sensed first,
        so a write to it cannot reach that step's observation)."""
        self.batch.settle(self.index)
        return BipedState(self.batch.state[self.index])

    @property
    def bundle(self) -> ObservationBundle:
        return ObservationBundle(self.batch.rows[self.index], self.slices)

    # -- episode control ----------------------------------------------------

    def reset(self, terrain: Heightfield, dr: DRConfig, commands: CommandState) -> None:
        """Start an episode on ``terrain`` under the DR draw ``dr`` and the
        ``commands``.  The episode's first observation is the env's
        ``bundle``, sensed in the batch's next pass with every other env
        started or stepped since its last.  A spawn that places a foot over a
        void cell is a ``ValueError``."""
        b, i, cfg, sl = self.batch, self.index, self.cfg, self.slices
        b.settle(i)
        st = _spawn_state(self.model, terrain, cfg.spawn_x, dr.init_joint_scale)
        self.terrain, self.dr = terrain, dr
        b.state[i] = st.row
        # the episode's columns of the raw row: commands, gait, the DR draw
        o = sl["o"].start
        b.raw[i, o + 4 : o + 6] = commands.v_cmd, commands.w_cmd
        b.raw[i, sl["gait"]] = commands.gait
        b.raw[i, sl["e"].start + N_EXTRAS : sl["e"].stop] = dr.as_vector()
        # the physics' constants of the episode, in the order pd_torques and substep take them
        model = self.model
        kp, kd = pd_gains(model, dr.kp_scale, dr.kd_scale)
        self._kernel = (
            kp, kd, dr.motor_strength, dr.friction, contact_damping(model, dr.restitution),
            (model.base_mass + dr.payload) * dr.link_mass_scale, dr.com_shift,
            model.base_inertia * dr.link_mass_scale,
        )
        scan_bias = dr.scan_bias * (1.0 if self.rng.random() < 0.5 else -1.0)

        # no action yet: zeros, which each step's action pushes out
        n = dr.action_delay_steps(cfg.dt) + 1
        self._action_queue = deque([[0.0] * N_JOINTS] * n, maxlen=n)
        self._next_push = cfg.push_interval_s
        self._done = False
        self._draw_scan_noise()
        b.begin(i, terrain, dr, scan_bias)
        self._distance = st.x - cfg.spawn_x
        b.sense_next(i, start=True)

    def step(self, action: np.ndarray) -> StepResult:
        """One control step: the state row is read once, the four PD/physics
        substeps, the torque average, the joint acceleration, the finite
        check and the termination run on Python floats, and the row is
        written once.  The observation follows in the batch's next pass."""
        if self._done:
            raise RuntimeError("episode is finished; call reset()")
        action = np.asarray(action, dtype=np.float64)
        if action.shape != (N_JOINTS,):
            raise ValueError(f"action shape {action.shape}, expected ({N_JOINTS},)")
        a = action.tolist()
        bound = self.model.action_bound + 1e-9
        if not all(abs(v) <= bound for v in a):  # one pass: NaN fails it too
            raise ValueError("NaN in action" if any(v != v for v in a)
                             else "action outside configured bound")

        b, i, cfg, model = self.batch, self.index, self.cfg, self.model
        b.settle(i)
        row = b.state[i]
        s = row.tolist()
        # a state the previous step left is finite (checked after its
        # substeps); this catches one set from outside (a caller writing
        # env.state), whose non-finite value need not raise or survive below:
        # a joint stop clamps an infinite joint angle back to its limit
        if not _is_finite(s):
            return self._diverged()
        if not s[TIME] < self._next_push - 1e-9:
            # a horizontal velocity impulse each push interval
            s[VX] += float(self.rng.uniform(-cfg.push_vel_max, cfg.push_vel_max))
            self._next_push += cfg.push_interval_s

        self._action_queue.append(a)
        target = action_targets(model, self._action_queue[0])
        kp, kd, strength, friction, dn, mass, com_shift, pitch_inertia = self._kernel
        terrain, substeps, dt_sub = self.terrain, cfg.substeps, self._dt_sub
        qd_before = s[QD:QDD]
        taus = []
        # no check per substep: a state that turns non-finite inside the loop
        # either makes the physics raise (int(nan) in a cell lookup,
        # math.cos(inf)) or is caught by the check after the loop
        try:
            for _ in range(substeps):
                tau = pd_torques(model, s, target, kp, kd, strength)
                substep(model, s, tau, terrain, dt_sub, friction, dn, mass, com_shift, pitch_inertia)
                taus.append(tau)
        except (ArithmeticError, ValueError):
            row[:] = s
            if _is_finite(s):
                raise
            return self._diverged()
        if not _is_finite(s):
            row[:] = s
            return self._diverged()
        # each joint's torques summed once, from 0.0 in substep order, then averaged
        s[TAU:FOOT] = [functools.reduce(add, joint, 0.0) / substeps for joint in zip(*taus)]
        s[QDD:TAU] = [(v - v0) / cfg.dt for v, v0 in zip(s[QD:QDD], qd_before)]
        s[N_COLLISIONS] = float((s[KNEE] < 0.0) + (s[KNEE + 1] < 0.0))
        s[ACTION + N_JOINTS :] = s[ACTION : ACTION + 2 * N_JOINTS]
        s[ACTION : ACTION + N_JOINTS] = a
        termination = self._check_termination(s)
        row[:] = s

        self._done = termination != "none"
        self._distance = distance = s[X] - cfg.spawn_x
        self._draw_scan_noise()
        b.sense_next(i, start=False)
        return StepResult(termination, distance)

    def set_gait(self, gait: np.ndarray) -> None:
        """Hold ``gait`` from now on, and show it in the current observation."""
        b = self.batch
        b.settle(self.index)
        b.raw[self.index, self.slices["gait"]] = gait
        b.touch()

    def _diverged(self) -> StepResult:
        """End the episode on a non-finite state.

        The state is left as it is, and nothing is sensed: the env's row
        keeps the last finite observation, and the result carries the
        distance reported before this step.
        """
        self._done = True
        return StepResult("diverged", self._distance)

    def _draw_scan_noise(self) -> None:
        """The noise of the scan the batch senses next: one ``normal`` per
        point, when the episode's ``scan_noise`` is positive and the env
        is not blind."""
        sigma = self.dr.scan_noise
        if sigma > 0.0 and not self.cfg.blind:
            self.batch.noise[self.index] = self.rng.normal(0.0, sigma, size=self.cfg.scan_points)

    # -- termination ---------------------------------------------------------

    def _check_termination(self, s: list) -> str:
        terrain, cfg = self.terrain, self.cfg
        x, z = s[X], s[Z]
        if s[TIME] >= cfg.max_episode_s - 1e-9:
            return "timeout"
        if x < 0.05:
            return "out_of_bounds"
        # the cells under the base and the feet, each looked up once
        heights, void, cell_at = terrain.height_view, terrain.void_view, terrain.cell_at
        i = cell_at(x)
        surface = terrain.surface_at(x) if void[i] else heights[i]
        if z - surface < cfg.min_base_height or abs(s[PITCH]) > cfg.max_pitch:
            return "fall"
        for fx, fz in (s[FOOT : FOOT + 2], s[FOOT + 2 : FOOT + 4]):
            if void[cell_at(fx)] and fz < terrain.surface_at(fx) - 0.05:
                return "fall"
        if not void[i] and z - self.model.base_half_height < heights[i]:
            return "collision"
        return "none"
