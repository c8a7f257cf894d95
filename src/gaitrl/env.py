"""Terrain-traversal environment for the planar biped.

Owns an episode: spawn, PD actuation with domain-randomized dynamics,
height-scan exteroception, privileged sensing for the critic, periodic
pushes, and termination.  It also holds the episode's per-step state: the
observation the next action is chosen from, the commands (velocity and
gait) and the last three actions.  Reward evaluation lives in
:mod:`gaitrl.rewards`; the env fills everything rewards need into the state
it exposes.

The observation row.  Each control step the env writes one float32 row
(``ObservationBundle.row``, ``ROW_DTYPE``), its blocks in ``BLOCKS`` order:

- ``m``: the privileged elevation map, heights around the base (m);
- ``e``: the privileged extras, what the actor never sees: the feet (m),
  the contacts (0/1), the true base velocity (m/s), the DR draw;
- ``o``: proprioception: pitch and yaw rates (rad/s), projected gravity,
  the velocity commands, q (rad), qd (rad/s) and the last action;
- ``hist``: the last H ``o`` rows, oldest first;
- ``gait``: the one-hot gait command, all zero when none is given;
- ``scans``: the previous and the current forward height scan (m).

Heights and feet are relative to the base.  The env keeps the raw
quantities and writes each column once as ``(raw - shift) * scale``
(:func:`obs_scaling`; the gait command is not scaled), so no network
normalizes.  The dtype rule: the raw quantities, the physics that makes
them and the normalizing arithmetic are float64, and each normalized column
is rounded once to float32, the dtype the networks compute in
(:mod:`gaitrl.nets`).  The critic's blocks come first, in the column order its
weights were trained on, so its input, ``[m, e, o, hist]`` plus ``gait`` at
stage 2, is a prefix of the row: a view.

The episode's memory lives where the row reads it.  The raw row's ``hist``
block is the history itself: each step shifts it in place by one ``o`` and
writes the new ``o`` last.  The scan queue holds the last ``2 + d`` current
scans, where ``d`` is the episode's scan delay in control steps, and the
row's ``scans`` are its first two, ``(S_{t-1-d}, S_{t-d})``.

The history rule.  Within an episode, step by step (the reset observation
is its first row):

- a row's history ``hist`` is the episode's last H ``o`` rows, oldest
  first, with the first one repeated until H have passed;
- a row's previous scan (the first half of ``scans``) is the row before's
  current scan, or its own current scan at an episode's first row;
- in a rollout, an episode starts on the row after a done row.

So ``o`` and the current scan are all that is new at a step; the rollout
buffer stores only those, normalized, and rebuilds the rest by this rule.

The episode start.  A training episode starts in
``trainer.EnvWorker.begin_episode``, and two generators draw it, each in a
fixed order:

- the worker's: the terrain seed (one ``integers``), the DR vector
  (:func:`sample_dr`: one call, 13 doubles; nothing when DR is off),
  ``v_cmd`` and ``w_cmd`` (one ``uniform`` each), then, at stage 2, the
  gait (one double, drawn as ``choice`` draws it);
- the env's: in ``reset``, the scan-bias sign (one double), then the first
  scan's noise; in each step, the push (one ``uniform``, when one is due),
  then the scan's noise.  A scan draws noise (one ``normal`` per point)
  only when the episode's ``scan_noise`` is positive and the env is not
  blind.

The terrain has a generator of its own, seeded by the terrain seed (flat
terrain draws nothing and builds none).  Each env's run of draws, and so
every byte a run writes, rests on this order and count.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .biped import N_JOINTS, BipedModel, BipedState, action_targets, pd_torques, substep
from .terrain import Heightfield

# "diverged": the state went non-finite (NaN or inf).  That step returns the
# last finite observation and the pre-step distance, and ends the episode.
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
class EnvConfig:
    dt: float = 0.02  # control period, 50 Hz
    substeps: int = 4  # physics at 200 Hz
    history_len: int = 5
    scan_points: int = 16
    scan_lookahead: float = 1.2
    scan_clip: float = 1.5
    elev_points: int = 11
    elev_halfwidth: float = 0.5
    max_episode_s: float = 20.0
    push_interval_s: float = 8.0
    push_vel_max: float = 0.5
    spawn_x: float = 0.5
    min_base_height: float = 0.40
    max_pitch: float = 1.0
    blind: bool = False
    n_gaits: int = 3

    def __post_init__(self):
        for name in ("dt", "substeps", "history_len", "scan_points", "elev_points"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

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
    elevation map, and each column's ``shift`` and ``scale``
    (:func:`obs_scaling`).  The envs of a run share one (:func:`env_layout`)."""

    dims: Mapping[str, int]
    slices: Mapping[str, slice]
    scan_offsets: np.ndarray
    elev_offsets: np.ndarray
    shift: np.ndarray
    scale: np.ndarray


def env_layout(model: BipedModel, cfg: EnvConfig) -> EnvLayout:
    """The layout of ``cfg`` for ``model``, built once per pair of values."""
    # an EnvConfig holds its fields and nothing else, in field order
    return _layout(model, tuple(vars(cfg).values()))


@functools.lru_cache(maxsize=8)
def _layout(model: BipedModel, cfg_fields: tuple) -> EnvLayout:
    cfg = EnvConfig(*cfg_fields)
    dims = obs_dims(cfg)
    shift, scale = obs_scaling(model, dims)
    arrays = (cfg.scan_offsets(), cfg.elev_offsets(), shift, scale)
    for a in arrays:
        a.flags.writeable = False
    return EnvLayout(MappingProxyType(dims), MappingProxyType(obs_slices(dims)), *arrays)


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


@dataclass
class StepResult:
    bundle: ObservationBundle
    termination: str = "none"
    distance: float = 0.0

    @property
    def done(self) -> bool:
        return self.termination != "none"


def build_o_t(
    state: BipedState,
    commands: CommandState,
    last_action: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Proprioceptive observation in the fixed layout [w, g, c_v, q, qd, a_prev].

    Written into ``out`` (one assignment), which is returned.
    """
    out[:] = [
        state.pitch_rate, state.yaw_rate,
        -math.sin(state.pitch), -math.cos(state.pitch),  # projected gravity
        commands.v_cmd, commands.w_cmd,
        *state.joint_pos.tolist(), *state.joint_vel.tolist(), *last_action.tolist(),
    ]
    return out


def sample_height_scan(
    terrain: Heightfield,
    base_x: float,
    base_z: float,
    offsets: np.ndarray,
    noise_sigma: float = 0.0,
    bias: float = 0.0,
    clip: float = 1.5,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Forward terrain heights relative to the base, with sensor noise model."""
    vals = terrain.heights_at(base_x + offsets) - base_z
    if bias != 0.0:
        vals += bias
    if noise_sigma > 0.0:
        if rng is None:
            raise ValueError("noise requires an rng")
        vals += rng.normal(0.0, noise_sigma, size=vals.shape)
    # np.clip as two ufuncs: same values, a fraction of the call overhead
    np.maximum(vals, -clip, out=vals)
    return np.minimum(vals, clip, out=vals)


def _state_is_finite(st: BipedState) -> bool:
    """Every integrated state component is finite.

    One float sum, finite only if every term is; finite terms that overflow
    it also read as non-finite, which only a diverging state reaches.
    """
    return math.isfinite(
        st.x + st.z + st.pitch + st.vx + st.vz + st.pitch_rate + st.yaw_rate
        + st.heading + st.y_offset + st.time
        + sum(st.joint_pos.tolist()) + sum(st.joint_vel.tolist())
    )


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


class TerrainEnv:
    """Single biped on a single heightfield; episodes run at the control rate.

    The env holds the episode's observation (``bundle``: what the next
    action is chosen from), its ``commands`` and its last three actions
    (``last_action``, ``prev_action``, ``prev2_action``; zeros after
    ``reset``).
    """

    def __init__(self, model: BipedModel | None = None, cfg: EnvConfig | None = None, seed: int = 0):
        self.model = model or BipedModel()
        self.cfg = cfg or EnvConfig()
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.layout = env_layout(self.model, self.cfg)
        self.dims, self.slices = self.layout.dims, self.layout.slices
        # the raw row _assemble normalizes; o_t and the history are written in place
        self._raw = np.empty(len(self.layout.shift))
        self._o_t = self._raw[self.slices["o"]]
        self._hist = self._raw[self.slices["hist"]]
        # the episode; reset sets each of these
        self.terrain: Heightfield | None = None
        self.dr: DRConfig | None = None
        self.commands: CommandState | None = None
        self.state: BipedState | None = None
        self.bundle: ObservationBundle | None = None
        self.last_action = self.prev_action = self.prev2_action = None
        self._done = True

    # -- episode control ----------------------------------------------------

    def reset(
        self, terrain: Heightfield, dr: DRConfig, commands: CommandState
    ) -> ObservationBundle:
        """Start an episode on ``terrain`` under the DR draw ``dr`` and return
        its first observation.  The env takes ``commands`` as its own: a
        later ``set_gait`` rebinds its gait.  A spawn that places a foot over
        a void cell is a ``ValueError``."""
        cfg = self.cfg
        self.terrain, self.dr, self.commands = terrain, dr, commands
        # the DR draw is fixed for the episode; the critic sees it every step
        self._raw[self.slices["e"]][N_EXTRAS:] = dr.as_vector()
        self.state = st = _spawn_state(self.model, terrain, cfg.spawn_x, dr.init_joint_scale)
        self._ep_dr_mass = (self.model.base_mass + dr.payload) * dr.link_mass_scale
        self._scan_bias = dr.scan_bias * (1.0 if self.rng.random() < 0.5 else -1.0)

        # no action yet: one zero vector, which each step replaces and none writes
        zeros = np.zeros(N_JOINTS)
        self.last_action = self.prev_action = self.prev2_action = zeros
        n = dr.action_delay_steps(cfg.dt) + 1
        self._action_queue = deque([zeros] * n, maxlen=n)
        self._next_push = cfg.push_interval_s
        self._done = False

        o0 = build_o_t(st, commands, zeros, out=self._o_t)
        self._hist.reshape(-1, self.dims["d_o"])[:] = o0
        n = 2 + dr.scan_delay_steps()
        self._scans = deque([self._scan()] * n, maxlen=n)
        self.bundle = self._assemble()
        self._distance = st.x - cfg.spawn_x
        return self.bundle

    def step(self, action: np.ndarray) -> StepResult:
        if self._done:
            raise RuntimeError("episode is finished; call reset()")
        action = np.asarray(action, dtype=np.float64)
        if action.shape != (N_JOINTS,):
            raise ValueError(f"action shape {action.shape}, expected ({N_JOINTS},)")
        # one reduction for both checks: max propagates NaN, so NaN wins
        peak = float(np.abs(action).max())
        if peak != peak:
            raise ValueError("NaN in action")
        if peak > self.model.action_bound + 1e-9:
            raise ValueError("action outside configured bound")

        st = self.state
        # a state the previous step left is finite (checked after its
        # substeps); this catches one set from outside (a caller writing
        # env.state), whose non-finite value need not raise or survive below:
        # a joint stop clamps an infinite joint angle back to its limit
        if not _state_is_finite(st):
            return self._diverged()
        dr = self.dr
        model = self.model
        if not st.time < self._next_push - 1e-9:
            # a horizontal velocity impulse each push interval
            st.vx += float(self.rng.uniform(-self.cfg.push_vel_max, self.cfg.push_vel_max))
            self._next_push += self.cfg.push_interval_s

        self._action_queue.append(action.copy())
        applied = self._action_queue[0]

        substeps = self.cfg.substeps
        dt_sub = self.cfg.dt / substeps
        qd_before = st.joint_vel.copy()
        torque_acc = np.zeros(N_JOINTS)
        target = action_targets(model, applied)
        # no check per substep: a state that turns non-finite inside the loop
        # either makes the physics raise (int(nan) in a cell lookup,
        # math.cos(inf)) or is caught by the check after the loop
        try:
            for _ in range(substeps):
                tau = pd_torques(model, st, target, dr.kp_scale, dr.kd_scale, dr.motor_strength)
                substep(
                    model, st, tau, self.terrain, dt_sub, dr.friction, dr.restitution,
                    self._ep_dr_mass, dr.com_shift, dr.link_mass_scale,
                )
                torque_acc += tau
        except (ArithmeticError, ValueError):
            if _state_is_finite(st):
                raise
            return self._diverged()
        if not _state_is_finite(st):
            return self._diverged()
        st.joint_torque = torque_acc / substeps
        st.joint_acc = (st.joint_vel - qd_before) / self.cfg.dt

        knee_l, knee_r = st.knee_heights.tolist()
        st.n_collisions = (knee_l < 0.0) + (knee_r < 0.0)
        self.prev2_action = self.prev_action
        self.prev_action = self.last_action
        self.last_action = action.copy()

        termination = self._check_termination()
        self._done = termination != "none"

        hist, d_o = self._hist, self.dims["d_o"]
        hist[:-d_o] = hist[d_o:]
        hist[-d_o:] = build_o_t(st, self.commands, self.last_action, out=self._o_t)
        self._scans.append(self._scan())
        self.bundle = bundle = self._assemble()
        self._distance = distance = self.state.x - self.cfg.spawn_x
        return StepResult(bundle=bundle, termination=termination, distance=distance)

    def set_gait(self, gait: np.ndarray) -> None:
        """Hold ``gait`` from now on, and show it in the current observation."""
        self.commands.gait = gait
        self.bundle = self.bundle.with_gait(gait)

    def _diverged(self) -> StepResult:
        """End the episode on a non-finite state.

        The state is left as it is; the result carries the last finite
        observation and the distance reported before this step.
        """
        self._done = True
        return StepResult(bundle=self.bundle, termination="diverged", distance=self._distance)

    # -- sensing ------------------------------------------------------------

    def _scan(self) -> np.ndarray:
        if self.cfg.blind:
            return np.zeros(self.cfg.scan_points)
        return sample_height_scan(
            self.terrain,
            self.state.x,
            self.state.z,
            self.layout.scan_offsets,
            noise_sigma=self.dr.scan_noise,
            bias=self._scan_bias,
            clip=self.cfg.scan_clip,
            rng=self.rng,
        )

    def _assemble(self) -> ObservationBundle:
        """The observation row of the raw quantities, ``o_t`` already in place."""
        raw, sl, st = self._raw, self.slices, self.state
        # the sensor delay d: the queue holds S_{t-1-d} .. S_t
        np.concatenate([self._scans[0], self._scans[1]], out=raw[sl["scans"]])
        np.subtract(self.terrain.heights_at(st.x + self.layout.elev_offsets), st.z, out=raw[sl["m"]])
        (lx, lz), (rx, rz) = st.foot_pos.tolist()
        # [feet relative to the base, contacts, true velocity]; the DR draw follows
        raw[sl["e"].start : sl["e"].start + N_EXTRAS] = [
            lx - st.x, lz - st.z, rx - st.x, rz - st.z, *st.contact.tolist(), st.vx, st.vz
        ]
        raw[sl["gait"]] = self.commands.gait
        row = np.subtract(raw, self.layout.shift)
        row *= self.layout.scale
        return ObservationBundle(row.astype(ROW_DTYPE), sl)

    # -- termination ---------------------------------------------------------

    def _check_termination(self) -> str:
        st = self.state
        terrain = self.terrain
        if st.time >= self.cfg.max_episode_s - 1e-9:
            return "timeout"
        if st.x < 0.05:
            return "out_of_bounds"
        base_clearance = st.z - terrain.surface_at(st.x)
        if base_clearance < self.cfg.min_base_height or abs(st.pitch) > self.cfg.max_pitch:
            return "fall"
        for fx, fz in st.foot_pos.tolist():
            if terrain.is_void(fx) and fz < terrain.surface_at(fx) - 0.05:
                return "fall"
        if not terrain.is_void(st.x) and st.z - self.model.base_half_height < terrain.height_at(st.x):
            return "collision"
        return "none"
