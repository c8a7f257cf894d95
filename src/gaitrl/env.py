"""Terrain-traversal environment for the planar biped.

Owns an episode: spawn, PD actuation with domain-randomized dynamics,
height-scan exteroception, privileged sensing for the critic, periodic
pushes, and termination.  Reward evaluation lives in :mod:`gaitrl.rewards`;
the env fills everything rewards need into the state it exposes.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .biped import (
    N_JOINTS,
    BipedModel,
    BipedState,
    action_targets,
    leg_points,
    pd_torques,
    substep,
)
from .terrain import Heightfield

OBS_LAYOUT_VERSION = 1

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

    def scan_delay_steps(self, dt: float) -> int:
        # sub-control-step sensor latency rounds to a 0-or-1-step delay
        return int(round(self.scan_delay_ms / DR_RANGES["scan_delay_ms"][1]))

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, f) for f in DR_FIELDS], dtype=np.float64)

    @classmethod
    def identity(cls) -> "DRConfig":
        return cls()


def sample_dr(rng: np.random.Generator, enabled: bool = True) -> DRConfig:
    """Uniform draw of every dynamic parameter inside its table range."""
    if not enabled:
        return DRConfig.identity()
    vals = {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in DR_RANGES.items()}
    return DRConfig(**vals)


@dataclass
class CommandState:
    v_cmd: float = 0.0  # forward linear velocity command (m/s)
    w_cmd: float = 0.0  # yaw-rate command on the yaw proxy (rad/s)
    gait: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.gait = np.asarray(self.gait, dtype=np.float64)

    def gait_id(self) -> int:
        return int(np.argmax(self.gait)) if self.gait.any() else -1

    def copy(self) -> "CommandState":
        return CommandState(self.v_cmd, self.w_cmd, self.gait.copy())


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

    def scan_offsets(self) -> np.ndarray:
        return np.linspace(0.0, self.scan_lookahead, self.scan_points)

    def elev_offsets(self) -> np.ndarray:
        return np.linspace(-self.elev_halfwidth, self.elev_halfwidth, self.elev_points)


def obs_dims(cfg: EnvConfig) -> dict:
    """Dimension bookkeeping for the fixed, versioned observation layout."""
    d_o = 2 + 2 + 2 + 3 * N_JOINTS  # [omega, gravity, velocity cmd, q, qd, last action]
    d_hist = cfg.history_len * d_o
    d_scan = 2 * cfg.scan_points
    d_m = cfg.elev_points
    d_e = 2 * 2 + 2 + 2 + len(DR_FIELDS) + d_o + d_hist  # feet, contacts, true vel, dr, o, hist
    return {
        "layout_version": OBS_LAYOUT_VERSION,
        "d_o": d_o,
        "d_hist": d_hist,
        "d_scan": d_scan,
        "d_m": d_m,
        "d_e": d_e,
    }


@dataclass
class ObservationBundle:
    o: np.ndarray  # [d_o]
    hist: np.ndarray  # [H * d_o], oldest first
    scans: np.ndarray  # [2 * K], previous scan then current
    m: np.ndarray  # [M] privileged elevation, critic only
    e: np.ndarray  # [d_e] privileged extras, critic only

    def copy(self) -> "ObservationBundle":
        return ObservationBundle(
            self.o.copy(), self.hist.copy(), self.scans.copy(), self.m.copy(), self.e.copy()
        )


@dataclass
class StepResult:
    bundle: ObservationBundle
    termination: str = "none"
    rewards: object = None  # RewardBreakdown, filled by the caller
    distance: float = 0.0
    terrain_level: float = 0.0

    @property
    def done(self) -> bool:
        return self.termination != "none"


@dataclass
class PushSchedule:
    interval_s: float = 8.0
    vel_max: float = 0.5
    next_time: float = 8.0


def apply_push(state: BipedState, schedule: PushSchedule, rng: np.random.Generator) -> float:
    """Horizontal velocity impulse whenever episode time reaches the schedule."""
    if state.time < schedule.next_time - 1e-9:
        return 0.0
    impulse = float(rng.uniform(-schedule.vel_max, schedule.vel_max))
    state.vx += impulse
    schedule.next_time += schedule.interval_s
    return impulse


def build_o_t(
    state: BipedState,
    commands: CommandState,
    last_action: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Proprioceptive observation in the fixed layout [w, g, c_v, q, qd, a_prev].

    Written into ``out`` when given (one assignment), else into a new vector.
    """
    if out is None:
        out = np.empty(2 + 2 + 2 + 3 * N_JOINTS)
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


class TerrainEnv:
    """Single biped on a single heightfield; episodes run at the control rate."""

    def __init__(self, model: BipedModel | None = None, cfg: EnvConfig | None = None, seed: int = 0):
        self.model = model or BipedModel()
        self.cfg = cfg or EnvConfig()
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.dims = obs_dims(self.cfg)
        self._o_t = np.empty(self.dims["d_o"])
        self._scan_offsets = self.cfg.scan_offsets()
        self._elev_offsets = self.cfg.elev_offsets()
        self.terrain: Heightfield | None = None
        self.dr = DRConfig.identity()
        self.commands = CommandState(gait=np.zeros(self.cfg.n_gaits))
        self.state = BipedState()
        self.spawn_x = self.cfg.spawn_x
        self._history: deque = deque(maxlen=self.cfg.history_len)
        self._scans: deque = deque(maxlen=4)
        self._action_queue: deque = deque(maxlen=3)
        self.last_action = np.zeros(N_JOINTS)
        self.prev_action = np.zeros(N_JOINTS)
        self.push = PushSchedule()
        self.step_count = 0
        self._done = True

    # -- episode control ----------------------------------------------------

    def reset(
        self,
        terrain: Heightfield,
        dr: DRConfig | None = None,
        commands: CommandState | None = None,
        seed: int | None = None,
    ) -> ObservationBundle:
        if seed is not None:
            self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.terrain = terrain
        self.dr = dr or DRConfig.identity()
        # the DR draw is fixed for the episode; the critic sees it every step
        self._dr_vec = self.dr.as_vector()
        if commands is not None:
            self.commands = commands.copy()
        else:
            self.commands = CommandState(gait=np.zeros(self.cfg.n_gaits))

        q0 = np.clip(
            self.dr.init_joint_scale * self.model.nominal(),
            self.model.lower(),
            self.model.upper(),
        )
        st = BipedState(joint_pos=q0.copy())
        st.x = self.spawn_x
        # drop the base until the lowest foot touches the local ground
        base_z = -np.inf
        for side in (0, 1):
            _, _, (fx_off, fz_off) = leg_points(self.model, 0.0, 0.0, 0.0, q0[3 * side : 3 * side + 3])
            gx = st.x + fx_off
            if terrain.is_void(gx):
                raise ValueError("spawn places a foot over a void cell")
            base_z = max(base_z, terrain.height_at(gx) - fz_off)
        st.z = float(base_z)
        self.state = st
        self._ep_dr_mass = (self.model.base_mass + self.dr.payload) * self.dr.link_mass_scale
        self._scan_bias = self.dr.scan_bias * (1.0 if self.rng.random() < 0.5 else -1.0)
        self._scan_delay = self.dr.scan_delay_steps(self.cfg.dt)
        self._action_delay = self.dr.action_delay_steps(self.cfg.dt)

        self.last_action = np.zeros(N_JOINTS)
        self.prev_action = np.zeros(N_JOINTS)
        self._action_queue = deque(
            [np.zeros(N_JOINTS)] * (self._action_delay + 1), maxlen=self._action_delay + 1
        )
        self.push = PushSchedule(
            interval_s=self.cfg.push_interval_s,
            vel_max=self.cfg.push_vel_max,
            next_time=self.cfg.push_interval_s,
        )
        self.step_count = 0
        self._done = False

        self._refresh_foot_state()
        o0 = build_o_t(self.state, self.commands, self.last_action, out=self._o_t)
        self._history = deque([o0.copy() for _ in range(self.cfg.history_len)], maxlen=self.cfg.history_len)
        scan0 = self._scan()
        self._scans = deque([scan0.copy() for _ in range(4)], maxlen=4)
        self._bundle = self._assemble(o0)
        self._distance = self.state.x - self.spawn_x
        return self._bundle

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
        apply_push(st, self.push, self.rng)

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
                tau = pd_torques(
                    model, st, applied, dr.kp_scale, dr.kd_scale, dr.motor_strength, target=target
                )
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
        self.prev_action = self.last_action
        self.last_action = action.copy()
        self.step_count += 1

        termination = self._check_termination()
        self._done = termination != "none"

        o_t = build_o_t(st, self.commands, self.last_action, out=self._o_t)
        self._history.append(o_t.copy())
        self._scans.append(self._scan())
        self._bundle = bundle = self._assemble(o_t)
        self._distance = distance = self.state.x - self.spawn_x
        return StepResult(
            bundle=bundle,
            termination=termination,
            distance=distance,
            terrain_level=self.terrain.difficulty,
        )

    def _diverged(self) -> StepResult:
        """End the episode on a non-finite state.

        The state is left as it is; the result carries the last finite
        observation and the distance reported before this step.
        """
        self._done = True
        return StepResult(
            bundle=self._bundle.copy(),
            termination="diverged",
            distance=self._distance,
            terrain_level=self.terrain.difficulty,
        )

    # -- sensing ------------------------------------------------------------

    def _scan(self) -> np.ndarray:
        if self.cfg.blind:
            return np.zeros(self.cfg.scan_points)
        return sample_height_scan(
            self.terrain,
            self.state.x,
            self.state.z,
            self._scan_offsets,
            noise_sigma=self.dr.scan_noise,
            bias=self._scan_bias,
            clip=self.cfg.scan_clip,
            rng=self.rng,
        )

    def _elevation_map(self) -> np.ndarray:
        return self.terrain.heights_at(self.state.x + self._elev_offsets) - self.state.z

    def _assemble(self, o_t: np.ndarray) -> ObservationBundle:
        # scans delivered with the per-episode sensor delay: (S_{t-1-d}, S_{t-d})
        d = self._scan_delay
        cur = self._scans[-1 - d]
        prev = self._scans[-2 - d] if len(self._scans) >= 2 + d else cur
        scans = np.concatenate([prev, cur])
        hist = np.concatenate(self._history)
        m = self._elevation_map()
        st = self.state
        (lx, lz), (rx, rz) = st.foot_pos.tolist()
        left, right = st.contact.tolist()
        # [feet relative to the base, contacts, true velocity], DR, o_t, history
        e = np.concatenate(
            [
                [lx - st.x, lz - st.z, rx - st.x, rz - st.z,
                 float(left), float(right), st.vx, st.vz],
                self._dr_vec,
                o_t,
                hist,
            ]
        )
        return ObservationBundle(o=o_t.copy(), hist=hist, scans=scans, m=m, e=e)

    def _refresh_foot_state(self) -> None:
        st = self.state
        for side in (0, 1):
            q = st.joint_pos[3 * side : 3 * side + 3]
            (kx, kz), _, (fx, fz) = leg_points(self.model, st.x, st.z, st.pitch, q)
            st.foot_pos[side] = (fx, fz)
            st.knee_heights[side] = kz - self.terrain.height_at(kx)

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
