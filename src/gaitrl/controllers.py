"""Benchmark controller protocol plus a scripted reference walker.

A controller is anything with ``act(bundle, state) -> action``; the
bundle carries the commands (the gait command is its ``gait`` block).
Learned policies must ignore ``state`` (it is raw simulator state, passed so
scripted test controllers can close a loop without a trained checkpoint);
the privilege-separation guarantees are asserted on the policy wrapper, not
on scripted fixtures.
"""

from __future__ import annotations

import math

import numpy as np

from .biped import BipedModel


class ScriptedWalker:
    """Hand-tuned sinusoidal gait with pitch and speed feedback.

    Walks a flat track at roughly 0.9 m/s indefinitely enough to cross the
    14 m benchmark goal; trips on real obstacles.  Used by the harness tests
    as a known-good locomotor and as the physics sanity baseline.
    """

    def __init__(
        self,
        model: BipedModel | None = None,
        freq: float = 1.7,
        hip_amp: float = 0.45,
        knee_amp: float = 1.0,
        k_pitch: float = 1.2,
        k_vel: float = 0.4,
        v_target: float = 0.6,
    ):
        self.model = model or BipedModel()
        self.nominal = self.model.nominal()
        self.freq = freq
        self.hip_amp = hip_amp
        self.knee_amp = knee_amp
        self.k_pitch = k_pitch
        self.k_vel = k_vel
        self.v_target = v_target

    def act(self, bundle, state) -> np.ndarray:
        st = state
        phi = 2.0 * math.pi * self.freq * st.time
        v_tgt = min(self.v_target, 0.2 + 0.3 * st.time)  # ramp in from standstill
        corr = min(max(self.k_vel * (st.vx - v_tgt), -0.25), 0.25) - self.k_pitch * st.pitch
        tgt = self.nominal.copy()
        for side, ph in ((0, 0.0), (1, math.pi)):
            s = math.sin(phi + ph)
            lift = max(0.0, math.sin(phi + ph + 0.4)) ** 2
            swing = lift > 0.05
            tgt[3 * side + 0] = self.nominal[0] + self.hip_amp * s + (
                corr if swing else -0.3 * self.k_pitch * st.pitch
            )
            tgt[3 * side + 1] = self.nominal[1] - self.knee_amp * lift
            # keep the foot segment level against body pitch
            tgt[3 * side + 2] = -(tgt[3 * side + 0] + tgt[3 * side + 1]) - st.pitch
        a = (tgt - self.nominal) / self.model.action_scale
        return np.clip(a, -self.model.action_bound, self.model.action_bound)


class ConstantController:
    """Emits one fixed action forever; handy for degenerate-suite tests."""

    def __init__(self, action: np.ndarray):
        self.action = np.asarray(action, dtype=np.float64)

    def act(self, bundle, state) -> np.ndarray:
        return self.action
