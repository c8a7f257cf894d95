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

    # the gains: stride frequency (Hz), hip and knee amplitudes (rad), pitch
    # and speed feedback, and the target speed (m/s)
    FREQ, HIP_AMP, KNEE_AMP = 1.7, 0.45, 1.0
    K_PITCH, K_VEL, V_TARGET = 1.2, 0.4, 0.6

    def __init__(self, model: BipedModel | None = None):
        self.model = model or BipedModel()
        self.nominal = self.model.nominal()

    def act(self, bundle, state) -> np.ndarray:
        st = state
        phi = 2.0 * math.pi * self.FREQ * st.time
        v_tgt = min(self.V_TARGET, 0.2 + 0.3 * st.time)  # ramp in from standstill
        corr = min(max(self.K_VEL * (st.vx - v_tgt), -0.25), 0.25) - self.K_PITCH * st.pitch
        tgt = self.nominal.copy()
        for side, ph in ((0, 0.0), (1, math.pi)):
            s = math.sin(phi + ph)
            lift = max(0.0, math.sin(phi + ph + 0.4)) ** 2
            swing = lift > 0.05
            tgt[3 * side + 0] = self.nominal[0] + self.HIP_AMP * s + (
                corr if swing else -0.3 * self.K_PITCH * st.pitch
            )
            tgt[3 * side + 1] = self.nominal[1] - self.KNEE_AMP * lift
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
