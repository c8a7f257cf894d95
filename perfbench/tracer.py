"""Span tracer that times gaitrl's layers from outside the package.

The package imports its functions by name (``from .biped import substep``),
so a function is looked up in the *calling* module, not where it is
defined.  The tracer therefore resolves every target to its function
object once and wraps each module-level name that is bound to that object
(``gaitrl.env.substep``, ``gaitrl.trainer.style_reward``, ...), plus the
class attribute for methods.  Spans are kept in memory, each with the
index of its parent span, and aggregated into per-function call counts
and self time (duration minus the time covered by traced child spans).
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from functools import wraps
from time import perf_counter

import numpy as np

# (defining module, qualified name); metric names drop the "gaitrl." prefix,
# so the first component of every metric is its layer.
TARGETS = (
    ("gaitrl.biped", "substep"),
    ("gaitrl.biped", "pd_torques"),
    ("gaitrl.env", "TerrainEnv.step"),
    ("gaitrl.env", "TerrainEnv.reset"),
    ("gaitrl.env", "sample_dr"),
    ("gaitrl.terrain", "generate_terrain"),
    ("gaitrl.terrain", "build_benchmark_track"),
    ("gaitrl.rewards", "locomotion_rewards"),
    ("gaitrl.rewards", "gait_rewards"),
    ("gaitrl.rewards", "total_reward"),
    ("gaitrl.policy", "ActorCritic.actor_mean"),
    ("gaitrl.policy", "ActorCritic.critic_value"),
    ("gaitrl.policy", "ActorCritic.actor_backward"),
    ("gaitrl.policy", "BundleBatch.stack"),
    ("gaitrl.policy", "ActorCritic.act"),
    ("gaitrl.amp", "style_reward"),
    ("gaitrl.amp", "WindowBuffer.add"),
    ("gaitrl.amp", "amp_update"),
    ("gaitrl.ppo", "ppo_update"),
    ("gaitrl.ppo", "ppo_loss_and_grads"),
    ("gaitrl.ppo", "compute_gae"),
    ("gaitrl.ppo", "RolloutBuffer.add_step"),
    ("gaitrl.nets", "adam_step"),
    ("gaitrl.nets", "clip_grad_norm"),
    ("gaitrl.trainer", "Trainer.collect_rollout"),
    ("gaitrl.trainer", "EnvWorker.begin_episode"),
    ("gaitrl.bench", "run_trial"),
)

NAMES = tuple(f"{mod.removeprefix('gaitrl.')}.{qual}" for mod, qual in TARGETS)


def _package_modules() -> list:
    importlib.import_module("gaitrl.trainer")
    importlib.import_module("gaitrl.bench")
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gaitrl" or name.startswith("gaitrl."))]


class Tracer:
    """Records one span per call of each target while installed."""

    def __init__(self):
        self.names = NAMES
        self.fids: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        modules = _package_modules()
        for fid, (mod, qual) in enumerate(TARGETS):
            owner = importlib.import_module(mod)
            *outer, attr = qual.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if outer:  # a method: patch the class attribute it is looked up on
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, fid))
                else:
                    wrapped = self._wrap(raw, fid)
                self._patches.append((owner, attr, raw, wrapped))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, fid)
            bound = [(m, name) for m in modules for name, v in vars(m).items() if v is fn]
            if not bound:
                raise LookupError(f"{mod}.{qual} is bound to no module name")
            self._patches.extend((m, name, fn, wrapped) for m, name in bound)

    def _wrap(self, fn, fid: int):
        fids, parents, starts, ends, stack = (
            self.fids, self.parents, self.starts, self.ends, self._stack
        )

        @wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def active(self):
        """Install every wrapper for the duration of the block."""
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def bindings(self) -> list[str]:
        """Every ``module.name`` (or ``Class.attr``) the tracer patches."""
        def owner_name(o):
            return f"{o.__module__}.{o.__qualname__}" if isinstance(o, type) else o.__name__

        return sorted(f"{owner_name(o)}.{a}" for o, a, _, _ in self._patches)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fid": np.asarray(self.fids, dtype=np.int32),
            "parent": np.asarray(self.parents, dtype=np.int64),
            "start": np.asarray(self.starts),
            "end": np.asarray(self.ends),
        }

    def summary(self) -> dict:
        """Per-target calls and total self seconds, plus the root-covered time."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered_by_children = np.bincount(
            a["parent"][child], weights=dur[child], minlength=len(dur)
        )
        self_s = dur - covered_by_children
        n = len(self.names)
        calls = np.bincount(a["fid"], minlength=n)
        self_sum = np.bincount(a["fid"], weights=self_s, minlength=n)
        return {
            "calls": {name: int(calls[i]) for i, name in enumerate(self.names)},
            "self_s": {name: float(self_sum[i]) for i, name in enumerate(self.names)},
            "covered_s": float(dur[~child].sum()),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())
