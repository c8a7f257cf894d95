"""The dtype rule of ``gaitrl.nets``, over whole training iterations.

A default stage-2 run trains float32 nets: every parameter, tape, gradient
and Adam moment of the policy's nets and of the discriminators is float32,
so a silent upcast anywhere on the rollout or the update fails here.  A run
resumed from a checkpoint of float64 nets stays float64 end to end.  Either
way the env's rows and the buffer's observation arrays are float32, and the
policy's ``log_std`` (with its Adam moments), the log-probabilities, values,
returns and advantages are float64.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import gaitrl.amp
import gaitrl.policy
import gaitrl.ppo
from gaitrl.amp import make_discriminators
from gaitrl.biped import N_JOINTS
from gaitrl.config import RunConfig, config_hash
from gaitrl.nets import AdamState
from gaitrl.policy import ActorCritic
from gaitrl.ppo import RolloutBuffer, make_optimizers
from gaitrl.refmotion import WINDOW_LEN
from gaitrl.trainer import Checkpoint, Trainer

# the network calls of a training iteration, at the names their callers look up
TRACED = {
    gaitrl.policy: ("net_forward", "net_backward"),
    gaitrl.ppo: ("net_backward", "adam_step"),
    gaitrl.amp: ("net_forward", "net_backward", "net_directional_param_grads", "adam_step"),
}


def small_default_cfg() -> RunConfig:
    """The default nets and discriminators, on a short one-stage rollout."""
    cfg = RunConfig()
    cfg.mode.one_stage = True
    cfg.ppo.n_envs = 4
    cfg.ppo.horizon = 16
    cfg.ppo.minibatch = 32
    cfg.ppo.epochs = 1
    cfg.env.max_episode_s = 0.2
    cfg.amp.batch_size = 16
    return cfg


def float64_checkpoint(cfg: RunConfig) -> Checkpoint:
    """A fresh stage-2 run's state with float64 nets and discriminators."""
    policy = ActorCritic(cfg.model, cfg.env, cfg.arch, replace(cfg.mode, stage=2), seed=0,
                         dtype=np.float64)
    discs = make_discriminators(cfg.env.n_gaits, WINDOW_LEN * N_JOINTS, np.random.default_rng(0),
                                hidden=cfg.amp.disc_hidden, alpha_gp=cfg.amp.alpha_gp,
                                dtype=np.float64)
    return Checkpoint(
        stage=2, iteration=0, config_hash=config_hash(cfg), config=cfg, policy=policy.state(),
        optimizers=make_optimizers(policy, cfg.ppo), discriminators=discs,
        disc_optimizers=[AdamState(n.params(), lr=cfg.amp.disc_lr) for n in discs.nets],
    )


def record_network_arrays(monkeypatch) -> list:
    """Wrap each traced call; the returned list fills with ``(call, array)``
    for every array a call takes or leaves: a forward pass's output and tape,
    a backward pass's gradients, an Adam step's parameters, gradients and
    moments (keyed by the first parameter, so ``log_std``'s can be told)."""
    seen = []

    def wrap(module, name):
        fn = getattr(module, name)

        def traced(*args, **kwargs):
            out = fn(*args, **kwargs)
            key = name
            if name == "net_forward":
                y, tape = out
                arrays = [y, tape.x, *tape.post]
            elif name == "adam_step":
                params, grads, state = args
                key = (name, id(params[0]))
                arrays = [*params, *grads, *state.m, *state.v]
            else:  # a gradient list and an array, either of them None when skipped
                arrays = [a for part in out if part is not None
                          for a in (part if isinstance(part, list) else [part])]
            seen.extend((key, a) for a in arrays)
            return out

        monkeypatch.setattr(module, name, traced)

    for module, names in TRACED.items():
        for name in names:
            wrap(module, name)
    return seen


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_an_iteration_keeps_the_nets_dtype(monkeypatch, dtype):
    cfg = small_default_cfg()
    if dtype == np.float32:
        trainer = Trainer(cfg, seed=0, stage=2)  # the defaults
    else:
        trainer = Trainer(cfg, seed=0, stage=2, resume=float64_checkpoint(cfg))
    policy = trainer.policy
    seen = record_network_arrays(monkeypatch)
    stats = trainer.run(1)[0]
    assert "nan_aborted" not in stats and "disc0_loss" in stats

    calls = {name if isinstance(name, str) else name[0] for name, _ in seen}
    assert calls == {"net_forward", "net_backward", "net_directional_param_grads", "adam_step"}
    log_std = ("adam_step", id(policy.log_std))
    wrong = {(name, a.dtype) for name, a in seen
             if a.dtype != (np.float64 if name == log_std else dtype)}
    assert wrong == set()

    nets = [*policy.state().nets.__dict__.values(), *policy.residual.experts,
            policy.residual.gate, *trainer.discs.nets]
    assert {p.dtype for net in nets for p in net.params()} == {np.dtype(dtype)}
    moments = {name: {a.dtype for a in (*o.m, *o.v)} for name, o in trainer.opts.items()}
    assert moments.pop("log_std") == {np.dtype(np.float64)}
    assert set().union(*moments.values()) == {np.dtype(dtype)}
    assert {a.dtype for o in trainer.disc_opts for a in (*o.m, *o.v)} == {np.dtype(dtype)}
    assert policy.log_std.dtype == np.float64

    # the rows are float32 whatever the nets compute in; what GAE reads is float64
    buffer = RolloutBuffer(cfg.ppo.horizon, cfg.ppo.n_envs, policy.dims, N_JOINTS)
    trainer.collect_rollout(buffer)
    assert trainer.workers[0].env.bundle.row.dtype == np.float32
    assert {a.dtype for a in (buffer.o, buffer.scan, buffer.m, buffer.e, buffer.gait,
                              buffer.batch(np.arange(8)).rows)} == {np.dtype(np.float32)}
    assert {a.dtype for a in (buffer.actions, buffer.log_probs, buffer.values,
                              buffer.rewards)} == {np.dtype(np.float64)}
