"""The benchmark's workloads and the closed loop that times them.

Each workload drives gaitrl's public API in this process: ``make(seed)``
is the set-up and returns what it built, ``build(seed)`` keeps one such
set-up, ``warm_up()`` yields the operations run before timing starts, and
``op(pause)`` runs one timed operation and checks its output, calling
``pause`` after each timed sample, outside its time.  The seed is the only
input: it becomes the ``Trainer`` seed or the suite's ``seed_base``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import tempfile
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import gaitrl.bench as bench
from gaitrl.bench import BenchmarkSuite, PolicyController, recompute_cell_from_trace, run_benchmark
from gaitrl.config import RunConfig, config_from_dict, config_to_dict
from gaitrl.policy import ActorCritic, PolicyMode
from gaitrl.trainer import Trainer

# eval-bench: the policy's weights are fixed; only the tracks follow the seed
EVAL_POLICY_SEED = 0
EVAL_GAIT_ID = 0
SEED_BASE_STRIDE = 1000  # seed_base = seed * stride, so rounds never share tracks
MAX_WARMUP_ITERATIONS = 40
SETUPS = 5  # set-ups timed before the warm-up; the last build is kept
# after each timed sample, set-ups and calibration loops are timed for these
# shares of the sample's time
SETUP_SHARE = 0.03
CALIBRATION_SHARE = 0.1


@dataclass
class Outcome:
    """One operation: a training iteration, or an eval-bench round of trials."""

    samples: list  # seconds per iteration, or per trial of the round
    wall: float  # seconds spent in the program, without the output check
    steps: list  # control steps completed in each sample
    attempted: int
    failed: int
    record: str  # canonical output text, fed to the run's digest
    episodes_finished: int = 0
    trace_bytes: int = 0


def _copy(cfg: RunConfig) -> RunConfig:
    return config_from_dict(config_to_dict(cfg))


def _finite(entry: dict) -> bool:
    return all(
        math.isfinite(v) for v in entry.values() if isinstance(v, (int, float))
    )


def _no_pause(seconds: float) -> None:
    pass


def _failed(exc: Exception, samples: list, wall: float, attempted: int = 1) -> Outcome:
    traceback.print_exception(exc)
    return Outcome(
        samples, wall, [0] * len(samples), attempted, attempted,
        f"error {type(exc).__name__}: {exc}\n",
    )


class TrainWorkload:
    """One stage-``stage`` training iteration per operation, 64 envs x 64 steps at the defaults."""

    op_metric = "iter_s"
    op_unit = "iterations"
    min_ops = 4

    def __init__(self, stage: int, cfg: RunConfig | None = None):
        self.stage = stage
        self.name = f"train-s{stage}"
        self.base_cfg = cfg if cfg is not None else RunConfig()
        self.trainers_per_build = 2 if stage == 2 else 1

    def make(self, seed: int) -> tuple[RunConfig, Trainer]:
        cfg = _copy(self.base_cfg)
        stage1 = None
        if self.stage == 2:
            # the stage-1 policy stage 2 starts from, built fresh in memory
            stage1 = {"policy": Trainer(cfg, seed, stage=1).policy.to_dict()}
        return cfg, Trainer(cfg, seed, stage=self.stage, stage1_checkpoint=stage1)

    def build(self, seed: int) -> None:
        self.cfg, self.trainer = self.make(seed)

    def buffers_full(self) -> bool:
        windows = self.trainer.policy_windows
        return all(
            windows.size(g) >= self.cfg.amp.buffer_size for g in range(self.cfg.env.n_gaits)
        )

    def warm_up(self):
        """Stage 1 skips one iteration.  Stage 2 runs until every gait's window
        buffer is full, because ``WindowBuffer.add`` copies the whole buffer and
        costs more per call until it is."""
        yield self.op()
        if self.stage < 2:
            return
        for _ in range(MAX_WARMUP_ITERATIONS):
            if self.buffers_full():
                return
            yield self.op()
        raise RuntimeError(f"window buffers not full after {MAX_WARMUP_ITERATIONS} iterations")

    def op(self, pause=_no_pause) -> Outcome:
        started = perf_counter()
        try:
            entry = self.trainer.run(1)[0]
        except Exception as exc:  # a failed iteration is counted, not fatal
            elapsed = perf_counter() - started
            return _failed(exc, [elapsed], elapsed)
        elapsed = perf_counter() - started
        pause(elapsed)
        ok = not entry.get("nan_aborted") and _finite(entry)
        ppo = self.cfg.ppo
        return Outcome(
            [elapsed], elapsed, [ppo.n_envs * ppo.horizon], 1, int(not ok),
            # the line Trainer.run appends to metrics.jsonl
            json.dumps(entry, sort_keys=True) + "\n",
            episodes_finished=int(entry.get("episodes_finished", 0)),
        )


class EvalWorkload:
    """``run_benchmark`` over the six obstacle cells, one trial per cell per operation."""

    name = "eval-bench"
    op_metric = "trial_s"
    op_unit = "trials"
    min_ops = 2

    def __init__(self, out_root: str, cfg: RunConfig | None = None):
        self.out_root = out_root
        self.base_cfg = cfg if cfg is not None else RunConfig()

    def make(self, seed: int) -> tuple[RunConfig, PolicyController]:
        cfg = _copy(self.base_cfg)
        mode = PolicyMode(
            stage=2,
            residual_fusion=cfg.mode.residual_fusion,
            one_stage=cfg.mode.one_stage,
            n_experts=cfg.mode.n_experts,
        )
        policy = ActorCritic(cfg.model, cfg.env, cfg.arch, mode, seed=EVAL_POLICY_SEED)
        return cfg, PolicyController(policy, gait_id=EVAL_GAIT_ID)

    def build(self, seed: int) -> None:
        self.cfg, self.controller = self.make(seed)
        self.seed_base = seed * SEED_BASE_STRIDE
        self.rounds = 0

    def warm_up(self):
        return ()

    @contextlib.contextmanager
    def _timed_trials(self, pause):
        """Time each ``run_trial`` at the name ``run_benchmark`` looks it up by,
        and ``pause`` after each trial, for a time the caller takes out of the
        round's wall time."""
        inner = bench.run_trial
        times, results, pauses = [], [], []

        def timed(*args, **kwargs):
            started = perf_counter()
            try:
                out = inner(*args, **kwargs)
            finally:
                times.append(perf_counter() - started)
            results.append(out)
            paused = perf_counter()
            pause(times[-1])
            pauses.append(perf_counter() - paused)
            return out

        bench.run_trial = timed
        try:
            yield times, results, pauses
        finally:
            bench.run_trial = inner

    def op(self, pause=_no_pause) -> Outcome:
        suite = BenchmarkSuite(
            trials=1,
            seed_base=self.seed_base + self.rounds,
            timeout_s=self.cfg.bench.timeout_s,
            goal_m=self.cfg.bench.goal_m,
        )
        self.rounds += 1
        os.makedirs(self.out_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=self.out_root) as out_dir:
            with self._timed_trials(pause) as (times, results, pauses):
                started = perf_counter()
                try:
                    report = run_benchmark(
                        self.controller, self.cfg, suite, gait_id=EVAL_GAIT_ID, out_dir=out_dir
                    )
                except Exception as exc:
                    # the round's report is lost, so no trial started in it can be checked
                    return _failed(exc, times, perf_counter() - started - sum(pauses),
                                   attempted=max(len(times), 1))
                wall = perf_counter() - started - sum(pauses)
            # the output check and the byte count run after the timer stops
            failed = 0
            for c in report.cells:
                trace = os.path.join(out_dir, f"trace_policy_{c.obstacle}_{c.mode}.jsonl")
                recomputed = recompute_cell_from_trace(trace, suite.goal_m)
                if recomputed != (c.success_rate, c.mean_distance):
                    failed += c.trials
            trace_bytes = sum(
                os.path.getsize(os.path.join(out_dir, f))
                for f in os.listdir(out_dir) if f.startswith("trace_")
            )
        return Outcome(
            times, wall, [r["steps"] for r in results], len(times), failed,
            json.dumps(report.to_json_dict(), sort_keys=True) + "\n",
            trace_bytes=trace_bytes,
        )


def make_workload(name: str, out_root: str, cfg: RunConfig | None = None):
    if name == "train-s1":
        return TrainWorkload(1, cfg)
    if name == "train-s2":
        return TrainWorkload(2, cfg)
    if name == "eval-bench":
        return EvalWorkload(out_root, cfg)
    raise ValueError(f"unknown workload {name!r}")


def calibration_loop() -> float:
    """Time one fixed loop of small numpy operations and interpreted Python,
    the mix the program runs.  It uses no gaitrl code, so only the host's
    speed moves it: ``run.py`` scales the run's times by it."""
    x = np.linspace(-1.0, 1.0, 64)
    a = np.outer(x, x) / 64
    acc = 0.0
    started = perf_counter()
    for i in range(3000):
        y = np.tanh(a @ x + 0.001 * i)
        acc += float(y[i % 64])
        for j in range(20):
            acc = acc * 0.999 + j
    return perf_counter() - started


def _repeat(timed, seconds: float) -> list:
    """Call ``timed``, which returns its own time, for about ``seconds`` and
    at least once; return the times."""
    started = perf_counter()
    samples = [timed()]
    while perf_counter() - started < seconds:
        samples.append(timed())
    return samples


@dataclass
class RunResult:
    setup_s: list = field(default_factory=list)
    calibration_s: list = field(default_factory=list)
    warmup: list = field(default_factory=list)  # Outcomes
    timed: list = field(default_factory=list)  # (traced, Outcome)
    digest: str = ""
    digest_ops: int = 0

    def outcomes(self):
        yield from self.warmup
        yield from (o for _, o in self.timed)


def _time_setup(workload, seed: int, keep: bool) -> float:
    started = perf_counter()
    if keep:
        workload.build(seed)
    else:
        workload.make(seed)
    return perf_counter() - started


def run_workload(workload, seed: int, seconds: float, tracer=None) -> RunResult:
    """Set up ``SETUPS`` times (the last build is kept), warm up, then run
    operations back to back until ``seconds`` have passed and at least
    ``workload.min_ops`` have run.  With a tracer, every second operation is
    traced and the others are the untraced comparison in the same run.

    After each sample of an untraced operation, more set-ups are timed and
    discarded, and the calibration loop is timed, so that both meet the
    same states of the host as the operations do.  Traced operations take no
    such pause, because a set-up would run traced code.

    The digest covers the warm-up and the first ``min_ops`` timed operations,
    a fixed amount of work for a given seed, so reruns print the same digest.
    """
    result = RunResult()

    def pause(sample_s: float) -> None:
        result.setup_s.extend(_repeat(lambda: _time_setup(workload, seed, keep=False),
                                      SETUP_SHARE * sample_s))
        result.calibration_s.extend(_repeat(calibration_loop, CALIBRATION_SHARE * sample_s))

    for i in range(SETUPS):
        result.setup_s.append(_time_setup(workload, seed, keep=i == SETUPS - 1))
    digest = hashlib.sha256()
    for outcome in workload.warm_up():
        result.warmup.append(outcome)
        digest.update(outcome.record.encode())
    started = perf_counter()
    k = 0
    while k < workload.min_ops or perf_counter() - started < seconds:
        traced = tracer is not None and k % 2 == 1
        if traced:
            with tracer.active():
                outcome = workload.op()
        else:
            outcome = workload.op(pause)
        result.timed.append((traced, outcome))
        if k < workload.min_ops:
            digest.update(outcome.record.encode())
        k += 1
    result.digest = digest.hexdigest()
    result.digest_ops = len(result.warmup) + workload.min_ops
    return result
