"""Command-line entry point.

Subcommands cover the full pipeline: reference-clip generation, both
training stages, the traversal benchmark, gait-modulation evaluation, and
residual-latent export/analysis.  Exit codes: 0 success, 1 usage error
(bad flags, missing/invalid input files, a run that cannot start), 2
runtime failure (a run that started and failed).

A command that evaluates a checkpoint or resumes its run (``--resume``) runs
under the checkpoint's config unless ``--config`` is given, and a resume's
config must be its checkpoint's.  Evaluation takes no ``--ablation``: an
ablation changes the env or the policy's mode, which the checkpoint fixes, so
an ablation is evaluated from a checkpoint trained under it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bench import (
    BenchmarkSuite,
    PolicyController,
    analyze_latents,
    collect_latent_samples,
    run_benchmark,
    run_gait_modulation,
)
from .codec import read_json, write_json
from .config import (
    ABLATIONS,
    RunConfig,
    apply_ablation,
    config_hash,
    config_to_dict,
    load_config,
)
from .policy import ActorCritic, LatentTable, export_residual_latents
from .refmotion import GAIT_HIGH_KNEES, GAIT_NAMES, GAIT_SQUAT, gen_reference_clip
from .trainer import Checkpoint, Trainer, TrainingDiverged, load_checkpoint


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


COMMON_FLAGS = {
    "--config": {"help": "path to a JSON run config"},
    "--seed": {"type": int, "default": 0},
    "--out": {"help": "output directory"},
    "--ablation": {"choices": ABLATIONS},
}


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _common_flags(p, *flags):
    """Add the named common flags (all four when none are named)."""
    for flag in flags or COMMON_FLAGS:
        p.add_argument(flag, **COMMON_FLAGS[flag])


def build_parser() -> _Parser:
    parser = _Parser(prog="gaitrl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect-config", help="resolve, validate and print a config")
    _common_flags(p, "--config", "--ablation")

    p = sub.add_parser("gen-refs", help="generate the reference motion clips")
    _common_flags(p, "--config", "--out")

    p = sub.add_parser("train-stage1", help="train the base locomotion policy")
    _common_flags(p)
    p.add_argument("--iterations", type=positive_int, help="override ppo.iterations")
    p.add_argument("--checkpoint", help="optional stage-1 checkpoint to warm-start from")
    p.add_argument("--resume", help="resume a stage-1 checkpoint (optimizers + curriculum)")

    p = sub.add_parser("train-stage2", help="train the residual-expert stage")
    _common_flags(p)
    p.add_argument("--checkpoint", help="stage-1 checkpoint (omit only with --ablation more-os)")
    p.add_argument("--iterations", type=positive_int)

    p = sub.add_parser("eval-bench", help="run the traversal benchmark")
    _common_flags(p, "--config", "--seed", "--out")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--gait", type=int, help="fixed gait id for stage-2 policies")
    p.add_argument("--trials", type=positive_int, help="override bench.trials")
    p.add_argument("--method", default="policy", help="method label in the report")

    p = sub.add_parser("export-latents", help="dump residual latents from rollouts")
    _common_flags(p, "--config", "--seed", "--out")
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("analyze-latents", help="project and score an exported latent table")
    _common_flags(p, "--out")
    p.add_argument("--latents", required=True, help="latents JSON from export-latents")

    p = sub.add_parser("gait-modulation", help="achieved-vs-target gait feature table")
    _common_flags(p, "--config", "--seed", "--out")
    p.add_argument("--checkpoint", action="append", required=True,
                   help="stage-2 checkpoint; repeat for several targets")
    p.add_argument("--attribute", choices=("squat_height", "knee_lift"), default="squat_height")
    p.add_argument("--rollouts", type=positive_int, default=10)
    return parser


def _load_run_config(args, ckpt: Checkpoint | None = None) -> RunConfig:
    """``--config``, or else ``ckpt``'s config or the default; ``--ablation`` applied."""
    if args.config:
        if not os.path.exists(args.config):
            raise UsageError(f"config file not found: {args.config}")
        try:
            cfg = load_config(args.config)
        except ValueError as e:
            raise UsageError(f"invalid config {args.config}: {e}")
    else:
        cfg = ckpt.config if ckpt is not None else RunConfig()
    return apply_ablation(cfg, getattr(args, "ablation", None))


def _load_ckpt(path: str, stage: int | None = None) -> Checkpoint:
    """The checkpoint at ``path``; at ``stage``, when the command needs one."""
    if not os.path.exists(path):
        raise UsageError(f"checkpoint not found: {path}")
    try:
        ckpt = load_checkpoint(path)
    except ValueError as e:
        raise UsageError(f"invalid checkpoint {path}: {e}")
    if stage is not None and ckpt.stage != stage:
        raise UsageError(
            f"{path} is a stage-{ckpt.stage} checkpoint; this command needs a stage-{stage} one"
        )
    return ckpt


def _eval_policy(args, path: str, stage: int | None = None) -> tuple[Checkpoint, RunConfig, ActorCritic]:
    """The checkpoint at ``path``, the config its evaluation runs under and its
    policy.  A ``--config`` must have the checkpoint's ``model`` and ``env``
    sections, which the policy and the env are built from, and a policy whose
    nets do not read that env's observation widths is an invalid checkpoint."""
    ckpt = _load_ckpt(path, stage)
    cfg = _load_run_config(args, ckpt)
    if args.config:
        mine, theirs = config_to_dict(cfg), config_to_dict(ckpt.config)
        for section in ("model", "env"):
            if mine[section] != theirs[section]:
                raise UsageError(f"--config: its {section} section differs from the checkpoint's")
    try:
        return ckpt, cfg, ActorCritic.from_state(ckpt.policy, cfg.model, cfg.env)
    except ValueError as e:
        raise UsageError(f"invalid checkpoint {path}: {e}")


def _need_out(args) -> str:
    if not args.out:
        raise UsageError("this command needs --out")
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_inspect_config(args) -> int:
    cfg = _load_run_config(args)
    print(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True))
    print(f"config_hash: {config_hash(cfg)}")
    return 0


def cmd_gen_refs(args) -> int:
    cfg = _load_run_config(args)
    out = _need_out(args)
    for name in ("walk", "run", "high_knees", "squat"):
        clip = gen_reference_clip(name, cfg.gaits.clip_params, cfg.gaits.clip_seed, cfg.model)
        path = os.path.join(out, f"clip_{name}.json")
        write_json(path, clip)
        print(f"{name}: gait_id={clip.gait_id} frames={len(clip.frames)} "
              f"duration={clip.duration:.2f}s -> {path}")
    return 0


def _train(args, stage: int) -> int:
    """A training command.  ``Trainer`` decides what the run may start from
    (``--checkpoint``, a stage-1 checkpoint, or ``--resume``); a run it
    refuses to set up is a usage error, a failure once it runs is not.  A
    resume without ``--config`` runs under the checkpoint's config."""
    resume = _load_ckpt(args.resume) if getattr(args, "resume", None) else None
    cfg = _load_run_config(args, resume)
    out = _need_out(args)
    warm = _load_ckpt(args.checkpoint) if args.checkpoint else None
    try:
        trainer = Trainer(cfg, args.seed, stage=stage, out_dir=out,
                          stage1_checkpoint=warm, resume=resume)
    except ValueError as e:
        raise UsageError(str(e)) from e
    last = trainer.run(args.iterations)[-1]
    what, key = ("tracking", "mean_track") if stage == 1 else ("style", "mean_style")
    print(f"stage {stage} done: {last['iteration']} iterations, "
          f"mean {what} reward {last[key]:.3f}")
    print(f"checkpoint: {os.path.join(out, 'checkpoint_final.json')}")
    return 0


def cmd_train_stage1(args) -> int:
    return _train(args, stage=1)


def cmd_train_stage2(args) -> int:
    return _train(args, stage=2)


def cmd_eval_bench(args) -> int:
    out = _need_out(args)
    _, cfg, policy = _eval_policy(args, args.checkpoint)
    gait_id = args.gait
    n_gaits = policy.dims["d_gait"]
    if gait_id is not None and not 0 <= gait_id < n_gaits:
        raise UsageError(f"--gait must be in [0, {n_gaits}), got {gait_id}")
    if gait_id is None and policy.mode.stage >= 2:
        gait_id = 0
    suite = BenchmarkSuite(
        trials=args.trials or cfg.bench.trials,
        seed_base=args.seed,
        timeout_s=cfg.bench.timeout_s,
        goal_m=cfg.bench.goal_m,
    )
    controller = PolicyController(policy, gait_id=gait_id)
    report = run_benchmark(
        controller, cfg, suite, method=args.method, gait_id=gait_id, out_dir=out
    )
    print(report.text_table())
    return 0


def cmd_export_latents(args) -> int:
    out = _need_out(args)
    _, cfg, policy = _eval_policy(args, args.checkpoint, stage=2)
    samples = collect_latent_samples(policy, cfg, seed=args.seed)
    table = export_residual_latents(policy, samples)
    path = os.path.join(out, "latents.json")
    write_json(path, table)
    print(f"exported {len(table.gait_labels)} latent rows -> {path}")
    return 0


def cmd_analyze_latents(args) -> int:
    if not os.path.exists(args.latents):
        raise UsageError(f"latents file not found: {args.latents}")
    try:
        table = read_json(LatentTable, args.latents)
    except ValueError as e:
        raise UsageError(f"invalid latents {args.latents}: {e}")
    report = analyze_latents(table)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_json(os.path.join(args.out, "latent_report.json"), report)
    if report.degenerate:
        print("latents degenerate (all identical); silhouette undefined")
    else:
        print(f"samples: {report.n_samples}  silhouette over gaits: {report.silhouette:.3f}")
    for g, w in report.gate_usage.items():
        label = GAIT_NAMES[int(g)] if int(g) < len(GAIT_NAMES) else g
        print(f"  gait {label}: mean gate weights {np.round(w, 3).tolist()}")
    return 0


def cmd_gait_modulation(args) -> int:
    entries = []
    for path in args.checkpoint:
        ckpt, cfg, policy = _eval_policy(args, path, stage=2)
        # the target column is what each checkpoint was trained for
        cfg.rewards = ckpt.config.rewards
        entries.append((policy, cfg, os.path.basename(path)))
    gait_id = GAIT_SQUAT if args.attribute == "squat_height" else GAIT_HIGH_KNEES
    rows = run_gait_modulation(
        entries, gait_id, args.attribute, n_rollouts=args.rollouts, seed=args.seed
    )
    print(f"{'label':<28}{'target':>8}{'achieved':>20}")
    for r in rows:
        print(f"{r['label']:<28}{r['target']:>8.3f}"
              f"{r['achieved_mean']:>12.3f} +/- {r['achieved_std']:.3f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "gait_modulation.json"), "w") as f:
            json.dump({"format_version": 1, "rows": rows}, f, sort_keys=True)
    return 0


HANDLERS = {
    "inspect-config": cmd_inspect_config,
    "gen-refs": cmd_gen_refs,
    "train-stage1": cmd_train_stage1,
    "train-stage2": cmd_train_stage2,
    "eval-bench": cmd_eval_bench,
    "export-latents": cmd_export_latents,
    "analyze-latents": cmd_analyze_latents,
    "gait-modulation": cmd_gait_modulation,
}


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return HANDLERS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except TrainingDiverged as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
