"""Command-line entry point.

Subcommands cover the full pipeline: reference-clip generation, both
training stages, the traversal benchmark, gait-modulation evaluation, and
residual-latent export/analysis.  Exit codes: 0 success, 1 usage error
(bad flags, missing/invalid input files), 2 runtime failure.
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
from .config import (
    RunConfig,
    apply_ablation,
    config_hash,
    config_to_dict,
    load_config,
)
from .policy import LatentTable, export_residual_latents
from .refmotion import GAIT_NAMES, gen_reference_clip
from .trainer import (
    TrainingDiverged,
    load_checkpoint,
    policy_from_checkpoint,
    train_stage1,
    train_stage2,
)

ABLATIONS = ("more2", "more3", "more4", "more-a", "more-os", "blind")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _common_flags(p):
    p.add_argument("--config", help="path to a JSON run config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory")
    p.add_argument("--ablation", choices=ABLATIONS)
    p.add_argument(
        "--deterministic",
        action="store_true",
        help="force sequential, fully reproducible execution (always on; accepted for compatibility)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="gaitrl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect-config", help="resolve, validate and print a config")
    _common_flags(p)

    p = sub.add_parser("gen-refs", help="generate the reference motion clips")
    _common_flags(p)

    p = sub.add_parser("train-stage1", help="train the base locomotion policy")
    _common_flags(p)
    p.add_argument("--iterations", type=int, help="override ppo.iterations")
    p.add_argument("--checkpoint", help="optional stage-1 checkpoint to warm-start from")
    p.add_argument("--resume", help="resume a stage-1 checkpoint (optimizers + curriculum)")

    p = sub.add_parser("train-stage2", help="train the residual-expert stage")
    _common_flags(p)
    p.add_argument("--checkpoint", help="stage-1 checkpoint (omit only with --ablation more-os)")
    p.add_argument("--iterations", type=int)

    p = sub.add_parser("eval-bench", help="run the traversal benchmark")
    _common_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--gait", type=int, help="fixed gait id for stage-2 policies")
    p.add_argument("--trials", type=int, help="override bench.trials")
    p.add_argument("--method", default="policy", help="method label in the report")

    p = sub.add_parser("export-latents", help="dump residual latents from rollouts")
    _common_flags(p)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("analyze-latents", help="project and score an exported latent table")
    _common_flags(p)
    p.add_argument("--latents", required=True, help="latents JSON from export-latents")

    p = sub.add_parser("gait-modulation", help="achieved-vs-target gait feature table")
    _common_flags(p)
    p.add_argument("--checkpoint", action="append", required=True,
                   help="stage-2 checkpoint; repeat for several targets")
    p.add_argument("--attribute", choices=("squat_height", "knee_lift"), default="squat_height")
    p.add_argument("--rollouts", type=int, default=10)
    return parser


def _load_run_config(args) -> RunConfig:
    if args.config:
        if not os.path.exists(args.config):
            raise UsageError(f"config file not found: {args.config}")
        try:
            cfg = load_config(args.config)
        except (json.JSONDecodeError, ValueError) as e:
            raise UsageError(f"invalid config {args.config}: {e}")
    else:
        cfg = RunConfig()
    return apply_ablation(cfg, getattr(args, "ablation", None))


def _load_ckpt(path: str) -> dict:
    if not os.path.exists(path):
        raise UsageError(f"checkpoint not found: {path}")
    try:
        return load_checkpoint(path)
    except (json.JSONDecodeError, ValueError, KeyError) as e:
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
        clip.save(path)
        print(f"{name}: gait_id={clip.gait_id} frames={len(clip.frames)} "
              f"duration={clip.duration:.2f}s -> {path}")
    return 0


def cmd_train_stage1(args) -> int:
    cfg = _load_run_config(args)
    out = _need_out(args)
    if args.checkpoint and args.resume:
        raise UsageError("--checkpoint (warm start) and --resume are mutually exclusive")
    if args.resume:
        from .trainer import Trainer

        trainer = Trainer(cfg, args.seed, stage=1, out_dir=out, resume=_load_ckpt(args.resume))
        history = trainer.run(args.iterations)
    else:
        warm = _load_ckpt(args.checkpoint) if args.checkpoint else None
        _, history = train_stage1(
            cfg, args.seed, out_dir=out, iterations=args.iterations, warm_start=warm
        )
    last = history[-1]
    print(f"stage 1 done: {last['iteration']} iterations, "
          f"mean tracking reward {last['mean_track']:.3f}")
    print(f"checkpoint: {os.path.join(out, 'checkpoint_final.json')}")
    return 0


def cmd_train_stage2(args) -> int:
    cfg = _load_run_config(args)
    out = _need_out(args)
    ckpt = None
    if cfg.mode.one_stage:
        if args.checkpoint:
            raise UsageError("--ablation more-os trains from scratch; drop --checkpoint")
    else:
        if not args.checkpoint:
            raise UsageError("train-stage2 needs --checkpoint (or --ablation more-os)")
        ckpt = _load_ckpt(args.checkpoint)
    _, history = train_stage2(cfg, ckpt, args.seed, out_dir=out, iterations=args.iterations)
    last = history[-1]
    print(f"stage 2 done: {last['iteration']} iterations, "
          f"mean style reward {last['mean_style']:.3f}")
    print(f"checkpoint: {os.path.join(out, 'checkpoint_final.json')}")
    return 0


def cmd_eval_bench(args) -> int:
    cfg = _load_run_config(args)
    out = _need_out(args)
    doc = _load_ckpt(args.checkpoint)
    policy = policy_from_checkpoint(doc, cfg)
    if args.ablation == "blind":
        cfg.env.blind = True
    gait_id = args.gait
    if gait_id is None and policy.mode.stage >= 2:
        gait_id = 0
    suite = BenchmarkSuite(
        trials=args.trials if args.trials else cfg.bench.trials,
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
    cfg = _load_run_config(args)
    out = _need_out(args)
    doc = _load_ckpt(args.checkpoint)
    policy = policy_from_checkpoint(doc, cfg)
    if policy.mode.stage < 2:
        raise UsageError("export-latents needs a stage-2 checkpoint")
    samples = collect_latent_samples(policy, cfg, seed=args.seed)
    table = export_residual_latents(policy, samples)
    path = os.path.join(out, "latents.json")
    with open(path, "w") as f:
        json.dump(
            {
                "format_version": 1,
                "z_prime": table.z_prime.tolist(),
                "gate_w": table.gate_w.tolist(),
                "gait_labels": table.gait_labels.tolist(),
                "terrain_labels": table.terrain_labels,
            },
            f,
            sort_keys=True,
        )
    print(f"exported {len(table.gait_labels)} latent rows -> {path}")
    return 0


def cmd_analyze_latents(args) -> int:
    if not os.path.exists(args.latents):
        raise UsageError(f"latents file not found: {args.latents}")
    with open(args.latents) as f:
        d = json.load(f)
    if d.get("format_version") != 1:
        raise UsageError("unsupported latents file version")
    table = LatentTable(
        z_prime=np.array(d["z_prime"]),
        gate_w=np.array(d["gate_w"]),
        gait_labels=np.array(d["gait_labels"]),
        terrain_labels=d["terrain_labels"],
    )
    report = analyze_latents(table)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "latent_report.json"), "w") as f:
            json.dump(report.to_json_dict(), f, sort_keys=True)
    if report.degenerate:
        print("latents degenerate (all identical); silhouette undefined")
    else:
        print(f"samples: {report.n_samples}  silhouette over gaits: {report.silhouette:.3f}")
    for g, w in report.gate_usage.items():
        label = GAIT_NAMES[int(g)] if int(g) < len(GAIT_NAMES) else g
        print(f"  gait {label}: mean gate weights {np.round(w, 3).tolist()}")
    return 0


def cmd_gait_modulation(args) -> int:
    cfg = _load_run_config(args)
    entries = []
    for path in args.checkpoint:
        doc = _load_ckpt(path)
        from .config import config_from_dict

        ck_cfg = config_from_dict(doc["config"])
        policy = policy_from_checkpoint(doc, ck_cfg)
        if policy.mode.stage < 2:
            raise UsageError(f"gait-modulation needs stage-2 checkpoints: {path}")
        entries.append((policy, ck_cfg, os.path.basename(path)))
    gait_id = 2 if args.attribute == "squat_height" else 1
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
