import dataclasses
import json
import math
import os
import typing

import pytest

from gaitrl.cli import cli
from gaitrl.codec import field_bounds
from gaitrl.config import RunConfig, config_from_dict, config_hash, config_to_dict
from oracles import save_config
from test_hygiene import config_sections


def tiny_cfg(**over) -> RunConfig:
    cfg = RunConfig()
    cfg.terrain.kinds = ("flat",)
    cfg.train.dr_enabled = False
    cfg.env.push_vel_max = 0.0
    cfg.env.max_episode_s = 2.0
    cfg.ppo.n_envs = 4
    cfg.ppo.horizon = 10
    cfg.ppo.minibatch = 20
    cfg.ppo.epochs = 1
    cfg.ppo.iterations = 1
    cfg.arch.d_f = 6
    cfg.arch.d_z = 8
    cfg.arch.encoder_hidden = (8,)
    cfg.arch.trunk_hidden = (10,)
    cfg.arch.expert_hidden = (6,)
    cfg.arch.gate_hidden = (5,)
    cfg.arch.critic_hidden = (12,)
    cfg.amp.disc_hidden = (10,)
    cfg.curriculum.enabled = False
    cfg.bench.trials = 2
    for key, value in over.items():
        section, name = key.split(".")
        setattr(cfg, section, dataclasses.replace(getattr(cfg, section), **{name: value}))
    return cfg


# the candidates, in order, for a value outside a bound; a tuple tries them
# as its first element, and a bound on the whole tuple first tries it
# emptied, shortened and reversed
CANDIDATES = {int: (0, -1, 3), float: (0.0, 1.0, -1.0, math.nan), str: ("",)}


def outside(bound, annotation, default):
    """The first candidate value of ``annotation``'s kind that ``bound``
    refuses, from ``default`` for a tuple."""
    if typing.get_origin(annotation) is not tuple:
        return next(v for v in CANDIDATES[annotation] if not bound.holds(v))
    args = typing.get_args(annotation)
    firsts = [(v, *default[1:]) for v in CANDIDATES[args[0]]]
    if bound.each:
        return next(v for v in firsts if not bound.holds(v[0]))
    tried = ((), default[:-1], default[::-1], *firsts)
    return next(v for v in tried
                if (args[-1] is Ellipsis or len(v) == len(args)) and not bound.holds(v))


def outside_each_bound() -> list[tuple[str, str, object]]:
    """``(section path, field, value)``: per bound a config section declares,
    the first value outside it, set on the tiny config."""
    doc = config_to_dict(tiny_cfg())
    cases = []
    for path, cls in config_sections(RunConfig):
        section = doc
        for key in path.split("."):
            section = section[key]
        hints = typing.get_type_hints(cls)
        for name, bound in field_bounds(cls):
            default = tuple(section[name]) if isinstance(section[name], list) else section[name]
            value = outside(bound, hints[name], default)
            cases.append((path, name, list(value) if isinstance(value, tuple) else value))
    return cases


OUTSIDE_EACH_BOUND = outside_each_bound()


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    save_config(tiny_cfg(), path)
    return str(path)


class TestUsage:
    def test_missing_config_exits_1(self, capsys):
        rc = cli(["inspect-config", "--config", "/nope/missing.json"])
        assert rc == 1
        assert "/nope/missing.json" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, capsys):
        rc = cli(["eval-bench", "--wat"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_unknown_ablation_rejected(self):
        assert cli(["inspect-config", "--ablation", "bogus"]) == 1

    def test_inspect_config_prints_hash(self, tiny_config, capsys):
        assert cli(["inspect-config", "--config", tiny_config]) == 0
        out = capsys.readouterr().out
        assert "config_hash:" in out

    def test_invalid_config_keys_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"ppo": {"gamme": 0.9}}))
        assert cli(["inspect-config", "--config", str(bad)]) == 1
        assert "gamme" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [
        ("analyze-latents", "--config"), ("analyze-latents", "--seed"),
        ("analyze-latents", "--ablation"), ("inspect-config", "--seed"),
        ("inspect-config", "--out"), ("gen-refs", "--seed"), ("gen-refs", "--ablation"),
        # evaluation runs under the checkpoint's env and mode, which an ablation changes
        ("eval-bench", "--ablation"), ("export-latents", "--ablation"),
        ("gait-modulation", "--ablation"),
    ])
    def test_a_flag_the_command_does_not_read_exits_1(
        self, tiny_config, tmp_path, capsys, command, flag
    ):
        latents = tmp_path / "latents.json"
        latents.write_text(json.dumps({
            "format_version": 1, "z_prime": [[0.0, 1.0], [1.0, 0.0]],
            "gate_w": [[0.5, 0.5], [0.5, 0.5]], "gait_labels": [0, 1],
            "terrain_labels": ["flat", "flat"],
        }))
        argv = {
            "analyze-latents": ["analyze-latents", "--latents", str(latents)],
            "inspect-config": ["inspect-config"],
            "gen-refs": ["gen-refs", "--out", str(tmp_path / "refs")],
            **{name: [name, "--checkpoint", str(tmp_path / "checkpoint.json"),
                      "--out", str(tmp_path / "eval")]
               for name in ("eval-bench", "export-latents", "gait-modulation")},
        }[command]
        value = {"--config": tiny_config, "--seed": "1", "--ablation": "blind",
                 "--out": str(tmp_path / "out")}[flag]
        assert cli([*argv, flag, value]) == 1
        assert f"usage error: unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["train-stage1", "--iterations", "0"], "argument --iterations: must be a positive"),
        (["train-stage1", "--iterations", "-1"], "argument --iterations: must be a positive"),
        (["train-stage2", "--ablation", "more-os", "--iterations", "0"],
         "argument --iterations: must be a positive"),
        (["train-stage1", "--config", "{zero}"], "ppo: iterations must be positive"),
        (["inspect-config", "--config", "{zero}"], "ppo: iterations must be positive"),
        (["eval-bench", "--checkpoint", "{s2}", "--trials", "0"],
         "argument --trials: must be a positive"),
        (["eval-bench", "--checkpoint", "{s2}", "--trials", "-2"],
         "argument --trials: must be a positive"),
        (["gait-modulation", "--checkpoint", "{s2}", "--rollouts", "0"],
         "argument --rollouts: must be a positive"),
        (["eval-bench", "--checkpoint", "{s2}", "--gait", "-1"], "--gait must be in [0, 3)"),
        (["eval-bench", "--checkpoint", "{s2}", "--gait", "5"], "--gait must be in [0, 3)"),
    ])
    def test_a_count_or_gait_out_of_range_exits_1(self, trained, tmp_path, capsys, argv, message):
        doc = config_to_dict(tiny_cfg())
        doc["ppo"]["iterations"] = 0
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps(doc))
        paths = {"{zero}": str(zero), "{s2}": trained[2]}
        out = tmp_path / "out"
        out_flag = [] if argv[0] == "inspect-config" else ["--out", str(out)]
        assert cli([paths.get(a, a) for a in argv] + out_flag) == 1
        assert message in capsys.readouterr().err.split("usage error: ", 1)[1]
        assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("change,message", [
        pytest.param({"ppo": {k: 0}}, f"ppo: {k} must be positive", id=f"ppo.{k}")
        for k in ("minibatch", "horizon", "n_envs", "epochs")
    ] + [
        pytest.param({"train": {"checkpoint_every": 0}},
                     "train: checkpoint_every must be positive", id="train.checkpoint_every"),
        pytest.param({"gaits": {"period_s": 0.0}}, "gaits: period_s must be positive",
                     id="gaits.period_s"),
        pytest.param({"gaits": {"distribution": [0, 0, 0]}},
                     "gaits: distribution must have a positive sum", id="gaits.distribution-zero"),
        pytest.param({"gaits": {"distribution": [-1, 1, 1]}},
                     "gaits: distribution must have no negative entry",
                     id="gaits.distribution-negative"),
        pytest.param({"mode": {"n_experts": 0}}, "mode: n_experts must be positive",
                     id="mode.n_experts"),
        pytest.param({"bench": {"trials": 0}}, "bench: trials must be positive", id="bench.trials"),
        pytest.param({"mode": {"stage": 2}},
                     "mode.stage is 2; the training command sets the stage", id="mode.stage"),
        pytest.param({"env": {"substeps": 0}}, "env: substeps must be positive", id="env.substeps"),
        pytest.param({"env": {"history_len": 0}}, "env: history_len must be positive",
                     id="env.history_len"),
        pytest.param({"terrain": {"kinds": ["flat", "flta"]}},
                     "terrain: kinds[1]: unknown terrain kind 'flta'", id="terrain.kinds"),
        pytest.param({"terrain": {"kinds": []}},
                     "terrain: kinds must name at least one terrain kind", id="terrain.kinds-empty"),
        pytest.param({"mode": {"residual_fusion": "Latent"}},
                     "mode: residual_fusion must be one of ('latent', 'action'), got 'Latent'",
                     id="mode.residual_fusion"),
        pytest.param({"arch": {"n_gaits": 3}}, "arch: unknown keys ['n_gaits']",
                     id="arch.n_gaits"),
        pytest.param({"train": {"blind": False}}, "train: unknown keys ['blind']",
                     id="train.blind"),
    ] + [
        # switches that no run set: the old format is refused by name
        pytest.param({section: {key: value}}, f"{section}: unknown keys ['{key}']",
                     id=f"{section}.{key}")
        for section, key, value in (
            ("rewards", "enabled", {}),
            ("rewards", "literal_signs", False),
            ("rewards", "posture_joints", [2, 5]),
            ("ppo", "freeze", []),
            ("gaits", "transitions", True),
        )
    ] + [
        pytest.param({"rewards": {"weights": {"track_lin_ve": 3.0}}},
                     "rewards: weights.track_lin_ve: unknown reward term",
                     id="rewards.weights-unknown-term"),
        pytest.param({"rewards": {"weights": {"track_lin_vel": "2"}}},
                     "rewards.weights.track_lin_vel: expected float, got str",
                     id="rewards.weights-not-a-number"),
        pytest.param({"gaits": {"distribution": [0.5, 0.5]}},
                     "gaits.distribution has 2 values, but env.n_gaits is 3",
                     id="gaits.distribution"),
        pytest.param({"env": {"n_gaits": 4}, "gaits": {"distribution": [0.25] * 4}},
                     "env.n_gaits must be in [1, 3] (the reference gaits), got 4",
                     id="env.n_gaits"),
    ] + [
        # each passed inspect-config and then crashed the first training iteration
        pytest.param({section: {key: value}}, f"{section}: {key} must be {what}",
                     id=f"{section}.{key}={value}")
        for section, key, value, what in (
            ("env", "dt", 0.0, "positive"),
            ("env", "dt", -0.02, "positive"),
            ("env", "scan_points", 0, "positive"),
            ("env", "elev_points", 0, "positive"),
            ("terrain", "cell_size", 0.0, "positive"),
            ("terrain", "track_length", 0.0, "positive"),
            ("model", "joint_inertia", 0.0, "positive"),
            ("model", "base_inertia", 0.0, "positive"),
            ("model", "yaw_inertia", 0.0, "positive"),
            ("model", "contact_kt", 0.0, "positive"),
            ("model", "contact_damp_ramp", 0.0, "positive"),
            ("model", "base_mass", 0.0, "positive"),
            ("model", "thigh_len", 0.0, "positive"),
            ("model", "shin_len", 0.0, "positive"),
            ("model", "action_bound", -1.0, "positive"),
            ("model", "foot_len", -1.0, "non-negative"),
            ("amp", "batch_size", 0, "positive"),
            ("amp", "buffer_size", 0, "positive"),
            ("amp", "disc_lr", 0.0, "positive"),
            ("ppo", "lr", 0.0, "positive"),
            ("ppo", "lr_residual", 0.0, "positive"),
            ("rewards", "tracking_sigma", 0.0, "positive"),
            ("rewards", "gait_sigma", 0.0, "positive"),
            ("arch", "d_f", -1, "non-negative"),
            ("arch", "d_z", -1, "non-negative"),
        )
    ] + [
        pytest.param({"terrain": {"track_length": 0.02}},
                     "terrain: track_length must hold at least one cell_size cell",
                     id="terrain.track_length-under-one-cell"),
        # inspect-config passed it; training exited 1 naming no field
        pytest.param({"curriculum": {"init_difficulty": 2.0}},
                     "curriculum: init_difficulty must be in [0, 1]",
                     id="curriculum.init_difficulty=2.0"),
        # a run took it, and a demotion raised the difficulty
        pytest.param({"curriculum": {"delta": -0.5}}, "curriculum: delta must be non-negative",
                     id="curriculum.delta=-0.5"),
        # training exited 1 with "high - low < 0", naming no field
        pytest.param({"commands": {"v_range": [1.0, 0.2]}},
                     "commands: v_range must have low <= high, got [1.0, 0.2]",
                     id="commands.v_range-reversed"),
        pytest.param({"commands": {"w_range": [0.5, -0.5]}},
                     "commands: w_range must have low <= high, got [0.5, -0.5]",
                     id="commands.w_range-reversed"),
        # a run took it: promotion is checked first, so no episode over 0.1 demoted
        pytest.param({"curriculum": {"promote": 0.1}},
                     "curriculum: promote (0.1) must be above demote (0.4)",
                     id="curriculum.promote=0.1"),
        pytest.param({"curriculum": {"promote": 0.4}},
                     "curriculum: promote (0.4) must be above demote (0.4)",
                     id="curriculum.promote=demote"),
    ])
    def test_a_config_the_pipeline_cannot_run_exits_1(self, tmp_path, capsys, change, message):
        doc = config_to_dict(tiny_cfg())
        for section, values in change.items():
            doc[section].update(values)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli(["inspect-config", "--config", str(bad)]) == 1
        assert f"usage error: invalid config {bad}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("path,name,value", OUTSIDE_EACH_BOUND,
                             ids=[f"{p}.{n}={json.dumps(v)}" for p, n, v in OUTSIDE_EACH_BOUND])
    def test_a_value_outside_its_declared_bound_exits_1(self, tmp_path, capsys, path, name, value):
        doc = config_to_dict(tiny_cfg())
        section = doc
        for key in path.split("."):
            section = section[key]
        section[name] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli(["inspect-config", "--config", str(bad)]) == 1
        assert f"usage error: invalid config {bad}: {path}: {name}" in capsys.readouterr().err

    @pytest.mark.parametrize("change,message", [
        # each loaded and then ran a training iteration, or crashed it naming no field
        pytest.param({section: {key: value}}, f"{section}: {key}", id=f"{section}.{key}={value}")
        for section, key, value in (
            ("amp", "updates_per_iter", 0),
            ("amp", "updates_per_iter", -1),
            ("amp", "alpha_gp", -1.0),
            ("amp", "disc_hidden", [0]),
            ("arch", "critic_hidden", [0]),
            ("env", "max_episode_s", 0.0),
            ("env", "scan_clip", 0.0),
            ("env", "min_base_height", -1.0),
            ("bench", "timeout_s", 0.0),
            ("train", "divergence_patience", -5),
            ("gaits", "clip_seed", -1),
        )
    ] + [
        pytest.param({"model": {"kp": [220.0, 220.0, 60.0]}},
                     "model: kp must have 6 values, got (220.0, 220.0, 60.0)",
                     id="model.kp-3-values"),
        pytest.param({"arch": {"log_std_min": 2.0}},
                     "arch: log_std_init (0.0) must lie in [log_std_min, log_std_max], "
                     "got [2.0, 1.0]", id="arch.log_std_min=2.0"),
        pytest.param({"arch": {"log_std_init": -5.0}},
                     "arch: log_std_init (-5.0) must lie in [log_std_min, log_std_max], "
                     "got [-4.0, 1.0]", id="arch.log_std_init=-5.0"),
        pytest.param({"model": {"joint_upper": [1.6, -2.5, 1.2, 1.6, -0.02, 1.2]}},
                     "model: joint 1 must have joint_lower < joint_upper and nominal_pose "
                     "between them, got [-2.4, -2.5] and -0.7", id="model.joint_upper-below-lower"),
        pytest.param({"model": {"nominal_pose": [0.35, -0.7, 0.35, 0.35, -0.7, 1.5]}},
                     "model: joint 5 must have joint_lower < joint_upper and nominal_pose "
                     "between them, got [-1.2, 1.2] and 1.5", id="model.nominal_pose-outside"),
        # inspect-config and stage 1 passed it; stage 2 exited 1 naming no field
        pytest.param({"gaits": {"clip_params": {"stride_freq": 20}}},
                     "gaits.clip_params: stride_freq (20) must leave the run clip, which strides "
                     "at max(1.6 * stride_freq, 2.0) Hz, at least 4 frames per cycle at "
                     "frame_rate (50.0)", id="gaits.clip_params.stride_freq=20"),
        # a run took it and trained past the end of the track
        pytest.param({"env": {"spawn_x": 30.0}},
                     "env.spawn_x (30.0) must lie on the track, below terrain.track_length (14.0)",
                     id="env.spawn_x=30.0"),
    ])
    def test_a_probed_value_or_a_cross_field_rule_exits_1(self, tmp_path, capsys, change,
                                                          message):
        doc = config_to_dict(tiny_cfg())
        for section, values in change.items():
            doc[section].update(values)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli(["inspect-config", "--config", str(bad)]) == 1
        assert f"usage error: invalid config {bad}: {message}" in capsys.readouterr().err

    def test_one_stage_at_stage_1_exits_1(self, tiny_config, tmp_path, capsys):
        doc = config_to_dict(tiny_cfg())
        doc["mode"]["one_stage"] = True
        flagged = tmp_path / "one_stage.json"
        flagged.write_text(json.dumps(doc))
        out = tmp_path / "out"
        for config in (["--config", tiny_config, "--ablation", "more-os"],
                       ["--config", str(flagged)]):
            assert cli(["train-stage1", *config, "--out", str(out)]) == 1
            assert ("usage error: mode.one_stage trains stage 2 from scratch; it has no stage 1\n"
                    in capsys.readouterr().err)
        assert not os.listdir(out)


class TestPipeline:
    def test_gen_refs(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "refs"
        assert cli(["gen-refs", "--config", tiny_config, "--out", str(out)]) == 0
        files = sorted(os.listdir(out))
        assert files == [
            "clip_high_knees.json", "clip_run.json", "clip_squat.json", "clip_walk.json"
        ]

    def test_train_eval_round_trip(self, tiny_config, tmp_path, capsys):
        s1 = tmp_path / "s1"
        assert cli(["train-stage1", "--config", tiny_config, "--seed", "3",
                    "--out", str(s1)]) == 0
        ckpt = s1 / "checkpoint_final.json"
        assert ckpt.exists()

        s2 = tmp_path / "s2"
        assert cli(["train-stage2", "--config", tiny_config, "--seed", "3",
                    "--checkpoint", str(ckpt), "--out", str(s2)]) == 0
        ckpt2 = s2 / "checkpoint_final.json"
        assert ckpt2.exists()

        bench_out = tmp_path / "bench"
        assert cli(["eval-bench", "--config", tiny_config, "--seed", "7",
                    "--checkpoint", str(ckpt2), "--out", str(bench_out),
                    "--trials", "1", "--gait", "0"]) == 0
        assert (bench_out / "report_policy.json").exists()

    def test_eval_bench_byte_identical_reports(self, tiny_config, tmp_path):
        s1 = tmp_path / "s1"
        cli(["train-stage1", "--config", tiny_config, "--seed", "0", "--out", str(s1)])
        ckpt = str(s1 / "checkpoint_final.json")
        outs = []
        for d in ("a", "b"):
            out = tmp_path / d
            rc = cli(["eval-bench", "--config", tiny_config, "--seed", "7",
                      "--checkpoint", ckpt, "--out", str(out), "--trials", "2"])
            assert rc == 0
            outs.append((out / "report_policy.json").read_bytes())
        assert outs[0] == outs[1]

    def test_ablation_flags_change_only_documented_dimensions(self, tiny_config, tmp_path):
        s1 = tmp_path / "s1"
        cli(["train-stage1", "--config", tiny_config, "--seed", "0", "--out", str(s1)])
        ckpt = str(s1 / "checkpoint_final.json")

        out4 = tmp_path / "m4"
        rc = cli(["train-stage2", "--config", tiny_config, "--seed", "1",
                  "--checkpoint", ckpt, "--out", str(out4), "--ablation", "more4"])
        assert rc == 0
        doc = json.loads((out4 / "checkpoint_final.json").read_text())
        assert doc["policy"]["mode"]["n_experts"] == 4
        assert len(doc["policy"]["residual"]["experts"]) == 4

        outa = tmp_path / "ma"
        rc = cli(["train-stage2", "--config", tiny_config, "--seed", "1",
                  "--checkpoint", ckpt, "--out", str(outa), "--ablation", "more-a"])
        assert rc == 0
        doc = json.loads((outa / "checkpoint_final.json").read_text())
        assert doc["policy"]["mode"]["residual_fusion"] == "action"

    def test_more_os_trains_without_checkpoint(self, tiny_config, tmp_path):
        out = tmp_path / "os"
        rc = cli(["train-stage2", "--config", tiny_config, "--seed", "2",
                  "--out", str(out), "--ablation", "more-os"])
        assert rc == 0
        doc = json.loads((out / "checkpoint_final.json").read_text())
        assert doc["policy"]["mode"]["one_stage"] is True

    def test_stage2_without_checkpoint_is_usage_error(self, tiny_config, tmp_path, capsys):
        rc = cli(["train-stage2", "--config", tiny_config, "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_latent_export_and_analysis(self, tiny_config, tmp_path, capsys):
        s1 = tmp_path / "s1"
        cli(["train-stage1", "--config", tiny_config, "--seed", "0", "--out", str(s1)])
        s2 = tmp_path / "s2"
        cli(["train-stage2", "--config", tiny_config, "--seed", "0",
             "--checkpoint", str(s1 / "checkpoint_final.json"), "--out", str(s2)])
        lat = tmp_path / "lat"
        rc = cli(["export-latents", "--config", tiny_config, "--seed", "1",
                  "--checkpoint", str(s2 / "checkpoint_final.json"), "--out", str(lat)])
        assert rc == 0
        rc = cli(["analyze-latents", "--latents", str(lat / "latents.json"),
                  "--out", str(lat)])
        assert rc == 0
        report = json.loads((lat / "latent_report.json").read_text())
        assert report["n_samples"] > 0


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The tiny config, a stage-1 and a stage-2 checkpoint trained under it."""
    root = tmp_path_factory.mktemp("trained")
    path = str(root / "config.json")
    save_config(tiny_cfg(), path)
    s1, s2 = root / "s1", root / "s2"
    assert cli(["train-stage1", "--config", path, "--seed", "0", "--out", str(s1)]) == 0
    assert cli(["train-stage2", "--config", path, "--seed", "0",
                "--checkpoint", str(s1 / "checkpoint_final.json"), "--out", str(s2)]) == 0
    return path, str(s1 / "checkpoint_final.json"), str(s2 / "checkpoint_final.json")


EVAL_COMMANDS = {
    "eval-bench": ["--trials", "1"],
    "export-latents": [],
    "gait-modulation": ["--rollouts", "1"],
}
# the default history of 5 observations of 24 values, and a history of 2
HISTORY_2 = "nets.hist_enc: the policy has 120 inputs, the run 48"


class TestEvaluationConfig:
    def test_eval_bench_defaults_to_the_checkpoints_config(self, trained, tmp_path):
        config, _, ckpt = trained
        reports = []
        for name, flags in (("own", []), ("given", ["--config", config])):
            out = tmp_path / name
            assert cli(["eval-bench", *flags, "--seed", "7", "--checkpoint", ckpt,
                        "--out", str(out), "--trials", "1"]) == 0
            reports.append((out / "report_policy.json").read_bytes())
        assert reports[0] == reports[1]
        with open(ckpt) as f:
            stamped = config_from_dict(json.load(f)["config"])
        report_hash = json.loads(reports[0])["config_hash"]
        assert report_hash == config_hash(stamped) != config_hash(RunConfig())

    def test_export_latents_defaults_to_the_checkpoints_config(self, trained, tmp_path):
        config, _, ckpt = trained
        tables = []
        for name, flags in (("own", []), ("given", ["--config", config])):
            out = tmp_path / name
            assert cli(["export-latents", *flags, "--seed", "1", "--checkpoint", ckpt,
                        "--out", str(out)]) == 0
            tables.append((out / "latents.json").read_bytes())
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("command", sorted(EVAL_COMMANDS))
    @pytest.mark.parametrize("section,key,value", [
        ("model", "base_mass", 11.5),
        ("env", "max_episode_s", 3.0),
    ])
    def test_config_of_another_model_or_env_is_a_usage_error(
        self, trained, tmp_path, capsys, command, section, key, value
    ):
        _, _, ckpt = trained
        other = tmp_path / "other.json"
        save_config(tiny_cfg(**{f"{section}.{key}": value}), other)
        rc = cli([command, "--config", str(other), "--checkpoint", ckpt,
                  "--out", str(tmp_path / "out"), *EVAL_COMMANDS[command]])
        assert rc == 1
        assert f"its {section} section differs from the checkpoint's" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() or not os.listdir(tmp_path / "out")

    @pytest.mark.parametrize("command", sorted(EVAL_COMMANDS))
    def test_a_policy_that_does_not_read_its_own_config_exits_1(
        self, trained, tmp_path, capsys, command
    ):
        _, _, ckpt = trained
        with open(ckpt) as f:
            doc = json.load(f)
        doc["config"]["env"]["history_len"] = 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli([command, "--checkpoint", str(bad), "--out", str(out),
                    *EVAL_COMMANDS[command]]) == 1
        assert f"usage error: invalid checkpoint {bad}: {HISTORY_2}\n" in capsys.readouterr().err
        assert not out.exists() or not os.listdir(out)

    def test_config_differing_outside_model_and_env_is_used(self, trained, tmp_path):
        _, _, ckpt = trained
        other = tmp_path / "other.json"
        save_config(tiny_cfg(**{"bench.timeout_s": 0.06}), other)
        out = tmp_path / "out"
        assert cli(["eval-bench", "--config", str(other), "--checkpoint", ckpt,
                    "--out", str(out), "--trials", "1"]) == 0
        ends = [
            json.loads(line)
            for trace in out.glob("trace_*.jsonl")
            for line in trace.read_text().splitlines()
            if "trial_end" in line
        ]
        assert len(ends) == 6
        assert all(e["steps"] <= 3 for e in ends)


# the training commands leave the stage rule to Trainer, which names the
# policy's stage; the evaluation commands check the checkpoint's stage
NOT_STAGE_1 = "stage1_checkpoint: a stage-2 policy, not a stage-1 one"
NOT_STAGE_2 = "{path} is a stage-1 checkpoint; this command needs a stage-2 one"


@pytest.mark.parametrize("argv,message", [
    (["train-stage1", "--checkpoint", "{s2}"], NOT_STAGE_1),
    (["train-stage1", "--resume", "{s2}"], "mode.stage: the checkpoint's policy has 2, the run 1"),
    (["train-stage2", "--checkpoint", "{s2}"], NOT_STAGE_1),
    (["export-latents", "--checkpoint", "{s1}"], NOT_STAGE_2),
    (["gait-modulation", "--checkpoint", "{s1}"], NOT_STAGE_2),
], ids=["warm-start", "resume", "stage-2", "export-latents", "gait-modulation"])
def test_a_checkpoint_at_the_wrong_stage_exits_1(trained, tmp_path, capsys, argv, message):
    config, s1, s2 = trained
    paths = {"{s1}": s1, "{s2}": s2}
    out = tmp_path / "out"
    argv = [paths.get(a, a) for a in argv]
    assert cli([*argv, "--config", config, "--out", str(out)]) == 1
    assert f"usage error: {message.format(path=argv[2])}\n" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


D_F_4 = "arch.d_f: the checkpoint's policy has 6, the run 4"


@pytest.mark.parametrize("argv,change,message", [
    (["train-stage1", "--checkpoint"], {"arch.d_f": 4}, D_F_4),
    (["train-stage1", "--resume"], {"arch.d_f": 4}, D_F_4),
    (["train-stage1", "--ablation", "more4", "--checkpoint"], {},
     "mode.n_experts: the checkpoint's policy has 3, the run 4"),
    (["train-stage2", "--checkpoint"], {"arch.d_f": 4}, D_F_4),
    (["train-stage2", "--checkpoint"], {"arch.d_z": 16},
     "arch.d_z: the checkpoint's policy has 8, the run 16"),
    (["train-stage1", "--resume"], {"ppo.lr": 0.01},
     "ppo.lr: the checkpoint's config has 0.0003, the run 0.01"),
    (["train-stage1", "--checkpoint"], {"env.history_len": 2}, HISTORY_2),
    (["train-stage2", "--checkpoint"], {"env.history_len": 2}, HISTORY_2),
], ids=["warm-start-d_f", "resume-d_f", "warm-start-more4", "stage-2-d_f", "stage-2-d_z",
        "resume-ppo.lr", "warm-start-history_len", "stage-2-history_len"])
def test_a_policy_that_does_not_fit_the_run_exits_1(
    trained, tmp_path, capsys, argv, change, message
):
    # the stage-1 checkpoint was trained under tiny_cfg(): d_f 6, d_z 8,
    # 3 experts, lr 3e-4 and the default history length
    _, s1, _ = trained
    config = tmp_path / "config.json"
    save_config(tiny_cfg(**change), config)
    out = tmp_path / "out"
    assert cli([*argv, s1, "--config", str(config), "--out", str(out)]) == 1
    assert f"usage error: {message}\n" in capsys.readouterr().err
    assert not os.listdir(out)


def test_a_resume_without_config_runs_under_the_checkpoints_config(trained, tmp_path):
    # the checkpoint was trained under tiny_cfg(), not the default config
    _, s1, _ = trained
    out = tmp_path / "out"
    assert cli(["train-stage1", "--resume", s1, "--iterations", "1", "--out", str(out)]) == 0
    with open(s1) as f:
        resumed = json.load(f)
    with open(out / "checkpoint_final.json") as f:
        written = json.load(f)
    assert written["config"] == resumed["config"] != config_to_dict(RunConfig())
    assert written["config_hash"] == resumed["config_hash"]
    assert written["iteration"] == resumed["iteration"] + 1


class TestGaitModulation:
    def test_table_from_the_tiny_config(self, trained, tmp_path, capsys):
        config, _, ckpt = trained
        outs = []
        for name, flags in (("own", []), ("given", ["--config", config])):
            out = tmp_path / name
            assert cli(["gait-modulation", *flags, "--checkpoint", ckpt, "--rollouts", "2",
                        "--out", str(out)]) == 0
            outs.append((out / "gait_modulation.json").read_bytes())
        assert outs[0] == outs[1]
        doc = json.loads(outs[0])
        (row,) = doc["rows"]
        assert row["label"] == "checkpoint_final.json"
        assert row["attribute"] == "squat_height"
        assert row["target"] == tiny_cfg().rewards.squat_height_target
        assert row["rollouts"] == 2
        assert 0.0 < row["achieved_mean"] < 2.0 and row["achieved_std"] >= 0.0
        assert "checkpoint_final.json" in capsys.readouterr().out

    def test_stage1_checkpoint_is_a_usage_error(self, trained, capsys):
        _, s1, _ = trained
        assert cli(["gait-modulation", "--checkpoint", s1]) == 1
        assert "stage-2" in capsys.readouterr().err


def _drop(doc: dict, dotted: str) -> None:
    *parents, key = dotted.split(".")
    for p in parents:
        doc = doc[p]
    del doc[key]


class TestMalformedInputs:
    """A malformed input file is a usage error that names the field."""

    @pytest.mark.parametrize("change,field", [
        (lambda doc: _drop(doc, "policy.nets.trunk"), "policy.nets.trunk: missing"),
        (lambda doc: doc["policy"]["mode"].update(bogus=1),
         "policy.mode: unknown keys ['bogus']"),
        (lambda doc: _drop(doc, "config"), "config: missing"),
        (lambda doc: _drop(doc, "policy.residual"),
         "policy: residual: missing; a stage-2 policy has a residual module"),
        (lambda doc: doc.update(stage=1), "policy: a stage-2 policy at stage 1"),
        (lambda doc: _drop(doc, "discriminators"),
         "discriminators: missing; a stage-2 checkpoint has discriminators"),
        (lambda doc: _drop(doc, "disc_optimizers"),
         "disc_optimizers: a stage-2 checkpoint has one per discriminator"),
        (lambda doc: doc["disc_optimizers"].pop(),
         "disc_optimizers: a stage-2 checkpoint has one per discriminator"),
        (lambda doc: doc["config"]["ppo"].update(freeze=[]), "config.ppo: unknown keys ['freeze']"),
    ], ids=["no-trunk", "unknown-mode-key", "no-config", "stage-2-without-residual",
            "stage-2-policy-at-stage-1", "no-discriminators", "no-disc-optimizers",
            "too-few-disc-optimizers", "config-with-a-dropped-key"])
    def test_malformed_checkpoint_exits_1(self, trained, tmp_path, capsys, change, field):
        _, _, ckpt = trained
        with open(ckpt) as f:
            doc = json.load(f)
        change(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = cli(["eval-bench", "--checkpoint", str(bad), "--out", str(tmp_path / "out"),
                  "--trials", "1"])
        assert rc == 1
        assert f"usage error: invalid checkpoint {bad}: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,stage", [
        (["eval-bench", "--trials", "1"], 2),
        (["export-latents"], 2),
        (["gait-modulation", "--rollouts", "1"], 2),
        (["train-stage1", "--resume"], 1),
        (["train-stage1", "--checkpoint"], 1),
        (["train-stage2", "--checkpoint"], 1),
    ], ids=["eval-bench", "export-latents", "gait-modulation", "resume", "warm-start", "stage-2"])
    def test_a_checkpoint_that_stores_its_normalizer_exits_1(
        self, trained, tmp_path, capsys, argv, stage
    ):
        # the format before the normalizer was rebuilt from the config: no
        # migration, the strict loader names the key
        config, s1, s2 = trained
        with open({1: s1, 2: s2}[stage]) as f:
            doc = json.load(f)
        doc["policy"]["normalizer"] = {"o_shift": {"shape": [1], "data": "AAAAAAAAAAA="}}
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        if argv[0] in EVAL_COMMANDS:
            argv = [*argv, "--checkpoint"]
        out = tmp_path / "out"
        assert cli([*argv, str(old), "--config", config, "--out", str(out)]) == 1
        assert (f"usage error: invalid checkpoint {old}: policy: unknown keys ['normalizer']\n"
                in capsys.readouterr().err)
        assert not out.exists() or not os.listdir(out)

    def test_stage1_checkpoint_with_discriminators_exits_1(self, trained, tmp_path, capsys):
        _, s1, s2 = trained
        with open(s1) as f:
            doc = json.load(f)
        with open(s2) as f:
            doc["discriminators"] = json.load(f)["discriminators"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = cli(["eval-bench", "--checkpoint", str(bad), "--out", str(tmp_path / "out"),
                  "--trials", "1"])
        assert rc == 1
        assert (f"usage error: invalid checkpoint {bad}: discriminators: a stage-1 checkpoint "
                "has none") in capsys.readouterr().err

    def test_checkpoint_with_a_string_for_an_int_exits_1(self, trained, tmp_path, capsys):
        _, _, ckpt = trained
        with open(ckpt) as f:
            doc = json.load(f)
        doc["policy"]["arch"]["d_z"] = "8"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = cli(["eval-bench", "--checkpoint", str(bad), "--out", str(tmp_path / "out"),
                  "--trials", "1"])
        assert rc == 1
        assert (f"usage error: invalid checkpoint {bad}: policy.arch.d_z: expected int, got str"
                in capsys.readouterr().err)

    def test_config_with_a_string_in_a_tuple_exits_1(self, tmp_path, capsys):
        doc = config_to_dict(tiny_cfg())
        doc["arch"]["critic_hidden"] = ["12"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = cli(["train-stage1", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert (f"usage error: invalid config {bad}: arch.critic_hidden[0]: expected int, got str"
                in capsys.readouterr().err)

    def test_latents_without_gate_weights_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "latents.json"
        bad.write_text(json.dumps({
            "format_version": 1, "z_prime": [[0.0, 1.0]], "gait_labels": [0],
            "terrain_labels": ["flat"],
        }))
        assert cli(["analyze-latents", "--latents", str(bad)]) == 1
        assert f"usage error: invalid latents {bad}: gate_w: missing" in capsys.readouterr().err
