"""The codec against the hand-written serializers it replaced, byte for byte.

tests/oracles.py keeps each document's old writer and reader.  Every
document the codec writes must be the old writer's bytes, and every document
the old writer wrote must decode to an object equal, bit for bit, to the one
the old reader built.  Checkpoints cover both stages, latent and action
fusion, two to four experts, discriminators, Adam states after updates and
the curriculum.
"""

from __future__ import annotations

import base64
import json
import struct

import numpy as np
import pytest

from gaitrl.bench import BenchmarkReport, CellResult, LatentReport, analyze_latents
from gaitrl.codec import decode, write_json
from gaitrl.config import RunConfig, config_from_dict, config_to_dict
from gaitrl.nets import PackedArray
from gaitrl.policy import ActorCritic, LatentTable, PolicyState
from gaitrl.refmotion import ClipParams, ReferenceClip, default_clip_set
from gaitrl.terrain import TERRAIN_KINDS, Heightfield, build_benchmark_track, generate_terrain
from gaitrl.trainer import Checkpoint, CurriculumState, Trainer

from oracles import (
    ref_adam_from_state_dict,
    ref_checkpoint_doc,
    ref_clip_from_json_dict,
    ref_clip_to_json_dict,
    ref_config_from_dict,
    ref_config_to_dict,
    ref_discriminators_from_doc,
    ref_heightfield_from_json_dict,
    ref_heightfield_to_json_dict,
    ref_latent_report_to_json_dict,
    ref_latent_table,
    ref_latents_doc,
    ref_policy_from_dict,
    ref_policy_to_dict,
    ref_report_from_json_dict,
    ref_report_to_json_dict,
)


def assert_same(a, b, path="value"):
    """Equal types and equal bits, all the way down (arrays by their bytes)."""
    assert type(a) is type(b), f"{path}: {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), path
        assert a.tobytes() == b.tobytes(), path
    elif isinstance(a, memoryview):
        assert a.tobytes() == b.tobytes(), path
    elif isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b), f"{path}: {a!r} != {b!r}"
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{i}]")
    elif isinstance(a, dict):
        assert list(a) == list(b), path
        for k in a:
            assert_same(a[k], b[k], f"{path}.{k}")
    elif hasattr(a, "__dict__"):
        assert_same(vars(a), vars(b), path)
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def file_bytes(tmp_path, name, obj=None, doc=None, indent=None) -> bytes:
    """The bytes ``write_json`` writes for ``obj``, or the old writers' ``json.dump`` of ``doc``."""
    path = tmp_path / name
    if obj is not None:
        write_json(path, obj, indent=indent)
    else:
        with open(path, "w") as f:
            json.dump(doc, f, sort_keys=True, indent=indent)
    return path.read_bytes()


# -- checkpoints ---------------------------------------------------------------------


def tiny_cfg(fusion="latent", n_experts=3) -> RunConfig:
    cfg = RunConfig()
    cfg.terrain.kinds = ("flat", "gap", "stair")
    cfg.train.dr_enabled = False
    cfg.env.max_episode_s = 0.3  # episodes end inside the rollout, so the curriculum moves
    cfg.ppo.n_envs = 4
    cfg.ppo.horizon = 12
    cfg.ppo.minibatch = 16
    cfg.ppo.epochs = 1
    cfg.arch.d_f = 6
    cfg.arch.d_z = 8
    cfg.arch.encoder_hidden = (8,)
    cfg.arch.trunk_hidden = (10,)
    cfg.arch.expert_hidden = (6,)
    cfg.arch.gate_hidden = (5,)
    cfg.arch.critic_hidden = (12,)
    cfg.amp.disc_hidden = (10,)
    cfg.amp.batch_size = 8
    cfg.curriculum.init_difficulty = 0.3
    cfg.curriculum.delta = 0.1
    cfg.mode.residual_fusion = fusion
    cfg.mode.n_experts = n_experts
    return cfg


STAGE2 = [("latent", 2), ("latent", 3), ("latent", 4), ("action", 3)]


@pytest.fixture(scope="module")
def trainers():
    """A stage-1 run and one stage-2 run per fusion/expert count, each updated twice."""
    s1 = Trainer(tiny_cfg(), seed=5, stage=1)
    s1.run(2)
    runs = {"stage1": s1}
    for fusion, n in STAGE2:
        s2 = Trainer(tiny_cfg(fusion, n), seed=6, stage=2,
                     stage1_checkpoint={"policy": ref_policy_to_dict(s1.policy)})
        s2.run(2)
        runs[f"stage2-{fusion}-{n}"] = s2
    return runs


RUNS = ["stage1", *(f"stage2-{f}-{n}" for f, n in STAGE2)]


def ref_doc(trainer: Trainer) -> dict:
    return ref_checkpoint_doc(
        stage=trainer.stage, iteration=trainer.iteration, cfg=trainer.cfg,
        policy=trainer.policy, opts=trainer.opts, discs=trainer.discs,
        disc_opts=trainer.disc_opts, curriculum=[w.curr for w in trainer.workers],
    )


def test_the_runs_cover_what_checkpoints_hold(trainers):
    assert all(o.step_count > 0 for o in trainers["stage1"].opts.values())
    for name in RUNS[1:]:
        t = trainers[name]
        assert len(t.policy.residual.experts) == t.cfg.mode.n_experts
        assert all(o.step_count > 0 for o in t.disc_opts)
    moved = [w.curr for t in trainers.values() for w in t.workers if w.curr.difficulty != 0.3]
    assert moved, "no curriculum state left its initial difficulty"


@pytest.mark.parametrize("name", RUNS)
def test_checkpoint_bytes(trainers, tmp_path, name):
    t = trainers[name]
    assert (file_bytes(tmp_path, "new.json", t.checkpoint())
            == file_bytes(tmp_path, "old.json", doc=ref_doc(t)))


@pytest.mark.parametrize("name", RUNS)
def test_old_checkpoint_decodes_like_the_old_readers(trainers, name):
    t = trainers[name]
    doc = json.loads(json.dumps(ref_doc(t), sort_keys=True))
    ck = decode(Checkpoint, doc)
    assert (ck.stage, ck.iteration, ck.config_hash) == (doc["stage"], doc["iteration"],
                                                        doc["config_hash"])
    cfg = ref_config_from_dict(doc["config"])
    assert_same(ck.config, cfg, "config")
    assert_same(ActorCritic.from_state(ck.policy, cfg.model, cfg.env),
                ref_policy_from_dict(doc["policy"], cfg.model, cfg.env), "policy")
    assert_same(ck.optimizers, {k: ref_adam_from_state_dict(v) for k, v in doc["optimizers"].items()},
                "optimizers")
    assert_same(ck.curriculum, [CurriculumState(**c) for c in doc["curriculum"]], "curriculum")
    if t.stage == 1:
        assert ck.discriminators is None and ck.disc_optimizers is None
    else:
        assert_same(ck.discriminators, ref_discriminators_from_doc(doc), "discriminators")
        assert_same(ck.disc_optimizers, [ref_adam_from_state_dict(s) for s in doc["disc_optimizers"]],
                    "disc_optimizers")


def as_version_1(doc):
    """``doc`` as the format of version 1 wrote it: float64 packed arrays that
    record no dtype, and version 1 in each net manifest and in the checkpoint."""
    if isinstance(doc, list):
        return [as_version_1(v) for v in doc]
    if not isinstance(doc, dict):
        return doc
    if "dtype" in doc:
        a = decode(PackedArray, doc).astype(np.float64)
        return {"shape": doc["shape"], "data": base64.b64encode(a.tobytes()).decode("ascii")}
    return {k: 1 if k == "format_version" and v == 2 else as_version_1(v) for k, v in doc.items()}


@pytest.mark.parametrize("name", ["stage1", "stage2-action-3"])
def test_a_version_1_checkpoint_is_refused_by_its_format_version(trainers, name):
    old = as_version_1(ref_doc(trainers[name]))
    assert old["policy"]["nets"]["trunk"]["manifest"]["format_version"] == 1
    with pytest.raises(ValueError, match=r"^format_version: unsupported version 1 \(expected 2\)$"):
        decode(Checkpoint, old)
    with pytest.raises(ValueError, match=r"^policy\.nets\.scan_enc\.manifest\.format_version: "
                                         r"unsupported version 1 \(expected 2\)$"):
        decode(PolicyState, old["policy"], "policy")


def test_a_default_checkpoint_is_smaller_in_float32(tmp_path):
    cfg = RunConfig()
    cfg.ppo.n_envs = 1
    t = Trainer(cfg, seed=0, stage=1)
    new = len(file_bytes(tmp_path, "new.json", t.checkpoint()))
    old = len(file_bytes(tmp_path, "old.json", doc=as_version_1(ref_doc(t))))
    # the nets and their two Adam moments are most of the bytes: about half
    assert new < 0.55 * old


@pytest.mark.parametrize("name", ["stage1", "stage2-latent-3"])
def test_policy_document_is_the_old_one(trainers, name):
    policy = trainers[name].policy
    assert json.dumps(policy.to_dict(), sort_keys=True) == json.dumps(
        ref_policy_to_dict(policy), sort_keys=True)


# -- run configs ---------------------------------------------------------------------


PARTIAL_CONFIGS = [
    {},
    {"format_version": 1, "terrain": {"kinds": ["stair", "flat"]}, "ppo": {"lr": 1}},
    {"rewards": {"weights": {"track_lin_vel": 2.5, "collision": 0}}},
    {"arch": {"encoder_hidden": [8, 4]}, "gaits": {"clip_params": {"n_cycles": 2}}},
    {"terrain": {"kinds": ["gap"], "start_clear": 0.8}, "model": {"kp": [1, 2, 3, 4, 5, 6]}},
]


@pytest.mark.parametrize("data", PARTIAL_CONFIGS)
def test_config_reads_and_writes_like_the_old_code(data):
    cfg = config_from_dict(data)
    assert_same(cfg, ref_config_from_dict(data), "config")
    assert json.dumps(config_to_dict(cfg), sort_keys=True) == json.dumps(
        ref_config_to_dict(cfg), sort_keys=True)


@pytest.mark.parametrize("data", [
    {"ppo": {"gamme": 0.9}}, {"nonsense": {}}, {"format_version": 2},
])
def test_config_rejects_what_the_old_code_rejected(data):
    with pytest.raises(ValueError):
        ref_config_from_dict(data)
    with pytest.raises(ValueError):
        config_from_dict(data)


@pytest.mark.parametrize("data,error", [
    ({"ppo": {"lr": "0.1"}}, "ppo.lr: expected float, got str"),
    ({"ppo": {"lr": True}}, "ppo.lr: expected float, got bool"),
    ({"ppo": {"epochs": 4.0}}, "ppo.epochs: expected int, got float"),
    ({"ppo": {"epochs": False}}, "ppo.epochs: expected int, got bool"),
    ({"curriculum": {"enabled": 1}}, "curriculum.enabled: expected bool, got int"),
    ({"mode": {"residual_fusion": 2}}, "mode.residual_fusion: expected str, got int"),
    ({"arch": {"critic_hidden": ["12"]}}, r"arch.critic_hidden\[0\]: expected int, got str"),
    ({"terrain": {"kinds": ["flat", 1]}}, r"terrain.kinds\[1\]: expected str, got int"),
    ({"gaits": {"distribution": [0.5, True]}},
     r"gaits.distribution\[1\]: expected float, got bool"),
    ({"commands": {"v_range": [0.2]}}, "commands.v_range: expected 2 values, got 1"),
    ({"commands": {"w_range": [-0.5, "0.5"]}}, r"commands.w_range\[1\]: expected float, got str"),
])
def test_a_scalar_of_the_wrong_kind_names_its_field(data, error):
    with pytest.raises(ValueError, match=f"^{error}$"):
        config_from_dict(data)


def test_an_int_for_a_float_is_kept_as_read():
    cfg = config_from_dict({"ppo": {"lr": 1}})
    assert type(cfg.ppo.lr) is int
    assert config_to_dict(cfg)["ppo"]["lr"] == 1


# -- heightfields and reference clips -----------------------------------------------------


HEIGHTFIELDS = [
    *((kind, 0.7) for kind in TERRAIN_KINDS),
    *((f"bench-{o}-{m}", None) for o in ("gap", "step", "stair") for m in ("easy", "hard")),
]


def make_heightfield(kind, difficulty):
    if kind.startswith("bench-"):
        _, obstacle, mode = kind.split("-")
        return build_benchmark_track(obstacle, mode, seed=11)
    return generate_terrain(kind, difficulty, seed=11)


@pytest.mark.parametrize("kind,difficulty", HEIGHTFIELDS)
def test_heightfield_bytes_and_decoding(tmp_path, kind, difficulty):
    hf = make_heightfield(kind, difficulty)
    doc = ref_heightfield_to_json_dict(hf)
    assert file_bytes(tmp_path, "new.json", hf) == file_bytes(tmp_path, "old.json", doc=doc)
    doc = json.loads(json.dumps(doc))
    assert_same(decode(Heightfield, doc), ref_heightfield_from_json_dict(doc), "heightfield")


CLIP_SETS = [(ClipParams(), 0), (ClipParams(stride_freq=1.1, n_cycles=2, frame_rate=60.0), 7)]


@pytest.mark.parametrize("params,seed", CLIP_SETS)
def test_reference_clip_bytes_and_decoding(tmp_path, params, seed):
    for clips in default_clip_set(params, seed).values():
        for clip in clips:
            doc = ref_clip_to_json_dict(clip)
            assert file_bytes(tmp_path, "new.json", clip) == file_bytes(tmp_path, "old.json", doc=doc)
            doc = json.loads(json.dumps(doc))
            assert_same(decode(ReferenceClip, doc), ref_clip_from_json_dict(doc), clip.name)


# -- reports and latent files ------------------------------------------------------------


def test_benchmark_report_bytes_and_decoding(tmp_path):
    report = BenchmarkReport(
        method="policy", gait="walk_run", config_hash="ab" * 32,
        cells=[
            CellResult("gap", "easy", 1 / 3, 0.1 + 0.2, 3, [0, 1, 2]),
            CellResult("stair", "hard", 0.0, 13.999999999999998, 1, [7]),
        ],
    )
    doc = ref_report_to_json_dict(report)
    assert (file_bytes(tmp_path, "new.json", report, indent=2)
            == file_bytes(tmp_path, "old.json", doc=doc, indent=2))
    assert json.dumps(report.to_json_dict(), sort_keys=True) == json.dumps(doc, sort_keys=True)
    doc = json.loads(json.dumps(doc))
    assert_same(decode(BenchmarkReport, doc), ref_report_from_json_dict(doc), "report")


def latent_table(n: int, degenerate: bool = False) -> LatentTable:
    rng = np.random.default_rng(n)
    z = np.zeros((n, 8)) if degenerate else rng.normal(size=(n, 8)) / 3.0
    w = rng.dirichlet(np.ones(3), size=n)
    return LatentTable(z_prime=z, gate_w=w, gait_labels=np.arange(n) % 3,
                       terrain_labels=[("flat", "gap", "step")[i % 3] for i in range(n)])


@pytest.mark.parametrize("n,degenerate", [(12, False), (9, True), (0, False)])
def test_latents_file_bytes_and_decoding(tmp_path, n, degenerate):
    table = latent_table(n, degenerate)
    doc = ref_latents_doc(table)
    assert file_bytes(tmp_path, "new.json", table) == file_bytes(tmp_path, "old.json", doc=doc)
    doc = json.loads(json.dumps(doc))
    assert_same(decode(LatentTable, doc), ref_latent_table(doc), "latents")


@pytest.mark.parametrize("n,degenerate", [(12, False), (9, True)])
def test_latent_report_bytes_and_decoding(tmp_path, n, degenerate):
    report = analyze_latents(latent_table(n, degenerate))
    assert (report.silhouette is None) == degenerate
    doc = ref_latent_report_to_json_dict(report)
    assert file_bytes(tmp_path, "new.json", report) == file_bytes(tmp_path, "old.json", doc=doc)
    assert_same(decode(LatentReport, json.loads(json.dumps(doc))), report, "latent report")

