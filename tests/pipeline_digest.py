"""Run the whole CLI pipeline on a tiny config and print a digest of what it wrote.

    PYTHONPATH=src python tests/pipeline_digest.py OUT_DIR [--expect FILE]

The pipeline generates the reference clips, trains stage 1 (plain, warm
started, resumed and blind) and stage 2 (plain, action-space residual and
one-stage), benchmarks every checkpoint, exports and analyzes latents and
measures gait modulation for both attributes.  The config has every terrain
kind, domain randomization, pushes, short episodes and a gait period shorter
than an episode, so most code paths run in a few seconds each.

Each command runs in this process with ``OUT_DIR`` as the working directory
and relative paths, so the output does not depend on where ``OUT_DIR`` is.
Its stdout and stderr go to ``logs/``.  The script prints a ``#`` line
that names the numpy, OpenBLAS and Python it ran on, one ``exit CODE
COMMAND`` line per command, then one ``SHA256 PATH`` line per file under
``OUT_DIR``.  Run it against two checkouts (through ``PYTHONPATH``) and
``diff`` the printouts: the same lines mean the same exit codes and the same
bytes in every file, logs included.

``--expect FILE`` compares the printout with the one in ``FILE`` instead of
printing it: it prints only the lines that differ (``- `` expected, ``+ ``
written), and exits 1 on any difference; a difference on another stack than
``FILE``'s ``#`` line says so on stderr.  ``tests/pipeline_digest.expected``
is the committed printout.  A change that moves an output rewrites it in its
own diff::

    PYTHONPATH=src python tests/pipeline_digest.py OUT_DIR > tests/pipeline_digest.expected

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import sys
from pathlib import Path

import numpy as np

from gaitrl.cli import cli

CONFIG = {
    "terrain": {"kinds": ["flat", "rough", "gap", "step", "stair"], "start_clear": 0.6},
    "env": {"max_episode_s": 0.2, "push_interval_s": 0.1},
    "gaits": {"period_s": 0.1},
    "train": {"checkpoint_every": 1},
    "ppo": {"n_envs": 4, "horizon": 12, "minibatch": 24, "epochs": 1, "iterations": 3},
    "amp": {"disc_hidden": [10], "buffer_size": 64, "batch_size": 8},
    "arch": {
        "d_f": 6, "d_z": 8, "encoder_hidden": [8], "trunk_hidden": [10],
        "expert_hidden": [6], "gate_hidden": [5], "critic_hidden": [12],
    },
    "bench": {"trials": 2, "timeout_s": 1.0},
}

FINAL = "checkpoint_final.json"
STAGE1 = ("s1", "s1-warm", "s1-resume", "s1-blind")
STAGE2 = ("s2", "s2-action", "s2-one-stage")


def commands():
    """(name, argv) for each step; ``None`` as argv marks a file-system step."""
    c = ["--config", "config.json"]
    yield "gen-refs", ["gen-refs", *c, "--out", "refs"]
    yield "inspect-config", ["inspect-config", *c]
    yield "train-s1", ["train-stage1", *c, "--seed", "0", "--out", "s1"]
    yield "train-s1-warm", ["train-stage1", *c, "--seed", "1", "--out", "s1-warm",
                            "--checkpoint", f"s1/{FINAL}"]
    yield "copy-s1", None
    yield "train-s1-resume", ["train-stage1", *c, "--seed", "0", "--out", "s1-resume",
                              "--resume", "s1-resume/checkpoint_000001.json"]
    yield "train-s1-blind", ["train-stage1", *c, "--seed", "2", "--out", "s1-blind",
                             "--ablation", "blind"]
    yield "train-s2", ["train-stage2", *c, "--seed", "3", "--out", "s2",
                       "--checkpoint", f"s1/{FINAL}"]
    yield "train-s2-action", ["train-stage2", *c, "--seed", "4", "--out", "s2-action",
                              "--checkpoint", f"s1/{FINAL}", "--ablation", "more-a"]
    yield "train-s2-one-stage", ["train-stage2", *c, "--seed", "5", "--out", "s2-one-stage",
                                 "--ablation", "more-os"]
    for run in STAGE1 + STAGE2:
        yield f"eval-{run}", ["eval-bench", "--seed", "7", "--checkpoint", f"{run}/{FINAL}",
                              "--out", f"bench/{run}"]
    yield "eval-s2-gait-2", ["eval-bench", "--seed", "8", "--checkpoint", f"s2/{FINAL}",
                             "--out", "bench/s2-gait-2", "--gait", "2", "--method", "gait2"]
    for run in STAGE2:
        yield f"export-{run}", ["export-latents", "--seed", "1", "--checkpoint",
                                f"{run}/{FINAL}", "--out", f"latents/{run}"]
        yield f"analyze-{run}", ["analyze-latents", "--latents", f"latents/{run}/latents.json",
                                 "--out", f"latents/{run}"]
    for attribute in ("squat_height", "knee_lift"):
        yield f"modulation-{attribute}", [
            "gait-modulation", "--attribute", attribute, "--rollouts", "2",
            "--checkpoint", f"s2/{FINAL}", "--checkpoint", f"s2-action/{FINAL}",
            "--out", f"modulation/{attribute}",
        ]


def run_pipeline() -> list[str]:
    """Run every command in the working directory; one ``exit CODE NAME`` line each."""
    os.mkdir("logs")
    Path("config.json").write_text(json.dumps(CONFIG, sort_keys=True))
    lines = []
    for i, (name, argv) in enumerate(commands()):
        if argv is None:
            # resume into a copy of the stage-1 run, so the resumed run keeps
            # the metrics lines up to its checkpoint
            shutil.copytree("s1", "s1-resume")
            continue
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(stream):
            code = cli(argv)
        Path("logs", f"{i:02d}-{name}.txt").write_text(stream.getvalue())
        lines.append(f"exit {code} {name}")
    return lines


def digests(out: Path) -> list[str]:
    return [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()} {path.relative_to(out).as_posix()}"
        for path in sorted(out.rglob("*"))
        if path.is_file()
    ]


def stack() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"# numpy {np.__version__}, {blas['name']} {blas['version']}, "
            f"Python {platform.python_version()}")


def differing(expected: list[str], written: list[str]) -> list[str]:
    """``- `` each expected line not written, then ``+ `` each written line
    not expected; every line names its command or file once."""
    kept, new = set(expected), set(written)
    return ([f"- {x}" for x in expected if x not in new]
            + [f"+ {x}" for x in written if x not in kept])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="a directory that does not exist yet")
    parser.add_argument("--expect", metavar="FILE",
                        help="print only the lines that differ from FILE's")
    args = parser.parse_args()
    text = Path(args.expect).read_text().splitlines() if args.expect else None
    out = Path(args.out).resolve()
    if out.exists():
        parser.error(f"{out} exists")
    out.mkdir(parents=True)
    os.chdir(out)
    lines = run_pipeline() + digests(out)
    if text is None:
        print("\n".join([stack(), *lines]))
        return
    diff = differing([x for x in text if not x.startswith("#")], lines)
    if diff:
        print("\n".join(diff))
        if stack() not in text:
            print(f"{args.expect} was written on another stack; this is {stack()[2:]}",
                  file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
