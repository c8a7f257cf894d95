#!/usr/bin/env python3
"""gaitrl benchmark: time training iterations and benchmark trials from outside.

Run from the repository root:

    python3 perfbench/run.py --workload train-s1 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
is a separate run that wraps gaitrl's layers (see ``tracer.py``) and prints
the per-layer metrics and the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``all`` runs each
workload in its own process, so peak memory stays per workload.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the script exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

# one BLAS thread: the harness is a single-threaded process on a small machine
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("train-s1", "train-s2", "eval-bench")
# Scaled times are measured times multiplied by CALIBRATION_S over the median
# time of the calibration loop in the same run (see README.md).  The constant,
# a typical time of the loop on a 2-vCPU Xeon guest, fixes the unit only.
CALIBRATION_S = 0.016
END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("op_s", "s"),
    ("env_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
TRACE_EXTRAS = (
    ("amp.window_keep_ratio", "ratio"),
    ("bench.trace_bytes", "B/op"),
    ("untraced.share", "frac"),
    ("trace.ops", "count"),
    ("trace.op_s", "s"),
    ("trace.untraced_op_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "frac"),
)
LAYER_SUFFIXES = (("calls", "1/op"), ("self_us", "us"), ("share", "frac"))


def per_layer_metrics(names) -> list[tuple[str, str]]:
    out = [(f"{n}.{s}", unit) for n in names for s, unit in LAYER_SUFFIXES]
    return out + list(TRACE_EXTRAS)


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import gaitrl
    except ImportError as exc:
        sys.exit(f"cannot import gaitrl from {SRC}: {exc}")
    if not Path(gaitrl.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"gaitrl was imported from {gaitrl.__file__}, not from {SRC}")
    sys.path.insert(0, str(HERE))


# -- run metadata ---------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def openblas() -> tuple[str, int | None]:
    import numpy as np

    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        version = "unknown"
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return version, int(fn())
    return version, None


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np
    from gaitrl.config import config_hash

    blas_version, blas_threads = openblas()
    nproc = len(os.sched_getaffinity(0))
    if blas_threads is not None and blas_threads > nproc:
        sys.exit(f"OpenBLAS uses {blas_threads} threads on {nproc} CPUs; set OPENBLAS_NUM_THREADS")
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_version,
        "openblas_threads": blas_threads,
        "config_hash": config_hash(workload.cfg),
        "git_commit": git_commit(),
    }


# -- one workload -----------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> None:
    from tracer import NAMES, Tracer
    from workloads import make_workload, run_workload

    workload = make_workload(name, str(OUT))
    tracer = Tracer() if trace else None
    res = run_workload(workload, seed, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes = list(res.outcomes())
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    plain = [o for traced, o in res.timed if not traced]
    samples = [s for o in plain for s in o.samples]
    wall = sum(o.wall for o in plain)
    steps = sum(sum(o.steps) for o in plain)
    op_s = statistics.median(samples)
    rate = statistics.median(n / t for o in plain for n, t in zip(o.steps, o.samples))
    cal_s = statistics.median(res.calibration_s)
    scale = CALIBRATION_S / cal_s
    unit = workload.op_unit

    meta = metadata(workload, seed, seconds, trace)
    meta.update(
        setups=len(res.setup_s),
        calibration_samples=len(res.calibration_s),
        warmup_ops=len(res.warmup),
        warmup_s=sum(s for o in res.warmup for s in o.samples),
        untraced_samples=len(samples),
        traced_samples=sum(len(o.samples) for traced, o in res.timed if traced),
    )
    print(f"gaitrl benchmark: {name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"digest sha256 {res.digest} over the first {res.digest_ops} operations "
          f"({len(res.warmup)} warm-up)")
    print(f"failed_frac      {failed / attempted:.4f}   ({failed} of {attempted} {unit})")

    if not trace:
        setup_s = statistics.median(res.setup_s)
        metrics = {
            "setup_s": metric(scale * setup_s, "s"),
            "op_s": metric(scale * op_s, "s"),
            "env_steps_per_s": metric(rate / scale, "1/s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        n = len(samples)
        print(f"host_scale       {scale:.4f}   (calibration loop: median {cal_s:.5f} s "
              f"of {len(res.calibration_s)}; scaled = measured x {CALIBRATION_S} / median)")
        print(f"setup_s          {scale * setup_s:.4f} s   "
              f"(scaled; median of {len(res.setup_s)}: {setup_s:.4f} s measured)")
        print(f"{workload.op_metric:<16} {scale * op_s:.4f} s   "
              f"(op_s, scaled; median of {n} {unit}: {op_s:.4f} s measured)")
        print(f"env_steps_per_s  {rate / scale:.1f} 1/s   (scaled; median of {n} {unit}: "
              f"{rate:.1f} measured; {steps} steps in {wall:.2f} s)")
        print(f"peak_rss_mb      {peak_rss_mb:.1f} MB")
    else:
        metrics = layer_metrics(tracer, res, op_s)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{name}.npz")
        for (key, unit_name) in per_layer_metrics(NAMES):
            print(f"{key:<48} {metrics[key]['value']:.6g} {unit_name}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))


def layer_metrics(tracer, res, untraced_op_s: float) -> dict:
    from tracer import NAMES

    summary = tracer.summary()
    traced = [o for was_traced, o in res.timed if was_traced]
    wall = sum(o.wall for o in traced)
    # counts are per iteration on training and per trial on eval-bench, so
    # they do not depend on how many operations fit in the run
    per = sum(len(o.samples) for o in traced)
    units = dict(per_layer_metrics(NAMES))
    values = {}
    for n in NAMES:
        calls = summary["calls"][n]
        self_s = summary["self_s"][n]
        values[f"{n}.calls"] = calls / per
        values[f"{n}.self_us"] = 1e6 * self_s / calls if calls else 0.0
        values[f"{n}.share"] = self_s / wall
    scored = summary["calls"]["amp.style_reward"]
    values["amp.window_keep_ratio"] = (
        summary["calls"]["amp.WindowBuffer.add"] / scored if scored else 0.0
    )
    values["bench.trace_bytes"] = sum(o.trace_bytes for o in traced) / per
    values["untraced.share"] = 1.0 - summary["covered_s"] / wall
    op_s = statistics.median(s for o in traced for s in o.samples)
    values["trace.ops"] = len(traced)
    values["trace.op_s"] = op_s
    values["trace.untraced_op_s"] = untraced_op_s
    values["trace.overhead_s"] = op_s - untraced_op_s
    values["trace.overhead_frac"] = (op_s - untraced_op_s) / untraced_op_s
    return {k: metric(v, units[k]) for k, v in values.items()}


# -- all workloads ------------------------------------------------------------------


def run_all(seed: int, seconds: float, trace: bool) -> None:
    """Each workload in its own process; prints one table and a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"{name} exited with code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
        rows.append((name, res, meta))
    if not trace:
        print()
        print(f"{'workload':<12}{'setup_s':>10}{'op_s':>16}{'n':>4}"
              f"{'env_steps_per_s':>17}{'peak_rss_mb':>13}{'failed_frac':>13}")
        print(f"{'':<12}{'s':>10}{'s':>16}{'':>4}{'1/s':>17}{'MB':>13}{'':>13}")
        for name, res, meta in rows:
            m = {k: v["value"] for k, v in res["metrics"].items()}
            print(f"{name:<12}{m['setup_s']:>10.4f}{m['op_s']:>16.4f}{meta['untraced_samples']:>4}"
                  f"{m['env_steps_per_s']:>17.1f}{m['peak_rss_mb']:>13.1f}"
                  f"{res['failed'] / res['attempted']:>13.4f}")
    print(json.dumps(combined, sort_keys=True))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    import_package()
    if args.workload == "all":
        run_all(args.seed, args.seconds, bool(args.trace))
    else:
        run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
