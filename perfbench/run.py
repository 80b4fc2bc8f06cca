"""heatseg benchmark: one workload per run, through the user's CLI path.

    python3 perfbench/run.py --workload train-acceptance --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

Run from the root of a heatseg checkout.  The run generates its dataset and
config from ``--seed`` into a fresh directory under ``.perfbench-tmp/``,
starts one worker process at a time (``worker.py``) with the checkout's
``src`` first on ``PYTHONPATH``, and removes the directory when it ends.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: set-up is
the median of several fresh-process cold starts, the rest comes from one
untraced process that repeats the workload's CLI command for ``--seconds``.
``--trace 1`` reports the per-layer metrics instead: half the time runs
untraced and half traced, and the ratio of their median steps is
``trace.overhead_frac``.  The spans of the traced half are written to
``.perfbench-out/trace-<workload>.npz``.

The last line of standard output is the result object; the line before it
holds the environment, the sample counts and every output check.  The exit
code is 0 only when every output check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import per_layer_units  # noqa: E402
from worker import final_loss, read_log  # noqa: E402

# cold starts per --trace 0 run, half before and half after the timed part
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60
# A run also pays for its preparation; the worker's own limit keeps a hung
# program from outliving the run.
WORKER_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    kind: str            # "train" or "eval"
    size: int            # square image extent
    classes: int
    batch: int
    layers: int          # coupling layers L
    samples: int         # train split; the eval split for "eval"
    steps: int           # train: steps per command; eval: steps that train its checkpoint


# All single precision, c_feat 128, encoder widths (32, 64), factor 4.  Why
# each exists is stated in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "train-acceptance": Workload("train", 64, 4, 8, 2, 64, 50),
    "train-encoder-128": Workload("train", 128, 4, 4, 0, 32, 40),
    "train-coupling-heavy": Workload("train", 32, 12, 8, 4, 64, 30),
    "eval-acceptance": Workload("eval", 64, 4, 8, 2, 800, 40),
}
EVAL_SUBSET = 16           # images predicted batched and one at a time
TRAIN_SPLIT = 64           # samples that train the eval checkpoint
TOTAL_STEPS = 300          # schedule length, as in the acceptance run
# Ten times the default rate: a few dozen steps then learn enough that
# loss_final varies little between seeds and the eval checkpoint predicts
# every class, not only the background.
LEARNING_RATE = 1e-3


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def worker(args, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"worker {args[0]} exited {proc.returncode}", 1)
    return proc


def prepare(name: str, w: Workload, seed: int, tmp: Path):
    """Generate the workload's inputs; returns the plan the workers run."""
    def synth(out, num, synth_seed):
        return ["synth", "--out", str(out), "--num", str(num), "--size", str(w.size),
                "--classes", str(w.classes), "--seed", str(synth_seed)]

    config = write_json(tmp / "config.json", {
        "seed": seed, "train_data": "train", "num_categories": w.classes,
        "image_size": w.size, "decoder_layers": w.layers, "batch_size": w.batch,
        "total_steps": TOTAL_STEPS, "learning_rate": LEARNING_RATE, "precision": "single",
    })
    ckpt = tmp / "model.ckpt"
    if w.kind == "train":
        commands = [synth(tmp / "train", w.samples, seed)]
        plan = {"kind": "train", "steps": w.steps, "log": str(ckpt) + ".log",
                "argv": ["train", "--config", str(config), "--out", str(ckpt),
                         "--max-steps", str(w.steps)]}
    else:
        commands = [synth(tmp / "train", TRAIN_SPLIT, seed),
                    synth(tmp / "eval", w.samples, seed + 1),
                    ["train", "--config", str(config), "--out", str(ckpt),
                     "--max-steps", str(w.steps)]]
        plan = {"kind": "eval", "ckpt": str(ckpt), "eval_data": str(tmp / "eval"),
                "subset": EVAL_SUBSET, "pixels": w.samples * w.size * w.size,
                "prep_log": str(ckpt) + ".log",
                "argv": ["eval", "--ckpt", str(ckpt), "--data", str(tmp / "eval")]}
    worker(["prep", write_json(tmp / "prep.json", {"commands": commands})], WORKER_TIMEOUT_S)
    return write_json(tmp / "plan.json", plan), plan


def measure(plan_path: Path, tmp: Path, seconds: float, traced: bool, tag: str, trace_out=None):
    result = tmp / f"result-{tag}.json"
    args = ["run", plan_path, seconds, int(traced), result] + ([trace_out] if trace_out else [])
    worker(args, WORKER_TIMEOUT_S)
    return json.loads(result.read_text(encoding="utf-8"))


def setup_seconds(plan_path: Path, tmp: Path, probes: range):
    """Cold start to first step, one fresh process per probe."""
    samples = []
    for i in probes:
        result = tmp / f"probe-{i}.json"
        t_spawn = time.monotonic()
        worker(["probe", plan_path, repr(t_spawn), result], PROBE_TIMEOUT_S)
        probe = json.loads(result.read_text(encoding="utf-8"))
        if "error" in probe:
            fail(probe["error"], 1)
        samples.append(probe["setup_s"])
    return samples


def step_stats(run):
    ms = sorted(1e3 * s for s, _ in run["steps"])
    if not ms:
        fail("no timed steps: raise --seconds", 1)
    p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0]
    images = sum(n for _, n in run["steps"])
    return {
        "p50": statistics.median(ms),
        "p90": p90,
        "images_per_s": images / (sum(ms) / 1e3),
        "count": len(ms),
        "above_p90": sum(v > p90 for v in ms),
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_describe():
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return (proc.stdout.strip() or None) if proc.returncode == 0 else None


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    w = WORKLOADS[name]
    (ROOT / ".perfbench-tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=ROOT / ".perfbench-tmp"))
    try:
        plan_path, plan = prepare(name, w, seed, tmp)
        if trace:
            out_dir = ROOT / ".perfbench-out"
            out_dir.mkdir(exist_ok=True)
            runs = [measure(plan_path, tmp, seconds / 2, False, "untraced"),
                    measure(plan_path, tmp, seconds / 2, True, "traced",
                            out_dir / f"trace-{name}.npz")]
        else:
            half = SETUP_PROBES // 2
            setup = setup_seconds(plan_path, tmp, range(half))
            runs = [measure(plan_path, tmp, seconds, False, "untraced")]
            setup += setup_seconds(plan_path, tmp, range(half, SETUP_PROBES))
        # eval reports the loss_final of the run that trained its checkpoint
        prep_final = final_loss(read_log(plan["prep_log"])) if w.kind == "eval" else None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    checks = {}
    for run in runs:
        for error in run["errors"]:
            sys.stderr.write(error)
        for check, ok in run["checks"].items():
            checks[check] = checks.get(check, True) and ok
    stats = [step_stats(run) for run in runs]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    correct = all(checks.values()) and failed == 0

    if trace:
        per_layer = dict(runs[1]["per_layer"])
        per_layer["trace.overhead_frac"] = stats[1]["p50"] / stats[0]["p50"] - 1.0
        metrics = {k: metric(per_layer[k], unit)
                   for k, unit in per_layer_units().items() if k in per_layer}
        missing = runs[1]["missing"]
    else:
        s = stats[0]
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "images_per_s": metric(s["images_per_s"], "images/s"),
            "step_ms.p50": metric(s["p50"], "ms"),
            "step_ms.p90": metric(s["p90"], "ms"),
            "peak_rss_mb": metric(runs[0]["peak_rss_mb"], "MiB"),
            "ok_frac": metric(1.0 - failed / attempted, "ratio"),
            "loss_final": metric(runs[0]["loss_final"] if w.kind == "train" else prep_final,
                                 "nats"),
        }
        missing = []

    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": {**runs[0]["env"], "git_describe": git_describe(), "nproc": os.cpu_count(),
                "cpus_allowed": len(os.sched_getaffinity(0)), "cpu_model": cpu_model()},
        "samples": {"steps": [s["count"] for s in stats],
                    "steps_above_p90": [s["above_p90"] for s in stats],
                    "setup_probes": 0 if trace else len(setup)},
        "checks": checks,
        "missing": missing,
    }
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool):
    """Every workload in its own process; one row of metrics per workload."""
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = 1
            sys.stderr.write(proc.stderr)
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        cells = [f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
        status = "ok" if result["correct"] else "CHECK FAILED"
        print(f"{name} [{status}]: " + ", ".join(cells))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "heatseg" / "cli.py").is_file():
        fail(f"no heatseg sources under {ROOT / 'src'}: run from a heatseg checkout")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
