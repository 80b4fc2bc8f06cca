"""Self-test of the benchmark: a tiny run of every workload, traced and untraced.

    python3 perfbench/selftest.py

It checks that each run exits 0 with every metric ``BENCHMARK.json`` names,
each with its unit, that the output checks of the workload's kind ran and
passed, that the checks reject a broken log and broken predictions, and that
the benchmark refuses to run without the heatseg sources.  It takes a few
minutes, most of it spent preparing inputs.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from worker import check_train_log, compare_predictions  # noqa: E402

EXPECTED_CHECKS = {
    "train": {"cli.exit_0", "train.losses_finite", "train.one_record_per_step",
              "train.loss_final_below_first", "bench.step_hooks", "bench.hooks_restored"},
    "eval": {"cli.exit_0", "eval.summary_has_miou", "eval.confusion_total_is_pixels",
             "eval.batched_equals_single", "eval.predictions_not_constant",
             "bench.step_hooks", "bench.hooks_restored"},
}


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(name, trace, spec, problems):
    proc = run_bench(["--workload", name, "--seed", "11", "--seconds", "1", "--trace", str(trace)])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        problems.append(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{name} trace={trace}: result keys {sorted(result)}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{name} trace={trace}: metric {m['name']} missing")
        elif got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            problems.append(f"{name} trace={trace}: metric {m['name']} reads {got}")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{name} trace={trace}: metrics not in BENCHMARK.json: {sorted(extra)}")
    ran = set(info["checks"])
    expected = EXPECTED_CHECKS[WORKLOADS[name].kind]
    if not expected <= ran or not all(info["checks"].values()) or not result["correct"]:
        problems.append(f"{name} trace={trace}: checks {info['checks']}, expected {sorted(expected)}")
    for key in ("git_describe", "python", "numpy", "blas", "blas_threads", "nproc", "cpu_model"):
        if key not in info["env"]:
            problems.append(f"{name} trace={trace}: environment lacks {key}")
    print(f"{name} trace={trace}: {len(result['metrics'])} metrics, "
          f"{result['attempted']} attempted, checks {sorted(ran)}")


def check_negative_controls(problems):
    good = [{"step": i + 1, "l_total": 2.0 - 0.1 * i} for i in range(10)]
    checks, _ = check_train_log(good, 10, True)
    if not all(checks.values()):
        problems.append(f"a good log fails the train checks: {checks}")
    broken = {
        "non-finite loss": [dict(r, l_total=math.nan) if r["step"] == 5 else r for r in good],
        "missing record": good[:4] + good[5:],
        "loss went up": [dict(r, l_total=1.0 + 0.1 * i) for i, r in enumerate(good)],
    }
    for what, records in broken.items():
        checks, _ = check_train_log(records, 10, True)
        if all(checks.values()):
            problems.append(f"the train checks accept a log with a {what}")

    import numpy as np

    preds = np.arange(2 * 8 * 8).reshape(2, 8, 8) % 4
    if not all(compare_predictions(preds, preds.copy()).values()):
        problems.append("identical non-constant predictions fail the eval checks")
    mixed = preds.copy()
    mixed[1, 0, 0] = (mixed[1, 0, 0] + 1) % 4
    for what, (a, b) in {"a changed pixel": (preds, mixed),
                         "constant predictions": (preds * 0, preds * 0)}.items():
        if all(compare_predictions(a, b).values()):
            problems.append(f"the eval checks accept {what}")

    # the benchmark alone, without the program, must refuse to run
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench-tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(["--workload", "train-acceptance", "--seed", "1", "--seconds", "1"],
                         cwd=tmp)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("BENCHMARK.json workloads differ from run.py", file=sys.stderr)
        return 1
    (ROOT / ".perfbench-tmp").mkdir(exist_ok=True)
    problems = []
    check_negative_controls(problems)
    for name in WORKLOADS:
        for trace in (0, 1):
            check_run(name, trace, spec, problems)
    for p in problems:
        print("FAIL:", p, file=sys.stderr)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
