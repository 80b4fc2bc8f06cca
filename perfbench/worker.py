"""One benchmark process: runs ``heatseg.cli.main`` in-process and reports timings.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``, one
process at a time, in one of three modes:

    worker.py prep  PLAN                     run the plan's CLI commands, untimed
    worker.py probe PLAN T_SPAWN RESULT      cold start: spawn time to first step
    worker.py run   PLAN SECONDS TRACE RESULT [TRACE_OUT]

``run`` repeats the plan's CLI command (a fixed-length train or one eval pass)
until SECONDS have passed, stopping the last repeat at the first step past the
deadline.  A step runs from one ``stack_batch`` call to the next, or to the
command's final ``save_checkpoint`` (train) or ``summarize`` (eval); the first
step of each repeat is a warm-up and is not timed.  With TRACE=1 every layer
and op is wrapped in a span (see ``tracer.py``).
"""
from __future__ import annotations

import contextlib
import ctypes
import io
import json
import math
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Patches, Tracer


class Stop(BaseException):
    """Ends a CLI command early; not an Exception, so the CLI's handlers pass it on."""


def call_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI command."""
    from heatseg.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# step clock


class StepClock:
    """Timestamps step boundaries by wrapping ``stack_batch`` and the end call."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.deadline = None
        self.stamps = []          # (time, images in the step that starts here)
        self.captured = None      # first argument of the end call

    def start_command(self, deadline):
        self.deadline = deadline
        self.stamps = []
        self.captured = None

    def _end(self):
        self.stamps.append((time.perf_counter(), 0))
        if self.tracer:
            self.tracer.end_step()

    def wrap_stack(self, fn):
        def stamped(batch, *args, **kwargs):
            if self.deadline is not None and self.stamps and time.perf_counter() >= self.deadline:
                self._end()
                raise Stop
            self.stamps.append((time.perf_counter(), len(batch)))
            if not self.tracer:
                return fn(batch, *args, **kwargs)
            self.tracer.begin_step()
            idx = self.tracer.open("data.stack")
            try:
                return fn(batch, *args, **kwargs)
            finally:
                self.tracer.close(idx)

        return stamped

    def wrap_end(self, fn):
        def stamped(first, *args, **kwargs):
            self._end()
            self.captured = first
            return fn(first, *args, **kwargs)

        return stamped

    def steps(self):
        """(seconds, images) per completed step of the current command."""
        s = self.stamps
        return [(s[i + 1][0] - s[i][0], s[i][1]) for i in range(len(s) - 1)]


# ---------------------------------------------------------------------------
# output checks


def read_log(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def final_loss(records):
    """Mean ``l_total`` over the last tenth of a train log."""
    tail = records[-max(1, len(records) // 10):]
    return sum(r["l_total"] for r in tail) / len(tail)


def check_train_log(records, expected_steps, complete):
    """Check a train log; returns (checks, loss_final or None).

    The CLI stops at the first non-finite loss, so a command has at most one.
    """
    finite = all(math.isfinite(v) for r in records for k, v in r.items() if k.startswith("l_"))
    steps = [r.get("step") for r in records]
    checks = {
        "train.losses_finite": finite,
        "train.one_record_per_step": steps == list(range(1, len(records) + 1))
        and (len(records) == expected_steps if complete else len(records) <= expected_steps),
    }
    loss_final = final_loss(records) if complete and records and finite else None
    if complete:
        checks["train.loss_final_below_first"] = (
            loss_final is not None and loss_final < records[0]["l_total"]
        )
    return checks, loss_final


def check_batched_vs_single(plan):
    """Predictions of a fixed subset, batched as eval batches them and one at a time."""
    import numpy as np
    from heatseg.checkpoint import load_checkpoint
    from heatseg.config import parse_run_config
    from heatseg.data import load_dataset, stack_batch
    from heatseg.model import SegModel

    arrays, meta = load_checkpoint(plan["ckpt"])
    cfg = parse_run_config(meta["config"])
    model = SegModel(cfg.model_config(), seed=cfg.seed, dtype=cfg.dtype)
    model.load_arrays(arrays)
    subset = load_dataset(plan["eval_data"])[: plan["subset"]]
    batched = np.concatenate([
        model.predict(stack_batch(subset[i : i + cfg.batch_size], dtype=cfg.dtype)[0])
        for i in range(0, len(subset), cfg.batch_size)
    ])
    single = np.concatenate([model.predict(stack_batch([s], dtype=cfg.dtype)[0]) for s in subset])
    return compare_predictions(batched, single)


def compare_predictions(batched, single):
    import numpy as np

    return {
        "eval.batched_equals_single": bool(np.array_equal(batched, single)),
        "eval.predictions_not_constant": len(np.unique(batched)) > 1,
    }


# ---------------------------------------------------------------------------
# environment


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np
    import heatseg

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "heatseg": str(Path(heatseg.__file__).parent),
    }


# ---------------------------------------------------------------------------
# modes


def prep(plan):
    for argv in plan["commands"]:
        code, _, err = call_cli(argv)
        if code != 0:
            sys.stderr.write(err)
            raise SystemExit(f"preparation command {argv[0]} exited {code}")


def probe(plan, t_spawn, result_path):
    import heatseg.cli  # noqa: F401  (import is part of the cold start)

    first = []

    def stop_at_first(fn):
        def stamped(*args, **kwargs):
            first.append(time.monotonic())
            raise Stop

        return stamped

    patches = Patches()
    patches.function("heatseg.data", "stack_batch", stop_at_first)
    try:
        code, _, err = call_cli(plan["argv"])
        error = f"command exited {code} before its first step: {err.strip()}"
    except Stop:
        error = None
    finally:
        patches.restore()
    result = {"setup_s": first[0] - t_spawn} if first else {"error": error}
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


def run(plan, seconds, traced, result_path, trace_path=None):
    import heatseg.cli  # noqa: F401

    tracer = Tracer() if traced else None
    clock = StepClock(tracer)
    patches = Patches()
    end_hook = ("heatseg.checkpoint", "save_checkpoint") if plan["kind"] == "train" \
        else ("heatseg.metrics", "summarize")
    hooked = patches.function("heatseg.data", "stack_batch", clock.wrap_stack)
    hooked &= patches.function(*end_hook, clock.wrap_end)
    if tracer:
        tracer.install(patches)

    checks, errors = {"bench.step_hooks": hooked}, []
    steps, timed, attempted, failed = [], [], 0, 0
    loss_final = None
    deadline = time.perf_counter() + seconds
    while hooked:
        # the first command always completes, so every run checks a whole one
        clock.start_command(deadline if steps else None)
        first_step = tracer.step_id + 1 if tracer else None
        complete, code, out, err = False, None, "", ""
        try:
            code, out, err = call_cli(plan["argv"])
            complete = True
        except Stop:
            pass
        except Exception:  # a crash in the program is a failed step, not a crashed benchmark
            errors.append(traceback.format_exc())
            failed += 1
        command_steps = clock.steps()
        attempted += max(1, len(command_steps))
        if tracer:
            timed.extend(range(first_step + 1, first_step + len(command_steps)))
        steps.extend(command_steps[1:])
        if complete and code != 0:
            checks["cli.exit_0"] = False
            errors.append(err)
            failed += 1
        elif complete:
            checks.setdefault("cli.exit_0", True)

        if plan["kind"] == "train":
            records = read_log(plan["log"]) if Path(plan["log"]).exists() else []
            got, final = check_train_log(records, plan["steps"], complete)
            if loss_final is None:
                loss_final = final
        else:
            got = {}
            if complete and code == 0:
                try:
                    miou = json.loads(out.strip().splitlines()[-1])["miou"]
                except (ValueError, IndexError, KeyError, TypeError):
                    miou = None
                cm = clock.captured
                got["eval.summary_has_miou"] = isinstance(miou, float) and math.isfinite(miou)
                got["eval.confusion_total_is_pixels"] = int(cm.counts.sum()) == plan["pixels"]
        for name, ok in got.items():
            checks[name] = checks.get(name, True) and ok
            failed += not ok
        if not complete or time.perf_counter() >= deadline or errors:
            break

    restored = patches.restore()
    checks["bench.hooks_restored"] = restored
    if plan["kind"] == "eval":
        for name, ok in check_batched_vs_single(plan).items():
            checks[name] = ok
            failed += not ok

    result = {
        "steps": steps,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "errors": errors,
        "loss_final": loss_final,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer:
        per_layer = tracer.summarize(timed)
        result["per_layer"] = per_layer
        result["missing"] = sorted(tracer.missing)
        if trace_path:
            tracer.write(trace_path)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


def main(argv):
    mode, plan = argv[0], json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    if mode == "prep":
        prep(plan)
    elif mode == "probe":
        probe(plan, float(argv[2]), argv[3])
    elif mode == "run":
        run(plan, float(argv[2]), argv[3] == "1", argv[4], argv[5] if len(argv) > 5 else None)
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
