"""Command line entry points: synth, train, eval, gradcheck, export-heatmaps.

Results (metrics JSON, gradient report, synth summary) go to stdout; progress
and diagnostics go to stderr.  Exit code 0 means success, 1 means a failed
check, a diverged run or a checkpoint holding non-finite values, 2 means bad
input.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .checkpoint import (
    CheckpointError,
    copy_named,
    is_json_int,
    load_checkpoint,
    save_checkpoint,
    write_atomic,
)
from .config import ConfigError, load_run_config, parse_run_config
from .data import (
    DataError,
    SynthConfig,
    batches,
    load_dataset,
    load_ppm,
    load_sample,
    pixel_frequencies,
    read_manifest,
    save_dataset,
    save_pgm,
    stack_batch,
    synth_generate,
    to_unit,
)
from .gradcheck import format_report, run_all
from .losses import total_loss
from .metrics import ConfusionMatrix, summarize
from .model import SegModel
from .optim import AdamState, adam_step, cosine_lr, zero_grad
from .tensor import Tensor, no_grad, sigmoid


class NonFiniteCheckpoint(Exception):
    """A checkpoint holds NaN or infinite values; commands exit 1 on it."""


def _fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_synth(args) -> int:
    cfg = SynthConfig(
        num_samples=args.num,
        size=args.size,
        num_categories=args.classes,
        seed=args.seed,
        shapes_min=args.shapes_min,
        shapes_max=args.shapes_max,
        noise=args.noise,
    )
    samples = synth_generate(cfg)
    save_dataset(samples, args.out)
    summary = {
        "samples": cfg.num_samples,
        "size": cfg.size,
        "categories": cfg.num_categories,
        "pixel_freq": [round(f, 6) for f in pixel_frequencies(samples, cfg.num_categories)],
    }
    print(json.dumps(summary))
    return 0


def _stored_config(path, meta: dict) -> dict:
    """The run config a checkpoint was written with, as its JSON object."""
    stored = meta.get("config")
    if not isinstance(stored, dict):
        raise CheckpointError(f"{path}: checkpoint has no stored config")
    return stored


def _train_arrays(named, state: AdamState):
    """(name, array) of every parameter, then of its Adam moments, as checkpoints store them."""
    out = [(name, p.data) for name, p in named]
    for (name, _), m, v in zip(named, state.m, state.v):
        out += [(f"adam.m.{name}", m), (f"adam.v.{name}", v)]
    return out


def cmd_train(args) -> int:
    if args.max_steps is not None and args.max_steps < 0:
        return _fail(f"--max-steps must be >= 0, got {args.max_steps}")
    cfg = load_run_config(args.config)
    if cfg.train_data is None:
        return _fail("config does not set 'train_data'")
    if not Path(cfg.train_data).is_dir():
        return _fail(f"training data directory not found: {cfg.train_data}")
    samples = load_dataset(cfg.train_data)
    for i, s in enumerate(samples):
        if s.image.shape[1] != cfg.image_size or s.image.shape[2] != cfg.image_size:
            return _fail(
                f"sample {i} has extents {s.image.shape[1:]}, config expects {cfg.image_size}"
            )
        bad = s.label >= cfg.num_categories
        # the ignore index may lie outside the categories; the losses skip it
        if cfg.ignore_index is not None:
            bad &= s.label != cfg.ignore_index
        if bad.any():
            return _fail(
                f"sample {i} contains label {int(s.label[bad].max())}, "
                f"config allows [0, {cfg.num_categories})"
            )

    model = SegModel(cfg.model_config(), seed=cfg.seed, dtype=cfg.dtype)
    named = model.named_parameters()
    params = [p for _, p in named]
    state = AdamState(params)
    start_step = 0

    if args.resume:
        arrays, meta = load_checkpoint(args.resume)
        stored, current = _stored_config(args.resume, meta), cfg.to_dict()
        if stored != current:
            diff = sorted(k for k in set(stored) | set(current) if stored.get(k) != current.get(k))
            return _fail(f"resume config mismatch on keys: {', '.join(diff)}")
        start_step = meta.get("step")
        if not is_json_int(start_step) or not 0 <= start_step <= cfg.total_steps:
            raise CheckpointError(
                f"{args.resume}: checkpoint step {json.dumps(start_step)} is not an "
                f"integer in [0, {cfg.total_steps}]"
            )
        copy_named(arrays, _train_arrays(named, state))
        state.t = start_step

    target = cfg.total_steps
    if args.max_steps is not None:
        target = min(target, args.max_steps)
    if target < start_step:
        return _fail(f"checkpoint is already at step {start_step}, target is {target}")

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    log_path = Path(str(out_path) + ".log")

    if args.resume:
        _trim_log(log_path, start_step)

    num_batches = math.ceil(len(samples) / cfg.batch_size)
    code = 0
    with open(log_path, "a" if args.resume else "w", encoding="utf-8") as log:
        for step in range(start_step, target):
            epoch, index = divmod(step, num_batches)
            if index == 0 or step == start_step:
                epoch_batches = batches(samples, cfg.batch_size, cfg.seed, True, epoch)
            images, labels = stack_batch(epoch_batches[index], dtype=cfg.dtype)

            out = model.forward(Tensor(images))
            loss, parts = total_loss(
                out.logits, labels,
                out.scores_per_layer, out.embeddings_per_layer, cfg,
            )
            zero_grad(params)
            loss.backward()
            lr = cosine_lr(step, cfg.total_steps, cfg.learning_rate)

            # JSON has no NaN or infinity; a non-finite part is logged as null
            record = {"step": step + 1, "lr": lr}
            record.update((k, v if math.isfinite(v) else None) for k, v in parts.items())
            log.write(json.dumps(record) + "\n")
            # checked before the update, so the parameters and optimizer state
            # saved below are those of the last finite step
            finite_loss = None not in record.values()
            finite_grad = all(p.grad is None or np.isfinite(p.grad).all() for p in params)
            if not (finite_loss and finite_grad):
                what = "gradient" if finite_loss else "loss"
                print(f"error: non-finite {what} at step {step + 1}", file=sys.stderr)
                code = 1
                break
            adam_step(params, [p.grad for p in params], state, lr)

    meta = {"config": cfg.to_dict(), "step": state.t}
    save_checkpoint(out_path, _train_arrays(named, state), meta)
    print(f"saved checkpoint at step {state.t} to {out_path}", file=sys.stderr)
    return code


def _trim_log(log_path: Path, last_step: int) -> None:
    """Rewrite a resumed run's log to its complete records up to ``last_step``.

    A crash can leave a partial last line, and steps past the checkpoint are
    run again; appending after either would glue or repeat records.
    """
    kept = []
    if log_path.exists():
        with open(log_path, encoding="utf-8", errors="replace") as f:
            for line in f:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                step = record.get("step") if isinstance(record, dict) else None
                if is_json_int(step) and step <= last_step:
                    kept.append(line.rstrip("\n") + "\n")
    write_atomic(log_path, ["".join(kept).encode("utf-8")])


def _model_from_checkpoint(ckpt_path):
    arrays, meta = load_checkpoint(ckpt_path)
    # argmax of NaN scores is 0, so such weights would still give metrics
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise NonFiniteCheckpoint(f"{ckpt_path}: array {name!r} holds non-finite values")
    cfg = parse_run_config(_stored_config(ckpt_path, meta))
    model = SegModel(cfg.model_config(), seed=cfg.seed, dtype=cfg.dtype)
    model.load_arrays(arrays)
    return model, cfg


def cmd_eval(args) -> int:
    if args.ignore_index is not None and not 0 <= args.ignore_index <= 255:
        # labels are bytes, so such an index would exclude nothing
        return _fail(f"--ignore-index must be in 0..255, got {args.ignore_index}")
    model, cfg = _model_from_checkpoint(args.ckpt)
    entries = read_manifest(args.data)
    ignore = args.ignore_index if args.ignore_index is not None else cfg.ignore_index
    cm = ConfusionMatrix(cfg.num_categories)
    # each batch is read just before it is stacked, so one batch of samples is
    # resident at a time, whatever the size of the split
    for batch in batches(entries, cfg.batch_size, seed=0, shuffle=False):
        images, labels = stack_batch([load_sample(e) for e in batch], dtype=cfg.dtype)
        preds = model.predict(images)
        cm.accumulate(preds, labels, ignore_index=ignore)
    print(json.dumps(summarize(cm)))
    return 0


def cmd_gradcheck(args) -> int:
    results = run_all(corrupt=args.corrupt)
    print(format_report(results))
    return 0 if all(r.ok for r in results) else 1


def cmd_export_heatmaps(args) -> int:
    model, cfg = _model_from_checkpoint(args.ckpt)
    batch = to_unit(load_ppm(args.image)[None], cfg.dtype)
    # the forward rejects extents off the factor before anything is written
    with no_grad():
        out = model.forward(Tensor(batch))
        heat_layers = [sigmoid(scores).data[0] for scores in out.scores_per_layer]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for li, heat in enumerate(heat_layers, start=1):
        for n, channel in enumerate(heat):
            span = float(channel.max() - channel.min())
            if span <= 0.0:
                scaled = np.zeros(channel.shape, dtype=np.uint8)
            else:
                scaled = np.round((channel - channel.min()) / span * 255.0).astype(np.uint8)
            save_pgm(out_dir / f"layer{li}_class{n}.pgm", scaled)
    save_pgm(out_dir / "pred.pgm", model.readout(out.logits.data)[0].astype(np.uint8))
    written = len(heat_layers) * cfg.num_categories + 1
    print(f"wrote {written} files to {out_dir}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatseg",
        description="Segmentation with heatmap-coupled class embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic shape dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--num", type=int, required=True, help="number of samples")
    p.add_argument("--size", type=int, default=64, help="square image extent")
    p.add_argument("--classes", type=int, default=4, help="number of categories")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shapes-min", type=int, default=1, help="min shapes per category")
    p.add_argument("--shapes-max", type=int, default=3, help="max shapes per category")
    p.add_argument("--noise", type=float, default=0.02, help="additive noise amplitude")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True, help="flat JSON run config")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument(
        "--max-steps",
        type=int,
        help="stop after this global step (schedule still spans total_steps)",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--ignore-index", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="verify adjoints against finite differences")
    p.add_argument(
        "--corrupt",
        action="store_true",
        help="negative control: break one adjoint and expect a failing report",
    )
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("export-heatmaps", help="write per-layer category heatmaps as PGM")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--image", required=True, help="input PPM image")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_export_heatmaps)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonFiniteCheckpoint as e:
        return _fail(str(e), code=1)
    except (ConfigError, DataError, CheckpointError, ValueError, OSError) as e:
        return _fail(str(e))


if __name__ == "__main__":
    raise SystemExit(main())
