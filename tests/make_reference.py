"""Float64 reference values of heatseg at the tests' tiny config.

``compute(workdir)`` trains the tiny config in double precision for 8 steps
at L = 0 and L = 2 through the CLI, evaluates each checkpoint on the same
samples, and runs one fixed batch through a freshly built L = 2 model.  It
returns the logged loss parts, the eval JSON and the forward logits.
``test_reference.py`` compares these against ``reference_f64.json`` at
1e-12 relative, so a change that alters the numerics is seen in Tier-1.

When numerics change on purpose, rewrite the file with

    PYTHONPATH=src python tests/make_reference.py

and record the largest deviation from the old file in CHANGES.md.
"""
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from heatseg.cli import main
from heatseg.config import parse_run_config
from heatseg.data import SynthConfig, batches, load_dataset, save_dataset, stack_batch, synth_generate
from heatseg.model import SegModel
from heatseg.tensor import Tensor, no_grad

REFERENCE = Path(__file__).resolve().parent / "reference_f64.json"
LAYERS = (0, 2)
STEPS = 8


def tiny_config(data_dir, layers: int) -> dict:
    """The tests' tiny config (see conftest.py) in double precision."""
    return {
        "seed": 1,
        "train_data": str(data_dir),
        "num_categories": 3,
        "image_size": 16,
        "c_feat": 8,
        "c_class": 4,
        "decoder_layers": layers,
        "encoder_widths": [4, 6],
        "total_steps": STEPS,
        "batch_size": 2,
        "precision": "double",
    }


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"heatseg {' '.join(argv)} exited {code}")
    return out.getvalue()


def compute(workdir) -> dict:
    workdir = Path(workdir)
    data_dir = workdir / "tiny"
    samples = synth_generate(SynthConfig(num_samples=6, size=16, num_categories=3, seed=5))
    save_dataset(samples, data_dir)

    runs = {}
    for layers in LAYERS:
        config_path = workdir / f"config_L{layers}.json"
        config_path.write_text(json.dumps(tiny_config(data_dir, layers)), encoding="utf-8")
        ckpt = workdir / f"L{layers}.ckpt"
        _run(["train", "--config", str(config_path), "--out", str(ckpt)])
        log = Path(str(ckpt) + ".log").read_text(encoding="utf-8").splitlines()
        runs[f"L{layers}"] = {
            "log": [json.loads(line) for line in log],
            "eval": json.loads(_run(["eval", "--ckpt", str(ckpt), "--data", str(data_dir)])),
        }

    cfg = parse_run_config(tiny_config(data_dir, 2))
    model = SegModel(cfg.model_config(), seed=cfg.seed, dtype=cfg.dtype)
    first = batches(load_dataset(data_dir), cfg.batch_size, seed=0, shuffle=False)[0]
    images, _ = stack_batch(first, dtype=cfg.dtype)
    with no_grad():
        logits = model.forward(Tensor(images)).logits.data
    return {
        "runs": runs,
        "logits": {"shape": list(logits.shape), "values": logits.reshape(-1).tolist()},
    }


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        ref = compute(tmp)
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}", file=sys.stderr)
