"""Acceptance gate: one test per release criterion, each printing a verdict.

Every test emits a single "[PASS]"/"[FAIL]" line before asserting, so a -rA
run leaves a scannable scorecard in the captured output.  Training criteria go
through the command-line entry point rather than internal shortcuts; the
slower ones share one synthetic corpus built once per session.
"""
import json
import time

import numpy as np
import pytest

from heatseg.checkpoint import load_checkpoint, save_checkpoint
from heatseg.cli import main
from heatseg.config import parse_run_config
from heatseg.coupling import (
    CouplingParams,
    affine_params,
    coupling_forward,
    gated_update,
    normalize_region,
    region_size,
)
from heatseg.data import SynthConfig, load_dataset, save_dataset, synth_generate
from heatseg.gradcheck import run_all
from heatseg.losses import fisher_loss
from heatseg.metrics import ConfusionMatrix, summarize
from heatseg.tensor import Tensor, softmax_axis, topk_indices


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def read_log(ckpt_path) -> list:
    with open(str(ckpt_path) + ".log", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


@pytest.fixture(scope="session")
def smoke_dirs(tmp_path_factory):
    """200 train / 50 eval synthetic samples, 64x64, four categories, seed 7."""
    root = tmp_path_factory.mktemp("smoke")
    samples = synth_generate(
        SynthConfig(num_samples=250, size=64, num_categories=4, seed=7)
    )
    save_dataset(samples[:200], root / "train")
    save_dataset(samples[200:], root / "eval")
    return root / "train", root / "eval"


def write_config(path, train_dir, **overrides):
    doc = {
        "seed": 7,
        "train_data": str(train_dir),
        "num_categories": 4,
        "image_size": 64,
        "precision": "single",
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def train_and_eval(tmp_path, train_dir, eval_dir, tag, capsys, **overrides):
    cfg = write_config(tmp_path / f"{tag}.json", train_dir, **overrides)
    ckpt = tmp_path / f"{tag}.ckpt"
    code = main(["train", "--config", str(cfg), "--out", str(ckpt)])
    assert code == 0, f"training run {tag} exited {code}"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(eval_dir)]) == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return ckpt, metrics


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    results = run_all(seed=0)
    elapsed = time.perf_counter() - start
    worst = max(r.max_err for r in results)
    ok = all(r.ok for r in results) and worst <= 1e-4 and elapsed <= 120.0
    verdict(
        1, "gradient suite",
        ok,
        f"{len(results)} checks vs central differences, worst rel err "
        f"{worst:.2e} (tol 1e-4), {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_2_forward_invariants():
    rng = np.random.default_rng(11)
    problems = []

    # selected region weights sum to s / (s + eps)
    ratio, eps = 0.25, 1e-6
    heat_channel = Tensor(rng.uniform(0.05, 0.95, size=64))
    region = topk_indices(heat_channel.data, region_size(ratio, 64))
    weights = normalize_region(heat_channel, region, eps)
    s = float(heat_channel.data[region].sum())
    region_err = abs(float(weights.data.sum()) - s / (s + eps))
    if region_err > 1e-12:
        problems.append(f"region weight sum off by {region_err:.2e}")

    # per-pixel category softmax sums to one, even for extreme scores
    scores = Tensor(rng.normal(size=(64, 5)) * 30.0)
    soft = softmax_axis(scores, axis=1)
    soft_err = float(np.abs(soft.data.sum(axis=1) - 1.0).max())
    if soft_err > 1e-9:
        problems.append(f"softmax rows off by {soft_err:.2e}")

    # residual share at the blend's saturated endpoint passes features through
    params = CouplingParams.initialize(8, 4, np.random.default_rng(3))
    params.blend.data[...] = 40.0
    feats = Tensor(rng.normal(size=(16, 8)))
    emb = Tensor(rng.normal(size=(3, 4)))
    out, _, _ = coupling_forward(feats, emb, params, ratio, eps)
    passthrough_err = float(np.abs(out.data - feats.data).max())
    if passthrough_err > 1e-12:
        problems.append(f"saturated blend leaks {passthrough_err:.2e}")

    # modulation scale stays strictly inside (0, 2) under saturating inputs
    emb_ext = Tensor(np.array([[100.0, 100.0], [-100.0, 100.0], [0.0, 0.0]]))
    w_scale = Tensor(np.array([[5.0, -5.0, 0.5], [5.0, 5.0, -0.5]]))
    zeros3 = Tensor(np.zeros(3))
    w_shift = Tensor(np.zeros((2, 3)))
    gamma, _ = affine_params(emb_ext, w_scale, zeros3, w_shift, zeros3)
    if not (np.all(gamma.data > 0.0) and np.all(gamma.data < 2.0)):
        problems.append(
            f"scale hit [{gamma.data.min()}, {gamma.data.max()}], must be open"
        )

    # gated embedding update stays inside the componentwise hull
    emb_prev = Tensor(rng.normal(size=(4, 4)))
    contexts = Tensor(rng.normal(size=(4, 4)))
    updated, gate = gated_update(emb_prev, contexts, params.w_gate, params.b_gate)
    low = np.minimum(emb_prev.data, contexts.data)
    high = np.maximum(emb_prev.data, contexts.data)
    slack = 1e-12 * np.maximum(1.0, np.maximum(np.abs(low), np.abs(high)))
    convex = np.all(updated.data >= low - slack) and np.all(
        updated.data <= high + slack
    )
    if not (convex and np.all(gate.data > 0.0) and np.all(gate.data < 1.0)):
        problems.append("gated update left the componentwise hull")

    verdict(
        2, "forward invariants",
        not problems,
        "; ".join(problems)
        or (
            f"region sum err {region_err:.1e}, softmax err {soft_err:.1e}, "
            f"blend endpoint err {passthrough_err:.1e}, scale endpoints "
            f"clear by {min(gamma.data.min(), 2.0 - gamma.data.max()):.1e}, "
            "update convex"
        ),
    )


def test_criterion_3_discriminant_degenerate_cases():
    problems = []

    # a batch of identical embeddings has zero within-category scatter
    row = np.array([[1.0, -2.0], [3.0, 0.5]])
    ident = Tensor(np.stack([row, row]))
    zero_val = fisher_loss([ident], eps=1e-6).item()
    if zero_val != 0.0:
        problems.append(f"identical batch gave {zero_val!r}, want exact 0.0")

    # worked example: scatters 1 and 25 give 1 / (25 + 1e-6)
    worked = Tensor(np.array([[[0.0], [10.0]], [[2.0], [12.0]]]))
    want = 1.0 / (25.0 + 1e-6)
    worked_err = abs(fisher_loss([worked], eps=1e-6).item() - want)
    if worked_err > 1e-15:
        problems.append(f"worked example off by {worked_err:.2e}")

    # collapsed category means leave only the regularizer in the denominator
    collapsed = Tensor(np.array([[[1.0], [1.0]], [[3.0], [3.0]]]))
    got = fisher_loss([collapsed], eps=1e-6).item()
    collapse_rel = abs(got - 1.0 / 1e-6) / (1.0 / 1e-6)
    if collapse_rel > 1e-12:
        problems.append(f"collapsed means off by rel {collapse_rel:.2e}")

    # translation and positive scaling leave the ratio alone (tiny eps)
    rng = np.random.default_rng(9)
    base = rng.normal(size=(3, 4, 5))
    ref = fisher_loss([Tensor(base)], eps=1e-12).item()
    shifted = fisher_loss([Tensor(base + 3.25)], eps=1e-12).item()
    scaled = fisher_loss([Tensor(base * 3.7)], eps=1e-12).item()
    inv_err = max(abs(shifted - ref), abs(scaled - ref)) / abs(ref)
    if inv_err > 1e-9:
        problems.append(f"invariance violated at rel {inv_err:.2e}")

    verdict(
        3, "discriminant degenerate cases",
        not problems,
        "; ".join(problems)
        or (
            f"identical batch exactly 0.0, worked example err {worked_err:.1e}, "
            f"collapsed means rel err {collapse_rel:.1e}, "
            f"shift/scale invariance rel err {inv_err:.1e}"
        ),
    )


def test_criterion_4_metric_oracle():
    rng = np.random.default_rng(4)
    num = 5
    cm = ConfusionMatrix(num)
    counts = np.zeros((num, num), dtype=np.int64)
    for _ in range(100):
        pred = rng.integers(0, num, size=(32, 32))
        label = rng.integers(0, num, size=(32, 32)).astype(np.uint8)
        cm.accumulate(pred, label)
        for p, l in zip(pred.reshape(-1), label.reshape(-1)):
            counts[l, p] += 1

    got = summarize(cm)
    total = int(counts.sum())
    ious, f1s = [], []
    for c in range(num):
        tp = int(counts[c, c])
        fp = int(counts[:, c].sum()) - tp
        fn = int(counts[c, :].sum()) - tp
        ious.append(tp / (tp + fp + fn))
        f1s.append(2 * tp / (2 * tp + fp + fn))
    oracle = {
        "miou": float(np.mean(ious)),
        "oa": int(np.trace(counts)) / total,
        "mf1": float(np.mean(f1s)),
    }
    exact = (
        got["miou"] == oracle["miou"]
        and got["oa"] == oracle["oa"]
        and got["mf1"] == oracle["mf1"]
        and [pc["iou"] for pc in got["per_class"]] == ious
    )

    hand = ConfusionMatrix(2)
    hand.accumulate(
        np.array([0, 0, 0, 1, 1, 1, 1, 0]),
        np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.uint8),
    )
    worked = summarize(hand)
    worked_ok = (
        worked["miou"] == 0.6 and worked["oa"] == 0.75 and worked["mf1"] == 0.75
    )

    verdict(
        4, "metric oracle",
        exact and worked_ok,
        "100 random 32x32 pairs match the per-pixel counting oracle exactly; "
        f"worked 2x2 example gives miou={worked['miou']}, oa={worked['oa']}, "
        f"mf1={worked['mf1']}",
    )


def test_criterion_5_training_smoke(smoke_dirs, tmp_path, capsys):
    train_dir, eval_dir = smoke_dirs
    start = time.perf_counter()
    ckpt, metrics = train_and_eval(
        tmp_path, train_dir, eval_dir, "smoke", capsys, total_steps=300
    )
    elapsed = time.perf_counter() - start

    records = read_log(ckpt)
    first, final = records[0]["l_total"], records[-1]["l_total"]

    eval_samples = load_dataset(eval_dir)
    labels = np.stack([s.label for s in eval_samples])
    majority = int(np.argmax(np.bincount(labels.reshape(-1), minlength=4)))
    base_cm = ConfusionMatrix(4)
    for s in eval_samples:
        base_cm.accumulate(np.full_like(s.label, majority), s.label)
    baseline = summarize(base_cm)["miou"]
    bar = baseline + 0.20

    ok = (
        final <= 0.5 * first
        and metrics["miou"] >= bar
        and elapsed <= 600.0
        and all(np.isfinite(v) for r in records for v in r.values())
    )
    verdict(
        5, "training smoke",
        ok,
        f"300 steps in {elapsed:.0f}s (limit 600s); loss {first:.3f} -> "
        f"{final:.3f} (need <= {0.5 * first:.3f}); eval miou "
        f"{metrics['miou']:.3f} vs majority baseline {baseline:.3f} + 0.20 "
        f"= {bar:.3f}",
    )


def test_criterion_6_ablation_grid(smoke_dirs, tmp_path, capsys):
    train_dir, eval_dir = smoke_dirs
    arms = {
        "full": {},
        "aux-losses-off": {"lambda_heatmap": 0.0, "lambda_fisher": 0.0},
        "no-refinement": {"decoder_layers": 0},
    }
    seeds = (21, 22, 23)
    mious = {name: [] for name in arms}
    all_finite = True
    for name, overrides in arms.items():
        for seed in seeds:
            ckpt, metrics = train_and_eval(
                tmp_path, train_dir, eval_dir, f"{name}-{seed}", capsys,
                seed=seed, total_steps=300, **overrides,
            )
            records = read_log(ckpt)
            all_finite &= all(
                np.isfinite(v) for r in records for v in r.values()
            )
            mious[name].append(metrics["miou"])

    table = ", ".join(
        f"{name}={float(np.mean(vals)):.3f}" for name, vals in mious.items()
    )
    verdict(
        6, "ablation grid",
        all_finite,
        f"9 runs (3 seeds x 3 arms) all finite; mean eval miou: {table} "
        "(ordering reported, not gated)",
    )


def test_criterion_7_sweep_plumbing(smoke_dirs, tmp_path, capsys):
    train_dir, eval_dir = smoke_dirs
    cells = {
        "L=1": {"decoder_layers": 1},
        "L=2": {"decoder_layers": 2},
        "L=3": {"decoder_layers": 3},
        "r=0.005": {"topk_ratio": 0.005},
        "r=0.1": {"topk_ratio": 0.1},
    }
    results = {}
    for tag, overrides in cells.items():
        _, metrics = train_and_eval(
            tmp_path, train_dir, eval_dir, tag.replace("=", ""), capsys,
            total_steps=40, **overrides,
        )
        results[tag] = metrics
    # the default cell serves both axes of the grid
    results["r=0.02"] = results["L=2"]

    key_sets = {frozenset(m) for m in results.values()}
    comparable = len(key_sets) == 1 and all(
        np.isfinite(m["miou"]) for m in results.values()
    )
    defaults = parse_run_config({})
    defaults_ok = defaults.decoder_layers == 2 and defaults.topk_ratio == 0.02
    table = ", ".join(f"{t}: {m['miou']:.3f}" for t, m in sorted(results.items()))
    verdict(
        7, "sweep plumbing",
        comparable and defaults_ok,
        f"depth 1/2/3 and ratio 0.005/0.02/0.1 all completed with matching "
        f"metric keys; defaults are depth 2 and ratio 0.02; miou {table}",
    )


def test_criterion_8_determinism(smoke_dirs, tmp_path, capsys):
    train_dir, _ = smoke_dirs
    cfg = write_config(
        tmp_path / "det.json", train_dir,
        seed=3, total_steps=10, precision="double",
    )
    outs = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"det-{tag}.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
        outs.append(ckpt)
    runs_identical = outs[0].read_bytes() == outs[1].read_bytes()
    logs_identical = (
        (str(outs[0]) + ".log").encode() != b""
        and open(str(outs[0]) + ".log", "rb").read()
        == open(str(outs[1]) + ".log", "rb").read()
    )

    arrays, meta = load_checkpoint(outs[0])
    copy = tmp_path / "roundtrip.ckpt"
    save_checkpoint(copy, list(arrays.items()), meta)
    roundtrip_identical = copy.read_bytes() == outs[0].read_bytes()

    verdict(
        8, "determinism",
        runs_identical and logs_identical and roundtrip_identical,
        "two 10-step double-precision runs are byte-identical (checkpoint and "
        "log); load -> save reproduces the checkpoint byte for byte",
    )
