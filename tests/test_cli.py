"""End-to-end command tests driven through main() in process.

Results go to stdout as JSON, diagnostics to stderr, and the exit code is the
contract: 0 on success, 1 on a failed check, 2 on bad input.
"""
import json

import numpy as np
import pytest

from heatseg import cli
from heatseg.checkpoint import load_checkpoint, save_checkpoint
from heatseg.cli import main
from heatseg.config import load_run_config
from heatseg.data import load_dataset, load_pgm, load_ppm, save_dataset, save_ppm
from heatseg.losses import total_loss
from heatseg.model import SegModel


def read_log(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


# ---------------------------------------------------------------------------
# synth


class TestSynth:
    def test_writes_dataset_and_prints_summary(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code = main([
            "synth", "--out", str(out), "--num", "4", "--size", "16",
            "--classes", "3", "--seed", "2",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["samples"] == 4 and summary["size"] == 16
        assert len(summary["pixel_freq"]) == 3
        assert len(load_dataset(out)) == 4

    def test_bad_size_exits_two(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "x"), "--num", "1", "--size", "30"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_exits_two(self, tmp_path, capsys, noise):
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), "--num", "1", "--noise", noise]) == 2
        assert "noise amplitude must be a finite number >= 0" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# train


class TestTrain:
    def test_short_run_writes_checkpoint_and_log(self, tmp_path, tiny_config, capsys):
        ckpt = tmp_path / "run" / "model.ckpt"
        code = main(["train", "--config", str(tiny_config()), "--out", str(ckpt)])
        assert code == 0
        assert ckpt.is_file()
        records = read_log(str(ckpt) + ".log")
        assert [r["step"] for r in records] == [1, 2, 3, 4]
        for r in records:
            assert set(r) == {"step", "lr", "l_total", "l_main", "l_hm", "l_fd"}
            assert all(np.isfinite(v) for v in r.values())
        # the cosine schedule decays within the run
        assert records[-1]["lr"] < records[0]["lr"]
        arrays, meta = load_checkpoint(ckpt)
        assert meta["step"] == 4
        assert meta["config"]["total_steps"] == 4
        assert any(name.startswith("adam.m.") for name in arrays)

    def test_resume_matches_straight_run_bitwise(self, tmp_path, tiny_config):
        cfg = tiny_config()
        straight = tmp_path / "straight.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(straight)]) == 0
        split = tmp_path / "split.ckpt"
        assert main([
            "train", "--config", str(cfg), "--out", str(split), "--max-steps", "2",
        ]) == 0
        assert main([
            "train", "--config", str(cfg), "--out", str(split), "--resume", str(split),
        ]) == 0
        assert straight.read_bytes() == split.read_bytes()

    def test_resume_rewrites_partial_and_stale_log_records(self, tmp_path, tiny_config):
        cfg = tiny_config()
        straight = tmp_path / "straight.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(straight)]) == 0
        split = tmp_path / "split.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(split), "--max-steps", "2"]) == 0
        log = tmp_path / "split.ckpt.log"
        # a record whose step is no integer, a record past the checkpoint's
        # step, then a line cut short by a crash
        with open(log, "a", encoding="utf-8") as f:
            f.write(json.dumps({"step": True, "lr": 0.5}) + "\n")
            f.write(json.dumps({"step": 3, "lr": 0.5}) + "\n")
            f.write('{"step": 4, "lr": 0.0')
        assert main([
            "train", "--config", str(cfg), "--out", str(split), "--resume", str(split),
        ]) == 0
        lines = log.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["step"] for line in lines] == [1, 2, 3, 4]
        assert log.read_bytes() == (tmp_path / "straight.ckpt.log").read_bytes()
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("poison", ["loss", "gradient"])
    def test_divergence_keeps_last_good_state(self, tmp_path, tiny_config, capsys,
                                              monkeypatch, poison):
        # step 2 back-propagates NaN; with poison="loss" its logged parts are
        # NaN too, with poison="gradient" they stay finite
        calls = []

        def diverging_total_loss(*args, **kwargs):
            loss, parts = total_loss(*args, **kwargs)
            calls.append(None)
            if len(calls) == 2:
                loss = loss * float("nan")
                if poison == "loss":
                    parts = {k: float("nan") for k in parts}
            return loss, parts

        monkeypatch.setattr(cli, "total_loss", diverging_total_loss)
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(tiny_config()), "--out", str(ckpt)]) == 1
        assert f"non-finite {poison} at step 2" in capsys.readouterr().err
        arrays, meta = load_checkpoint(ckpt)
        assert meta["step"] == 1
        assert all(np.all(np.isfinite(a)) for a in arrays.values())

        def reject(token):
            raise AssertionError(f"log holds the non-JSON token {token}")

        lines = (tmp_path / "m.ckpt.log").read_text(encoding="utf-8").splitlines()
        records = [json.loads(line, parse_constant=reject) for line in lines]
        assert [r["step"] for r in records] == [1, 2]
        assert (records[1]["l_total"] is None) == (poison == "loss")

    def test_resume_with_changed_config_exits_two(self, tmp_path, tiny_config, capsys):
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(tiny_config()), "--out", str(ckpt)]) == 0
        changed = tiny_config(seed=99)
        code = main(["train", "--config", str(changed), "--out", str(ckpt),
                     "--resume", str(ckpt)])
        assert code == 2
        err = capsys.readouterr().err
        assert "mismatch" in err and "seed" in err

    @pytest.mark.parametrize("step", [[1], "2", True, -1, 1.5])
    def test_resume_with_bad_step_exits_two(self, tmp_path, tiny_config, capsys, step):
        cfg = tiny_config()
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(ckpt), "--max-steps", "1"]) == 0
        arrays, meta = load_checkpoint(ckpt)
        save_checkpoint(ckpt, list(arrays.items()), dict(meta, step=step))
        code = main(["train", "--config", str(cfg), "--out", str(ckpt), "--resume", str(ckpt)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"checkpoint step {json.dumps(step)} is not an integer" in err

    @pytest.mark.parametrize("damage", ["shape", "missing"])
    def test_resume_with_bad_moment_exits_two_and_writes_nothing(self, tmp_path, tiny_config,
                                                                 capsys, damage):
        cfg = tiny_config()
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(ckpt), "--max-steps", "2"]) == 0
        arrays, meta = load_checkpoint(ckpt)
        moment = arrays.pop("adam.m.head.bias")
        if damage == "shape":
            arrays["adam.m.head.bias"] = np.stack([moment, moment])
        save_checkpoint(ckpt, list(arrays.items()), meta)
        log = tmp_path / "m.ckpt.log"
        before = ckpt.read_bytes(), log.read_bytes()
        code = main(["train", "--config", str(cfg), "--out", str(ckpt), "--resume", str(ckpt)])
        assert code == 2
        err = capsys.readouterr().err
        assert "'adam.m.head.bias'" in err
        assert ("has shape (2, 8), expected (8,)" if damage == "shape" else "missing") in err
        assert (ckpt.read_bytes(), log.read_bytes()) == before

    def test_missing_train_data_key_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{}", encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m")]) == 2
        assert "train_data" in capsys.readouterr().err

    def test_wrong_image_size_exits_two(self, tmp_path, tiny_config, capsys):
        cfg = tiny_config(image_size=32)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m")]) == 2
        assert "extents" in capsys.readouterr().err

    def test_non_finite_config_number_exits_two_and_writes_nothing(self, tmp_path,
                                                                    tiny_config, capsys):
        # json reads the NaN token, so the config must refuse it itself
        cfg = tiny_config(learning_rate=float("nan"))
        assert "NaN" in cfg.read_text(encoding="utf-8")
        out = tmp_path / "run" / "m.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert "'learning_rate' must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_labels_at_the_ignore_index_train(self, tmp_path, tiny_data_dir, tiny_config,
                                              capsys):
        samples = load_dataset(tiny_data_dir)
        for s in samples:
            s.label[:2] = 255
        save_dataset(samples, tmp_path / "ignored")
        cfg = tiny_config(train_data=str(tmp_path / "ignored"), ignore_index=255,
                          total_steps=2)
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
        records = read_log(str(ckpt) + ".log")
        assert [r["step"] for r in records] == [1, 2]
        assert all(np.isfinite(v) for r in records for v in r.values())

        # a label outside the categories that is not the ignore index still fails
        samples[3].label[5, 5] = 7
        save_dataset(samples, tmp_path / "stray")
        cfg = tiny_config(train_data=str(tmp_path / "stray"), ignore_index=255)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "s.ckpt")]) == 2
        assert "sample 3 contains label 7" in capsys.readouterr().err

    def test_unknown_config_key_exits_two(self, tmp_path, tiny_config, capsys):
        cfg = tiny_config(lerning_rate=0.1)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m")]) == 2
        assert "lerning_rate" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval and export


@pytest.fixture()
def trained(tmp_path, tiny_config):
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--config", str(tiny_config()), "--out", str(ckpt)]) == 0
    return ckpt


class TestEval:
    def test_prints_metrics_json(self, trained, tiny_data_dir, capsys):
        code = main(["eval", "--ckpt", str(trained), "--data", str(tiny_data_dir)])
        assert code == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"miou", "oa", "mf1", "per_class"}
        assert 0.0 <= result["oa"] <= 1.0
        assert len(result["per_class"]) == 3

    def test_missing_checkpoint_exits_two(self, tiny_data_dir, capsys):
        assert main(["eval", "--ckpt", "/nonexistent", "--data", str(tiny_data_dir)]) == 2


@pytest.fixture()
def nan_checkpoint(tmp_path, tiny_config):
    """A freshly initialised model saved by hand with one NaN in its head."""
    cfg = load_run_config(tiny_config())
    model = SegModel(cfg.model_config(), seed=cfg.seed, dtype=cfg.dtype)
    arrays = {name: p.data.copy() for name, p in model.named_parameters()}
    arrays["head.weight"][0, 0] = np.nan
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(ckpt, list(arrays.items()), {"config": cfg.to_dict(), "step": 0})
    return ckpt


@pytest.mark.parametrize("command", ["eval", "export-heatmaps"])
def test_non_finite_checkpoint_exits_one(nan_checkpoint, tiny_data_dir, tmp_path, capsys,
                                         command):
    if command == "eval":
        argv = ["eval", "--ckpt", str(nan_checkpoint), "--data", str(tiny_data_dir)]
    else:
        argv = ["export-heatmaps", "--ckpt", str(nan_checkpoint),
                "--image", str(tiny_data_dir / "images" / "img_00000.ppm"),
                "--out", str(tmp_path / "maps")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "'head.weight' holds non-finite values" in captured.err
    assert captured.out == "" and not (tmp_path / "maps").exists()


class TestExportHeatmaps:
    def test_extents_off_the_factor_exit_two_and_write_nothing(self, trained, tmp_path,
                                                               capsys):
        image = tmp_path / "odd.ppm"
        save_ppm(image, np.zeros((3, 18, 18)))
        out = tmp_path / "maps"
        code = main(["export-heatmaps", "--ckpt", str(trained),
                     "--image", str(image), "--out", str(out)])
        assert code == 2
        assert "image extents (18, 18) not divisible by 4" in capsys.readouterr().err
        assert not out.exists()

    def test_writes_one_map_per_layer_and_category(self, trained, tiny_data_dir, tmp_path, capsys):
        out = tmp_path / "maps"
        image = tiny_data_dir / "images" / "img_00000.ppm"
        code = main(["export-heatmaps", "--ckpt", str(trained),
                     "--image", str(image), "--out", str(out)])
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(
            [f"layer1_class{n}.pgm" for n in range(3)] + ["pred.pgm"]
        )
        pred = load_pgm(out / "pred.pgm")
        assert pred.shape == (16, 16) and pred.max() < 3
        # the same prediction eval scores
        model, _ = cli._model_from_checkpoint(trained)
        np.testing.assert_array_equal(pred, model.predict(load_ppm(image)[None])[0])
        for n in range(3):
            # maps are spread to the full byte range unless constant
            channel = load_pgm(out / f"layer1_class{n}.pgm")
            assert channel.min() == 0 and channel.max() in (0, 255)


# ---------------------------------------------------------------------------
# gradcheck command


class TestGradcheck:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["gradcheck"]) == 0
        report = capsys.readouterr().out
        assert "gradient checks passed" in report
        assert "FAIL" not in report

    def test_corrupted_adjoint_is_detected(self, capsys):
        assert main(["gradcheck", "--corrupt"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("eps", ["0", "-1e-5", "nan", "inf"])
    def test_eps_must_be_positive_and_finite(self, capsys, eps):
        assert main(["gradcheck", f"--eps={eps}"]) == 2
        captured = capsys.readouterr()
        assert "--eps must be a positive finite number" in captured.err
        assert captured.out == ""


# ---------------------------------------------------------------------------
# parser level


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_missing_config_file_exits_two(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "no.json"),
                 "--out", str(tmp_path / "m")]) == 2
