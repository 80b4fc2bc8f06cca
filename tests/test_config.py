"""Run configuration tests: defaults, strict key checking, and path handling."""
import json
import typing
from dataclasses import fields

import numpy as np
import pytest

from heatseg.config import ConfigError, RunConfig, load_run_config, parse_run_config
from heatseg.losses import LossWeights
from heatseg.model import ModelConfig

FLOAT_KEYS = [k for k, t in typing.get_type_hints(RunConfig).items() if t is float]

# written out as a checkpoint of the earlier hand-kept schema stores it; a
# checkpoint resumes only while its stored config round-trips unchanged
STORED_CONFIG = {
    "seed": 1, "train_data": "/data/train", "num_categories": 3, "image_size": 16,
    "c_feat": 8, "c_class": 4, "decoder_layers": 1, "encoder_widths": [4, 6],
    "downsample_factor": 4, "topk_ratio": 0.25, "topk_eps": 1e-06,
    "lambda_heatmap": 0.1, "lambda_fisher": 0.0, "fisher_eps": 1e-06,
    "ignore_index": 255, "learning_rate": 0.001, "total_steps": 4, "batch_size": 2,
    "precision": "single",
}


class TestDefaults:
    def test_training_recipe_defaults(self):
        cfg = RunConfig()
        assert cfg.decoder_layers == 2
        assert cfg.topk_ratio == 0.02
        assert cfg.lambda_heatmap == 0.1 and cfg.lambda_fisher == 0.1
        assert cfg.learning_rate == 0.8e-4
        assert cfg.batch_size == 8
        assert cfg.total_steps == 300
        assert cfg.precision == "double"

    def test_empty_document_parses_to_defaults(self):
        cfg = parse_run_config({})
        assert cfg.to_dict() == RunConfig().to_dict()

    def test_dtype_follows_precision(self):
        assert parse_run_config({"precision": "double"}).dtype == np.float64
        assert parse_run_config({"precision": "single"}).dtype == np.float32

    def test_derived_objects_carry_the_values(self):
        cfg = parse_run_config({"num_categories": 5, "lambda_fisher": 0.25})
        assert cfg.model_config().num_categories == 5
        assert cfg.loss_weights().lambda_fisher == 0.25


class TestValidation:
    def test_unknown_keys_are_named(self):
        with pytest.raises(ConfigError, match="'lambda_heatmpa'"):
            parse_run_config({"lambda_heatmpa": 0.1})

    def test_multiple_errors_collected(self):
        with pytest.raises(ConfigError) as exc:
            parse_run_config({"seed": "zero", "topk_ratio": "small"})
        assert len(exc.value.errors) == 2

    def test_type_checks(self):
        with pytest.raises(ConfigError, match="'batch_size' must be an integer"):
            parse_run_config({"batch_size": 2.5})
        with pytest.raises(ConfigError, match="'learning_rate' must be a finite number"):
            parse_run_config({"learning_rate": True})
        with pytest.raises(ConfigError, match="'precision'"):
            parse_run_config({"precision": "half"})
        with pytest.raises(ConfigError, match="'encoder_widths'"):
            parse_run_config({"encoder_widths": [8, "six"]})
        with pytest.raises(ConfigError, match="'ignore_index'"):
            parse_run_config({"ignore_index": "bg"})
        with pytest.raises(ConfigError, match="'train_data'"):
            parse_run_config({"train_data": 5})

    @pytest.mark.parametrize("field", [f.name for f in fields(RunConfig)])
    @pytest.mark.parametrize("value", [{}, True])
    def test_every_key_rejects_a_wrong_type_by_name(self, field, value):
        # neither an object nor a bool is a valid value of any key
        with pytest.raises(ConfigError, match=f"'{field}' must be"):
            parse_run_config({field: value})

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
    def test_float_keys_reject_non_finite_numbers(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}' must be a finite number"):
            parse_run_config({key: value})

    def test_range_checks(self):
        with pytest.raises(ConfigError, match="'total_steps'"):
            parse_run_config({"total_steps": 0})
        with pytest.raises(ConfigError, match="'learning_rate'"):
            parse_run_config({"learning_rate": 0.0})

    def test_num_categories_bounds(self):
        # labels are stored as uint8, so 256 categories is the most
        assert parse_run_config({"num_categories": 256}).num_categories == 256
        for n in (1, 257, 1000):
            with pytest.raises(ConfigError, match=rf"num_categories must be in \[2, 256\], got {n}"):
                parse_run_config({"num_categories": n})

    def test_model_level_problems_surface_as_config_errors(self):
        with pytest.raises(ConfigError, match="not divisible"):
            parse_run_config({"image_size": 30})
        with pytest.raises(ConfigError, match="encoder_widths"):
            parse_run_config({"encoder_widths": [8]})


class TestFiles:
    def test_relative_train_data_resolves_against_config_dir(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"train_data": "data/train"}), encoding="utf-8")
        cfg = load_run_config(path)
        assert cfg.train_data == str(tmp_path / "data" / "train")

    def test_absolute_train_data_is_kept(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"train_data": "/abs/train"}), encoding="utf-8")
        assert load_run_config(path).train_data == "/abs/train"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_run_config(path)

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON object"):
            load_run_config(path)

    def test_to_dict_round_trips_through_parse(self):
        cfg = parse_run_config({"seed": 9, "c_feat": 16, "precision": "single"})
        again = parse_run_config(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_stored_config_round_trips_unchanged(self):
        again = parse_run_config(json.loads(json.dumps(STORED_CONFIG))).to_dict()
        assert json.dumps(again) == json.dumps(STORED_CONFIG)


class TestSchema:
    def test_float_keys_are_read_from_the_schema(self):
        assert FLOAT_KEYS == ["topk_ratio", "topk_eps", "lambda_heatmap", "lambda_fisher",
                              "fisher_eps", "learning_rate"]

    @pytest.mark.parametrize("part", [ModelConfig, LossWeights])
    def test_derived_configs_take_their_fields_from_run_config(self, part):
        assert {f.name for f in fields(part)} <= {f.name for f in fields(RunConfig)}
