"""Flat JSON run configuration with strict key checking.

``RunConfig`` is the schema: its fields give the keys, their defaults and
their types, and the model and loss settings are copied out of it by field
name.  Unknown keys are rejected so a misspelled weight name fails loudly
instead of silently training with the default.  All validation problems are
collected and reported together.
"""
from __future__ import annotations

import json
import sys
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .checkpoint import is_json_int
from .losses import LossWeights
from .model import ModelConfig


class ConfigError(ValueError):
    def __init__(self, errors: List[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class RunConfig:
    seed: int = 0
    train_data: Optional[str] = None
    num_categories: int = 4
    image_size: int = 64
    c_feat: int = 128
    c_class: int = 64
    decoder_layers: int = 2
    encoder_widths: Tuple[int, ...] = (32, 64)
    downsample_factor: int = 4
    topk_ratio: float = 0.02
    topk_eps: float = 1e-6
    lambda_heatmap: float = 0.1
    lambda_fisher: float = 0.1
    fisher_eps: float = 1e-6
    ignore_index: Optional[int] = None
    learning_rate: float = 0.8e-4
    total_steps: int = 300
    batch_size: int = 8
    precision: str = "double"

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})

    def loss_weights(self) -> LossWeights:
        return LossWeights(**{f.name: getattr(self, f.name) for f in fields(LossWeights)})

    @property
    def dtype(self):
        return np.float64 if self.precision == "double" else np.float32

    def to_dict(self) -> dict:
        return dict(asdict(self), encoder_widths=list(self.encoder_widths))


def _is_finite_number(v) -> bool:
    # JSON parses NaN and infinities, which fail this bound; so does an
    # integer past the float range, which float() could not convert
    return (is_json_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


def _is_widths(v) -> bool:
    return isinstance(v, (list, tuple)) and all(is_json_int(w) and w >= 1 for w in v)


# per field type: what a value must be, and the test for it
_KINDS = {
    int: ("an integer", is_json_int),
    float: ("a finite number", _is_finite_number),
    str: ("a string", lambda v: isinstance(v, str)),
    Tuple[int, ...]: ("a list of positive integers", _is_widths),
}
_TYPES = typing.get_type_hints(RunConfig)


def _type_error(key: str, value) -> Optional[str]:
    hint = _TYPES[key]
    nullable = type(None) in typing.get_args(hint)
    if nullable:
        if value is None:
            return None
        hint = typing.get_args(hint)[0]
    what, ok = _KINDS[hint]
    if ok(value):
        return None
    return f"{key!r} must be {what}{' or null' if nullable else ''}, got {value!r}"


def parse_run_config(raw: dict, base_dir: Optional[Path] = None) -> RunConfig:
    errors: List[str] = []
    unknown = sorted(set(raw) - set(_TYPES))
    if unknown:
        errors.append("unknown config keys: " + ", ".join(repr(k) for k in unknown))
    merged = asdict(RunConfig())
    merged.update({k: v for k, v in raw.items() if k in _TYPES})

    for key, value in merged.items():
        problem = _type_error(key, value)
        if problem:
            errors.append(problem)
        elif _TYPES[key] is float:
            merged[key] = float(value)
        elif key == "precision" and value not in ("double", "single"):
            errors.append(f"'precision' must be 'double' or 'single', got {value!r}")
    if not errors:
        merged["encoder_widths"] = tuple(merged["encoder_widths"])
        for key in ("total_steps", "batch_size"):
            if merged[key] < 1:
                errors.append(f"{key!r} must be >= 1, got {merged[key]}")
        if merged["learning_rate"] <= 0:
            errors.append(f"'learning_rate' must be positive, got {merged['learning_rate']}")
    if errors:
        raise ConfigError(errors)

    if merged["train_data"] is not None and base_dir is not None:
        p = Path(merged["train_data"])
        if not p.is_absolute():
            merged["train_data"] = str(base_dir / p)

    cfg = RunConfig(**merged)
    try:
        cfg.model_config()
        cfg.loss_weights()
    except ValueError as e:
        raise ConfigError([str(e)]) from None
    # the factor is a power of two >= 2 once the model config holds
    if cfg.image_size % cfg.downsample_factor:
        raise ConfigError([
            f"image_size {cfg.image_size} not divisible by factor {cfg.downsample_factor}"
        ])
    return cfg


def load_run_config(path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"]) from None
    except json.JSONDecodeError as e:
        raise ConfigError([f"{path}: invalid JSON: {e}"]) from None
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be a JSON object"])
    return parse_run_config(raw, base_dir=path.parent)
