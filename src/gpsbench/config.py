"""Experiment configuration: a flat key = value text format with a fixed schema.

Unknown keys are rejected rather than silently ignored, so typos fail loud.
All randomness in an experiment flows from the `seeds` list; there is no
wall-clock entropy anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError

SCHEMA_VERSION = 1

DATASET_KINDS = ("synthetic", "cifar100", "image_dir")
BUFFER_MODES = ("gps", "full", "none")
HEAD_NCM = "ncm"
HEAD_SOFTMAX = "softmax"
HEADS = (HEAD_NCM, HEAD_SOFTMAX)


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of an experiment, checked when the config is built."""

    schema_version: int = SCHEMA_VERSION
    # dataset source
    dataset: str = "synthetic"
    synthetic_classes: int = 10
    synthetic_resolution: int = 32
    synthetic_channels: int = 3
    synthetic_train_per_class: int = 100
    synthetic_test_per_class: int = 20
    synthetic_noise: float = 20.0
    synthetic_pattern_seed: int = 7
    synthetic_contrast: float = 25.0
    # Dark baseline keeps [0,1]-scaled inputs small enough that SGD at the
    # default learning rate stays stable on a plain ReLU net.
    synthetic_baseline: float = 32.0
    cifar_train_path: str = ""
    cifar_test_path: str = ""
    image_dir: str = ""
    image_test_fraction: float = 0.2
    # task layout
    tasks: int = 5
    classes_per_task: int = 2
    # buffer
    buffer_mode: str = "gps"
    budget_images: int = 20
    factor: int = 2
    # training
    stream_batch: int = 10
    replay_batch: int = 100
    replay_units: str = "samples"  # replay_batch counts stored exemplars
    learning_rate: float = 0.1
    replay_weight: float = 1.0
    hidden_units: int = 128
    embedding_units: int = 64
    # inference
    head: str = "ncm"
    # runs
    seeds: tuple = (0,)
    out_dir: str = "runs"

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Raise a ConfigError naming the first bad key; return self."""
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version {self.schema_version} unsupported: expected {SCHEMA_VERSION}"
            )
        if self.dataset not in DATASET_KINDS:
            raise ConfigError(f"dataset must be one of {DATASET_KINDS}, got {self.dataset!r}")
        if self.dataset == "cifar100":
            if not self.cifar_train_path:
                raise ConfigError("cifar_train_path is required when dataset = cifar100")
            if not self.cifar_test_path:
                raise ConfigError("cifar_test_path is required when dataset = cifar100")
        if self.dataset == "image_dir" and not self.image_dir:
            raise ConfigError("image_dir is required when dataset = image_dir")
        if not 0.0 < self.image_test_fraction < 1.0:
            raise ConfigError(
                f"image_test_fraction must lie in (0, 1), got {self.image_test_fraction}"
            )
        for name in ("synthetic_classes", "synthetic_resolution", "synthetic_train_per_class",
                     "synthetic_test_per_class", "tasks", "classes_per_task",
                     "budget_images", "factor", "stream_batch", "hidden_units",
                     "embedding_units"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.synthetic_channels not in (1, 3):
            raise ConfigError(f"synthetic_channels must be 1 or 3, got {self.synthetic_channels}")
        if not (math.isfinite(self.synthetic_noise) and self.synthetic_noise >= 0):
            raise ConfigError(
                f"synthetic_noise must be finite and >= 0, got {self.synthetic_noise}")
        if self.synthetic_pattern_seed < 0:
            raise ConfigError(
                f"synthetic_pattern_seed must be >= 0, got {self.synthetic_pattern_seed}")
        if not math.isfinite(self.synthetic_contrast):
            raise ConfigError(f"synthetic_contrast must be finite, got {self.synthetic_contrast}")
        if not 0.0 <= self.synthetic_baseline <= 255.0:
            raise ConfigError(
                f"synthetic_baseline must lie in [0, 255], got {self.synthetic_baseline}")
        if self.buffer_mode not in BUFFER_MODES:
            raise ConfigError(f"buffer_mode must be one of {BUFFER_MODES}, got {self.buffer_mode!r}")
        if self.replay_units != "samples":
            raise ConfigError(f"replay_units must be 'samples', got {self.replay_units!r}")
        if self.replay_batch < 0:
            raise ConfigError(f"replay_batch must be >= 0, got {self.replay_batch}")
        if self.buffer_mode == "gps" and 0 < self.replay_batch < self.factor ** 2:
            raise ConfigError(f"replay_batch {self.replay_batch} < factor^2 would replay "
                              f"nothing in gps mode; use 0 or >= {self.factor ** 2}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not math.isfinite(self.replay_weight):
            raise ConfigError(f"replay_weight must be finite, got {self.replay_weight}")
        if self.head not in HEADS:
            raise ConfigError(f"head must be one of {HEADS}, got {self.head!r}")
        if self.head == HEAD_NCM and self.buffer_mode == "none":
            raise ConfigError("head = ncm requires a buffer; set head = softmax or enable a buffer")
        if not self.seeds:
            raise ConfigError("seeds must be a non-empty list of integers")
        for s in self.seeds:
            # buffer snapshots store the seed as a signed 64-bit integer
            if not 0 <= s < 2 ** 63:
                raise ConfigError(f"seeds must lie in [0, 2^63), got {s}")
        return self


def _number(kind, text):
    """kind(text) for ASCII text without '_'; int() would also read '1_0' as 10."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"expected an ASCII number without '_', got {text!r}")
    return kind(text)


def _parse_value(name, kind, raw):
    raw = raw.strip()
    try:
        if kind in (int, float):
            return _number(kind, raw)
        if kind is tuple:
            if not raw:
                return ()
            return tuple(_number(int, p.strip()) for p in raw.split(","))
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from exc


_KIND = {"int": int, "float": float, "str": str, "tuple": tuple}


def parse_config(text) -> ExperimentConfig:
    """Parse key = value lines; '#' starts a comment; unknown keys are errors."""
    schema = {f.name: _KIND[f.type] for f in fields(ExperimentConfig)}
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line.strip()!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        values[key] = _parse_value(key, schema[key], raw)
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
    return parse_config(text)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(c)) equals c field-wise."""
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        if f.type == "tuple":
            text = ",".join(str(v) for v in value)
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def config_to_dict(config: ExperimentConfig) -> dict:
    out = {}
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out
