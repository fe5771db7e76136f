"""Experiment configuration and its on-disk key/value format.

The file format is one `key = value` per line, `#` comments, blank lines
ignored. Unknown keys are rejected outright: a typo must fail loudly, not
silently fall back to a default. Rendering and parsing round-trip losslessly
(floats via repr), so a config written by one run reproduces the next one
byte for byte.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Union

from .errors import ConfigurationError

# Env var naming the directory that relative output_dir paths resolve under.
OUTPUT_ROOT_ENV = "PARL_OUTPUT_ROOT"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; all randomness flows from the three seeds."""

    robots: int = 3
    samples_per_task: int = 20
    fan_out: int = 2
    tau: float = 0.5
    beta: float = 0.3
    ridge_lambda: float = 1e-4
    fail_threshold: float = 0.05
    holdout_fraction: float = 0.3
    world_seed: int = 31
    augment_seed: int = 11
    protocol_seed: int = 13
    output_dir: str = "parl-out"

    def __post_init__(self) -> None:
        if self.robots < 1:
            raise ConfigurationError("robots must be >= 1")
        # Fewer than two samples per task leave the train or holdout split empty.
        if self.samples_per_task < 2:
            raise ConfigurationError("samples_per_task must be >= 2")
        if self.fan_out < 1:
            raise ConfigurationError("fan_out must be >= 1")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigurationError("tau must lie in [0, 1]")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigurationError("beta must lie in [0, 1]")
        # Written so that NaN, which fails every comparison, fails the check.
        if not 0.0 <= self.ridge_lambda < math.inf:
            raise ConfigurationError("ridge_lambda must be finite and nonnegative")
        if not 0.0 < self.fail_threshold < math.inf:
            raise ConfigurationError("fail_threshold must be finite and positive")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigurationError("holdout_fraction must lie in (0, 1)")
        for name in ("world_seed", "augment_seed", "protocol_seed"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be nonnegative")
        if not self.output_dir:
            raise ConfigurationError("output_dir must be nonempty")
        # config.txt must carry it back: a value ends at a line break or `#`
        # and loses its surrounding whitespace. No path may hold a NUL.
        text = self.output_dir
        if "#" in text or "\0" in text or len(text.splitlines()) > 1 or text != text.strip():
            raise ConfigurationError(
                f"output_dir {text!r} must not contain '#', a NUL or a line break, "
                "nor start or end with whitespace"
            )


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def _render_value(value: Union[int, float, str]) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(name: str, text: str) -> Union[int, float, str]:
    target = _FIELDS[name].type
    try:
        if target == "int":
            return int(text)
        if target == "float":
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigurationError(f"bad value for {name}: {exc}") from exc


def render_config(config: ExperimentConfig) -> str:
    lines = ["# experiment configuration"]
    for f in dataclasses.fields(ExperimentConfig):
        lines.append(f"{f.name} = {_render_value(getattr(config, f.name))}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> ExperimentConfig:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELDS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, value)
    return ExperimentConfig(**values)


def write_config(path, config: ExperimentConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_config(config))


def read_config(path) -> ExperimentConfig:
    """The config a file holds; a file unreadable as UTF-8 text is a configuration error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)
