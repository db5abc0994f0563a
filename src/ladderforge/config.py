"""Run configuration shared by every CLI command.

Defaults mirror the standard evaluation setup: four encode resolutions, the
twelve-rung bitrate set, a 2-second latency budget, a 6-point noticeable
difference paired with a 94-point lossless cap, and 4-second segments.  The
paper's latency tiers are 1, 2, 4 and 8 seconds plus unbounded, and its
(step, cap) pruning pairs are (2, 98), (4, 96) and (6, 94).

A config file is a flat JSON object over the :class:`RunConfig` field names;
CLI flags override file values, which override the defaults.  ``tau_l``
accepts the string ``"inf"`` for an unbounded budget; every other number
must be finite.  A field whose default is an integer, and each resolution,
must be an integer (not a float or a boolean); a field whose default is a
float, and each bitrate, must be a number (not a boolean or a string).
``block_size`` is at most 256 pixels, since the block transform's basis
alone holds ``block_size ** 2`` floats.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import IO, Mapping, Union

from .errors import LadderforgeError
from .forest import VSR_TAGS, Hyperparams

__all__ = [
    "DEFAULT_RESOLUTIONS",
    "DEFAULT_BITRATES_MBPS",
    "ConfigError",
    "RunConfig",
    "parse_tau",
]

DEFAULT_RESOLUTIONS: tuple[int, ...] = (360, 720, 1080, 2160)
DEFAULT_BITRATES_MBPS: tuple[float, ...] = (
    0.145, 0.300, 0.600, 0.900, 1.600, 2.400,
    3.400, 4.500, 5.800, 8.100, 11.600, 16.800,
)


_INFINITY = ("inf", "infinity")


class ConfigError(LadderforgeError):
    pass


@dataclass(frozen=True)
class RunConfig:
    resolutions: tuple[int, ...] = DEFAULT_RESOLUTIONS
    bitrates_mbps: tuple[float, ...] = DEFAULT_BITRATES_MBPS
    tau_l: float = 2.0
    v_j: float | None = 6.0
    v_t: float | None = 94.0
    vsr_tag: str = "none"
    seed: int = 0
    block_size: int = 32
    n_trees: int = 100
    max_depth: int = 12
    min_samples_leaf: int = 2
    features_per_split: int = 3
    kappa: float = 1.0
    segment_duration_s: float = 4.0

    def __post_init__(self):
        resolutions = tuple(self.resolutions)
        bitrates = tuple(self.bitrates_mbps)
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if type(f.default) is int and type(value) is not int:
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            # None switches pruning off; JSON true/false would pass as 1/0.
            if (type(f.default) is float and type(value) not in (int, float)
                    and not (value is None and f.name in ("v_j", "v_t"))):
                raise ConfigError(f"{f.name} must be a number, got {value!r}")
        if any(type(r) is not int for r in resolutions):
            raise ConfigError(f"resolutions must be integers, got {list(resolutions)}")
        if any(type(b) not in (int, float) for b in bitrates):
            raise ConfigError(f"bitrates_mbps must be numbers, got {list(bitrates)}")
        bitrates = tuple(float(b) for b in bitrates)
        if not resolutions or list(resolutions) != sorted(set(resolutions)):
            raise ConfigError("resolutions must be a nonempty ascending set")
        if not bitrates or list(bitrates) != sorted(set(bitrates)):
            raise ConfigError("bitrates_mbps must be a nonempty ascending set")
        if any(r <= 0 for r in resolutions) or not all(0 < b < math.inf for b in bitrates):
            raise ConfigError("resolutions and bitrates must be positive, bitrates finite")
        if not self.tau_l > 0:  # inf is a valid budget, nan is not
            raise ConfigError(f"tau_l must be positive, got {self.tau_l}")
        for name in ("v_j", "block_size", "kappa", "segment_duration_s"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.block_size > 256:
            raise ConfigError(f"block_size must be at most 256, got {self.block_size}")
        if self.v_t is not None and not math.isfinite(self.v_t):
            raise ConfigError(f"v_t must be finite, got {self.v_t}")
        if self.v_j is not None and self.v_t is None:
            raise ConfigError("pruning needs both v_j and v_t; v_t is unset")
        if self.vsr_tag not in VSR_TAGS:
            raise ConfigError(f"vsr_tag must be one of {VSR_TAGS}, got {self.vsr_tag!r}")
        object.__setattr__(self, "resolutions", resolutions)
        object.__setattr__(self, "bitrates_mbps", bitrates)
        # Hyperparameter bounds are enforced by the forest module.
        self.hyperparams()

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "RunConfig":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(mapping) - fields
        if unknown:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        values = dict(mapping)
        try:
            tau = values.get("tau_l")
            # The --tau-l conversion, for an integer or the word for infinity
            # (JSON has none); any other non-number fails the type check.
            if type(tau) is int or isinstance(tau, str) and tau.strip().lower() in _INFINITY:
                values["tau_l"] = parse_tau(tau)
            return cls(**values)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_file(cls, source: IO[str]) -> "RunConfig":
        try:
            doc = json.load(source)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        return cls.from_mapping(doc)

    def merged(self, **overrides) -> "RunConfig":
        """New config with the non-None overrides applied."""
        return dataclasses.replace(self, **{k: v for k, v in overrides.items() if v is not None})

    def hyperparams(self) -> Hyperparams:
        """The forest hyperparameters this config sets, defaults for the rest."""
        names = {f.name for f in dataclasses.fields(self)}
        try:
            return Hyperparams(**{f.name: getattr(self, f.name)
                                  for f in dataclasses.fields(Hyperparams) if f.name in names})
        except LadderforgeError as exc:
            raise ConfigError(str(exc)) from None

    def to_dict(self) -> dict:
        """JSON-safe provenance dict in field order; infinity serialises as ``"inf"``."""
        doc = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        doc["resolutions"], doc["bitrates_mbps"] = list(self.resolutions), list(self.bitrates_mbps)
        if math.isinf(self.tau_l):
            doc["tau_l"] = "inf"
        return doc


def parse_tau(value: Union[str, float, int]) -> float:
    """Latency budget from config/CLI: a positive number or ``"inf"``."""
    if isinstance(value, str):
        text = value.strip().lower()
        if text in _INFINITY:
            return math.inf
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"tau_l must be a number or 'inf', got {value!r}") from None
    return float(value)
