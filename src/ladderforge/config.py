"""Run configuration shared by every CLI command.

Defaults mirror the standard evaluation setup: four encode resolutions, the
twelve-rung bitrate set, a 2-second latency budget, a 6-point noticeable
difference paired with a 94-point lossless cap, and 4-second segments.  The
canonical latency tiers are 1, 2, 4 and 8 seconds plus unbounded, and the
supported (step, cap) pruning pairs are (2, 98), (4, 96) and (6, 94).

A config file is a flat JSON object over the :class:`RunConfig` field names;
CLI flags override file values, which override the defaults.  ``tau_l``
accepts the string ``"inf"`` for an unbounded budget.
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
    "LATENCY_TIERS_S",
    "JND_STEPS",
    "QUALITY_CAPS",
    "ConfigError",
    "RunConfig",
    "parse_tau",
]

DEFAULT_RESOLUTIONS: tuple[int, ...] = (360, 720, 1080, 2160)
DEFAULT_BITRATES_MBPS: tuple[float, ...] = (
    0.145, 0.300, 0.600, 0.900, 1.600, 2.400,
    3.400, 4.500, 5.800, 8.100, 11.600, 16.800,
)
LATENCY_TIERS_S: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, math.inf)
JND_STEPS: tuple[float, ...] = (2.0, 4.0, 6.0)
QUALITY_CAPS: tuple[float, ...] = (98.0, 96.0, 94.0)


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
        resolutions = tuple(int(r) for r in self.resolutions)
        bitrates = tuple(float(b) for b in self.bitrates_mbps)
        if not resolutions or list(resolutions) != sorted(set(resolutions)):
            raise ConfigError("resolutions must be a nonempty ascending set")
        if not bitrates or list(bitrates) != sorted(set(bitrates)):
            raise ConfigError("bitrates_mbps must be a nonempty ascending set")
        if any(r <= 0 for r in resolutions) or any(b <= 0 for b in bitrates):
            raise ConfigError("resolutions and bitrates must be positive")
        if self.tau_l <= 0:
            raise ConfigError(f"tau_l must be positive, got {self.tau_l}")
        if self.v_j is not None and self.v_j <= 0:
            raise ConfigError(f"v_j must be positive, got {self.v_j}")
        if self.v_j is not None and self.v_t is None:
            raise ConfigError("pruning needs both v_j and v_t; v_t is unset")
        if self.vsr_tag not in VSR_TAGS:
            raise ConfigError(f"vsr_tag must be one of {VSR_TAGS}, got {self.vsr_tag!r}")
        if self.block_size <= 0:
            raise ConfigError(f"block_size must be positive, got {self.block_size}")
        if self.kappa <= 0:
            raise ConfigError(f"kappa must be positive, got {self.kappa}")
        if self.segment_duration_s <= 0:
            raise ConfigError(f"segment_duration_s must be positive, got {self.segment_duration_s}")
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
            if "tau_l" in values:
                values["tau_l"] = parse_tau(values["tau_l"])
            return cls(**values)
        except (TypeError, ValueError) as exc:
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
        changes = {k: v for k, v in overrides.items() if v is not None}
        if "tau_l" in changes:
            changes["tau_l"] = parse_tau(changes["tau_l"])
        return dataclasses.replace(self, **changes)

    def hyperparams(self) -> Hyperparams:
        try:
            return Hyperparams(
                n_trees=self.n_trees,
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                features_per_split=self.features_per_split,
            )
        except LadderforgeError as exc:
            raise ConfigError(str(exc)) from None

    def to_dict(self) -> dict:
        """JSON-safe provenance dict; infinity serialises as ``"inf"``."""
        return {
            "resolutions": list(self.resolutions),
            "bitrates_mbps": list(self.bitrates_mbps),
            "tau_l": "inf" if math.isinf(self.tau_l) else self.tau_l,
            "v_j": self.v_j,
            "v_t": self.v_t,
            "vsr_tag": self.vsr_tag,
            "seed": self.seed,
            "block_size": self.block_size,
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "features_per_split": self.features_per_split,
            "kappa": self.kappa,
            "segment_duration_s": self.segment_duration_s,
        }


def parse_tau(value: Union[str, float, int]) -> float:
    """Latency budget from config/CLI: a positive number or ``"inf"``."""
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("inf", "infinity"):
            return math.inf
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"tau_l must be a number or 'inf', got {value!r}") from None
    return float(value)
