"""Per-title bitrate ladder construction for adaptive streaming.

The pipeline: ingest video segments (Y4M, raw luma, or synthetic), extract
DCT-energy complexity features, train random-forest regressors that map
(features, resolution, bitrate) to expected quality and encoding time, build
a latency-constrained ladder per segment, prune perceptually redundant rungs,
and evaluate schemes with Bjontegaard-Delta, energy and storage metrics.
"""

from .complexity import (
    DEFAULT_BLOCK_SIZE,
    FrameComplexity,
    SegmentFeatures,
    block_texture_energy,
    frame_complexity,
    segment_features,
)
from .config import (
    DEFAULT_BITRATES_MBPS,
    DEFAULT_RESOLUTIONS,
    RunConfig,
)
from .errors import LadderforgeError
from .forest import (
    ForestModel,
    Hyperparams,
    TrainingRecord,
    deserialize_model,
    evaluate,
    feature_vector,
    fit,
    predict,
    serialize_model,
)
from .ladder import (
    DEFAULT_HLS_PAIRING,
    Ladder,
    LadderParams,
    PredictionGrid,
    Representation,
    ResolutionChoice,
    build_ladder,
    default_hls_ladder,
    ladder_to_manifest,
    predict_grid,
    prune_jnd,
    select_resolution,
)
from .media import (
    LumaFrame,
    SyntheticSpec,
    VideoSequence,
    generate_synthetic,
    parse_y4m,
    read_raw_luma,
    serialize_y4m,
)
from .metrics import (
    EvaluatedRep,
    EvaluatedSegment,
    RdCurve,
    RdPoint,
    SchemeReport,
    bd_quality,
    bd_rate,
    compare_schemes,
    encoding_energy,
    segment_encode_time,
    storage,
)
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_BITRATES_MBPS",
    "DEFAULT_HLS_PAIRING",
    "DEFAULT_RESOLUTIONS",
    "EvaluatedRep",
    "EvaluatedSegment",
    "ForestModel",
    "FrameComplexity",
    "Hyperparams",
    "Ladder",
    "LadderParams",
    "LadderforgeError",
    "LumaFrame",
    "PredictionGrid",
    "RdCurve",
    "RdPoint",
    "Representation",
    "ResolutionChoice",
    "RunConfig",
    "SchemeReport",
    "SegmentFeatures",
    "SplitMix64",
    "SyntheticSpec",
    "TrainingRecord",
    "VideoSequence",
    "bd_quality",
    "bd_rate",
    "block_texture_energy",
    "build_ladder",
    "compare_schemes",
    "default_hls_ladder",
    "deserialize_model",
    "encoding_energy",
    "evaluate",
    "feature_vector",
    "fit",
    "frame_complexity",
    "generate_synthetic",
    "ladder_to_manifest",
    "parse_y4m",
    "predict",
    "predict_grid",
    "prune_jnd",
    "read_raw_luma",
    "segment_encode_time",
    "segment_features",
    "select_resolution",
    "serialize_model",
    "serialize_y4m",
    "storage",
]
