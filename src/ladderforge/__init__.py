"""Per-title bitrate ladder construction for adaptive streaming.

The pipeline: ingest video segments (Y4M, raw luma, or synthetic), extract
DCT-energy complexity features, train random-forest regressors that map
(features, resolution, bitrate) to expected quality and encoding time, build
a latency-constrained ladder per segment, prune perceptually redundant rungs,
and evaluate schemes with Bjontegaard-Delta, energy and storage metrics.

Import names from their modules (``ladderforge.forest``, ``ladderforge.ladder``
and so on); the package root exports nothing.
"""
