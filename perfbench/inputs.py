"""Inputs of every benchmark workload, made from the workload seed alone.

Run as a script to remake one workload's inputs and print their sha256::

    python3 perfbench/inputs.py --workload ingest-uhd --seed 1 --out /tmp/in

The same seed always gives the same bytes.  Video is written as 8-bit
4:2:0 Y4M by this module's own writer; training and evaluation targets come
from the closed-form ground truth below, so the benchmark can score the
program's outputs against it.
"""

from __future__ import annotations

import argparse
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

RESOLUTIONS = (360, 720, 1080, 2160)
BITRATES = (0.145, 0.3, 0.6, 0.9, 1.6, 2.4, 3.4, 4.5, 5.8, 8.1, 11.6, 16.8)
HLS_PAIRING = dict(zip(BITRATES, (360,) * 4 + (720,) * 3 + (1080,) * 3 + (2160,) * 2))
VSR_TAGS = ("none", "fsrcnn")

# Segment kinds and frame counts.  "static" repeats one textured frame, so
# its temporal gradient must be exactly 0; "constant" is one flat level, so
# its texture energy should be exactly 0 as well.
UHD = (3840, 2160, (("moving", 3), ("noise", 3), ("static", 2), ("constant", 2)))
LIVE = (1920, 1080, (("moving", 4), ("noise", 4), ("static", 4), ("constant", 4)))

TRAIN_ROWS_PER_GROUP = 400  # train-forest: four (kind, vsr) groups
TRAIN_TREES = 20
HOLDOUT_ROWS_PER_GROUP = 200
MODEL_ROWS_PER_GROUP = 600  # catalog-ladder and live-segment models
MODEL_TREES = 20
CATALOG_SEGMENTS = 100


# --------------------------------------------------------- ground truth

# The box that synthetic feature rows are drawn from.  It is not measured on
# real content.  It is the smallest round box that covers what ``analyze``
# (and the FFT DCT oracle, which it matches) reports on this benchmark's own
# segments over their seeded parameters: E_Y from 0.2 (constant) to 68 (noise
# of spread 59), h from 0 (static) to 13 (moving, over all 64 seeded steps),
# and L_Y within 16-235, the nominal range of 8-bit video luma.  So the
# live-segment decisions predict inside the range the models were trained
# on.  That rows spread uniformly within the box is an assumption.
E_MAX, H_MAX, L_MIN, L_MAX = 70.0, 15.0, 16.0, 235.0


def true_quality(e: float, h: float, resolution: int, bitrate: float, vsr: str) -> float:
    """VMAF-like score: compression loss grows with pixels per bit, upscaling
    loss with the distance to 2160p (a client upscaler recovers 40 % of it)."""
    pixels = (resolution / 1080.0) ** 2
    compression = 40.0 * pixels / (pixels + bitrate) * (1.0 + 1.2 * e / E_MAX)
    upscale = 6.0 * math.log2(2160.0 / resolution) * (1.0 + h / H_MAX)
    if vsr == "fsrcnn":
        upscale *= 0.6
    return min(100.0, max(0.0, 100.0 - compression - upscale))


def true_psnr(e: float, h: float, resolution: int, bitrate: float) -> float:
    upscale = 2.0 * math.log2(2160.0 / resolution)
    return 30.0 + 1.2 * math.log2(1000.0 * bitrate) - 3.0 * e / E_MAX - upscale


def true_time(e: float, h: float, resolution: int, bitrate: float, vsr: str) -> float:
    """Encode seconds: superlinear in resolution, logarithmic in bitrate."""
    scale = 0.05 * (resolution / 360.0) ** 1.5 * (1.0 + 0.3 * math.log2(bitrate / 0.145))
    return (scale * (1.0 + 0.6 * e / E_MAX + 0.2 * h / H_MAX)
            * (1.08 if vsr == "fsrcnn" else 1.0))


def truth(kind: str, e, h, resolution, bitrate, vsr) -> float:
    if kind == "quality":
        return true_quality(e, h, resolution, bitrate, vsr)
    return true_time(e, h, resolution, bitrate, vsr)


# ---------------------------------------------------------------- video


@dataclass
class Segment:
    """One written Y4M segment and the exact sum of its luma bytes."""

    name: str
    kind: str
    path: Path
    frames: int
    width: int
    height: int
    seed: tuple
    luma_sum: int = 0

    @property
    def luma_mean(self) -> float:
        return self.luma_sum / (self.frames * self.width * self.height)


def planes(kind: str, width: int, height: int, frames: int, seed) -> Iterator[np.ndarray]:
    """Yield the luma planes of one segment, uint8 (height, width)."""
    if kind == "constant":  # the same bytes for every seed
        for _ in range(frames):
            yield np.full((height, width), 128, dtype=np.uint8)
        return
    rng = np.random.default_rng(list(seed))
    if kind == "noise":
        spread = int(rng.integers(10, 60))
        for _ in range(frames):
            yield rng.integers(128 - spread, 129 + spread, (height, width), dtype=np.uint8)
        return
    # A coarse random pattern upsampled 16x plus fine grain: large flat-ish
    # areas and edges, like real content rather than white noise.
    coarse = rng.integers(24, 232, (height // 16 + 1, width // 16 + 1)).astype(np.int16)
    base = np.repeat(np.repeat(coarse, 16, axis=0), 16, axis=1)[:height, :width]
    base = base + rng.integers(-6, 7, (height, width), dtype=np.int16)
    base = np.clip(base, 0, 255).astype(np.uint8)
    dx, dy = (int(v) for v in rng.integers(1, 9, 2))
    for t in range(frames):
        yield base if kind == "static" else np.roll(base, (t * dy, t * dx), axis=(0, 1))


def write_y4m(segment: Segment) -> None:
    """Write a C420jpeg Y4M file with mid-grey chroma; record the luma sum."""
    w, h = segment.width, segment.height
    chroma = bytes([128]) * (2 * ((w + 1) // 2) * ((h + 1) // 2))
    total = 0
    with open(segment.path, "wb") as out:
        out.write(b"YUV4MPEG2 W%d H%d F30:1 Ip A1:1 C420jpeg\n" % (w, h))
        for plane in planes(segment.kind, w, h, segment.frames, segment.seed):
            out.write(b"FRAME\n")
            out.write(plane.tobytes())
            out.write(chroma)
            total += int(plane.sum(dtype=np.int64))
    segment.luma_sum = total


def write_segments(directory: Path, geometry, seed: int, tag: str) -> list[Segment]:
    width, height, kinds = geometry
    segments = []
    for index, (kind, frames) in enumerate(kinds):
        name = f"{tag}{index}_{kind}"
        segment = Segment(name, kind, directory / f"{name}.y4m", frames, width, height,
                          (seed, index))
        write_y4m(segment)
        segments.append(segment)
    return segments


# ----------------------------------------------------------------- CSVs

TRAINING_HEADER = "segment_id,E_Y,h,L_Y,resolution,bitrate_mbps,vsr_tag,target_kind,target\n"


def feature_draws(rng: np.random.Generator, n: int) -> np.ndarray:
    """(E_Y, h, L_Y) rows drawn uniformly from the box above."""
    return np.column_stack([
        rng.uniform(0.0, E_MAX, n), rng.uniform(0.0, H_MAX, n), rng.uniform(L_MIN, L_MAX, n),
    ])


def training_rows(rng, kind: str, vsr: str, n: int, noisy: bool) -> list[tuple]:
    """(segment_id, e, h, l, resolution, bitrate, target) with seeded noise."""
    feats = feature_draws(rng, n)
    res = rng.choice(RESOLUTIONS, n)
    rates = rng.choice(BITRATES, n)
    noise = rng.normal(0.0, 1.0, n).tolist()
    rows = []
    for i in range(n):
        e, h, l = (float(v) for v in feats[i])
        r, b = int(res[i]), float(rates[i])
        target = truth(kind, e, h, r, b, vsr)
        if noisy and kind == "quality":
            target = min(100.0, max(0.0, target + noise[i]))
        elif noisy:
            target *= 1.0 + 0.03 * noise[i]
        rows.append((f"{kind}-{vsr}-{i}", e, h, l, r, b, target))
    return rows


def write_training_csv(path: Path, seed: int, groups, rows_per_group: int) -> None:
    rng = np.random.default_rng([seed, 7])
    lines = [TRAINING_HEADER]
    for kind, vsr in groups:
        for sid, e, h, l, r, b, target in training_rows(rng, kind, vsr, rows_per_group, True):
            lines.append(f"{sid},{e!r},{h!r},{l!r},{r},{b!r},{vsr},{kind},{target!r}\n")
    path.write_text("".join(lines), encoding="utf-8")


def holdout(seed: int, kind: str, vsr: str) -> list[tuple]:
    """Noise-free held-out points for one model group."""
    rng = np.random.default_rng([seed, 11, ("quality", "time").index(kind), VSR_TAGS.index(vsr)])
    return training_rows(rng, kind, vsr, HOLDOUT_ROWS_PER_GROUP, False)


def write_features_csv(path: Path, seed: int, n: int) -> list[tuple]:
    rng = np.random.default_rng([seed, 13])
    rows = [(f"cat{i:04d}", *map(float, f)) for i, f in enumerate(feature_draws(rng, n))]
    path.write_text(
        "segment_id,E_Y,h,L_Y\n" + "".join(f"{s},{e!r},{h!r},{l!r}\n" for s, e, h, l in rows),
        encoding="utf-8",
    )
    return rows


EVALUATION_HEADER = (
    "segment_id,scheme,bitrate_mbps,resolution,quality_metric,quality,encode_time_s\n"
)


def measured(metric: str, e: float, h: float, resolution: int, bitrate: float) -> float:
    """Stand-in for a measured quality score of one encoded rung."""
    if metric == "vmaf":
        return true_quality(e, h, resolution, bitrate, "none")
    return true_psnr(e, h, resolution, bitrate)


def evaluation_lines(scheme: str, segment_id: str, e: float, h: float, reps) -> list[str]:
    """Stand-in measurements of (bitrate, resolution) rungs from the ground truth."""
    lines = []
    for b, r in reps:
        t = true_time(e, h, r, b, "none")
        for metric in ("vmaf", "psnr"):
            q = measured(metric, e, h, r, b)
            lines.append(f"{segment_id},{scheme},{b!r},{r},{metric},{q!r},{t!r}\n")
    return lines


# ------------------------------------------------------------ workloads


@dataclass
class Inputs:
    """Everything one workload's set-up wrote, with what the checks need."""

    directory: Path
    files: list[Path] = field(default_factory=list)
    segments: list[Segment] = field(default_factory=list)
    features: list[tuple] = field(default_factory=list)

    def hashes(self) -> dict[str, str]:
        return {p.relative_to(self.directory).as_posix(): sha256(p) for p in self.files}


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def make(workload: str, seed: int, directory: Path) -> Inputs:
    """Write one workload's inputs into an empty ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(directory)
    if workload == "ingest-uhd":
        inputs.segments = write_segments(directory, UHD, seed, "uhd")
    elif workload == "train-forest":
        path = directory / "train.csv"
        groups = [(k, v) for k in ("quality", "time") for v in VSR_TAGS]
        write_training_csv(path, seed, groups, TRAIN_ROWS_PER_GROUP)
        inputs.files.append(path)
    else:
        path = directory / "models.csv"
        write_training_csv(path, seed, [("quality", "none"), ("time", "none")],
                           MODEL_ROWS_PER_GROUP)
        inputs.files.append(path)
        if workload == "catalog-ladder":
            path = directory / "features.csv"
            inputs.features = write_features_csv(path, seed, CATALOG_SEGMENTS)
            inputs.files.append(path)
            path = directory / "baseline.csv"
            lines = [EVALUATION_HEADER]
            for sid, e, h, _ in inputs.features:
                lines += evaluation_lines("hls", sid, e, h, HLS_PAIRING.items())
            path.write_text("".join(lines), encoding="utf-8")
            inputs.files.append(path)
        elif workload == "live-segment":
            inputs.segments = write_segments(directory, LIVE, seed, "live")
        else:
            raise ValueError(f"unknown workload {workload!r}")
    inputs.files += [s.path for s in inputs.segments]
    return inputs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the inputs into")
    args = parser.parse_args()
    inputs = make(args.workload, args.seed, Path(args.out))
    for name, digest in inputs.hashes().items():
        print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
