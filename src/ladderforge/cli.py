"""Command-line front end: analyze, train, ladder, evaluate.

Every command is deterministic given (inputs, config, seed) and emits
byte-stable artifacts: JSON with fixed key order, floats as shortest
round-trip decimals, and the effective config echoed into each artifact for
provenance (JSON artifacts get a ``config`` key, CSV artifacts a leading
``#`` comment line).

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal invariant
violation.  ``LADDERFORGE_THREADS`` caps the number of ``analyze`` workers;
results are always gathered in input order, so it never changes output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence, TextIO

from . import complexity, forest, ladder as ladder_mod, metrics
from .config import ConfigError, RunConfig, parse_tau
from .errors import LadderforgeError
from .media import (
    InvalidSpec,
    SYNTHETIC_PATTERNS,
    SyntheticSpec,
    generate_synthetic,
    parse_y4m,
    read_raw_luma,
)
from .rng import SplitMix64

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

THREADS_ENV = "LADDERFORGE_THREADS"


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _worker_count(n_tasks: int) -> int:
    raw = os.environ.get(THREADS_ENV)
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
        if cap < 1:
            raise ConfigError(f"{THREADS_ENV} must be >= 1, got {cap}")
    elif hasattr(os, "sched_getaffinity"):
        cap = len(os.sched_getaffinity(0))
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_tasks))


def _load_config(args) -> RunConfig:
    config = _read_text(args.config, RunConfig.from_file) if args.config else RunConfig()
    overrides = {
        "tau_l": args.tau_l,
        "v_j": args.vj,
        "v_t": args.vt,
        "vsr_tag": args.vsr,
        "seed": args.seed,
        "block_size": args.block_size,
        "kappa": args.kappa,
        "segment_duration_s": args.segment_duration,
        "n_trees": args.n_trees,
        "max_depth": args.max_depth,
        "min_samples_leaf": args.min_samples_leaf,
        "features_per_split": args.features_per_split,
    }
    if args.vj is not None and args.vj.strip().lower() == "none":
        config = config.merged(**{k: v for k, v in overrides.items() if k not in ("v_j", "v_t")})
        return _without_pruning(config, args.vt)
    if overrides["v_j"] is not None:
        try:
            overrides["v_j"] = float(overrides["v_j"])
        except ValueError:
            raise ConfigError(f"--vj must be a number or 'none', got {args.vj!r}") from None
    return config.merged(**overrides)


def _without_pruning(config: RunConfig, vt_flag) -> RunConfig:
    if vt_flag is not None:
        raise ConfigError("--vt has no effect when --vj none disables pruning")
    return dataclasses.replace(config, v_j=None, v_t=None)


def _tau_flag(text: str) -> float:
    try:
        return parse_tau(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_text(path: str | Path, reader, **kwargs):
    """Run ``reader`` on the UTF-8 text file at ``path``; its data errors name the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return reader(handle, **kwargs)
    except (OSError, UnicodeDecodeError) as exc:
        raise LadderforgeError(f"cannot read {path}: {exc}") from None
    except LadderforgeError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _config_comment(config: RunConfig) -> str:
    return "config " + json.dumps(config.to_dict(), separators=(",", ":"))


def _out_dir(path: str) -> Path:
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise LadderforgeError(f"cannot create output directory {out_dir}: {exc}") from None
    return out_dir


def _write_file(path: Path, write: Callable[[TextIO], object]) -> None:
    """Run ``write`` on a temp file beside ``path``, then rename it over ``path``,
    so a failed write leaves any earlier file whole and no temp file behind."""
    temp = path.with_name(f".{path.name}.tmp")
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            write(handle)
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def _write_json(path: Path, doc: dict) -> None:
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    _write_file(path, lambda handle: handle.write(text))


def _safe_filename(segment_id: str) -> str:
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in segment_id)


# ----------------------------------------------------------------- analyze

_SYNTH_PREFIX = "synth:"


def parse_synth_spec(text: str, default_seed: int) -> tuple[str | None, SyntheticSpec]:
    """Parse ``synth:<pattern>:<W>x<H>x<N>@<FPS>[:key=value...]``.

    FPS is an integer or ``num/den``.  Optional keys: seed, level, period,
    sigma, velocity, id.
    """
    body = text[len(_SYNTH_PREFIX):]
    parts = body.split(":")
    if len(parts) < 2:
        raise InvalidSpec(f"synthetic spec needs a pattern and geometry: {text!r}")
    pattern = parts[0]
    if pattern not in SYNTHETIC_PATTERNS:
        raise InvalidSpec(f"unknown pattern {pattern!r}; expected one of {SYNTHETIC_PATTERNS}")
    geometry, _, fps_text = parts[1].partition("@")
    dims = geometry.split("x")
    if len(dims) != 3:
        raise InvalidSpec(f"geometry must be WxHxN, got {geometry!r}")
    try:
        width, height, frames = (int(d) for d in dims)
        framerate = Fraction(fps_text) if fps_text else Fraction(30)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidSpec(f"bad geometry in {text!r}: {exc}") from None
    kwargs: dict = {"seed": default_seed}
    segment_id: str | None = None
    for item in parts[2:]:
        key, sep, value = item.partition("=")
        if not sep:
            raise InvalidSpec(f"expected key=value, got {item!r}")
        try:
            if key == "id":
                segment_id = value
            elif key in ("seed", "level", "period"):
                kwargs[key] = int(value)
            elif key in ("sigma", "velocity"):
                kwargs[key] = float(value)
            else:
                raise InvalidSpec(f"unknown synthetic parameter {key!r}")
        except ValueError as exc:
            raise InvalidSpec(f"bad value for {key!r}: {exc}") from None
    spec = SyntheticSpec(
        width=width, height=height, frames=frames, framerate=framerate,
        pattern=pattern, **kwargs,
    )
    return segment_id, spec


def _load_input(token: str, index: int, args, config: RunConfig):
    """Resolve one analyze input to (segment_id, VideoSequence)."""
    if token.startswith(_SYNTH_PREFIX):
        segment_id, spec = parse_synth_spec(token, config.seed)
        if segment_id is None:
            segment_id = f"synth{index:03d}"
        return segment_id, generate_synthetic(spec)
    path = Path(token)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise LadderforgeError(f"cannot read {token}: {exc}") from None
    if path.suffix.lower() in (".yuv", ".raw"):
        if args.raw_width is None or args.raw_height is None:
            raise InvalidSpec(f"{token}: raw input needs --raw-width and --raw-height")
        try:
            framerate = Fraction(args.raw_fps) if args.raw_fps else Fraction(30)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidSpec(f"bad --raw-fps: {exc}") from None
        return path.stem, read_raw_luma(data, args.raw_width, args.raw_height, framerate)
    return path.stem, parse_y4m(data)


def cmd_analyze(args) -> int:
    config = _load_config(args)
    out_dir = _out_dir(args.out)

    def job(item):
        index, token = item
        segment_id, seq = _load_input(token, index, args, config)
        return segment_id, complexity.segment_features(seq, block_size=config.block_size)

    rows: list[tuple[str, complexity.SegmentFeatures]] = []
    failures = 0
    tasks = list(enumerate(args.inputs))
    with ThreadPoolExecutor(max_workers=_worker_count(len(tasks))) as pool:
        futures = [pool.submit(job, task) for task in tasks]
        for (_, token), future in zip(tasks, futures):
            try:
                rows.append(future.result())
            except LadderforgeError as exc:
                failures += 1
                print(f"error: {token}: {exc}", file=sys.stderr)
    seen = {sid for sid, _ in rows}
    if len(seen) != len(rows):
        raise LadderforgeError("duplicate segment ids among inputs; use id= to disambiguate")
    _write_file(out_dir / "features.csv", lambda handle: complexity.write_features_csv(
        rows, handle, comment=_config_comment(config)))
    print(f"analyzed {len(rows)} segment(s) -> {out_dir / 'features.csv'}")
    return EXIT_DATA if failures else EXIT_OK


# ------------------------------------------------------------------- train


def _holdout_split(n: int, fraction: float, seed: int) -> tuple[list[int], list[int]]:
    order = SplitMix64(seed).permutation(n)
    n_test = int(n * fraction) if n >= 3 else 0
    return order[n_test:], order[:n_test]


def cmd_train(args) -> int:
    config = _load_config(args)
    out_dir = _out_dir(args.out)
    if not 0.0 <= args.holdout < 1.0:
        raise ConfigError(f"--holdout must be in [0, 1), got {args.holdout}")
    records = _read_text(args.training_csv, forest.load_training_csv,
                         resolutions=config.resolutions)
    groups: dict[tuple[str, str], list[forest.TrainingRecord]] = {}
    for record in records:
        groups.setdefault((record.target_kind, record.vsr_tag), []).append(record)
    # Bootstrap indexes rows, so the same rows in a different order are a
    # different (still deterministic) training run.
    for (target_kind, vsr_tag), group in sorted(groups.items()):
        train_idx, test_idx = _holdout_split(len(group), args.holdout, config.seed)
        train_set = [group[i] for i in train_idx]
        test_set = [group[i] for i in test_idx]
        model = forest.fit(train_set, config.hyperparams(), seed=config.seed)
        doc = json.loads(forest.serialize_model(model))
        doc["config"] = config.to_dict()
        path = out_dir / f"model_{target_kind}_{vsr_tag}.json"
        text = json.dumps(doc, separators=(",", ":")) + "\n"
        _write_file(path, lambda handle: handle.write(text))
        if test_set:
            stats = forest.evaluate(model, test_set)
            print(
                f"{target_kind}/{vsr_tag}: trained on {len(train_set)}, "
                f"held-out MAE {stats.mae:.4f} SD {stats.sd:.4f} ({len(test_set)} records) "
                f"-> {path}"
            )
        else:
            print(f"{target_kind}/{vsr_tag}: trained on {len(train_set)}, no holdout -> {path}")
    return EXIT_OK


# ------------------------------------------------------------------ ladder


class MissingModel(LadderforgeError):
    pass


def _load_model(models_dir: Path, target_kind: str, vsr_tag: str) -> forest.ForestModel:
    path = models_dir / f"model_{target_kind}_{vsr_tag}.json"
    if not path.exists():
        raise MissingModel(f"model file not found: {path}")
    return _read_text(path, lambda handle: forest.deserialize_model(handle.read()))


def cmd_ladder(args) -> int:
    config = _load_config(args)
    out_dir = _out_dir(args.out)
    models_dir = Path(args.models)
    quality_model = _load_model(models_dir, "quality", config.vsr_tag)
    time_model = _load_model(models_dir, "time", config.vsr_tag)
    if quality_model.vsr_tag != config.vsr_tag or time_model.vsr_tag != config.vsr_tag:
        raise ladder_mod.ModelMismatch(
            f"model files do not carry vsr_tag {config.vsr_tag!r}"
        )
    feature_rows = _read_text(args.features_csv, complexity.read_features_csv)
    pairing = _read_text(args.pairing, ladder_mod.load_pairing_csv) if args.pairing else None

    ladders = []
    for segment_id, features in feature_rows:
        grid = ladder_mod.predict_grid(
            quality_model, time_model, features, config.resolutions, config.bitrates_mbps
        )
        built = ladder_mod.build_ladder(
            grid, config.bitrates_mbps, config.tau_l, config.vsr_tag
        )
        if config.v_j is not None:
            built = ladder_mod.prune_jnd(built, config.v_j, config.v_t)
        ladders.append((segment_id, built))
    if pairing is not None or args.emit_baseline:
        baseline = ladder_mod.default_hls_ladder(config.bitrates_mbps, pairing, config.vsr_tag)
        ladders.append(("baseline", baseline))
    # Distinct ids can share a file name; refuse that before writing anything.
    manifests: dict[Path, dict] = {}
    for segment_id, built in ladders:
        path = out_dir / f"ladder_{_safe_filename(segment_id)}.json"
        if path in manifests:
            raise LadderforgeError(f"ladders {manifests[path]['segment_id']!r} and "
                                   f"{segment_id!r} would both be written to {path}")
        manifests[path] = ladder_mod.ladder_to_manifest(built, segment_id)
        manifests[path]["config"] = config.to_dict()
    for path, manifest in manifests.items():
        _write_json(path, manifest)
    print(f"built {len(feature_rows)} ladder manifest(s) in {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------- evaluate


def cmd_evaluate(args) -> int:
    config = _load_config(args)
    out_dir = _out_dir(args.out)
    baseline_name, baseline = _read_text(args.baseline_csv, metrics.load_evaluation_csv)
    candidate_name, candidate = _read_text(args.candidate_csv, metrics.load_evaluation_csv)
    report = metrics.compare_schemes(
        baseline,
        candidate,
        kappa=config.kappa,
        segment_duration_s=config.segment_duration_s,
    )
    doc = {
        "baseline": baseline_name,
        "candidate": candidate_name,
        **report.to_dict(),
        "config": config.to_dict(),
    }
    _write_json(out_dir / "report.json", doc)

    def show(label, value, unit=""):
        text = "n/a" if value is None else f"{value:+.2f}{unit}"
        print(f"  {label:<18} {text}")

    print(f"{candidate_name} vs {baseline_name} over {len(report.segments)} segment(s):")
    show("BD-rate (PSNR)", report.bd_rate_psnr, "%")
    show("BD-rate (VMAF)", report.bd_rate_vmaf, "%")
    show("BD-PSNR", report.bd_psnr, " dB")
    show("BD-VMAF", report.bd_vmaf)
    show("energy delta", report.delta_energy_pct, "%")
    show("storage delta", report.delta_storage_pct, "%")
    print(f"  {'mean segment time':<18} {report.mean_segment_time_s:.3f} s")
    return EXIT_OK


# -------------------------------------------------------------------- main


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--out", metavar="DIR", default=".", help="output directory")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--tau-l", dest="tau_l", type=_tau_flag, metavar="SECONDS",
                        help="max acceptable encode latency per rung, or 'inf'")
    parser.add_argument("--vj", metavar="POINTS",
                        help="quality step treated as noticeable; 'none' disables pruning")
    parser.add_argument("--vt", type=float, metavar="POINTS",
                        help="quality treated as perceptually lossless")
    parser.add_argument("--vsr", choices=list(forest.VSR_TAGS), help="client upscaler context")
    parser.add_argument("--block-size", dest="block_size", type=int, help="analysis block size")
    parser.add_argument("--kappa", type=float, help="joules per encoding second")
    parser.add_argument("--segment-duration", dest="segment_duration", type=float,
                        metavar="SECONDS", help="segment duration for storage accounting")
    parser.add_argument("--n-trees", dest="n_trees", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--max-depth", dest="max_depth", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--min-samples-leaf", dest="min_samples_leaf", type=int,
                        help=argparse.SUPPRESS)
    parser.add_argument("--features-per-split", dest="features_per_split", type=int,
                        help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ladderforge", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="extract complexity features from segments")
    p.add_argument("inputs", nargs="+",
                   help="Y4M/raw paths or synth:<pattern>:<WxHxN>@<FPS>[:k=v...] specs")
    p.add_argument("--raw-width", type=int, help="width of headerless raw-luma inputs")
    p.add_argument("--raw-height", type=int, help="height of headerless raw-luma inputs")
    p.add_argument("--raw-fps", help="framerate of raw inputs, e.g. 30 or 30000/1001")
    _add_common_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("train", help="fit quality/time models from a training CSV")
    p.add_argument("training_csv")
    p.add_argument("--holdout", type=float, default=0.2,
                   help="held-out fraction for the printed MAE/SD (default 0.2; 0 disables)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ladder", help="build per-segment ladder manifests")
    p.add_argument("features_csv")
    p.add_argument("--models", required=True, metavar="DIR",
                   help="directory holding model_{quality,time}_<vsr>.json")
    p.add_argument("--pairing", metavar="PATH",
                   help="bitrate->resolution pairing CSV for the fixed baseline ladder")
    p.add_argument("--emit-baseline", action="store_true",
                   help="also write the fixed baseline ladder manifest")
    _add_common_flags(p)
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("evaluate", help="compare two evaluated ladder CSVs")
    p.add_argument("baseline_csv")
    p.add_argument("candidate_csv")
    _add_common_flags(p)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except LadderforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())
