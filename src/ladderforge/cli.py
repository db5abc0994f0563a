"""Command-line front end: analyze, train, ladder, evaluate.

Every command is deterministic given (inputs, config, seed) and emits
byte-stable artifacts: JSON with fixed key order, floats as shortest
round-trip decimals, and the effective config echoed into each artifact for
provenance (JSON artifacts get a ``config`` key, CSV artifacts a leading
``#`` comment line).  ``complexity``, ``forest``, ``ladder`` and ``metrics``
lay out the features, models, manifests and report; each file is written to
a temp file beside it and renamed into place, so a failed write leaves any
earlier file whole, and is a data error naming the file.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal invariant
violation.  ``LADDERFORGE_THREADS`` caps the number of ``analyze`` threads
and of ``train`` worker processes (default: the CPUs this process may run
on).  ``train`` checks every model group, then queues their trees in one
pool, one run of tree seeds per worker and group, each grown a level at a
time, and writes each model while later groups grow.  Features are gathered
in input order and trees in seed order, so the cap never changes output.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import mmap
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import complexity, forest, ladder as ladder_mod, metrics
from .config import ConfigError, RunConfig, parse_tau
from .errors import LadderforgeError
from .media import (
    InvalidSpec,
    SYNTHETIC_PREFIX,
    SyntheticSpec,
    generate_synthetic,
    parse_y4m,
    read_framerate,
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
    """The config file's values (or the defaults), overridden by each flag given;
    a flag's ``dest`` is the name of the field it sets."""
    config = _read_text(args.config, RunConfig.from_file) if args.config else RunConfig()
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    if args.v_j is not None and args.v_j.strip().lower() == "none":
        if args.v_t is not None:
            raise ConfigError("--vt has no effect when --vj none disables pruning")
        config = dataclasses.replace(config, v_j=None, v_t=None)
        overrides["v_j"] = None
    elif args.v_j is not None:
        try:
            overrides["v_j"] = float(args.v_j)
        except ValueError:
            raise ConfigError(f"--vj must be a number or 'none', got {args.v_j!r}") from None
    return config.merged(**overrides)


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


def _out_dir(path: str) -> Path:
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise LadderforgeError(f"cannot create output directory {out_dir}: {exc}") from None
    return out_dir


def _write_files(out_dir: Path, texts: Iterable[tuple[str, str]]) -> None:
    """Write each ``(name, text)`` as UTF-8 to a temp file in ``out_dir``, then
    rename it over ``name``, so a failed write leaves any earlier file whole
    and no temp file behind, and raises a :class:`LadderforgeError` naming the
    file.  The directory is opened once, and every name resolved in it."""
    name, dir_fd = "", None
    try:  # O_PATH: the directory needs no read permission to be written in
        dir_fd = os.open(out_dir, getattr(os, "O_PATH", os.O_RDONLY) | os.O_DIRECTORY)
        for name, text in texts:
            temp = f".{name}.tmp"
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666, dir_fd=dir_fd)
            try:
                data = memoryview(text.encode("utf-8"))
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
            os.replace(temp, name, src_dir_fd=dir_fd, dst_dir_fd=dir_fd)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            if name:
                os.unlink(f".{name}.tmp", dir_fd=dir_fd)
        if isinstance(exc, OSError):
            raise LadderforgeError(f"cannot write {out_dir / name}: {exc}") from None
        raise
    finally:
        if dir_fd is not None:
            os.close(dir_fd)


def _write_file(path: Path, text: str) -> None:
    """:func:`_write_files` of one file."""
    _write_files(path.parent, [(path.name, text)])


def _safe_filename(segment_id: str) -> str:
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in segment_id)


# ----------------------------------------------------------------- analyze

def _load_input(token: str, index: int, args, config: RunConfig):
    """Resolve one analyze input to (segment_id, VideoSequence)."""
    if token.startswith(SYNTHETIC_PREFIX):
        segment_id, spec = SyntheticSpec.parse(token, config.seed)
        if segment_id is None:
            segment_id = f"synth{index:03d}"
        return segment_id, generate_synthetic(spec)
    path = Path(token)
    try:
        with open(path, "rb") as handle:
            try:  # frames become views of the file, paged in as they are read
                data = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except (OSError, ValueError):  # an empty file, a pipe
                data = handle.read()
    except OSError as exc:
        raise LadderforgeError(f"cannot read {token}: {exc}") from None
    if path.suffix.lower() in (".yuv", ".raw"):
        if args.raw_width is None or args.raw_height is None:
            raise InvalidSpec("raw input needs --raw-width and --raw-height")
        framerate = read_framerate(args.raw_fps, "--raw-fps")
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
    _write_file(out_dir / "features.csv", complexity.features_text(rows, config.to_dict()))
    print(f"analyzed {len(rows)} segment(s) -> {out_dir / 'features.csv'}")
    return EXIT_DATA if failures else EXIT_OK


# ------------------------------------------------------------------- train


def cmd_train(args) -> int:
    config = _load_config(args)
    out_dir = _out_dir(args.out)
    if not 0.0 <= args.holdout < 1.0:
        raise ConfigError(f"--holdout must be in [0, 1), got {args.holdout}")
    data = _read_text(args.training_csv, forest.load_training_csv, resolutions=config.resolutions)
    # One stable sort groups the rows by (target kind, vsr tag), in the string
    # order of those names, each group in row order.
    kind_rank, tag_rank = (np.argsort(np.argsort(names)) for names in (forest.TARGET_KINDS, forest.VSR_TAGS))
    key = kind_rank[data.kind] * len(forest.VSR_TAGS) + tag_rank[data.tag]
    order = np.argsort(key, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(key[order])) + 1)
    # Bootstrap indexes rows, so the same rows in a different order are a
    # different (still deterministic) training run.
    splits = []
    for rows in groups:
        shuffled = rows[SplitMix64(config.seed).permutation(rows.size)]
        n_test = int(rows.size * args.holdout) if rows.size >= 3 else 0
        splits.append((data.take(shuffled[n_test:]), data.take(shuffled[:n_test])))
    # Trees grow in worker processes, since their split search holds the GIL.
    # One run of trees per worker per group: a group's rows are pickled once a run.
    workers = _worker_count(config.n_trees)
    if workers > 1:  # only here, so that other commands do not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(workers) if workers > 1 else None
    try:
        try:  # every group is checked, then all their runs of trees queue at this one call
            models = forest.fit_groups([train for train, _ in splits], config.hyperparams(), seed=config.seed,
                                       map=pool.map if pool else map, run_length=-(-config.n_trees // workers))
        except forest.ForestError as exc:
            raise type(exc)(f"{args.training_csv}: {exc}") from None
        # Each model is written and scored while later groups' trees still grow.
        for (train_set, test_set), model in zip(splits, models):
            target_kind, vsr_tag = model.target_kind, model.vsr_tag
            path = out_dir / f"model_{target_kind}_{vsr_tag}.json"
            _write_file(path, forest.model_text(model, config.to_dict()))
            if test_set:
                stats = forest.evaluate(model, test_set)
                print(
                    f"{target_kind}/{vsr_tag}: trained on {len(train_set)}, "
                    f"held-out MAE {stats.mae:.4f} SD {stats.sd:.4f} ({len(test_set)} records) "
                    f"-> {path}"
                )
            else:
                print(f"{target_kind}/{vsr_tag}: trained on {len(train_set)}, no holdout -> {path}")
    finally:  # after an error, drop the queued trees rather than wait for them
        if pool:
            pool.shutdown(cancel_futures=True)
    return EXIT_OK


# ------------------------------------------------------------------ ladder


class MissingModel(LadderforgeError):
    pass


def _load_model(models_dir: Path, target_kind: str, vsr_tag: str) -> forest.ForestModel:
    path = models_dir / f"model_{target_kind}_{vsr_tag}.json"
    if not path.exists():
        raise MissingModel(f"model file not found: {path}")
    model = _read_text(path, lambda handle: forest.deserialize_model(handle.read()))
    if (model.target_kind, model.vsr_tag) != (target_kind, vsr_tag):
        raise ladder_mod.ModelMismatch(f"{path}: holds a {model.target_kind} model for vsr_tag "
                                       f"{model.vsr_tag!r}, not a {target_kind} model for {vsr_tag!r}")
    return model


def cmd_ladder(args) -> int:
    config = _load_config(args)
    out_dir = _out_dir(args.out)
    models_dir = Path(args.models)
    quality_model = _load_model(models_dir, "quality", config.vsr_tag)
    time_model = _load_model(models_dir, "time", config.vsr_tag)
    catalog = _read_text(args.features_csv, complexity.read_features_csv)
    hls = partial(ladder_mod.default_hls_ladder, config.bitrates_mbps, vsr_tag=config.vsr_tag)
    if args.pairing:  # built as the file is read, so that a bitrate it lacks names the file
        baseline = _read_text(args.pairing, lambda handle: hls(ladder_mod.load_pairing_csv(handle)))
    else:
        baseline = hls() if args.emit_baseline else None

    # One grid and one set of decisions for the whole catalog, so each model
    # predicts once and no segment is a Python object of its own.
    grids = ladder_mod.predict_grid(quality_model, time_model, [f for _, f in catalog],
                                    config.resolutions, config.bitrates_mbps)
    decided = ladder_mod.decide(grids, config.bitrates_mbps, config.tau_l, config.vsr_tag,
                                config.v_j, config.v_t)
    segment_ids = [segment_id for segment_id, _ in catalog]
    texts = ladder_mod.manifest_texts(segment_ids, decided, config.to_dict())
    if baseline is not None:
        segment_ids.append("baseline")
        texts += ladder_mod.manifest_texts(["baseline"], ladder_mod.Decisions.of(baseline),
                                           config.to_dict())
    # Distinct ids can share a file name; refuse that before writing anything.
    names: dict[str, str] = {}
    for segment_id in segment_ids:
        name = f"ladder_{_safe_filename(segment_id)}.json"
        if name in names:
            raise LadderforgeError(f"ladders {names[name]!r} and {segment_id!r} "
                                   f"would both be written to {out_dir / name}")
        names[name] = segment_id
    _write_files(out_dir, zip(names, texts))
    print(f"built {len(catalog)} ladder manifest(s) in {out_dir}")
    kept = decided.resolutions[decided.kept]
    print(f"ladder: {len(catalog)} segment(s), {decided.kept.size} rung(s) built, "
          f"{int(decided.over_budget.sum())} over tau_L, {int((~decided.kept).sum())} pruned, "
          f"{kept.size} kept (" + ", ".join(f"{r}: {int((kept == r).sum())}" for r in config.resolutions) + ")")
    return EXIT_OK


# ---------------------------------------------------------------- evaluate


def cmd_evaluate(args) -> int:
    config = _load_config(args)
    out_dir = _out_dir(args.out)
    baseline = _read_text(args.baseline_csv, metrics.load_evaluation_csv)
    candidate = _read_text(args.candidate_csv, metrics.load_evaluation_csv)
    report = metrics.compare_schemes(baseline, candidate, kappa=config.kappa,
                                     segment_duration_s=config.segment_duration_s)
    _write_file(out_dir / "report.json",
                metrics.report_text(baseline.scheme, candidate.scheme, report, config.to_dict()))

    def show(label, value, unit="", spec="+.2f"):
        text = "n/a" if value is None else f"{value:{spec}}{unit}"
        print(f"  {label:<18} {text}")

    print(f"{candidate.scheme} vs {baseline.scheme} over {len(report.segments)} segment(s):")
    show("BD-rate (PSNR)", report.bd_rate_psnr, "%")
    show("BD-rate (VMAF)", report.bd_rate_vmaf, "%")
    show("BD-PSNR", report.bd_psnr, " dB")
    show("BD-VMAF", report.bd_vmaf)
    show("energy delta", report.delta_energy_pct, "%")
    show("storage delta", report.delta_storage_pct, "%")
    show("mean segment time", report.mean_segment_time_s, " s", ".3f")
    return EXIT_OK


# -------------------------------------------------------------------- main


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--out", metavar="DIR", default=".", help="output directory")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--tau-l", dest="tau_l", type=_tau_flag, metavar="SECONDS",
                        help="max acceptable encode latency per rung, or 'inf'")
    parser.add_argument("--vj", dest="v_j", metavar="POINTS",
                        help="quality step treated as noticeable; 'none' disables pruning")
    parser.add_argument("--vt", dest="v_t", type=float, metavar="POINTS",
                        help="quality treated as perceptually lossless")
    parser.add_argument("--vsr", dest="vsr_tag", choices=list(forest.VSR_TAGS),
                        help="client upscaler context")
    parser.add_argument("--block-size", dest="block_size", type=int, help="analysis block size")
    parser.add_argument("--kappa", type=float, help="joules per encoding second")
    parser.add_argument("--segment-duration", dest="segment_duration_s", type=float,
                        metavar="SECONDS", help="segment duration for storage accounting")
    parser.add_argument("--n-trees", dest="n_trees", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--max-depth", dest="max_depth", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--min-samples-leaf", dest="min_samples_leaf", type=int,
                        help=argparse.SUPPRESS)
    parser.add_argument("--features-per-split", dest="features_per_split", type=int,
                        help=argparse.SUPPRESS)


_COMMANDS = ("analyze", "train", "ladder", "evaluate")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of all four commands, each with its arguments when ``command``
    is None or names it: a parser for one command's arguments does not pay
    for the others', and lists every command as the full one does."""
    parser = _Parser(prog="ladderforge", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="extract complexity features from segments")
    p.set_defaults(func=cmd_analyze)
    if command in (None, "analyze"):
        p.add_argument("inputs", nargs="+",
                       help="Y4M/raw paths or synth:<pattern>:<WxHxN>[@<FPS>][:k=v...] specs")
        p.add_argument("--raw-width", type=int, help="width of headerless raw-luma inputs")
        p.add_argument("--raw-height", type=int, help="height of headerless raw-luma inputs")
        p.add_argument("--raw-fps", help="framerate of raw inputs, e.g. 30 or 30000/1001")
        _add_common_flags(p)

    p = sub.add_parser("train", help="fit quality/time models from a training CSV")
    p.set_defaults(func=cmd_train)
    if command in (None, "train"):
        p.add_argument("training_csv")
        p.add_argument("--holdout", type=float, default=0.2,
                       help="held-out fraction for the printed MAE/SD (default 0.2; 0 disables)")
        _add_common_flags(p)

    p = sub.add_parser("ladder", help="build per-segment ladder manifests")
    p.set_defaults(func=cmd_ladder)
    if command in (None, "ladder"):
        p.add_argument("features_csv")
        p.add_argument("--models", required=True, metavar="DIR",
                       help="directory holding model_{quality,time}_<vsr>.json")
        p.add_argument("--pairing", metavar="PATH",
                       help="bitrate->resolution pairing CSV for the fixed baseline ladder")
        p.add_argument("--emit-baseline", action="store_true",
                       help="also write the fixed baseline ladder manifest")
        _add_common_flags(p)

    p = sub.add_parser("evaluate", help="compare two evaluated ladder CSVs")
    p.set_defaults(func=cmd_evaluate)
    if command in (None, "evaluate"):
        p.add_argument("baseline_csv")
        p.add_argument("candidate_csv")
        _add_common_flags(p)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = build_parser(command if command in _COMMANDS else None)
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
