"""The benchmark's four workloads.

Each workload has a set-up that writes its inputs (and trains the models it
reads), a round of timed CLI calls that is repeated for the length of a run,
and checks of the round's outputs against :mod:`oracles`.  Every round does
the same calls on the same inputs, so each round's artifacts must be
byte-identical to the first round's.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

import inputs as inp
import oracles

FEATURES_REL = 1e-9  # E_Y and h against the FFT DCT
LUMA_REL = 1e-12  # L_Y against the exact mean of the written bytes
PREDICTION_ABS = 1e-9  # manifest predictions against the forest walker
BD_RATE_ABS = 0.01  # tolerances of the acceptance suite's BD oracle check
BD_QUALITY_ABS = 0.001
QUALITY_MAE_LIMIT = 5.0  # train-forest held-out MAE, VMAF points
TIME_MAE_LIMIT = 0.15  # train-forest held-out MAE, share of the mean true time
CATALOG_TAU, CATALOG_VJ, CATALOG_VT = 2.0, 2.0, 98.0
LIVE_TAU, LIVE_VJ, LIVE_VT = 2.0, 6.0, 94.0  # the CLI defaults


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def read_features(path: Path) -> dict[str, tuple[float, float, float]]:
    lines = [l for l in path.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    if lines[0] != "segment_id,E_Y,h,L_Y":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    rows = {}
    for line in lines[1:]:
        sid, e, h, l = line.split(",")
        rows[sid] = (float(e), float(h), float(l))
    return rows


def check_features(segments, rows: dict, errors: list[str]) -> list[str]:
    """Each segment's features row against the written bytes and the FFT DCT.

    Returns the segments whose only fault is a flat segment scoring nonzero
    texture energy: that is a known fault of the program (zero-padded border
    blocks), counted as a failed operation rather than a wrong result.
    """
    flat_faults = []
    for seg in segments:
        if seg.name not in rows:
            errors.append(f"{seg.name}: no features row")
            continue
        e, h, luma = rows[seg.name]
        if not _close(luma, seg.luma_mean, LUMA_REL):
            errors.append(f"{seg.name}: L_Y {luma!r} != luma mean {seg.luma_mean!r}")
        if seg.kind == "constant":
            if h != 0.0:
                errors.append(f"{seg.name}: constant segment has h {h!r}")
            if e != 0.0:
                flat_faults.append(seg.name)
        if seg.kind == "static" and h != 0.0:
            errors.append(f"{seg.name}: static segment has h {h!r}")
        # Static and constant segments repeat one frame: its energy is E_Y.
        frames = 1 if seg.kind in ("static", "constant") else seg.frames
        want_e, want_h = oracles.segment_features(
            inp.planes(seg.kind, seg.width, seg.height, frames, seg.seed))
        if not _close(e, want_e, FEATURES_REL):
            errors.append(f"{seg.name}: E_Y {e!r} != DCT oracle {want_e!r}")
        if seg.kind not in ("static", "constant") and not _close(h, want_h, FEATURES_REL):
            errors.append(f"{seg.name}: h {h!r} != DCT oracle {want_h!r}")
    return flat_faults


def check_manifests(manifests: dict, features: dict, models: Path, tau, v_j, v_t,
                    errors: list[str]) -> None:
    """Re-derive every manifest from the model files by the oracles."""
    quality = oracles.Forest((models / "model_quality_none.json").read_text(encoding="utf-8"))
    encode = oracles.Forest((models / "model_time_none.json").read_text(encoding="utf-8"))
    ids = sorted(manifests)
    cells = [(r, b) for r in inp.RESOLUTIONS for b in inp.BITRATES]
    x = np.array([oracles.model_row(*features[sid], r, b) for sid in ids for r, b in cells])
    q_all = quality.predict(x).reshape(len(ids), len(cells))
    t_all = encode.predict(x).reshape(len(ids), len(cells))
    for k, sid in enumerate(ids):
        q = dict(zip(cells, q_all[k].tolist()))
        t = dict(zip(cells, t_all[k].tolist()))
        reps = []
        for b in inp.BITRATES:
            r, over = oracles.select(q, t, inp.RESOLUTIONS, b, tau)
            reps.append((b, r, over, q[(r, b)], t[(r, b)]))
        if v_j is not None:
            reps = [reps[i] for i in oracles.prune([rep[3] for rep in reps], v_j, v_t)]
        got = manifests[sid]["reps"]
        if len(got) != len(reps):
            errors.append(f"{sid}: {len(got)} rungs, oracle keeps {len(reps)}")
            continue
        for rung, (b, r, over, qv, tv) in zip(got, reps):
            if (rung["bitrate_mbps"], rung["resolution"], rung["over_budget"]) != (b, r, over):
                errors.append(f"{sid}: rung {rung} != oracle {(b, r, over)}")
            elif (abs(rung["predicted_vmaf"] - qv) > PREDICTION_ABS
                  or abs(rung["predicted_time_s"] - tv) > PREDICTION_ABS):
                errors.append(f"{sid}: predictions at {b} Mbps differ from the walker")
            if not rung["over_budget"] and rung["predicted_time_s"] > tau:
                errors.append(f"{sid}: rung at {b} Mbps exceeds tau_L without over_budget")


class Workload:
    """One workload; ``ops`` operations in ``calls`` timed calls per round."""

    name = ""
    ops = 0
    calls = 0

    def __init__(self, seed: int, clock):
        self.seed = seed
        self.clock = clock
        self.reference: dict[str, str] = {}
        self.mismatched_rounds = 0

    def setup(self, directory: Path) -> None:
        """Write the inputs; subclasses add models and one warm-up round."""
        self.inputs = inp.make(self.name, self.seed, directory)

    def artifacts(self) -> list[Path]:
        raise NotImplementedError

    def hashes(self) -> dict[str, str]:
        base = self.inputs.directory
        return {p.relative_to(base).as_posix(): inp.sha256(p) for p in self.artifacts()}

    def compare(self) -> None:
        """Hold this round's artifacts to the first round's bytes."""
        hashes = self.hashes()
        if not self.reference:
            self.reference = hashes
        elif hashes != self.reference:
            self.mismatched_rounds += 1

    def round_counts(self) -> dict[str, float]:
        """Per-round counts read from the artifacts rather than from spans."""
        return {}

    def headline(self, call_p50_s: float) -> dict[str, float]:
        """The workload's figure in its own unit of work, from the median call."""
        raise NotImplementedError

    def _train_models(self) -> Path:
        models = self.inputs.directory / "models"
        self.clock.run(["train", str(self.inputs.directory / "models.csv"), "--out", str(models),
                        "--seed", str(self.seed), "--n-trees", str(inp.MODEL_TREES),
                        "--holdout", "0"])
        return models


class IngestUhd(Workload):
    name = "ingest-uhd"
    ops = len(inp.UHD[2])
    calls = 1

    def setup(self, directory):
        super().setup(directory)
        self.out = directory / "analyze"
        self.argv = ["analyze", *(str(s.path) for s in self.inputs.segments),
                     "--out", str(self.out)]
        self.round()  # warm-up

    def round(self) -> int:
        code = self.clock.timed(self.argv)
        self.clock.end_call()
        return self.ops if code else 0

    def artifacts(self):
        return [self.out / "features.csv"]

    def check(self, errors):
        return check_features(self.inputs.segments, read_features(self.out / "features.csv"),
                              errors)

    def headline(self, call_p50_s):
        pixels = sum(s.frames * s.width * s.height for s in self.inputs.segments)
        return {"analyze_mpix_per_s": pixels / 1e6 / call_p50_s}


class TrainForest(Workload):
    name = "train-forest"
    ops = 2 * len(inp.VSR_TAGS)
    calls = 1
    nodes = 0

    def setup(self, directory):
        super().setup(directory)
        self.out = directory / "models"
        self.argv = ["train", str(directory / "train.csv"), "--out", str(self.out),
                     "--seed", str(self.seed), "--n-trees", str(inp.TRAIN_TREES)]
        self.round()  # warm-up

    def round(self) -> int:
        code = self.clock.timed(self.argv)
        self.clock.end_call()
        return self.ops if code else 0

    def artifacts(self):
        return sorted(self.out.glob("model_*.json"))

    def check(self, errors):
        self.nodes = 0
        for kind in ("quality", "time"):
            for vsr in inp.VSR_TAGS:
                path = self.out / f"model_{kind}_{vsr}.json"
                try:
                    forest = oracles.Forest(path.read_text(encoding="utf-8"))
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    errors.append(f"{path.name}: {exc!r}")
                    continue
                self.nodes += forest.nodes
                if (forest.target_kind, forest.vsr_tag) != (kind, vsr):
                    errors.append(f"{path.name}: holds {forest.target_kind}/{forest.vsr_tag}")
                if len(forest.trees) != inp.TRAIN_TREES:
                    errors.append(f"{path.name}: {len(forest.trees)} trees")
                rows = inp.holdout(self.seed, kind, vsr)
                x = np.array([oracles.model_row(*row[1:6]) for row in rows])
                truth = np.array([row[6] for row in rows])
                mae = float(np.mean(np.abs(forest.predict(x) - truth)))
                limit = QUALITY_MAE_LIMIT if kind == "quality" else TIME_MAE_LIMIT * truth.mean()
                if not mae <= limit:
                    errors.append(f"{path.name}: held-out MAE {mae:.4f} > {limit:.4f}")
        return []

    def round_counts(self):
        return {"forest.nodes": self.nodes}

    def headline(self, call_p50_s):
        return {"train_trees_per_s": self.ops * inp.TRAIN_TREES / call_p50_s}


class CatalogLadder(Workload):
    name = "catalog-ladder"
    ops = inp.CATALOG_SEGMENTS + 1  # manifests plus the report
    calls = 1
    bd_fits = bd_failed = 0

    def setup(self, directory):
        # One ladder worker.  With the default two, the workers only contend
        # for the GIL, and the hand-offs moved wall time to 1.00-1.43 times
        # CPU time from run to run, more than this workload's bound.
        os.environ["LADDERFORGE_THREADS"] = "1"
        super().setup(directory)
        self.models = self._train_models()
        self.ladders = directory / "ladders"
        self.report = directory / "report"
        self.candidate_csv = directory / "candidate.csv"
        self.features = {sid: (e, h, l) for sid, e, h, l in self.inputs.features}
        self.round()  # warm-up

    def round(self) -> int:
        d = self.inputs.directory
        code = self.clock.timed(
            ["ladder", str(d / "features.csv"), "--models", str(self.models),
             "--out", str(self.ladders), "--tau-l", str(CATALOG_TAU),
             "--vj", str(CATALOG_VJ), "--vt", str(CATALOG_VT)])
        if code:
            self.clock.end_call()
            return self.ops
        self._measure()  # the stand-in encoder pipeline, not timed
        code = self.clock.timed(
            ["evaluate", str(d / "baseline.csv"), str(self.candidate_csv),
             "--out", str(self.report), "--kappa", "45", "--segment-duration", "4"])
        self.clock.end_call()
        return 1 if code else 0

    def _manifests(self) -> dict[str, dict]:
        return {sid: json.loads((self.ladders / f"ladder_{sid}.json").read_text(encoding="utf-8"))
                for sid in self.features}

    def _measure(self) -> None:
        lines = [inp.EVALUATION_HEADER]
        for sid, manifest in self._manifests().items():
            e, h, _ = self.features[sid]
            reps = [(rep["bitrate_mbps"], rep["resolution"]) for rep in manifest["reps"]]
            lines += inp.evaluation_lines("ladder", sid, e, h, reps)
        self.candidate_csv.write_text("".join(lines), encoding="utf-8")

    def artifacts(self):
        return [self.ladders / f"ladder_{sid}.json" for sid in sorted(self.features)] + [
            self.report / "report.json"]

    def check(self, errors):
        manifests = self._manifests()
        check_manifests(manifests, self.features, self.models, CATALOG_TAU, CATALOG_VJ,
                        CATALOG_VT, errors)

        def no_constants(name):
            raise ValueError(f"report holds non-JSON constant {name}")

        try:
            report = json.loads((self.report / "report.json").read_text(encoding="utf-8"),
                                parse_constant=no_constants)
        except ValueError as exc:
            errors.append(f"report.json: {exc}")
            return []
        base = {sid: list(inp.HLS_PAIRING.items()) for sid in self.features}
        cand = {sid: [(r["bitrate_mbps"], r["resolution"]) for r in m["reps"]]
                for sid, m in manifests.items()}
        totals = {}
        for label, ladders in (("base", base), ("cand", cand)):
            energy = storage = 0.0
            for sid, reps in ladders.items():
                e, h, _ = self.features[sid]
                energy += 45.0 * sum(inp.true_time(e, h, r, b, "none") for b, r in reps)
                storage += 4.0 * sum(b for b, _ in reps)
            totals[label] = (energy, storage)
        for i, key in enumerate(("delta_energy_pct", "delta_storage_pct")):
            want = 100.0 * (totals["cand"][i] - totals["base"][i]) / totals["base"][i]
            if not abs(report[key] - want) <= 1e-9 * max(1.0, abs(want)):
                errors.append(f"report {key} {report[key]!r} != recomputed {want!r}")
        self.bd_fits = self.bd_failed = 0
        means: dict[str, list[float]] = {}
        for entry in report["segments"]:
            sid = entry["segment_id"]
            e, h, _ = self.features[sid]
            for kind in ("vmaf", "psnr"):
                if f"bd_rate_{kind}" not in entry:
                    self.bd_failed += 1
                    continue
                self.bd_fits += 1
                ref, test = ([(b, inp.measured(kind, e, h, r, b)) for b, r in reps]
                             for reps in (base[sid], cand[sid]))
                rate, quality = oracles.bd_rate(ref, test), oracles.bd_quality(ref, test)
                means.setdefault(f"bd_rate_{kind}", []).append(rate)
                means.setdefault(f"bd_{kind}", []).append(quality)
                if abs(entry[f"bd_rate_{kind}"] - rate) > BD_RATE_ABS:
                    errors.append(f"{sid}: bd_rate_{kind} {entry[f'bd_rate_{kind}']} != {rate}")
                if abs(entry[f"bd_{kind}"] - quality) > BD_QUALITY_ABS:
                    errors.append(f"{sid}: bd_{kind} {entry[f'bd_{kind}']} != {quality}")
        for key, values in means.items():
            tol = BD_RATE_ABS if key.startswith("bd_rate") else BD_QUALITY_ABS
            if report[key] is None or abs(report[key] - float(np.mean(values))) > tol:
                errors.append(f"report {key} {report[key]} != oracle mean {np.mean(values)}")
        if self.bd_fits < 0.9 * 2 * len(self.features):
            errors.append(f"only {self.bd_fits} of {2 * len(self.features)} BD fits succeeded")
        return []

    def round_counts(self):
        return {"metrics.bd_fits": self.bd_fits, "metrics.bd_fits_failed": self.bd_failed}

    def headline(self, call_p50_s):
        return {"catalog_segments_per_s": inp.CATALOG_SEGMENTS / call_p50_s}


class LiveSegment(Workload):
    name = "live-segment"
    ops = len(inp.LIVE[2])
    calls = ops  # one decision per call

    def setup(self, directory):
        super().setup(directory)
        self.models = self._train_models()
        self.round()  # warm-up

    def _dirs(self, seg) -> tuple[Path, Path]:
        base = self.inputs.directory
        return base / f"analyze_{seg.name}", base / f"ladder_{seg.name}"

    def round(self) -> int:
        failed = 0
        for seg in self.inputs.segments:
            analyzed, ladders = self._dirs(seg)
            code = self.clock.timed(["analyze", str(seg.path), "--out", str(analyzed)])
            if not code:
                code = self.clock.timed(
                    ["ladder", str(analyzed / "features.csv"), "--models", str(self.models),
                     "--out", str(ladders)])
            self.clock.end_call()
            failed += bool(code)
        return failed

    def artifacts(self):
        out = []
        for seg in self.inputs.segments:
            analyzed, ladders = self._dirs(seg)
            out += [analyzed / "features.csv", ladders / f"ladder_{seg.name}.json"]
        return out

    def check(self, errors):
        rows, manifests = {}, {}
        for seg in self.inputs.segments:
            analyzed, ladders = self._dirs(seg)
            rows.update(read_features(analyzed / "features.csv"))
            manifests[seg.name] = json.loads(
                (ladders / f"ladder_{seg.name}.json").read_text(encoding="utf-8"))
        faults = check_features(self.inputs.segments, rows, errors)
        check_manifests(manifests, rows, self.models, LIVE_TAU, LIVE_VJ, LIVE_VT, errors)
        return faults

    def headline(self, call_p50_s):
        return {"decision_p50_s": call_p50_s}


WORKLOADS = {w.name: w for w in (IngestUhd, TrainForest, CatalogLadder, LiveSegment)}
