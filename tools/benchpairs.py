"""Paired parent/change perfbench runs, collated into a ``BENCH_<n>.json`` file.

Each side is a checkout of its own (the parent commit and the change), so the
two sides run identical benchmark code with only ``src/`` differing.  A third
side, the control, is a byte-copy of the parent: it shows how far runs of the
same code drift apart on the machine that runs them::

    python3 tools/benchpairs.py run --parent PARENT --change CHANGE \\
        --control CONTROL --workload ingest-uhd --seeds 201-210 --seconds 15 \\
        --log runs.jsonl
    python3 tools/benchpairs.py collate --parent PARENT --change CHANGE \\
        --log runs.jsonl --hash-seeds 1-3 --out BENCH_8.json \\
        --title "what changed" --host "the machine" --method "how it was run"

``run`` runs each side once per seed, in an order rotated by the seed
(parent/change/control for a seed divisible by 3, then change/control/parent,
then control/parent/change; without a control, parent/change for an even
seed, change/parent for an odd one), and appends each run's result line to
the log.  ``--workload`` may name several workloads separated by commas
(``--workload catalog-ladder,live-segment``): each seed then runs every
workload in turn, so that drift of the machine spreads over all of them.

``collate`` reports, for each workload and trace mode, each side's median
and inclusive quartiles per metric, the change/parent and control/parent
ratios of the medians, the median of the per-seed ratios to the parent with
its bootstrap 95 % interval (see :func:`bootstrap_interval`), the seeds on
which the change and the control won against the parent (their figure
lower), whether the change meets the rule for claiming a gain
(:func:`claim_met`), the failed share, and every run's figure.  It then
compares the input and artifact sha256 that each checkout's
``perfbench/out/records`` hold for the hash seeds.

perfbench's ``cpu_p50_s`` counts the benchmark process alone, so the CPU time
of ``train``'s worker processes does not show in it.  ``tree-cpu`` measures
that apart: fresh-process ``train`` runs on the train-forest inputs, each
timed on the wall clock and in the CPU time of its whole process tree
(``RUSAGE_CHILDREN`` counts every descendant that was waited for), one
parent and one change run per seed, alternating.  Inside each process,
:data:`CALL_TIMER` also times the ``cli.main`` call alone, on the wall clock
and in the CPU time of the process and its workers, so that interpreter and
numpy start-up do not dilute a change in ``train`` itself::

    python3 tools/benchpairs.py tree-cpu --parent PARENT --change CHANGE \
        --seeds 331-346 --log tree.jsonl --scratch /tmp/tree-cpu

and ``collate --tree-cpu-log tree.jsonl`` reports those runs under
``process_tree``.  A pair counts as correct when both sides wrote the same
model bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change", "control")
RESAMPLES = 2000
# Runs ``cli.main`` on its arguments, then prints the call's own figures as a
# JSON line: wall time, and the CPU time of this process and of the workers
# the call waited for; exits with the call's code.
CALL_TIMER = """\
import json, resource, sys, time
from ladderforge import cli
def cpu():
    both = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(usage.ru_utime + usage.ru_stime for usage in both)
cpu_start, wall_start = cpu(), time.perf_counter()
code = cli.main(sys.argv[1:])
print(json.dumps({"call_wall_s": time.perf_counter() - wall_start, "call_cpu_s": cpu() - cpu_start}))
sys.exit(code)
"""


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def rotation(sides: tuple[str, ...], seed: int) -> tuple[str, ...]:
    """The order in which the round of ``seed`` runs the sides: rotated left by ``seed``."""
    k = seed % len(sides)
    return sides[k:] + sides[:k]


def run(args) -> None:
    sides = SIDES if args.control else SIDES[:2]
    for seed in args.seeds:
        order = rotation(sides, seed)
        for workload in args.workload:
            for side in order:
                argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                        str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
                done = subprocess.run(argv, cwd=getattr(args, side), capture_output=True, text=True)
                lines = done.stdout.strip().splitlines()
                if done.returncode or not lines:
                    sys.exit(f"{side} {workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
                entry = {"side": side, "workload": workload, "seed": seed, "trace": args.trace,
                         "position": order.index(side), "result": json.loads(lines[-1])}
                with open(args.log, "a", encoding="utf-8") as log:
                    log.write(json.dumps(entry) + "\n")
                print(side, workload, seed, json.dumps(entry["result"]["metrics"])[:200])


def tree_cpu(args) -> None:
    for seed in args.seeds:
        inputs = args.scratch / f"train-forest-seed{seed}"
        subprocess.run([sys.executable, "perfbench/inputs.py", "--workload", "train-forest",
                        "--seed", str(seed), "--out", str(inputs)],
                       cwd=args.change, check=True, capture_output=True)
        figures, models = {}, {}
        for side in rotation(SIDES[:2], seed):
            out = inputs / side
            argv = [sys.executable, "-c", CALL_TIMER, "train", str(inputs / "train.csv"),
                    "--out", str(out), "--seed", str(seed), "--n-trees", "20"]  # as train-forest
            env = {**os.environ, "PYTHONPATH": str(getattr(args, side) / "src")}
            env.pop("LADDERFORGE_THREADS", None)  # the default worker count, as perfbench uses
            before, start = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
            done = subprocess.run(argv, env=env, check=True, capture_output=True, text=True)
            wall, after = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
            figures[side] = {name: {"value": value, "unit": "s"} for name, value in (
                ("wall_s", wall), ("tree_cpu_s", cpu),
                *json.loads(done.stdout.splitlines()[-1]).items())}
            models[side] = {p.name: p.read_bytes() for p in sorted(out.glob("model_*.json"))}
        with open(args.log, "a", encoding="utf-8") as log:
            for side in SIDES[:2]:
                result = {"correct": models["parent"] == models["change"], "attempted": 1,
                          "failed": 0, "metrics": figures[side]}
                log.write(json.dumps({"side": side, "workload": "train (fresh process tree)",
                                      "seed": seed, "trace": 0, "result": result}) + "\n")
        print(seed, {side: {k: round(v["value"], 3) for k, v in f.items()}
                     for side, f in figures.items()})


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def bootstrap_interval(values: list[float], resamples: int = RESAMPLES) -> list[float]:
    """A 95 % percentile-bootstrap interval of the median of ``values``: of
    the medians of ``resamples`` resamples with replacement, drawn by
    ``random.Random(0)``, the ``floor(0.025 * resamples)``-th and the
    ``ceil(0.975 * resamples)``-th, counting from 0 and from 1."""
    draw = random.Random(0)
    medians = sorted(statistics.median(draw.choices(values, k=len(values))) for _ in range(resamples))
    return [medians[int(0.025 * resamples)], medians[-int(-0.975 * resamples) - 1]]


def against_parent(runs: dict, seeds: list[int], side: str, name: str) -> dict:
    """``side``'s figures for metric ``name`` on those of ``seeds`` it ran,
    beside the parent's: the ratio of the medians, the median per-seed
    ratio with its bootstrap interval (seeds where the parent read 0 left
    out), and the seeds won."""
    seeds = [s for s in seeds if (side, s) in runs]
    parent = [runs["parent", s]["metrics"][name]["value"] for s in seeds]
    other = [runs[side, s]["metrics"][name]["value"] for s in seeds]
    middle, base = summary(other), summary(parent)["median"]
    ratios = [o / p for p, o in zip(parent, other) if p]
    return {side: middle, f"{side}_over_parent": middle["median"] / base if base else None,
            f"{side}_ratio_median": statistics.median(ratios) if ratios else None,
            f"{side}_ratio_95": bootstrap_interval(ratios) if ratios else None,
            f"{side}_wins": sum(o < p for p, o in zip(parent, other)), f"{side}_runs": other}


def claim_met(metric: dict) -> bool:
    """Whether a ``collate_runs`` metric supports claiming that the change
    lowers it: the change won at least 9 in 10 of at least 10 pairs, the
    parent's median exceeds the change's by more than the parent's quartile
    distance, the change's ``ratio_95`` lies wholly below 1, and the
    control's, if a control ran, holds 1."""
    parent, runs, interval = metric["parent"], metric["change_runs"], metric["change_ratio_95"]
    control = metric.get("control_ratio_95", [1, 1])
    return (len(runs) >= 10 and 10 * metric["change_wins"] >= 9 * len(runs)
            and parent["median"] - metric["change"]["median"] > parent["q3"] - parent["q1"]
            and interval is not None and interval[1] < 1
            and control is not None and control[0] <= 1 <= control[1])


def collate_runs(entries: list[dict]) -> dict:
    groups: dict[str, dict] = {}
    for e in entries:
        key = e["workload"] if e["trace"] == 0 else f"{e['workload']} (traced)"
        groups.setdefault(key, {})[(e["side"], e["seed"])] = e["result"]
    out = {}
    for key, runs in sorted(groups.items()):
        seeds = sorted(seed for side, seed in runs if side == "change" and ("parent", seed) in runs)
        sides = [side for side in SIDES if any((side, s) in runs for s in seeds)]
        metrics = {}
        for name, first in runs["parent", seeds[0]]["metrics"].items():
            parent = [runs["parent", s]["metrics"][name]["value"] for s in seeds]
            metrics[name] = {"unit": first["unit"], "parent": summary(parent), "parent_runs": parent}
            for side in sides[1:]:
                metrics[name].update(against_parent(runs, seeds, side, name))
            metrics[name]["claim_met"] = claim_met(metrics[name])
        results = [runs[side, s] for side in sides for s in seeds if (side, s) in runs]
        out[key] = {
            "seeds": seeds, "pairs": len(seeds),
            "failed": {side: [sum(runs[side, s][k] for s in seeds if (side, s) in runs)
                              for k in ("failed", "attempted")] for side in sides},
            "all_correct": all(result["correct"] for result in results),
            "metrics": metrics,
        }
    return out


def hashes(root: Path, workload: str, seed: int, trace: int) -> dict:
    path = root / "perfbench" / "out" / "records" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    return {**{f"inputs/{k}": v for k, v in record["inputs"].items()},
            **{f"artifacts/{k}": v for k, v in record["artifacts"].items()}}


def byte_identity(args, workloads: list[str]) -> dict:
    out: dict = {"seeds": args.hash_seeds, "workloads": workloads}
    for trace in (0, 1):
        compared = equal = 0
        for workload in workloads:
            for seed in args.hash_seeds:
                parent = hashes(args.parent, workload, seed, 0)
                change = hashes(args.change, workload, seed, trace)
                compared += len(parent.keys() | change.keys())
                equal += sum(parent.get(k) == change.get(k) for k in parent)
        out[f"parent_trace0_vs_change_trace{trace}"] = {"compared": compared, "equal": equal}
    return out


def collate(args) -> None:
    with open(args.log, encoding="utf-8") as log:
        entries = [json.loads(line) for line in log if line.strip()]
    workloads = sorted({e["workload"] for e in entries}, key=[e["workload"] for e in entries].index)
    doc = {"change": args.title, "host": args.host, "method": args.method,
           "workloads": collate_runs(entries), "byte_identity": byte_identity(args, workloads)}
    if args.tree_cpu_log:
        with open(args.tree_cpu_log, encoding="utf-8") as log:
            doc["process_tree"] = collate_runs([json.loads(line) for line in log if line.strip()])
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser, collate_parser = commands.add_parser("run"), commands.add_parser("collate")
    tree_parser = commands.add_parser("tree-cpu")
    for sub in (run_parser, collate_parser, tree_parser):
        sub.add_argument("--parent", type=Path, required=True)
        sub.add_argument("--change", type=Path, required=True)
        sub.add_argument("--log", type=Path, required=True)
    for sub in (run_parser, tree_parser):
        sub.add_argument("--seeds", type=seed_range, required=True)
    run_parser.add_argument("--control", type=Path,
                            help="a byte-copy of the parent checkout, run as a third side")
    run_parser.add_argument("--workload", type=lambda text: text.split(","), required=True,
                            help="one workload, or several separated by commas")
    run_parser.add_argument("--seconds", type=float, required=True)
    run_parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    tree_parser.add_argument("--scratch", type=Path, required=True,
                             help="directory for the inputs and the models")
    collate_parser.add_argument("--hash-seeds", type=seed_range, required=True)
    collate_parser.add_argument("--out", type=Path, required=True)
    collate_parser.add_argument("--tree-cpu-log", type=Path)
    for name in ("--title", "--host", "--method"):
        collate_parser.add_argument(name, required=True)
    args = parser.parse_args()
    {"run": run, "collate": collate, "tree-cpu": tree_cpu}[args.command](args)


if __name__ == "__main__":
    main()
