"""ladderforge benchmark: one workload per run, checked against oracles.

Usage, from the root of a ladderforge checkout::

    python3 perfbench/run.py --workload catalog-ladder --seed 3 --seconds 15 --trace 0

The run sets its workload up three times (reporting the median set-up
time), then repeats whole rounds of the workload's timed CLI calls, each
through ``ladderforge.cli.main`` in this process, until ``--seconds`` have
passed.  It then checks the outputs, writes a record of input and artifact
hashes under ``perfbench/out/records``, and prints one JSON line as the last
line of standard output.  With ``--trace 0`` that line holds the end-to-end
metrics; with ``--trace 1`` the public functions of every layer are wrapped
with timers and the line holds the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3


def import_program():
    """Import ladderforge from this checkout's ``src``, never from elsewhere."""
    # Fixed before numpy loads: one BLAS thread, and ladderforge's own worker
    # count left to its default (the CPU count), as a user gets it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("LADDERFORGE_THREADS", None)
    src = ROOT / "src"
    if not (src / "ladderforge" / "cli.py").is_file():
        sys.exit(f"error: {src / 'ladderforge'} not found; run from a ladderforge checkout")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    from ladderforge import cli, complexity, forest, ladder, metrics

    if Path(cli.__file__).resolve().parent != src / "ladderforge":
        sys.exit(f"error: imported ladderforge from {cli.__file__}, not from {src}")
    return cli, complexity, forest, ladder, metrics


def source_hash() -> str:
    """sha256 over the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "ladderforge").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Clock:
    """Runs ladderforge commands in-process; times the ones that count."""

    def __init__(self, cli, tracer):
        self.cli = cli
        self.tracer = tracer
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self._wall = self._cpu = 0.0

    def run(self, argv: list[str]) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.cli.main(argv)
        if code:
            print(f"ladderforge {' '.join(argv)} exited {code}:\n{sink.getvalue()}",
                  file=sys.stderr)
        return code

    def timed(self, argv: list[str]) -> int:
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        cpu, wall = time.process_time(), time.perf_counter()
        with span:
            code = self.run(argv)
        self._wall += time.perf_counter() - wall
        self._cpu += time.process_time() - cpu
        return code

    def end_call(self) -> None:
        self.walls.append(self._wall)
        self.cpus.append(self._cpu)
        self._wall = self._cpu = 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    program = import_program()
    cli = program[0]
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    tracer = tracing.Tracer() if args.trace else None
    clock = Clock(cli, tracer)
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    errors: list[str] = []

    # Set-up, several times; the last one is kept for the timed rounds.
    setup_times, input_hashes = [], []
    for i in range(SETUPS):
        if i:
            shutil.rmtree(work / f"setup{i - 1}")
        workload = WORKLOADS[args.workload](args.seed, clock)
        gc.collect()
        start = time.perf_counter()
        workload.setup(work / f"setup{i}")
        setup_times.append(time.perf_counter() - start)
        input_hashes.append(workload.inputs.hashes())
        if i == 0:
            # A user runs each command in a fresh process, so peak memory is
            # read after the first set-up, whose warm-up round runs each of
            # the workload's commands once.  Repeating them in one process
            # fragments the heap further, now and then by tens of MiB.
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if any(h != input_hashes[0] for h in input_hashes):
        errors.append("set-up wrote different inputs from the same seed")
    clock.walls.clear()  # drop the set-up's warm-up calls
    clock.cpus.clear()

    if tracer:
        tracer.install(*program)
        tracer.take()
    rounds, attempted, failed, layer_rounds = 0, 0, 0, []
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        gc.collect()
        calls = len(clock.cpus)
        round_failed = workload.round()
        attempted += workload.ops
        failed += round_failed
        rounds += 1
        if tracer:
            tracer.add("process.cpu_s", sum(clock.cpus[calls:]))
            layer_rounds.append(tracer.take())
        if not round_failed:
            workload.compare()
    if tracer:
        tracer.uninstall()

    if failed:
        errors.append(f"{failed} operation(s) failed, so no output was checked")
    else:
        try:
            faults = workload.check(errors)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            errors.append(f"check raised {exc!r}")
        else:
            # Outputs repeat byte for byte, so an operation found faulty in
            # the checked round failed in every round.
            failed += len(faults) * rounds
            for name in faults:
                print(f"operation failed in every round: {name}", file=sys.stderr)
    if workload.mismatched_rounds:
        errors.append(f"{workload.mismatched_rounds} round(s) wrote different artifact bytes")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "source": source_hash(),
        "rounds": rounds, "calls": len(clock.walls),
        "inputs": input_hashes[0], "artifacts": workload.reference,
        "setup_s": setup_times, "call_s": clock.walls, "call_cpu_s": clock.cpus,
        "errors": errors,
    }
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    other = records / f"{args.workload}-seed{args.seed}-trace{1 - args.trace}.json"
    theirs = json.loads(other.read_text(encoding="utf-8")) if other.is_file() else {}
    if theirs.get("source") == record["source"]:
        if theirs["artifacts"] != workload.reference or theirs["inputs"] != input_hashes[0]:
            errors.append(f"artifacts differ from the trace={1 - args.trace} run of this seed")
    else:
        print(f"no trace={1 - args.trace} record of this seed and source to compare hashes with",
              file=sys.stderr)
    record["headline"] = workload.headline(statistics.median(clock.walls))

    if tracer:
        metrics = tracing.layer_figures([
            tracing.round_figures(spans, {**counts, **workload.round_counts()}, workload.calls)
            for spans, counts in layer_rounds
        ])
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss, "unit": "MiB"},
            "call_p50_s": {"value": statistics.median(clock.walls), "unit": "s"},
            "cpu_p50_s": {"value": statistics.median(clock.cpus), "unit": "s"},
        }
    record["metrics"] = metrics
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.with_suffix(".tmp").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    path.with_suffix(".tmp").replace(path)
    shutil.rmtree(work, ignore_errors=True)
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
