"""Golden sha256 of every artifact ``analyze``, ``train``, ``ladder`` and
``evaluate`` write from two synthetic segments and the small fixture in
``tests/golden/``.

The fixture CSVs were written from the benchmark's closed-form ground truth
(``perfbench/inputs.py``, seed 5): 24 training rows per model group, three
catalog segments, the HLS pairing, and a candidate scheme that keeps every
other rung one resolution up, with its last segment cut to three rungs so
that the report records a ``bd_error``.  ``analyze`` reads one synthetic
segment whose sides are multiples of the 32-pixel block and one whose sides
are not, so that the features of partial border blocks are pinned too.

Run as a script to print the table for the current code, for a deliberate
byte change that updates ``tests/golden/sha256.json``::

    PYTHONPATH=src python tests/test_golden.py > tests/golden/sha256.json
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ladderforge import cli, complexity, forest, ladder, metrics

GOLDEN = Path(__file__).parent / "golden"
SEED = "7"

_SPEC = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def build_artifacts(out: Path) -> dict[str, str]:
    """Run the four commands on the fixture into ``out``; sha256 per artifact."""
    steps = [
        ("features", "analyze", "synth:noise:64x64x3@30", "synth:constant:100x70x2@30"),
        ("models", "train", GOLDEN / "train.csv", "--n-trees", "8"),
        ("ladders", "ladder", GOLDEN / "features.csv", "--models", out / "models",
         "--pairing", GOLDEN / "pairing.csv", "--emit-baseline"),
        ("report", "evaluate", GOLDEN / "baseline.csv", GOLDEN / "candidate.csv"),
    ]
    for directory, *argv in steps:
        code = cli.main([*map(str, argv), "--seed", SEED, "--out", str(out / directory)])
        assert code == cli.EXIT_OK, f"{argv[0]} exited {code}"
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_artifacts_match_the_golden_hashes(tmp_path, monkeypatch):
    """Model and manifest bytes come from elementwise numpy, cumsum, stable
    argsort and ``repr`` of floats, with no BLAS, so they hold on any platform.
    ``report.json`` comes through LAPACK ``lstsq`` and the features through
    BLAS matrix products, whose rounding may differ by BLAS build: their
    hashes are pinned too, so the table is per platform (it was made with
    numpy 2.4 and its bundled OpenBLAS on x86-64 Linux).  Where a build
    rounds differently, the oracles of criteria 3 and 4 still check the BD
    values and the features."""
    monkeypatch.setenv(cli.THREADS_ENV, "1")  # no worker start-up; bytes do not depend on it
    want = json.loads((GOLDEN / "sha256.json").read_text(encoding="utf-8"))
    got = build_artifacts(tmp_path)
    differ = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not differ, f"artifacts differ from tests/golden/sha256.json (numpy {np.__version__}): {differ}"
    # Both load paths give the golden models the same arrays, bit for bit.
    def arrays(model):
        return [(np.asarray(a).dtype, np.asarray(a).tobytes()) for a in model._flat]

    def header(model):
        return model.hyperparams, model.seed, model.target_kind, model.vsr_tag

    for path in sorted((tmp_path / "models").glob("*.json")):
        text = path.read_text(encoding="utf-8")
        fast, doc = forest._read_canonical(text), json.loads(text)
        slow = forest.ForestModel.from_trees(doc["trees"], fast.hyperparams, fast.seed, fast.target_kind,
                                             fast.vsr_tag)
        assert arrays(fast) == arrays(slow) and header(fast) == header(slow), path.name



def test_traced_artifacts_match_the_golden_hashes_and_counts(tmp_path, monkeypatch):
    """The benchmark's tracer wraps the program's functions by name and counts
    rungs where they are built and where their manifests are made: traced,
    the artifacts keep their bytes, the grid's cells are counted and each
    wrapped step of ``evaluate`` is timed once per call.  ``ladder`` decides
    every segment in one call of ``ladder.decide``, past the per-segment
    functions the tracer wraps, so it counts no rungs: the program's own
    summary line does (see the next test)."""
    monkeypatch.setenv(cli.THREADS_ENV, "1")
    tracer = tracing.Tracer()
    tracer.install(cli, complexity, forest, ladder, metrics)
    try:
        got = build_artifacts(tmp_path)
    finally:
        tracer.uninstall()
    assert got == json.loads((GOLDEN / "sha256.json").read_text(encoding="utf-8"))
    spans, counts = tracer.take()
    assert counts["ladder.grid_cells"] == 3 * 4 * 12
    # evaluate reads its two CSVs and compares them through the wrapped names,
    # so the per-layer figures of both steps measure them
    names = [name for name, _, _ in spans]
    assert names.count("metrics.load_evaluation_csv") == 2
    assert names.count("metrics.compare_schemes") == 1


@pytest.mark.parametrize("budget, pruning", [([], []), ([], ["--vj", "none"]),
                                             (["--tau-l", "0.05"], ["--vj", "none"]),
                                             (["--tau-l", "0.3"], ["--vj", "2", "--vt", "60"])])
def test_the_ladder_summary_counts_the_written_manifests(tmp_path, monkeypatch, capsys, budget, pruning):
    """``ladder``'s summary line, counted from its decision arrays, equals the
    counts of the manifests it wrote: unpruned, every built rung is written."""
    monkeypatch.setenv(cli.THREADS_ENV, "1")
    models = tmp_path / "models"
    assert cli.main(["train", str(GOLDEN / "train.csv"), "--n-trees", "8", "--seed", SEED,
                     "--out", str(models)]) == cli.EXIT_OK
    capsys.readouterr()
    argv = ["ladder", str(GOLDEN / "features.csv"), "--models", str(models), "--seed", SEED, *budget]
    assert cli.main([*argv, *pruning, "--out", str(tmp_path / "ladders")]) == cli.EXIT_OK
    summary = capsys.readouterr().out.splitlines()[1]
    manifests = [json.loads(path.read_text(encoding="utf-8"))
                 for path in sorted((tmp_path / "ladders").glob("ladder_*.json"))]
    assert cli.main([*argv, "--vj", "none", "--out", str(tmp_path / "unpruned")]) == cli.EXIT_OK
    built = [rep for path in sorted((tmp_path / "unpruned").glob("ladder_*.json"))
             for rep in json.loads(path.read_text(encoding="utf-8"))["reps"]]
    kept = [rep["resolution"] for manifest in manifests for rep in manifest["reps"]]
    per_resolution = ", ".join(f"{r}: {kept.count(r)}" for r in manifests[0]["config"]["resolutions"])
    assert len(manifests) == 3 and len(built) == 3 * len(manifests[0]["config"]["bitrates_mbps"])
    assert summary == (f"ladder: 3 segment(s), {len(built)} rung(s) built, "
                       f"{sum(rep['over_budget'] for rep in built)} over tau_L, "
                       f"{len(built) - len(kept)} pruned, {len(kept)} kept ({per_resolution})")

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
        table = build_artifacts(Path(scratch))  # the commands' own output is dropped
    print(json.dumps(table, indent=1))
