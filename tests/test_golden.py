"""Golden sha256 of every artifact ``train``, ``ladder`` and ``evaluate`` write
from the small fixture in ``tests/golden/``.

The fixture CSVs were written from the benchmark's closed-form ground truth
(``perfbench/inputs.py``, seed 5): 24 training rows per model group, three
catalog segments, the HLS pairing, and a candidate scheme that keeps every
other rung one resolution up, with its last segment cut to three rungs so
that the report records a ``bd_error``.

Run as a script to print the table for the current code, for a deliberate
byte change that updates ``tests/golden/sha256.json``::

    PYTHONPATH=src python tests/test_golden.py > tests/golden/sha256.json
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from ladderforge import cli, forest

GOLDEN = Path(__file__).parent / "golden"
SEED = "7"


def build_artifacts(out: Path) -> dict[str, str]:
    """Run the three commands on the fixture into ``out``; sha256 per artifact."""
    steps = [
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
    ``report.json`` comes through LAPACK ``lstsq``, whose rounding may differ
    by BLAS build: its hash is pinned too, so the table is per platform (it
    was made with numpy 2.4 and its bundled OpenBLAS on x86-64 Linux).  Where a build rounds
    differently, criterion 3's oracle still checks the BD values."""
    monkeypatch.setenv(cli.THREADS_ENV, "1")  # no worker start-up; bytes do not depend on it
    want = json.loads((GOLDEN / "sha256.json").read_text(encoding="utf-8"))
    got = build_artifacts(tmp_path)
    differ = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not differ, f"artifacts differ from tests/golden/sha256.json (numpy {np.__version__}): {differ}"
    # Both load paths give the golden models the same arrays, bit for bit.
    def arrays(model):
        return [(np.asarray(a).dtype, np.asarray(a).tobytes()) for a in model._flat]

    for path in sorted((tmp_path / "models").glob("*.json")):
        text = path.read_text(encoding="utf-8")
        fast, doc = forest._read_canonical(text), json.loads(text)
        slow = forest.ForestModel(tuple(doc["trees"]), fast.hyperparams, fast.seed, fast.target_kind,
                                  fast.vsr_tag)
        assert arrays(fast) == arrays(slow) and fast == slow, path.name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
        table = build_artifacts(Path(scratch))  # the commands' own output is dropped
    print(json.dumps(table, indent=1))
