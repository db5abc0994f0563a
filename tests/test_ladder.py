import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from conftest import prune_oracle, select_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ladderforge.complexity import SegmentFeatures
from ladderforge.config import DEFAULT_BITRATES_MBPS, DEFAULT_RESOLUTIONS, RunConfig
from ladderforge.forest import ForestModel, Hyperparams, feature_vector, predict
from ladderforge.ladder import (
    DEFAULT_HLS_PAIRING,
    Decisions,
    EmptyLadder,
    Ladder,
    LadderError,
    LadderParams,
    MissingPrediction,
    ModelMismatch,
    PairingMissing,
    PredictionGrid,
    Representation,
    UnknownBitrate,
    UnsortedLadder,
    build_ladder,
    decide,
    default_hls_ladder,
    ladder_to_manifest,
    load_pairing_csv,
    manifest_texts,
    predict_grid,
    prune_jnd,
    select_resolution,
)


def _leaf_model(value, kind, vsr="none"):
    return ForestModel.from_trees(({"v": float(value)},), Hyperparams(n_trees=1), 0, kind, vsr)


def _grid(entries, resolutions=None, bitrates=None):
    resolutions = resolutions or sorted({r for r, _ in entries})
    bitrates = bitrates or sorted({b for _, b in entries})
    return PredictionGrid.from_entries(tuple(resolutions), tuple(bitrates), entries)


def _fields(grid):
    """A grid's axes and its arrays' shapes, dtypes and bytes."""
    return (grid.resolutions, grid.bitrates, *((a.shape, a.dtype.str, a.tobytes())
                                                for a in (grid.qualities, grid.times)))


def _ladder_from_qualities(qualities, params=LadderParams()):
    reps = tuple(
        Representation(resolution=360, bitrate=float(i + 1), predicted_vmaf=q, predicted_time=0.1)
        for i, q in enumerate(qualities)
    )
    return Ladder(reps, params)


def _random_grid(rng):
    entries = {
        (r, b): (float(rng.uniform(0, 100)), float(rng.uniform(0, 10)))
        for r in DEFAULT_RESOLUTIONS
        for b in DEFAULT_BITRATES_MBPS
    }
    return _grid(entries, DEFAULT_RESOLUTIONS, DEFAULT_BITRATES_MBPS)


# ------------------------------------------------------------- predict_grid


def test_grid_covers_full_cross_product():
    quality = _leaf_model(70, "quality")
    time = _leaf_model(1.0, "time")
    features = SegmentFeatures(1.0, 0.2, 100.0)
    grid = predict_grid(quality, time, features, DEFAULT_RESOLUTIONS, DEFAULT_BITRATES_MBPS)
    assert len(grid.entries) == 48
    assert set(grid.entries) == {(r, b) for r in DEFAULT_RESOLUTIONS for b in DEFAULT_BITRATES_MBPS}
    assert all(v == (70.0, 1.0) for v in grid.entries.values())


def test_grid_entries_equal_elementwise_prediction():
    rng = np.random.default_rng(3)
    trees = tuple(
        {"f": int(rng.integers(0, 5)), "t": float(rng.uniform(0, 8)),
         "l": {"v": float(rng.uniform(0, 100))}, "r": {"v": float(rng.uniform(0, 100))}}
        for _ in range(5)
    )
    quality = ForestModel.from_trees(trees, Hyperparams(n_trees=5), 0, "quality", "none")
    time = _leaf_model(0.5, "time")
    features = SegmentFeatures(2.0, 0.7, 90.0)
    grid = predict_grid(quality, time, features, DEFAULT_RESOLUTIONS, DEFAULT_BITRATES_MBPS)
    for r in DEFAULT_RESOLUTIONS:
        for b in DEFAULT_BITRATES_MBPS:
            x = feature_vector(features, r, b)
            assert grid.entries[r, b][0] == predict(quality, x)
            assert grid.entries[r, b][1] == predict(time, x)


# Thresholds are drawn inside each feature's range, so that splits send
# catalog rows both ways: E_Y, h, L_Y, log2(resolution), log2(bitrate).
_FEATURE_RANGES = ((0.0, 70.0), (0.0, 15.0), (16.0, 235.0), (8.4, 11.1), (-2.8, 4.1))


@st.composite
def _tree(draw, leaves, depth):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return {"v": draw(leaves)}
    f = draw(st.integers(0, 4))
    return {"f": f, "t": draw(st.floats(*_FEATURE_RANGES[f])),
            "l": draw(_tree(leaves, depth - 1)), "r": draw(_tree(leaves, depth - 1))}


def _forest(kind, leaves):
    """Random forests whose leaves come from ``leaves``: a few values make
    ties between resolutions common."""
    trees = st.lists(_tree(leaves, 5), min_size=1, max_size=4)
    return trees.map(lambda t: ForestModel.from_trees(tuple(t), Hyperparams(n_trees=len(t), max_depth=5),
                                                      0, kind, "none"))


_FEW = st.sampled_from
_SEGMENT = st.builds(SegmentFeatures, st.floats(0.0, 70.0), st.floats(0.0, 15.0),
                     st.floats(16.0, 235.0))


@settings(max_examples=60, deadline=None)
@given(
    quality=_forest("quality", st.one_of(_FEW([40.0, 70.0, 70.0, 96.0]), st.floats(-20.0, 120.0))),
    time=_forest("time", st.one_of(_FEW([0.5, 1.0, 2.0]), st.floats(0.0, 8.0))),
    segments=st.lists(_SEGMENT, min_size=1, max_size=5),
    tau=st.one_of(_FEW([0.5, 1.0, 2.0, 1e-3, math.inf]), st.floats(1e-3, 10.0)),
    v_j=st.one_of(_FEW([2.0, 6.0]), st.floats(0.01, 30.0)),
    v_t=st.one_of(_FEW([70.0, 96.0, 100.0]), st.floats(0.0, 101.0)),
)
@example(  # every rung over budget
    quality=ForestModel.from_trees(({"v": 50.0},), Hyperparams(n_trees=1), 0, "quality", "none"),
    time=ForestModel.from_trees(({"f": 3, "t": 9.5, "l": {"v": 3.0}, "r": {"v": 5.0}},),
                                Hyperparams(n_trees=1), 0, "time", "none"),
    segments=[SegmentFeatures(1.0, 1.0, 100.0)], tau=2.0, v_j=2.0, v_t=98.0,
)
def test_catalog_path_equals_the_per_cell_reference(quality, time, segments, tau, v_j, v_t):
    resolutions, bitrates = list(DEFAULT_RESOLUTIONS), list(DEFAULT_BITRATES_MBPS)
    grids = predict_grid(quality, time, segments, resolutions[::-1], bitrates)
    assert grids.qualities.shape == (len(segments), len(resolutions), len(bitrates))
    for i, features in enumerate(segments):
        grid = PredictionGrid(resolutions, bitrates, grids.qualities[i], grids.times[i])
        entries = {}
        for r in resolutions:
            for b in bitrates:
                x = feature_vector(features, r, b)
                entries[r, b] = (predict(quality, x), predict(time, x))
        built = build_ladder(grid, bitrates, tau)
        expected = []
        for b in bitrates:
            r, over = select_oracle(entries, resolutions, b, tau)
            expected.append((r, b, *entries[r, b], over))
        got = [(rep.resolution, rep.bitrate, rep.predicted_vmaf, rep.predicted_time,
                rep.over_budget) for rep in built.reps]
        assert got == expected
        pruned = prune_jnd(built, v_j, v_t)
        kept = prune_oracle([q for _, _, q, _, _ in expected], v_j, v_t)
        assert pruned.reps == tuple(built.reps[i] for i in kept)


# build_ladder and prune_jnd as they were before decide made every segment's
# decisions at once: one segment at a time, and one rung at a time.


def _reference_ladder(grid, bitrates, tau_l, vsr_tag):
    targets = tuple(sorted(bitrates))
    columns = [grid.bitrates.index(b) for b in targets]
    qualities, times = grid.qualities[:, columns], grid.times[:, columns]
    fits = times <= tau_l
    over_budget = ~fits.any(axis=0)
    rows = np.where(over_budget, times.argmin(axis=0),
                    np.where(fits, qualities, -np.inf).argmax(axis=0))
    cells = rows, np.arange(len(columns))
    reps = tuple(Representation(grid.resolutions[row], b, quality, time, over)
                 for row, b, quality, time, over in zip(rows.tolist(), targets, qualities[cells].tolist(),
                                                        times[cells].tolist(), over_budget.tolist()))
    return Ladder(reps, LadderParams(tau_l=tau_l, vsr_tag=vsr_tag))


def _reference_prune(ladder, v_j, v_t):
    kept = []
    for rep in ladder.reps:
        if not kept or rep.predicted_vmaf - kept[-1].predicted_vmaf >= v_j:
            kept.append(rep)
            if rep.predicted_vmaf >= v_t:
                break
    return Ladder(tuple(kept), dataclasses.replace(ladder.params, v_j=v_j, v_t=v_t))


_TIED_QUALITIES = st.sampled_from([0.0, 40.0, 70.0, 94.0, 96.0, 100.0]) | st.floats(0.0, 100.0)
_TIMES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0]) | st.floats(0.0, 10.0)


@st.composite
def _catalog(draw):
    """A catalog grid whose cells repeat a few values, so that qualities tie
    and whole columns miss the budget, and the bitrates a ladder targets."""
    n_segments, n_bitrates = draw(st.integers(0, 5)), draw(st.integers(1, 12))
    bitrates = DEFAULT_BITRATES_MBPS[:n_bitrates]
    shape = (n_segments, len(DEFAULT_RESOLUTIONS), n_bitrates)
    n_cells = math.prod(shape)
    cells = st.lists(st.tuples(_TIED_QUALITIES, _TIMES), min_size=n_cells, max_size=n_cells)
    values = np.array(draw(cells), np.float64).reshape(*shape, 2)
    grid = PredictionGrid(DEFAULT_RESOLUTIONS, bitrates, values[..., 0], values[..., 1])
    return grid, draw(st.lists(st.sampled_from(bitrates), min_size=1, unique=True))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    catalog=_catalog(),
    tau=st.sampled_from([1e-3, 0.5, 1.0, 2.0, math.inf]) | st.floats(1e-3, 10.0),
    v_j=st.none() | st.sampled_from([2.0, 6.0, 30.0]) | st.floats(0.01, 40.0),
    v_t=st.sampled_from([0.0, 40.0, 70.0, 94.0, 100.0]) | st.floats(-1.0, 101.0),
    vsr_tag=st.sampled_from(["none", "fsrcnn"]),
)
@example(  # every column over budget, and the first rung at the cap
    catalog=(PredictionGrid(DEFAULT_RESOLUTIONS, (0.145, 0.3), np.full((2, 4, 2), 100.0),
                            np.full((2, 4, 2), 5.0)), [0.145, 0.3]),
    tau=1.0, v_j=2.0, v_t=100.0, vsr_tag="none")
def test_catalog_decisions_equal_the_per_segment_reference(catalog, tau, v_j, v_t, vsr_tag):
    """decide, its manifests, build_ladder and prune_jnd give each segment the
    ladder that the per-segment reference builds and prunes."""
    grid, bitrates = catalog
    decided = decide(grid, bitrates, tau, vsr_tag, v_j, v_t)
    config_doc = RunConfig().to_dict()
    ids = [f"s{i}" for i in range(len(grid.qualities))]
    want = []
    for i, segment_id in enumerate(ids):
        alone = PredictionGrid(grid.resolutions, grid.bitrates, grid.qualities[i], grid.times[i])
        reference = _reference_ladder(alone, bitrates, tau, vsr_tag)
        built = build_ladder(alone, bitrates, tau, vsr_tag)
        assert built == reference
        if v_j is not None:
            reference = _reference_prune(reference, v_j, v_t)
            assert prune_jnd(built, v_j, v_t) == reference
        kept = decided.kept[i]
        assert list(zip(decided.resolutions[i].tolist(), decided.bitrates,
                        *(column[i].tolist() for column in decided[2:5]), strict=True)) == [
            (rep.resolution, rep.bitrate, rep.predicted_vmaf, rep.predicted_time, rep.over_budget)
            for rep in built.reps]
        assert tuple(np.array(built.reps, object)[kept]) == reference.reps
        want.append(json.dumps({**ladder_to_manifest(reference, segment_id), "config": config_doc},
                               indent=2, allow_nan=False) + "\n")
    assert decided.params == LadderParams(tau, v_j, None if v_j is None else v_t, vsr_tag)
    assert manifest_texts(ids, decided, config_doc) == want


def test_catalog_grid_holds_each_segment_grid_and_every_cell():
    rng = np.random.default_rng(9)
    trees = tuple(
        {"f": int(rng.integers(0, 5)), "t": float(rng.uniform(0, 8)),
         "l": {"v": float(rng.uniform(0, 100))}, "r": {"v": float(rng.uniform(0, 100))}}
        for _ in range(5)
    )
    quality = ForestModel.from_trees(trees, Hyperparams(n_trees=5), 0, "quality", "none")
    time = _leaf_model(0.5, "time")
    segments = [SegmentFeatures(float(e), 0.5, 90.0) for e in range(4)]
    catalog = predict_grid(quality, time, segments, DEFAULT_RESOLUTIONS, DEFAULT_BITRATES_MBPS)
    assert len(catalog.entries) == 4 * 48
    for i, features in enumerate(segments):
        grid = PredictionGrid(catalog.resolutions, catalog.bitrates, catalog.qualities[i], catalog.times[i])
        alone = predict_grid(quality, time, features, DEFAULT_RESOLUTIONS, DEFAULT_BITRATES_MBPS)
        assert grid.qualities.tobytes() == alone.qualities.tobytes()
        assert grid.times.tobytes() == alone.times.tobytes()
        assert grid.entries == alone.entries
        assert all(catalog.entries[i, r, b] == v for (r, b), v in alone.entries.items())
    with pytest.raises(TypeError):
        catalog.entries[0, 360, 0.145] = (0.0, 0.0)  # read-only
    with pytest.raises(LadderError, match="one segment's grid"):
        build_ladder(catalog)
    empty = predict_grid(quality, time, [], DEFAULT_RESOLUTIONS, DEFAULT_BITRATES_MBPS)
    assert empty.qualities.shape == (0, 4, 12) and len(empty.entries) == 0


def test_catalog_grid_error_names_the_first_bad_cell():
    qualities, times = np.full((2, 4, 12), 70.0), np.ones((2, 4, 12))
    times[1] = math.inf  # every cell of the second segment
    with pytest.raises(LadderError, match=r"^grid time at \(360, 0\.145\) out of range: inf$"):
        PredictionGrid(DEFAULT_RESOLUTIONS, DEFAULT_BITRATES_MBPS, qualities, times)


def _cells(changes, shape=(3, 2, 2)):
    """Quality and time arrays of a (segment, resolution, bitrate) grid, all
    in range but for ``changes``: index -> (quality, time)."""
    qualities, times = np.full(shape, 50.0), np.ones(shape)
    for at, (quality, time) in changes.items():
        qualities[at], times[at] = quality, time
    return qualities, times


@pytest.mark.parametrize("resolutions, bitrates, arrays, message", [
    ((360, 720), (1.0, 2.0), _cells({}, (2, 3)), "grid arrays must be shaped [..., 2, 2], got (2, 3) and (2, 3)"),
    ((360, 720), (1.0, 2.0), _cells({}, (3, 2)), "grid arrays must be shaped [..., 2, 2], got (3, 2) and (3, 2)"),
    ((360, 720), (1.0, 2.0), _cells({}, (4,)), "grid arrays must be shaped [..., 2, 2], got (4,) and (4,)"),
    ((360, 720), (1.0, 2.0), (np.ones((2, 2)), np.ones((1, 2, 2))),
     "grid arrays must be shaped [..., 2, 2], got (2, 2) and (1, 2, 2)"),
    ((360, 720), (1.0, 2.0), (np.ones((3, 2, 2)), np.ones((2, 2, 2))),
     "grid arrays must be shaped [..., 2, 2], got (3, 2, 2) and (2, 2, 2)"),
    ((), (1.0,), _cells({}, (0, 1)), "grid needs at least one resolution and one bitrate"),
    ((360,), (), _cells({}, (1, 0)), "grid needs at least one resolution and one bitrate"),
    ((720, 360), (1.0, 2.0), _cells({}), "grid axes must be sorted ascending"),
    ((360, 720), (2.0, 1.0), _cells({}), "grid axes must be sorted ascending"),
    # Cells: the first bad one in (segment, resolution, bitrate) order is named.
    ((360, 720), (1.0, 2.0), _cells({(0, 1, 1): (math.nan, 1.0), (1, 0, 0): (101.0, 1.0)}),
     "grid quality at (720, 2.0) out of range: nan"),
    ((360, 720), (1.0, 2.0), _cells({(1, 1, 0): (50.0, math.inf), (2, 0, 0): (-1.0, 1.0)}),
     "grid time at (720, 1.0) out of range: inf"),
    ((360, 720), (1.0, 2.0), _cells({(2, 0, 1): (50.0, -1.0), (2, 1, 0): (math.inf, 1.0)}),
     "grid time at (360, 2.0) out of range: -1.0"),
    ((360, 720), (1.0, 2.0), _cells({(2, 1, 0): (math.inf, math.nan)}),
     "grid quality at (720, 1.0) out of range: inf"),
    ((360, 720), (1.0, 2.0), _cells({(0, 0, 1): (-0.5, 1.0)}), "grid quality at (360, 2.0) out of range: -0.5"),
    ((360, 720), (1.0, 2.0), _cells({(1, 1, 1): (50.0, math.nan)}), "grid time at (720, 2.0) out of range: nan"),
    ((360, 720), (1.0, 2.0), _cells({(0, 0, 0): (50.0, -math.inf)}), "grid time at (360, 1.0) out of range: -inf"),
])
def test_grid_constructor_checks_axes_shapes_and_every_cell(resolutions, bitrates, arrays, message):
    with pytest.raises(LadderError) as caught:
        PredictionGrid(resolutions, bitrates, *arrays)
    assert str(caught.value) == message


def test_grid_constructor_takes_the_edges_of_the_ranges():
    qualities, times = _cells({(0, 0, 0): (0.0, 0.0), (2, 1, 1): (100.0, 1e308)})
    grid = PredictionGrid([360, 720], [1.0, 2.0], qualities, times)
    assert (grid.resolutions, grid.bitrates) == ((360, 720), (1.0, 2.0))
    assert grid.entries[0, 360, 1.0] == (0.0, 0.0) and grid.entries[2, 720, 2.0] == (100.0, 1e308)
    with pytest.raises(AttributeError):
        grid.times = times  # frozen
    with pytest.raises(LadderError, match=r"got \(2,\) and \(2,\)"):
        PredictionGrid([360, 720], [1.0, 2.0], grid.qualities[0, 0], grid.times[0, 0])


def test_grid_holds_read_only_copies_of_its_arrays():
    qualities, times = np.full((2, 2), 50.0), np.full((2, 2), 1.0)
    grid = PredictionGrid((360, 720), (1.0, 2.0), qualities, times)
    qualities[0, 0] = times[0, 0] = math.nan  # the caller's arrays, after the checks
    assert build_ladder(grid).reps[0].predicted_vmaf == 50.0
    assert grid.entries[360, 1.0] == (50.0, 1.0)
    for array in (grid.qualities, grid.times):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = math.nan
    from_lists = PredictionGrid((360, 720), (1.0, 2.0), [[50, 60], [70, 80]], [[1, 2], [3, 4]])
    assert from_lists.qualities.dtype == from_lists.times.dtype == np.float64
    assert from_lists.entries[720, 2.0] == (80.0, 4.0)


@pytest.mark.parametrize("qualities, message", [
    ([["a", "b"], ["c", "d"]], "grid arrays must be numeric: could not convert string to float: 'a'"),
    ([[50.0, 60.0], [70.0]], "grid arrays must be numeric: setting an array element with a sequence"),
    ([[50.0, object()], [70.0, 80.0]], "grid arrays must be numeric: float() argument must be"),
    (None, r"grid arrays must be shaped [..., 2, 2], got () and (2, 2)"),
])
def test_grid_rejects_arrays_that_are_not_numeric(qualities, message):
    with pytest.raises(LadderError) as caught:
        PredictionGrid((360, 720), (1.0, 2.0), qualities, np.ones((2, 2)))
    assert str(caught.value).startswith(message)


@pytest.mark.parametrize("values", [
    np.array([[50 + 3j]]),
    np.array([[50 + 0j]]),  # a zero imaginary part is still a complex array
    [[np.complex64(50)]],
])
def test_grid_rejects_complex_arrays_without_a_warning(values, capfd):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for qualities, times in ((values, np.array([[1.0]])), (np.array([[50.0]]), values)):
            with pytest.raises(LadderError, match="^grid arrays must be numeric: complex values$"):
                PredictionGrid((360,), (1.0,), qualities, times)
    assert capfd.readouterr() == ("", "")


def test_grid_errors_name_the_first_bad_cell_in_axis_order():
    entries = {(r, b): (50.0, 1.0) for r in (360, 720) for b in (1.0, 2.0)}
    cases = [
        ({(720, 1.0): (101.0, 1.0), (360, 2.0): (50.0, -1.0)}, "grid time at (360, 2.0) out of range: -1.0"),
        ({(360, 2.0): (math.nan, math.inf)}, "grid quality at (360, 2.0) out of range: nan"),
        ({(720, 2.0): (50.0, math.nan)}, "grid time at (720, 2.0) out of range: nan"),
    ]
    for changes, message in cases:
        with pytest.raises(LadderError) as caught:
            PredictionGrid.from_entries((360, 720), (1.0, 2.0), {**entries, **changes})
        assert str(caught.value) == message
    del entries[720, 1.0]
    entries[720, 2.0] = (-1.0, 1.0)
    with pytest.raises(LadderError, match=r"^grid is missing entry for \(720, 1\.0\)$"):
        PredictionGrid.from_entries((360, 720), (1.0, 2.0), entries)
    entries[360, 1.0] = (101.0, 1.0)  # a missing cell is named before any out-of-range one
    with pytest.raises(LadderError, match=r"^grid is missing entry for \(720, 1\.0\)$"):
        PredictionGrid.from_entries((360, 720), (1.0, 2.0), entries)
    with pytest.raises(LadderError, match="sorted ascending"):
        PredictionGrid.from_entries((720, 360), (1.0,), {(360, 1.0): (50.0, 1.0), (720, 1.0): (50.0, 1.0)})


def test_grid_rejects_mismatched_models():
    features = SegmentFeatures(1.0, 0.0, 50.0)
    with pytest.raises(ModelMismatch):
        predict_grid(_leaf_model(70, "quality", "fsrcnn"), _leaf_model(1, "time", "none"),
                     features, (360,), (1.0,))
    with pytest.raises(ModelMismatch):
        predict_grid(_leaf_model(70, "time"), _leaf_model(1, "time"), features, (360,), (1.0,))


def test_grid_validates_completeness():
    with pytest.raises(Exception, match="missing entry"):
        PredictionGrid.from_entries((360, 720), (1.0,), {(360, 1.0): (50.0, 1.0)})


# -------------------------------------------------------- select_resolution


def test_single_feasible_resolution_wins_regardless_of_quality():
    entries = {
        (360, 1.0): (10.0, 0.5),
        (720, 1.0): (90.0, 9.0),
        (1080, 1.0): (95.0, 9.5),
    }
    choice = select_resolution(_grid(entries), 1.0, tau_l=1.0)
    assert choice == (360, False)


def test_hand_traced_three_candidate_case():
    entries = {
        (360, 2.4): (70.0, 0.5),
        (720, 2.4): (80.0, 1.5),
        (1080, 2.4): (85.0, 3.0),
    }
    choice = select_resolution(_grid(entries), 2.4, tau_l=2.0)
    assert choice == (720, False)


def test_infinite_budget_is_plain_argmax():
    entries = {
        (360, 2.4): (70.0, 0.5),
        (720, 2.4): (80.0, 1.5),
        (1080, 2.4): (85.0, 3.0),
    }
    choice = select_resolution(_grid(entries), 2.4, tau_l=math.inf)
    assert choice == (1080, False)


def test_quality_ties_break_to_lower_resolution():
    entries = {
        (360, 1.0): (80.0, 0.5),
        (720, 1.0): (80.0, 1.0),
        (1080, 1.0): (79.0, 1.5),
    }
    assert select_resolution(_grid(entries), 1.0, tau_l=math.inf) == (360, False)


def test_over_budget_fallback_returns_cheapest():
    entries = {
        (360, 1.0): (40.0, 3.0),
        (720, 1.0): (80.0, 5.0),
        (1080, 1.0): (90.0, 4.0),
    }
    assert select_resolution(_grid(entries), 1.0, tau_l=2.0) == (360, True)


def test_unknown_bitrate_rejected():
    entries = {(360, 1.0): (50.0, 1.0)}
    for bitrate in (2.0, 1.0 + 1e-12):  # bitrates match exactly, not within a tolerance
        with pytest.raises(UnknownBitrate):
            select_resolution(_grid(entries), bitrate, tau_l=1.0)


def test_selection_matches_exhaustive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(500):
        grid = _random_grid(rng)
        bitrate = float(rng.choice(DEFAULT_BITRATES_MBPS))
        tau = math.inf if rng.uniform() < 0.15 else float(rng.uniform(0.2, 10.0))
        got = select_resolution(grid, bitrate, tau)
        expected = select_oracle(grid.entries, list(DEFAULT_RESOLUTIONS), bitrate, tau)
        assert tuple(got) == expected


# ------------------------------------------------------------- build_ladder


def test_uniform_grid_gives_uniform_resolution():
    entries = {(r, b): (60.0, 0.5) for r in (360, 720) for b in (1.0, 2.0, 3.0)}
    built = build_ladder(_grid(entries), tau_l=1.0)
    assert [rep.resolution for rep in built.reps] == [360, 360, 360]
    assert [rep.bitrate for rep in built.reps] == [1.0, 2.0, 3.0]


def test_full_bitrate_set_yields_twelve_rungs():
    rng = np.random.default_rng(4)
    built = build_ladder(_random_grid(rng), DEFAULT_BITRATES_MBPS, tau_l=math.inf)
    assert len(built.reps) == 12
    assert built.bitrates == DEFAULT_BITRATES_MBPS


def test_built_reps_copy_grid_predictions_and_respect_budget():
    rng = np.random.default_rng(5)
    for _ in range(50):
        grid = _random_grid(rng)
        tau = float(rng.uniform(0.5, 9.0))
        built = build_ladder(grid, tau_l=tau)
        for rep in built.reps:
            v, t = grid.entries[(rep.resolution, rep.bitrate)]
            assert rep.predicted_vmaf == v and rep.predicted_time == t
            if not rep.over_budget:
                assert rep.predicted_time <= tau


def test_per_bitrate_selection_is_independent():
    rng = np.random.default_rng(6)
    grid = _random_grid(rng)
    built = build_ladder(grid, tau_l=3.0)
    for rep in built.reps:
        res, flag = select_oracle(grid.entries, list(DEFAULT_RESOLUTIONS), rep.bitrate, 3.0)
        assert (rep.resolution, rep.over_budget) == (res, flag)


# ---------------------------------------------------------------- prune_jnd


def test_single_rung_ladder_survives_pruning():
    ladder = _ladder_from_qualities([55.0])
    pruned = prune_jnd(ladder, v_j=6.0, v_t=94.0)
    assert pruned.reps == ladder.reps


def test_hand_traced_pruning_case():
    ladder = _ladder_from_qualities([40.0, 45.0, 52.0, 60.0, 95.0])
    pruned = prune_jnd(ladder, v_j=6.0, v_t=94.0)
    assert [rep.bitrate for rep in pruned.reps] == [1.0, 3.0, 4.0, 5.0]
    assert [rep.predicted_vmaf for rep in pruned.reps] == [40.0, 52.0, 60.0, 95.0]
    assert pruned.params.v_j == 6.0 and pruned.params.v_t == 94.0


def test_first_rung_above_cap_short_circuits():
    ladder = _ladder_from_qualities([98.0, 99.0, 99.5])
    pruned = prune_jnd(ladder, v_j=6.0, v_t=94.0)
    assert len(pruned.reps) == 1
    assert pruned.reps[0].predicted_vmaf == 98.0


def test_pruning_requires_predictions_and_order():
    bare = Ladder((Representation(360, 1.0), Representation(720, 2.0)))
    with pytest.raises(MissingPrediction):
        prune_jnd(bare, 6.0, 94.0)
    with pytest.raises(UnsortedLadder):
        Ladder((Representation(360, 2.0), Representation(720, 1.0)))
    with pytest.raises(EmptyLadder):
        Ladder(())


def test_pruning_matches_interpreter_on_random_cases():
    rng = np.random.default_rng(21)
    for _ in range(300):
        m = int(rng.integers(1, 13))
        qualities = [float(q) for q in rng.uniform(30, 100, m)]
        v_j = float(rng.choice([2.0, 4.0, 6.0]))
        v_t = float(rng.choice([94.0, 96.0, 98.0]))
        ladder = _ladder_from_qualities(qualities)
        kept = prune_jnd(ladder, v_j, v_t)
        expected = prune_oracle(qualities, v_j, v_t)
        got = [ladder.reps.index(rep) for rep in kept.reps]
        assert got == expected


def test_pruning_is_idempotent():
    rng = np.random.default_rng(22)
    for _ in range(100):
        qualities = [float(q) for q in rng.uniform(30, 100, rng.integers(1, 13))]
        once = prune_jnd(_ladder_from_qualities(qualities), 4.0, 96.0)
        twice = prune_jnd(once, 4.0, 96.0)
        assert twice.reps == once.reps


def test_pruning_keeps_subsequence_with_gap_and_cap_guarantees():
    rng = np.random.default_rng(23)
    for _ in range(200):
        qualities = [float(q) for q in rng.uniform(30, 100, rng.integers(2, 13))]
        v_j, v_t = 6.0, 94.0
        ladder = _ladder_from_qualities(qualities)
        pruned = prune_jnd(ladder, v_j, v_t)
        # subsequence, first rung kept
        it = iter(ladder.reps)
        assert all(rep in it for rep in pruned.reps)
        assert pruned.reps[0] == ladder.reps[0]
        kept_q = [rep.predicted_vmaf for rep in pruned.reps]
        if not (len(pruned.reps) == 1 and kept_q[0] >= v_t):
            assert all(b - a >= v_j for a, b in zip(kept_q, kept_q[1:]))
        above = [q for q in kept_q if q >= v_t]
        assert len(above) <= 1
        if above:
            assert kept_q[-1] == above[0]


def test_kept_count_non_increasing_in_jnd_step_on_monotone_ladders():
    rng = np.random.default_rng(24)
    for _ in range(200):
        qualities = np.cumsum(rng.uniform(0, 8, rng.integers(2, 13))) + 30.0
        ladder = _ladder_from_qualities([float(q) for q in qualities])
        counts = [
            len(prune_jnd(ladder, v_j, 96.0).reps) for v_j in (2.0, 4.0, 6.0)
        ]
        assert counts[0] >= counts[1] >= counts[2]



@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("threshold", ["build_ladder-tau_l", "select_resolution-tau_l",
                                       "prune_jnd-v_j", "prune_jnd-v_t"])
def test_thresholds_out_of_range_are_refused(threshold, value):
    """0, -1 and NaN are neither a latency budget nor a noticeable step.  The
    first rung reaches a cap of 0 or -1, so only a NaN cap is refused."""
    grid = _grid({(r, b): (60.0, 0.5) for r in (360, 720) for b in (1.0, 2.0)})
    ladder = _ladder_from_qualities([40.0, 50.0, 60.0])
    call, message = {
        "build_ladder-tau_l": (lambda: build_ladder(grid, tau_l=value), "latency budget"),
        "select_resolution-tau_l": (lambda: select_resolution(grid, 1.0, value), "latency budget"),
        "prune_jnd-v_j": (lambda: prune_jnd(ladder, value, 94.0), "noticeable-difference step"),
        "prune_jnd-v_t": (lambda: prune_jnd(ladder, 6.0, value), "perceptually-lossless cap"),
    }[threshold]
    if threshold == "prune_jnd-v_t" and value <= 0:
        assert call().reps == ladder.reps[:1]
    else:
        with pytest.raises(LadderError, match=f"{message} must be .*, got {value}$"):
            call()
    if threshold.endswith("tau_l"):  # an unknown bitrate is still named first
        with pytest.raises(UnknownBitrate):
            build_ladder(grid, (9.0,), value)


def test_decide_checks_its_arguments_before_any_work():
    """No target, or one target twice, is refused as ``Ladder`` refuses it,
    before the budget; an unknown target is named before either, and a budget
    that is not positive before the pruning thresholds."""
    grid = _grid({(r, b): (60.0, 0.5) for r in (360, 720) for b in (1.0, 2.0)})
    for tau_l in (math.inf, math.nan):
        with pytest.raises(EmptyLadder, match="^a ladder needs at least one representation$"):
            decide(grid, (), tau_l)
        for targets in ([1.0, 1.0], [2.0, 1.0, 2.0]):
            with pytest.raises(UnsortedLadder, match=r"^bitrates must strictly increase, got (\S+) then \1$"):
                decide(grid, targets, tau_l)
        with pytest.raises(UnknownBitrate):
            decide(grid, [1.0, 1.0, 9.0], tau_l)
    with pytest.raises(LadderError, match="^latency budget must be positive, got nan$"):
        decide(grid, tau_l=math.nan, v_j=-1.0)


def test_a_missing_lossless_cap_is_refused_as_a_ladder_error():
    grid = _grid({(r, b): (60.0, 0.5) for r in (360, 720) for b in (1.0, 2.0)})
    message = "^the perceptually-lossless cap must be a number, got None$"
    with pytest.raises(LadderError, match=message):
        decide(grid, v_j=6.0)
    with pytest.raises(LadderError, match=message):
        prune_jnd(_ladder_from_qualities([40.0, 50.0, 60.0]), 6.0, None)


@pytest.mark.parametrize("v_j, v_t, message", [
    (None, 94.0, "^the noticeable-difference step must be a number, got None$"),
    ("6", 94.0, "^the noticeable-difference step must be a number, got '6'$"),
    (6.0, "94", "^the perceptually-lossless cap must be a number, got 94$"),
])
def test_a_step_or_cap_that_is_not_a_number_is_refused_as_a_ladder_error(v_j, v_t, message):
    with pytest.raises(LadderError, match=message):
        prune_jnd(_ladder_from_qualities([40.0, 50.0, 60.0]), v_j, v_t)

# ------------------------------------------------------- default_hls_ladder


def test_default_pairing_covers_standard_bitrates():
    ladder = default_hls_ladder(DEFAULT_BITRATES_MBPS)
    assert len(ladder.reps) == 12
    assert {rep.resolution for rep in ladder.reps} <= set(DEFAULT_RESOLUTIONS)
    assert [rep.resolution for rep in ladder.reps] == sorted(rep.resolution for rep in ladder.reps)
    assert all(rep.predicted_vmaf is None for rep in ladder.reps)


def test_default_pairing_rejects_unknown_bitrate_and_empty_input():
    with pytest.raises(PairingMissing):
        default_hls_ladder((7.77,))
    with pytest.raises(PairingMissing):
        default_hls_ladder(())


def test_custom_pairing_overrides_defaults(tmp_path):
    text = "bitrate_mbps,resolution\n1.0,720\n2.0,1080\n"
    table = load_pairing_csv(text.splitlines(True))
    assert table == ((1.0, 720), (2.0, 1080))
    ladder = default_hls_ladder((1.0, 2.0), pairing=table)
    assert [rep.resolution for rep in ladder.reps] == [720, 1080]
    with pytest.raises(PairingMissing):
        load_pairing_csv(["wrong,header\n"])
    # Each case's last line is the bad one.
    for bad_rows in ("1.0,360,junk\n", "nan,360\n", "1.0\n", "0,360\n", "1.0,-5\n",
                     "1.0,360\n2.0,720\n1.0,1080\n"):
        lines = bad_rows.splitlines(True)
        with pytest.raises(PairingMissing, match=f"line {1 + len(lines)}:"):
            load_pairing_csv(["bitrate_mbps,resolution\n", *lines])


# ----------------------------------------------------------------- manifest


def test_manifest_schema_and_infinity_encoding():
    reps = (
        Representation(360, 0.145, 40.0, 0.2),
        Representation(720, 1.6, 70.0, 1.2, over_budget=True),
    )
    ladder = Ladder(reps, LadderParams(tau_l=math.inf, v_j=6.0, v_t=94.0, vsr_tag="fsrcnn"))
    doc = ladder_to_manifest(ladder, "seg01")
    blob = json.dumps(doc)  # must be valid strict JSON
    parsed = json.loads(blob)
    assert parsed["segment_id"] == "seg01"
    assert parsed["vsr_tag"] == "fsrcnn"
    assert parsed["tau_L"] == "inf"
    assert parsed["v_J"] == 6.0 and parsed["v_T"] == 94.0
    assert parsed["reps"][0] == {
        "bitrate_mbps": 0.145,
        "resolution": 360,
        "predicted_vmaf": 40.0,
        "predicted_time_s": 0.2,
        "over_budget": False,
    }
    assert parsed["reps"][1]["over_budget"] is True


# Floats whose shortest repr is long, exponent-form or the smallest subnormal.
_AWKWARD = st.sampled_from([5e-324, 1e16, 0.1 + 0.2, 1e-7, 1.7976931348623157e308]) | st.floats(
    allow_nan=False, allow_infinity=False)
_POSITIVE = st.sampled_from([5e-324, 1e16, 0.1 + 0.2]) | st.floats(1e-300, 1e300)
_SEGMENT_IDS = st.sampled_from(['say "hi"', "back\\slash", "café", "☃, \"x\", ", "", "a\nb"]) | st.text()


@st.composite
def _ladders(draw):
    """A segment ladder, pruned or not, or a baseline ladder, whose predictions
    are None, and the id of its segment."""
    bitrates = sorted(set(draw(st.lists(_POSITIVE, min_size=1, max_size=6))))
    baseline = draw(st.booleans())
    reps = tuple(Representation(
        resolution=draw(st.sampled_from([360, 720, 1080, 2160]) | st.integers(1, 10**9)),
        bitrate=b,
        predicted_vmaf=None if baseline else draw(_AWKWARD),
        predicted_time=None if baseline else draw(_AWKWARD),
        over_budget=not baseline and draw(st.booleans()),
    ) for b in bitrates)
    vsr_tag = draw(st.sampled_from(["none", "fsrcnn"]))
    if baseline:
        params = LadderParams(vsr_tag=vsr_tag)
    elif draw(st.booleans()):  # pruned
        params = LadderParams(draw(st.just(math.inf) | _POSITIVE), draw(_POSITIVE), draw(_AWKWARD),
                              vsr_tag)
    else:
        params = LadderParams(tau_l=draw(st.just(math.inf) | _POSITIVE), vsr_tag=vsr_tag)
    return Ladder(reps, params), draw(_SEGMENT_IDS)


_CONFIG_DOCS = [RunConfig().to_dict(),
                dataclasses.replace(RunConfig(), tau_l=math.inf, v_j=None, v_t=None).to_dict()]


@settings(max_examples=200, deadline=None)
@given(st.lists(_ladders(), max_size=5), st.sampled_from(_CONFIG_DOCS))
def test_manifest_texts_are_json_dumps_with_an_indent_of_2(ladders, config_doc):
    for ladder, segment_id in ladders:
        assert manifest_texts([segment_id], Decisions.of(ladder), config_doc) == [
            json.dumps({**ladder_to_manifest(ladder, segment_id), "config": config_doc}, indent=2,
                       allow_nan=False) + "\n"]


def test_manifest_texts_refuse_non_finite_numbers():
    ladder = Ladder((Representation(720, 1.0, math.nan, 1.0),))
    with pytest.raises(ValueError):
        manifest_texts(["s"], Decisions.of(ladder), RunConfig().to_dict())
