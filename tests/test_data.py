import csv
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paircluster import (
    Assignment,
    ExperimentData,
    Seed,
    analyze,
    draw_paired_assignment,
    draw_stratified_assignment,
    read_csv,
    resampling_size_experiment,
    validate_dataset,
    variance_set,
    write_csv,
)
from paircluster import dataio
from paircluster.data import _FIELDS
from paircluster.errors import (
    AssignmentMismatch,
    DataError,
    DegeneratePair,
    EmptyInput,
    MixedTreatmentWithinUnit,
    NonBinaryTreatment,
    NotPaired,
)
from oracles import (
    diff_in_means,
    fe_estimate,
    fe_variance_ratio,
    null_resample,
    pair_clustered_variance,
    pair_effects,
    pair_sizes,
    per_pair_counts,
    subset_pairs,
    totals,
    unit_clustered_variance,
)
from helpers import random_paired

MINIMAL_ROWS = [
    ("p1", "a", 1, 2.0),
    ("p1", "b", 0, 0.0),
    ("p2", "c", 0, 1.0),
    ("p2", "d", 1, 1.0),
]


def test_minimal_dataset():
    data, assignment = validate_dataset(MINIMAL_ROWS)
    assert data.P == 2
    assert data.n_total == 4
    assert data.n_units == 4
    T, C = totals(data, assignment)
    assert (T, C) == (2, 2)


def test_derived_counts_sum():
    rng = np.random.default_rng(11)
    data, assignment = random_paired(rng, P=9, max_size=5)
    T, C = totals(data, assignment)
    assert T + C == data.n_total
    t_p, c_p = per_pair_counts(data, assignment)
    assert np.array_equal(t_p + c_p, pair_sizes(data))


def test_degenerate_pair_two_treated():
    rows = [
        ("p1", "a", 1, 2.0),
        ("p1", "b", 1, 0.0),
        ("p2", "c", 0, 1.0),
        ("p2", "d", 1, 1.0),
    ]
    with pytest.raises(DegeneratePair):
        validate_dataset(rows)


def test_degenerate_pair_single_unit():
    rows = [("p1", "a", 1, 2.0), ("p2", "c", 0, 1.0), ("p2", "d", 1, 1.0)]
    with pytest.raises(DegeneratePair):
        validate_dataset(rows)


def test_nonbinary_treatment():
    rows = [("p1", "a", 2, 2.0), ("p1", "b", 0, 0.0)]
    with pytest.raises(NonBinaryTreatment):
        validate_dataset(rows)


def test_mixed_treatment_within_unit():
    rows = [
        ("p1", "a", 1, 2.0),
        ("p1", "a", 0, 3.0),
        ("p1", "b", 0, 0.0),
    ]
    with pytest.raises(MixedTreatmentWithinUnit):
        validate_dataset(rows)


def test_empty_input():
    with pytest.raises(EmptyInput):
        validate_dataset([])


def test_stratified_blocks_allowed():
    rows = [
        ("s1", "a", 1, 1.0),
        ("s1", "b", 0, 2.0),
        ("s1", "c", 0, 3.0),
        ("s2", "d", 1, 4.0),
        ("s2", "e", 0, 5.0),
    ]
    data, _ = validate_dataset(rows)
    assert data.pair_unit_counts.tolist() == [3, 2]


def test_row_order_irrelevant():
    rng = np.random.default_rng(5)
    rows = list(MINIMAL_ROWS)
    data_a, assign_a = validate_dataset(rows)
    rng.shuffle(rows)
    data_b, assign_b = validate_dataset(rows)
    assert data_a == data_b
    assert assign_a == assign_b


def test_each_unit_keeps_its_rows_in_input_order():
    units = np.random.default_rng(6).choice(["a", "b"], 200).tolist()
    rows = [("p1", unit, int(unit == "a"), float(k)) for k, unit in enumerate(units)]
    data, _ = validate_dataset(rows)
    in_order = sorted(rows, key=lambda row: row[1])  # a stable sort by unit
    assert data.outcomes.tolist() == [row[3] for row in in_order]


PADS = st.sampled_from(["", " ", "\t"])


@st.composite
def _shuffled_rows(draw):
    """Rows of 1-4 strata of 2-3 units, unit ids reused across strata and padded
    with whitespace, 1-4 rows per unit, shuffled, with up to two treatments replaced."""
    rows = []
    for p in range(draw(st.integers(1, 4))):
        G = draw(st.integers(2, 3))
        names = draw(st.lists(st.sampled_from("abcd"), min_size=G, max_size=G, unique=True))
        treated = draw(st.permutations([1, 0] + [draw(st.integers(0, 1))] * (G - 2)))
        for name, w in zip(names, treated):
            for _ in range(draw(st.integers(1, 4))):
                pair_id, unit_id = (draw(PADS) + text + draw(PADS) for text in (f"p{p}", name))
                rows.append([pair_id, unit_id, w, draw(st.floats(-1e3, 1e3))])
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(st.integers(0, len(rows) - 1))][2] = draw(st.sampled_from([2, -1, 0, 1]))
    return [tuple(row) for row in draw(st.permutations(rows))]


def _row_by_row(rows):
    """validate_dataset's result, or its error, built row by row in input order:
    units in a stable sort by (pair id, unit id, input row), ids stripped."""
    first = {}  # each (pair id, unit id)'s first treatment
    for pair_id, unit_id, w, _ in rows:
        unit = (pair_id.strip(), unit_id.strip())
        context = f"unit {unit[1]!r} in pair {unit[0]!r}"
        if w not in (0, 1):
            return NonBinaryTreatment(f"treatment must be 0 or 1, got {w!r} ({context})")
        if first.setdefault(unit, w) != w:
            return MixedTreatmentWithinUnit(f"{context} has both treated and control rows")
    order = sorted(range(len(rows)), key=lambda k: (rows[k][0].strip(), rows[k][1].strip(), k))
    units = sorted(first)
    pair_ids = sorted({pair_id for pair_id, _ in units})
    for pair_id in pair_ids:
        treated = [first[unit] for unit in units if unit[0] == pair_id]
        if sum(treated) in (0, len(treated)):
            return DegeneratePair(f"pair {pair_id!r} has no treated/control contrast "
                                  f"(treatments: [{int(sum(treated) > 0)}], units: {len(treated)})")
    sizes = [sum((row[0].strip(), row[1].strip()) == unit for row in rows) for unit in units]
    data = ExperimentData([rows[k][3] for k in order],
                          [pair_ids.index(pair_id) for pair_id, _ in units], sizes, pair_ids,
                          [unit_id for _, unit_id in units])
    return data, Assignment([first[unit] for unit in units])


@pytest.mark.parametrize("digit_bits", [dataio._DIGIT_BITS, 1], ids=["one-sort", "several-sorts"])
@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=_shuffled_rows())
def test_canonical_order_equals_a_row_by_row_oracle(tmp_path, monkeypatch, digit_bits, rows):
    monkeypatch.setattr(dataio, "_DIGIT_BITS", digit_bits)  # 1: a sort per varying key bit
    path = tmp_path / "rows.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([dataio.CSV_HEADER] + rows)
    expected = _row_by_row(rows)
    for entry in (lambda: validate_dataset(rows), lambda: read_csv(path)):
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as err:
                entry()
            assert str(err.value) == str(expected)
        else:
            assert entry() == expected


def test_canonical_constructor_equals_the_checked_one():
    data, _ = validate_dataset([(p, u, int(u in "ad"), float(k)) for k, (p, u) in
                                enumerate([("s2", "d"), ("s1", "b"), ("s1", "a"), ("s2", "e"),
                                           ("s1", "a"), ("s1", "c"), ("s2", "d")])])
    arrays = [data.outcomes, data.unit_pair, data.unit_sizes, data.pair_ids, data.unit_ids]
    trusted, checked = ExperimentData._canonical(*arrays), ExperimentData(*arrays)
    assert trusted == checked == data
    for name in ("outcomes", "unit_pair", "unit_sizes", "pair_ids", "unit_ids"):
        ours, theirs = getattr(trusted, name), getattr(checked, name)
        assert ours.dtype == theirs.dtype and not ours.flags.writeable


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(77)
    data, assignment = random_paired(rng, P=6, max_size=4)
    path = tmp_path / "exp.csv"
    write_csv(path, data, assignment)
    data2, assignment2 = read_csv(path)
    assert data == data2
    assert assignment == assignment2


def test_assignment_mismatch():
    data, _ = validate_dataset(MINIMAL_ROWS)
    partial = Assignment([1, 0])
    with pytest.raises(AssignmentMismatch):
        partial.unit_vector(data)
    too_long = Assignment([1, 0, 0, 1, 1])
    with pytest.raises(AssignmentMismatch):
        too_long.unit_vector(data)
    with pytest.raises(AssignmentMismatch):
        subset_pairs(data, partial, ["p1"])


def test_types_immutable():
    data, assignment = validate_dataset(MINIMAL_ROWS)
    for arr in (
        data.outcomes,
        data.unit_pair,
        data.unit_sizes,
        data.pair_ids,
        data.unit_ids,
        data.obs_unit,
        assignment.treated,
    ):
        with pytest.raises(ValueError):
            arr[0] = arr[1]


def test_an_observation_index_is_made_once():
    # each access makes the row-length index and freezes it in place, with no copy
    sizes = np.full(400, 50)
    data = ExperimentData(np.arange(sizes.sum(), dtype=float), np.repeat(np.arange(200), 2), sizes,
                          [f"p{p:03d}" for p in range(200)], [f"u{u:03d}" for u in range(400)])
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        index = data.obs_unit
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not index.flags.writeable
    assert peak - entry <= index.nbytes + 8 * data.n_units + 4096  # and the unit numbers


def test_a_dataset_stores_nothing_beyond_its_fields(tmp_path, monkeypatch):
    # every index and count is derived on each access: a dataset holds its five arrays
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    data, assignment = random_paired(np.random.default_rng(8), P=12)
    analyze(data, assignment)
    variance_set(data, assignment)
    write_csv(tmp_path / "data.csv", data, assignment)
    resampling_size_experiment(data, 600, 0.05, Seed(3), threads=2)
    draw_stratified_assignment(data, Seed(4))
    draw_paired_assignment(data, Seed(5))
    assert sorted(vars(data)) == sorted(name for name, _ in _FIELDS)


def test_units_need_finite_outcomes():
    rows = [("p1", "a", 1, 1.0), ("p1", "a", 1, float("nan")), ("p1", "b", 0, 0.0)]
    with pytest.raises(ValueError, match="unit 'a' has non-finite outcomes"):
        validate_dataset(rows)
    with pytest.raises(ValueError, match="unit 'b' has non-finite outcomes"):
        ExperimentData([1.0, float("inf")], [0, 0], [1, 1], ["p"], ["a", "b"])
    # unit b has no outcomes, so the rows of the arrays hold pair p's treated unit a only
    with pytest.raises(DegeneratePair, match="pair 'p' has no treated/control contrast"):
        ExperimentData([1.0], [0, 0], [1, 0], ["p"], ["a", "b"])


def test_pair_ids_sorted():
    rows = [
        ("zz", "a", 1, 1.0),
        ("zz", "b", 0, 2.0),
        ("aa", "a", 0, 3.0),
        ("aa", "b", 1, 4.0),
    ]
    data, _ = validate_dataset(rows)
    assert data.pair_ids.tolist() == ["aa", "zz"]
    assert data.unit_ids.tolist() == ["a", "b", "a", "b"]


def test_experiment_data_requires_two_units():
    with pytest.raises(DegeneratePair, match="pair 'p'"):
        validate_dataset([("p", "a", 1, 1.0), ("q", "b", 1, 2.0), ("q", "c", 0, 3.0)])
    with pytest.raises(DegeneratePair, match="pair 'p' has no treated/control contrast"):
        ExperimentData([1.0, 2.0, 3.0], [0, 1, 1], [1, 1, 1], ["p", "q"], ["a", "b", "c"])


def _refused(message, *arrays):
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentData(*arrays)


def test_experiment_data_requires_canonical_arrays():
    ExperimentData([1.0, 2.0], [0, 0], [1, 1], ["p"], ["a", "b"])
    _refused("unit id 'b' at unit_ids[0] differs from validate_dataset of the dataset's own rows",
             [1.0, 2.0], [0, 0], [1, 1], ["p"], ["b", "a"])
    _refused("pair id 'q' at pair_ids[0] differs",
             [1.0] * 4, [0, 0, 1, 1], [1] * 4, ["q", "p"], ["a", "b"] * 2)
    _refused("add up", [1.0, 2.0], [0, 0], [1, 2], ["p"], ["a", "b"])
    with pytest.raises(EmptyInput):
        ExperimentData([], [], [], [], [])
    _refused("one entry per unit", [1.0, 2.0], [0, 0], [1, 1], ["p"], ["a"])
    _refused("pair index 1 at unit_pair[0] differs",
             [1.0] * 4, [1, 1, 0, 0], [1] * 4, ["p", "q"], ["a", "b"] * 2)
    # a unit id repeated within a pair: the pair's first unit is treated, the others are not
    _refused("unit 'a' in pair 'p' has both treated and control rows",
             [1.0, 2.0, 3.0], [0, 0, 0], [1, 1, 1], ["p"], ["a", "a", "b"])
    _refused("unit id 'b' at unit_ids[2] differs",
             [1.0, 2.0, 3.0], [0, 0, 0], [1, 1, 1], ["p"], ["a", "b", "b"])
    _refused("pair id 'p' at pair_ids[1] differs",
             [1.0] * 4, [0, 0, 1, 1], [1] * 4, ["p", "p"], ["a", "b"] * 2)
    for index in (-1, 2):
        _refused("pair indexes in [0, P)",
                 [1.0] * 4, [0, 0, 1, index], [1] * 4, ["p", "q"], ["a", "b"] * 2)
    _refused("unit sizes must be >= 0", [1.0, 2.0], [0, 0, 0], [2, 1, -1], ["p"], ["a", "b", "c"])
    _refused("add up",  # these sizes add up to 2 in int64
             [1.0, 2.0], [0, 0, 0], [2**63 - 1, 2**63 - 1, 4], ["p"], ["a", "b", "c"])
    _refused("unit id 'c' at unit_ids[2] differs",  # a unit without outcomes has no rows
             [1.0, 2.0], [0, 0, 0, 0], [1, 1, 0, 0], ["p"], ["a", "b", "c", "d"])
    _refused("unit_sizes has an entry int64 cannot hold", [1.0], [0], [2**64], ["p"], ["a"])
    _refused("unit_pair has an entry int64 cannot hold",
             [1.0, 2.0], [0, 2**63], [1, 1], ["p"], ["a", "b"])


@pytest.mark.parametrize(
    "pair_ids, unit_ids, message",
    [
        ([" p2", "p1"], ["a", "b"] * 2, "pair id ' p2'"),
        (["p1", "p2"], ["a", "b", "a", "b\t"], "unit id 'b\\t'"),
    ],
)
def test_experiment_data_rejects_padded_ids(pair_ids, unit_ids, message):
    # read_csv strips ids, so a padded id would not survive a write_csv round trip
    with pytest.raises(ValueError, match=re.escape(message) + r" at \w+_ids\[\d\] differs"):
        ExperimentData([0.0, 1.0, 2.0, 3.0], [0, 0, 1, 1], [1] * 4, pair_ids, unit_ids)


def test_experiment_data_rejects_ids_that_are_not_strings():
    # write_csv would write 2, 10, 30 as text, and read_csv sorts text: "10" < "2"
    _refused("pair id 2 at pair_ids[0] differs",  # validate_dataset gives '10' there
             [0.0, 1.0] * 3, [0, 0, 1, 1, 2, 2], [1] * 6, [2, 10, 30], ["a", "b"] * 3)
    _refused("unit id None at unit_ids[1] differs", [0.0, 1.0], [0, 0], [1, 1], ["p"], ["A", None])


def test_experiment_data_rejects_nul_in_ids():
    # read_csv refuses such ids, so they would not survive a write_csv round trip
    with pytest.raises(DataError, match=re.escape("unit id 'a\\x00' contains a NUL character")):
        ExperimentData([0.0, 1.0], [0, 0], [1, 1], ["p"], ["a", "a\x00"])
    with pytest.raises(DataError, match=re.escape("pair id 'p\\x00q' contains a NUL character")):
        ExperimentData([0.0, 1.0], [0, 0], [1, 1], ["p\x00q"], ["a", "b"])


def test_subset_pairs():
    rng = np.random.default_rng(3)
    data, assignment = random_paired(rng, P=8, max_size=3)
    keep = data.pair_ids[:3].tolist()
    sub, sub_assignment = subset_pairs(data, assignment, keep)
    assert sub.P == 3
    assert sub.pair_ids.tolist() == keep
    units = data.unit_pair < 3  # canonical order: the kept pairs come first
    assert np.array_equal(sub_assignment.treated, assignment.treated[units])
    assert np.array_equal(sub.unit_ids, data.unit_ids[units])
    assert np.array_equal(sub.outcomes, data.outcomes[units[data.obs_unit]])
    with pytest.raises(ValueError):
        subset_pairs(data, assignment, ["nope"])


# Every paired-only entry point, on data whose second block has 3 units.
PAIRED_ONLY = {
    "pair_effects": pair_effects,
    "pair_clustered_variance": lambda d, a: pair_clustered_variance(d, a, diff_in_means(d, a)),
    "unit_clustered_variance": lambda d, a: unit_clustered_variance(d, a, fe_estimate(d, a)),
    "fe_variance_ratio": lambda d, a: fe_variance_ratio(d, fe_estimate(d, a)),
    "draw_paired_assignment": lambda d, a: draw_paired_assignment(d, Seed(1)),
    "null_resample": lambda d, a: null_resample(d, "paired", Seed(1)),
    "resampling_size_experiment": lambda d, a: resampling_size_experiment(d, 10, 0.05, Seed(1)),
}


@pytest.mark.parametrize("entry", sorted(PAIRED_ONLY))
def test_paired_only_entry_points_share_one_not_paired_error(entry):
    rows = [("s1", "a", 1, 1.0), ("s1", "b", 0, 2.0),
            ("s2", "c", 1, 3.0), ("s2", "d", 0, 4.0), ("s2", "e", 0, 6.0)]
    data, assignment = validate_dataset(rows)
    with pytest.raises(NotPaired) as err:
        PAIRED_ONLY[entry](data, assignment)
    assert str(err.value) == "pair 's2' does not have exactly 2 units"


@pytest.mark.parametrize("treated, bad", [
    ([1, 1, 1, 1, 1, 1, 1, 1], "p0000"),  # no unit is a control
    ([1, 0, 0, 0, 1, 0, 0, 1], "p0001"),  # one pair without a treated unit
])
def test_analyze_needs_one_treated_unit_per_pair(treated, bad):
    data, _ = random_paired(np.random.default_rng(5), 4)
    message = f"pair '{bad}' has no treated/control contrast"
    for entry in (analyze, variance_set):  # variance_set checks for both
        with pytest.raises(DegeneratePair, match=re.escape(message)) as err:
            entry(data, Assignment(treated))
    # the same check, and message, as for the rows read by validate_dataset
    rows = [(data.pair_ids[data.unit_pair[u]], data.unit_ids[u], treated[u], y)
            for u, y in zip(data.obs_unit, data.outcomes)]
    with pytest.raises(DegeneratePair) as from_rows:
        validate_dataset(rows)
    assert str(from_rows.value) == str(err.value)
