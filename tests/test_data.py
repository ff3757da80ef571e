import re

import numpy as np
import pytest

from paircluster import (
    Assignment,
    ExperimentData,
    Seed,
    analyze,
    draw_paired_assignment,
    read_csv,
    resampling_size_experiment,
    validate_dataset,
    write_csv,
)
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


def test_units_need_finite_outcomes():
    rows = [("p1", "a", 1, 1.0), ("p1", "a", 1, float("nan")), ("p1", "b", 0, 0.0)]
    with pytest.raises(ValueError, match="unit 'a' has non-finite outcomes"):
        validate_dataset(rows)
    with pytest.raises(ValueError, match="unit 'b' has no outcomes"):
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
    with pytest.raises(ValueError, match="pair 'p' has 1 unit"):
        ExperimentData([1.0, 2.0, 3.0], [0, 1, 1], [1, 1, 1], ["p", "q"], ["a", "b", "c"])


def test_experiment_data_requires_canonical_arrays():
    ExperimentData([1.0, 2.0], [0, 0], [1, 1], ["p"], ["a", "b"])
    with pytest.raises(ValueError, match="unit ids"):
        ExperimentData([1.0, 2.0], [0, 0], [1, 1], ["p"], ["b", "a"])
    with pytest.raises(ValueError, match="pair ids"):
        ExperimentData([1.0] * 4, [0, 0, 1, 1], [1] * 4, ["q", "p"], ["a", "b"] * 2)
    with pytest.raises(ValueError, match="add up"):
        ExperimentData([1.0, 2.0], [0, 0], [1, 2], ["p"], ["a", "b"])


@pytest.mark.parametrize(
    "pair_ids, unit_ids, message",
    [
        ([" p2", "p1"], ["a", "b"] * 2, "pair id ' p2'"),
        (["p1", "p2"], ["a", "b", "a", "b\t"], "unit id 'b\\t'"),
    ],
)
def test_experiment_data_rejects_padded_ids(pair_ids, unit_ids, message):
    # read_csv strips ids, so a padded id would not survive a write_csv round trip
    with pytest.raises(ValueError, match=re.escape(f"{message} has surrounding whitespace")):
        ExperimentData([0.0, 1.0, 2.0, 3.0], [0, 0, 1, 1], [1] * 4, pair_ids, unit_ids)


def test_experiment_data_rejects_ids_that_are_not_strings():
    # write_csv would write 2, 10, 30 as text, and read_csv sorts text: "10" < "2"
    with pytest.raises(ValueError, match="pair id 10 is not a string"):
        ExperimentData([0.0, 1.0] * 3, [0, 0, 1, 1, 2, 2], [1] * 6, [2, 10, 30], ["a", "b"] * 3)
    with pytest.raises(ValueError, match="unit id None is not a string"):
        ExperimentData([0.0, 1.0], [0, 0], [1, 1], ["p"], ["a", None])


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
    with pytest.raises(DegeneratePair, match=re.escape(message)) as err:
        analyze(data, Assignment(treated))
    # the same check, and message, as for the rows read by validate_dataset
    rows = [(data.pair_ids[data.unit_pair[u]], data.unit_ids[u], treated[u], y)
            for u, y in zip(data.obs_unit, data.outcomes)]
    with pytest.raises(DegeneratePair) as from_rows:
        validate_dataset(rows)
    assert str(from_rows.value) == str(err.value)
