"""Data-model construction, invariants, and validation."""

import numpy as np
import pytest

from glmm_means import Dataset, Family, ModelSpec, SubjectBlock, validate
from glmm_means.model import GroupIndex, ParamVector
from glmm_means.families import family_ops


def block(sid="s0", y=(1.0, 0.0), x=((1.0, 0.5), (1.0, -0.5)), groups=("a", "b")):
    return SubjectBlock(subject_id=sid, y=np.array(y), X=np.array(x), groups=groups)


# ---- inverse link ---------------------------------------------------------------

LOGISTIC = family_ops(Family.LOGISTIC)


def test_inverse_link_trivials():
    assert LOGISTIC.inverse_link(0.0) == 0.5
    assert family_ops(Family.NEGBIN).inverse_link(0.0) == 1.0
    assert LOGISTIC.inverse_link(1.7) == pytest.approx(0.8455347349164652, abs=1e-12)


def test_inverse_link_saturates_without_overflow():
    assert LOGISTIC.inverse_link(800.0) == 1.0
    assert LOGISTIC.inverse_link(-800.0) == 0.0


def test_logistic_complement_identity():
    eta = np.linspace(-40, 40, 401)
    total = LOGISTIC.inverse_link(eta) + LOGISTIC.inverse_link(-eta)
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


def test_logistic_weights_do_not_round_to_zero_on_either_tail():
    # p (1 - p) with 1 - p formed by subtraction is exactly 0 for eta > ~37
    # but ~e^eta for eta < -37; the weights must be positive and symmetric
    ops = family_ops(Family.LOGISTIC)
    kernels = (ops.fisher_weight, lambda e: ops.kernel(None, e).curvature(), ops.dinverse_link)
    for kernel in kernels:
        for eta in (40.0, 700.0):
            up, down = kernel(np.array([eta]))[0], kernel(np.array([-eta]))[0]
            assert up > 0.0 and down > 0.0
            assert up == down
    eta = np.linspace(-20.0, 20.0, 4001)
    z = np.exp(-np.abs(eta))
    exact = z / (1.0 + z) ** 2  # p (1 - p) without cancellation on either side
    for kernel in kernels:
        np.testing.assert_allclose(kernel(eta), exact, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("family", [Family.LOGISTIC, Family.NEGBIN])
def test_inverse_link_strictly_monotone(family):
    eta = np.linspace(-20, 20, 201)
    vals = family_ops(family).inverse_link(eta)
    assert np.all(np.diff(vals) > 0)


# ---- types ---------------------------------------------------------------------


def test_param_vector_invariants():
    with pytest.raises(ValueError):
        ParamVector(beta=np.zeros(2), sigma2=-0.1)
    with pytest.raises(ValueError):
        ParamVector(beta=np.zeros(2), sigma2=0.1, kappa=0.0)
    pv = ParamVector(beta=np.zeros(2), sigma2=0.25)
    assert pv.sigma == 0.5


def test_param_vector_is_frozen():
    pv = ParamVector(beta=np.array([1.0, 2.0]), sigma2=0.1)
    with pytest.raises(ValueError):
        pv.beta[0] = 9.0


def test_subject_block_shape_errors():
    with pytest.raises(ValueError):
        SubjectBlock(subject_id="s", y=np.array([1.0]), X=np.ones((2, 2)), groups=("a", "b"))
    with pytest.raises(ValueError):
        SubjectBlock(subject_id="s", y=np.array([]), X=np.ones((0, 2)), groups=())
    with pytest.raises(ValueError):
        SubjectBlock(subject_id="s", y=np.array([1.0]), X=np.ones((1, 2)), groups=("a", "b"))


def test_dataset_rejects_duplicate_subjects():
    with pytest.raises(ValueError):
        Dataset([block("s0"), block("s0")])


def test_dataset_stacking_and_offsets():
    ds = Dataset([block("s0"), block("s1", y=(0.0,), x=((1.0, 2.0),), groups=("a",))])
    assert ds.n_subjects == 2
    assert ds.n_obs == 3
    np.testing.assert_array_equal(ds.row_offsets, [0, 2, 3])
    np.testing.assert_array_equal(ds.subject_index, [0, 0, 1])


def test_dataset_rejects_empty_input_and_mixed_covariate_counts():
    with pytest.raises(ValueError, match="at least one subject"):
        Dataset([])
    with pytest.raises(ValueError, match="covariates, expected 2"):
        Dataset([block("s0"), block("s1", x=((1.0,), (1.0,)))])


def test_from_rows_groups_subjects_by_first_appearance():
    ds = Dataset.from_rows(
        ["b", "a", "b", "c", "a"],
        y=[1, 0, 0, 1, 1],
        X=[[1.0, 0.1], [1.0, 0.2], [1.0, 0.3], [1.0, 0.4], [1.0, 0.5]],
        groups=["g", "h", "h", "g", "g"],
    )
    assert ds.subject_ids == ("b", "a", "c")
    np.testing.assert_array_equal(ds.X[:, 1], [0.1, 0.3, 0.2, 0.5, 0.4])
    np.testing.assert_array_equal(ds.row_offsets, [0, 2, 4, 5])
    np.testing.assert_array_equal(ds.subject_index, [0, 0, 1, 1, 2])
    assert ds.group_labels == ("g", "h", "h", "g", "g")
    assert ds.group_index.group_ids == ("g", "h")
    np.testing.assert_array_equal(ds.group_index.indices["g"], [0, 3, 4])
    assert [s.n_obs for s in ds.subjects] == [2, 2, 1]
    assert not ds.y.flags.writeable and not ds.X.flags.writeable


def test_from_rows_shape_errors():
    X = np.ones((2, 2))
    with pytest.raises(ValueError, match="at least one subject"):
        Dataset.from_rows([], np.zeros(0), np.ones((0, 2)), [])
    with pytest.raises(ValueError, match="X has shape"):
        Dataset.from_rows(["s", "s"], np.zeros(2), np.ones((3, 2)), ["a", "a"])
    with pytest.raises(ValueError, match="group labels for 2 rows"):
        Dataset.from_rows(["s", "s"], np.zeros(2), X, ["a"])


def test_with_responses_replaces_only_the_responses():
    ds = Dataset.from_rows(["b", "a", "b"], [0, 1, 0], [[1.0, 0.1], [1.0, 0.2], [1.0, 0.3]],
                           ["g", "h", "g"])
    y = np.array([1.0, 1.0, 0.0])
    new = ds.with_responses(y)
    y[:] = 5.0  # the new dataset keeps its own frozen copy
    np.testing.assert_array_equal(new.y, [1.0, 1.0, 0.0])
    assert not new.y.flags.writeable
    np.testing.assert_array_equal(ds.y, [0.0, 0.0, 1.0])
    assert new.X is ds.X and new.group_index is ds.group_index
    assert new.subject_ids == ds.subject_ids and new.group_labels == ds.group_labels
    with pytest.raises(ValueError, match="y has shape"):
        ds.with_responses(np.zeros(2))
    with pytest.raises(ValueError, match="y has shape"):
        ds.with_responses(np.zeros(4))


def test_group_index_partitions_observations():
    ds = Dataset([block("s0"), block("s1"), block("s2", groups=("b", "b"))])
    gi = ds.group_index
    all_idx = np.concatenate([gi.indices[g] for g in gi.group_ids])
    assert sorted(all_idx.tolist()) == list(range(ds.n_obs))
    assert len(set(all_idx.tolist())) == ds.n_obs
    assert sum(gi.sizes.values()) == ds.n_obs


def test_group_codes_sizes_and_average_rows():
    ds = Dataset.from_rows(["s1", "s0", "s1", "s0"], [0, 1, 0, 1],
                           [[1.0, 0.5], [1.0, 0.25], [1.0, 1.5], [1.0, -1.0]], ["b", "a", "a", "b"])
    gi = ds.group_index
    for q, gid in enumerate(gi.group_ids):
        np.testing.assert_array_equal(np.flatnonzero(ds.group_codes == q), gi.indices[gid])
        assert ds.group_sizes[q] == gi.sizes[gid]
        np.testing.assert_allclose(ds.group_X[q], ds.X[gi.indices[gid]].mean(axis=0), rtol=1e-15)
    assert ds.with_responses(np.zeros(4)).group_codes is ds.group_codes


def test_ybar_is_group_mean():
    ds = Dataset([block("s0", y=(1.0, 0.0)), block("s1", y=(1.0, 1.0))])
    assert ds.ybar("a") == pytest.approx(1.0)
    assert ds.ybar("b") == pytest.approx(0.5)


# ---- validate -------------------------------------------------------------------


def _spec(family=Family.LOGISTIC, p=2):
    return ModelSpec(family=family, p=p)


def test_validate_clean_dataset():
    assert validate(Dataset([block("s0"), block("s1")]), _spec()) == []


def test_validate_flags_rank_deficiency():
    collinear = ((1.0, 2.0), (1.5, 3.0))
    ds = Dataset([block("s0", x=collinear), block("s1", x=collinear)])
    codes = [v.code for v in validate(ds, _spec())]
    assert "rank" in codes


def test_validate_flags_bad_logistic_response():
    ds = Dataset([block("s0", y=(2.0, 0.0))])
    codes = [v.code for v in validate(ds, _spec())]
    assert "response" in codes


def test_validate_flags_bad_negbin_response():
    ds = Dataset([block("s0", y=(1.5, 0.0)), block("s1", y=(-1.0, 3.0))])
    codes = [v.code for v in validate(ds, _spec(Family.NEGBIN))]
    assert "response" in codes


def test_validate_flags_dimension_mismatch():
    ds = Dataset([block("s0"), block("s1")])
    codes = [v.code for v in validate(ds, _spec(p=3))]
    assert "dimension" in codes


@pytest.mark.parametrize("family, bad", [
    (Family.NEGBIN, np.inf),
    (Family.NEGBIN, np.nan),
    (Family.LOGISTIC, np.nan),
])
def test_validate_flags_nonfinite_response(family, bad):
    ds = Dataset([block("s0", y=(bad, 1.0)), block("s1")])
    codes = [v.code for v in validate(ds, _spec(family))]
    assert codes == ["response"]


@pytest.mark.parametrize("indices", [
    {"a": [0, 1], "b": [1, 3]},  # row 1 twice, row 2 missing
    {"a": [0, 1], "b": [3]},     # row 2 missing
    {"a": [0, 1], "b": [2, 4]},  # row 4 does not exist
    {"a": [-1, 1], "b": [2, 3]},  # nor does row -1
    {"a": [0, 1, 2, 3], "b": [3]},  # one row too many
])
def test_validate_flags_group_indices_that_do_not_partition_the_rows(indices):
    ds = Dataset([block("s0"), block("s1")])
    assert validate(ds, _spec()) == []
    ds.group_index = GroupIndex(group_ids=tuple(indices),
                                indices={g: np.array(v, dtype=np.int64) for g, v in indices.items()})
    assert [v.code for v in validate(ds, _spec())] == ["groups"]
