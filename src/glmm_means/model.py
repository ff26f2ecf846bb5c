"""Core data model: the stacked-row dataset, subject blocks, and validation.

A Dataset stores every row once, stacked subject by subject: responses,
covariate rows and one group label per row, plus each row's subject number
and the subjects' row offsets.  Every row is one observation and counts
once; there are no observation weights.  The Dataset is the only place
that groups rows by subject: every constructor hands per-row arrays with
integer subject and group codes to one builder, `Dataset.from_codes`, which
accepts rows in any order.  `SubjectBlock` is the per-subject view for
callers that build or read data one subject at a time.  All containers are
immutable after construction; numpy arrays are frozen so instances can be
shared across threads.
Statistical invariants (response domain, full column rank, group
partition) are checked by `validate`, not by the constructors.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .families import Family, family_ops

RANK_TOL = 1e-10  # relative to the largest singular value


def _frozen_array(values, dtype=float, ndim=1) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SubjectBlock:
    """Observations of one subject, one row each: y (n_i,), X (n_i, p), groups (n_i,)."""

    subject_id: str
    y: np.ndarray
    X: np.ndarray
    groups: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "y", _frozen_array(self.y))
        object.__setattr__(self, "X", _frozen_array(self.X, ndim=2))
        n = self.y.shape[0]
        if n == 0:
            raise ValueError(f"subject {self.subject_id!r} has no observations")
        if self.X.shape[0] != n:
            raise ValueError(f"subject {self.subject_id!r}: X has {self.X.shape[0]} rows, y has {n}")
        if len(self.groups) != n:
            raise ValueError(f"subject {self.subject_id!r}: {len(self.groups)} group labels for {n} rows")
        object.__setattr__(self, "groups", tuple(str(g) for g in self.groups))

    @property
    def n_obs(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True, eq=False)
class GroupIndex:
    """Observation indices per group id; index sets partition 0..N-1."""

    group_ids: tuple[str, ...]
    indices: dict[str, np.ndarray]

    def rows(self, group_id: str) -> np.ndarray:
        """Observation indices of one group; KeyError for an unknown group."""
        if group_id not in self.indices:
            raise KeyError(f"unknown group {group_id!r}")
        return self.indices[group_id]

    @property
    def sizes(self) -> dict[str, int]:
        return {g: int(self.indices[g].shape[0]) for g in self.group_ids}


class Dataset:
    """Immutable stacked rows of all subjects, grouped by subject.

    Rows are stored subject by subject, so each subject's observations
    occupy a contiguous slice `[row_offsets[i], row_offsets[i+1])`: `y`,
    `X`, `subject_index`, `group_labels` and `group_codes` (the position of
    the row's group in `group_index.group_ids`) hold one entry per row,
    `subject_ids` one per subject, and `group_sizes` (rows, each counted
    once) and `group_X` (the average covariate row) one per group.
    `Dataset(subjects)` stacks per-subject blocks in the given order;
    `Dataset.from_rows` takes rows in any order, and `Dataset.from_codes`
    rows whose subjects and groups are already numbered.
    """

    def __init__(self, subjects: Sequence[SubjectBlock]):
        subjects = tuple(subjects)
        if not subjects:
            raise ValueError("dataset needs at least one subject")
        p = subjects[0].X.shape[1]
        for s in subjects:
            if s.X.shape[1] != p:
                raise ValueError(
                    f"subject {s.subject_id!r} has {s.X.shape[1]} covariates, expected {p}"
                )
        seen = set()
        for s in subjects:
            if s.subject_id in seen:
                raise ValueError(f"duplicate subject id {s.subject_id!r}")
            seen.add(s.subject_id)
        labels, groups = _first_appearance_codes([g for s in subjects for g in s.groups])
        self._store(
            [s.subject_id for s in subjects],
            np.repeat(np.arange(len(subjects)), [s.n_obs for s in subjects]),
            np.concatenate([s.y for s in subjects]),
            np.vstack([s.X for s in subjects]),
            labels,
            groups,
        )

    @classmethod
    def from_rows(cls, subject_ids, y, X, groups) -> "Dataset":
        """Dataset from per-row arrays in any row order.

        Subjects are numbered by first appearance and each subject's rows
        keep their input order.
        """
        ids, subjects = _first_appearance_codes(subject_ids)
        labels, codes = _first_appearance_codes(list(map(str, groups)))
        return cls.from_codes(ids, subjects, y, X, labels, codes)

    @classmethod
    def from_codes(cls, subject_ids, subjects, y, X, group_labels, groups) -> "Dataset":
        """Dataset from per-row arrays in any row order, with each row's
        subject and group given as an integer code.

        Row r belongs to subject `subject_ids[subjects[r]]` and to group
        `group_labels[groups[r]]`; every one of the distinct `subject_ids`
        needs a row.  Subjects are stacked in code order, each keeping its
        rows' input order.  Rows whose labels are equal form one group.
        """
        ds = cls.__new__(cls)
        ds._store(subject_ids, subjects, y, X, group_labels, groups)
        return ds

    def with_responses(self, y) -> "Dataset":
        """The same subjects, covariate rows and group index with responses
        `y`, given in this dataset's stacked row order."""
        y = _frozen_array(y)
        if y.shape != self.y.shape:
            raise ValueError(f"y has shape {y.shape}, expected {self.y.shape}")
        ds = copy.copy(self)
        ds.y = y
        return ds

    def _store(self, subject_ids, subjects, y, X, group_labels, groups) -> None:
        """Stack the rows subject by subject (see `from_codes`).

        The row arrays are fresh copies owned by this dataset and are frozen in place.
        """
        y = np.asarray(y, dtype=float)
        X = np.asarray(X, dtype=float)
        if y.ndim != 1:
            raise ValueError(f"y has shape {y.shape}, expected (n,)")
        n = y.shape[0]
        if n == 0:
            raise ValueError("dataset needs at least one subject")
        if X.ndim != 2 or X.shape[0] != n:
            raise ValueError(f"X has shape {X.shape}, expected ({n}, p)")
        subjects, groups = np.asarray(subjects, np.int64), np.asarray(groups, np.int64)
        if subjects.shape != (n,) or groups.shape != (n,):
            raise ValueError(
                f"{subjects.size} subject ids and {groups.size} group labels for {n} rows"
            )
        counts = np.bincount(subjects, minlength=len(subject_ids))
        if counts.size != len(subject_ids) or not counts.all():
            raise ValueError(f"subject codes must number each of the {len(subject_ids)} subjects")
        order = np.argsort(subjects, kind="stable")
        self.subject_ids = tuple(subject_ids)
        self.row_offsets = np.concatenate([[0], np.cumsum(counts)])
        self.subject_index = np.repeat(np.arange(len(self.subject_ids)), counts)
        self.y, self.X = y[order], X[order]
        for arr in (self.row_offsets, self.subject_index, self.y, self.X):
            arr.setflags(write=False)
        labels, merged = _first_appearance_codes(group_labels)
        codes = merged[groups[order]]
        self.group_labels = tuple(map(labels.__getitem__, codes.tolist()))
        sizes = np.bincount(codes, minlength=len(labels))
        rows = np.split(np.argsort(codes, kind="stable"), np.cumsum(sizes)[:-1])
        seen = sorted(np.flatnonzero(sizes).tolist(), key=lambda g: rows[g][0])  # by first row
        self.group_index = GroupIndex(
            group_ids=tuple(labels[g] for g in seen),
            indices={labels[g]: _frozen_array(rows[g], dtype=np.int64) for g in seen},
        )
        rank = np.empty(len(labels), dtype=np.int64)
        rank[seen] = np.arange(len(seen))
        self.group_codes, self.group_sizes = rank[codes], sizes[seen]
        self.group_X = code_sums(self.group_codes, self.X, len(seen)) / self.group_sizes[:, None]
        for arr in (self.group_codes, self.group_sizes, self.group_X):
            arr.setflags(write=False)

    @property
    def subjects(self) -> tuple[SubjectBlock, ...]:
        """Per-subject views of the stacked rows, built on each access."""
        bounds = self.row_offsets.tolist()
        return tuple(
            SubjectBlock(
                subject_id=sid,
                y=self.y[a:b],
                X=self.X[a:b],
                groups=self.group_labels[a:b],
            )
            for sid, a, b in zip(self.subject_ids, bounds, bounds[1:])
        )

    @property
    def n_subjects(self) -> int:
        return len(self.subject_ids)

    @property
    def n_obs(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def ybar(self, group_id: str) -> float:
        idx = self.group_index.indices[group_id]
        return float(np.mean(self.y[idx]))


def code_sums(codes: np.ndarray, values: np.ndarray, length: int, scale=None) -> np.ndarray:
    """Sums of `values`, (n,) or (n, m) a column at a time, each entry times
    scale[i] if given, over the entries i of each code 0..length-1."""
    if values.ndim == 2:
        return np.stack([code_sums(codes, col, length, scale) for col in values.T], axis=1)
    return np.bincount(codes, weights=values if scale is None else values * scale, minlength=length)


def _first_appearance_codes(keys) -> tuple[list, np.ndarray]:
    """Distinct keys in order of first appearance, and each key's position among them."""
    distinct = dict.fromkeys(keys)
    position = dict(zip(distinct, range(len(distinct))))
    return list(distinct), np.fromiter(map(position.__getitem__, keys), np.int64, len(keys))


@dataclass(frozen=True)
class ModelSpec:
    """Family plus covariate dimension; the link is canonical for the family."""

    family: Family
    p: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("covariate dimension p must be >= 1")


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Model parameters: fixed effects, random-intercept variance, NB size."""

    beta: np.ndarray
    sigma2: float
    kappa: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "beta", _frozen_array(self.beta))
        if self.sigma2 < 0:
            raise ValueError(f"sigma2 must be >= 0, got {self.sigma2}")
        if self.kappa is not None and self.kappa <= 0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")

    @property
    def p(self) -> int:
        return self.beta.shape[0]

    @property
    def sigma(self) -> float:
        return float(np.sqrt(self.sigma2))


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


def validate(dataset: Dataset, spec: ModelSpec) -> list[Violation]:
    """Check every dataset invariant; returns a (possibly empty) violation list."""
    violations: list[Violation] = []

    if dataset.p != spec.p:
        violations.append(
            Violation("dimension", f"dataset has p={dataset.p} covariates, spec declares p={spec.p}")
        )

    ops = family_ops(spec.family)
    if not (np.all(np.isfinite(dataset.y)) and ops.validate_response(dataset.y)):
        expected = "{0,1}" if spec.family is Family.LOGISTIC else "finite nonnegative integers"
        violations.append(
            Violation("response", f"{spec.family.value} family requires responses in {expected}")
        )

    if not np.all(np.isfinite(dataset.X)):
        violations.append(Violation("covariates", "covariate matrix contains non-finite entries"))
    else:
        sv = np.linalg.svd(dataset.X, compute_uv=False)
        rank = int(np.sum(sv > RANK_TOL * sv[0])) if sv.size else 0
        if rank < dataset.p:
            violations.append(
                Violation(
                    "rank",
                    f"covariate matrix has numerical rank {rank} < p={dataset.p} "
                    f"(tolerance {RANK_TOL:g} relative to the largest singular value)",
                )
            )

    gi, n = dataset.group_index, dataset.n_obs
    covered = np.concatenate([gi.indices[g] for g in gi.group_ids]) if gi.group_ids else np.array([])
    # n indices in 0..n-1 partition the rows exactly when each row is hit
    if (covered.size != n or covered.min() < 0 or covered.max() >= n
            or not np.bincount(covered, minlength=n).all()):
        violations.append(Violation("groups", "group index sets do not partition the observations"))

    return violations
