"""Core data model: subject blocks, stacked dataset views, and validation.

A Dataset is a list of per-subject blocks (responses, covariate rows, row
weights, one group label per row).  All containers are immutable after
construction; numpy arrays are frozen so instances can be shared across
threads.  Statistical invariants (response domain, full column rank,
group partition) are checked by `validate`, not by the constructors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .families import Family, family_ops, stable_expit

RANK_TOL = 1e-10  # relative to the largest singular value


def _frozen_array(values, dtype=float, ndim=1) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SubjectBlock:
    """Observations of one subject: y (n_i,), X (n_i, p), groups (n_i,)."""

    subject_id: str
    y: np.ndarray
    X: np.ndarray
    groups: tuple[str, ...]
    weights: np.ndarray | None = None

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
        w = np.ones(n) if self.weights is None else np.asarray(self.weights, dtype=float)
        if w.shape != (n,):
            raise ValueError(f"subject {self.subject_id!r}: weight vector has shape {w.shape}")
        object.__setattr__(self, "weights", _frozen_array(w))

    @property
    def n_obs(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True, eq=False)
class GroupIndex:
    """Observation indices per group id; index sets partition 0..N-1."""

    group_ids: tuple[str, ...]
    indices: dict[str, np.ndarray]

    def size(self, group_id: str) -> int:
        return int(self.indices[group_id].shape[0])

    @property
    def sizes(self) -> dict[str, int]:
        return {g: self.size(g) for g in self.group_ids}

    def __contains__(self, group_id: str) -> bool:
        return group_id in self.indices


class Dataset:
    """Immutable collection of subject blocks plus stacked row views.

    Rows are stacked subject by subject in input order, so each subject's
    observations occupy a contiguous slice `[row_offsets[i], row_offsets[i+1])`.
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
        self._subjects = subjects

    @property
    def subjects(self) -> tuple[SubjectBlock, ...]:
        return self._subjects

    @property
    def n_subjects(self) -> int:
        return len(self._subjects)

    @property
    def n_obs(self) -> int:
        return int(self.row_offsets[-1])

    @property
    def p(self) -> int:
        return self._subjects[0].X.shape[1]

    @cached_property
    def row_offsets(self) -> np.ndarray:
        counts = np.array([s.n_obs for s in self._subjects], dtype=np.int64)
        return _frozen_array(np.concatenate([[0], np.cumsum(counts)]), dtype=np.int64)

    @cached_property
    def y(self) -> np.ndarray:
        return _frozen_array(np.concatenate([s.y for s in self._subjects]))

    @cached_property
    def X(self) -> np.ndarray:
        return _frozen_array(np.vstack([s.X for s in self._subjects]), ndim=2)

    @cached_property
    def weights(self) -> np.ndarray:
        return _frozen_array(np.concatenate([s.weights for s in self._subjects]))

    @cached_property
    def subject_index(self) -> np.ndarray:
        idx = np.concatenate(
            [np.full(s.n_obs, i, dtype=np.int64) for i, s in enumerate(self._subjects)]
        )
        return _frozen_array(idx, dtype=np.int64)

    @cached_property
    def group_labels(self) -> tuple[str, ...]:
        labels: list[str] = []
        for s in self._subjects:
            labels.extend(s.groups)
        return tuple(labels)

    @cached_property
    def group_index(self) -> GroupIndex:
        order: list[str] = []
        buckets: dict[str, list[int]] = {}
        for i, g in enumerate(self.group_labels):
            if g not in buckets:
                buckets[g] = []
                order.append(g)
            buckets[g].append(i)
        indices = {g: _frozen_array(buckets[g], dtype=np.int64) for g in order}
        return GroupIndex(group_ids=tuple(order), indices=indices)

    @cached_property
    def subject_ids(self) -> tuple[str, ...]:
        return tuple(s.subject_id for s in self._subjects)

    @cached_property
    def subject_position(self) -> dict[str, int]:
        return {s.subject_id: i for i, s in enumerate(self._subjects)}

    def ybar(self, group_id: str) -> float:
        idx = self.group_index.indices[group_id]
        return float(np.mean(self.y[idx]))


@dataclass(frozen=True)
class ModelSpec:
    """Family plus covariate dimension; the link is canonical for the family."""

    family: Family
    p: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("covariate dimension p must be >= 1")

    @property
    def link(self) -> str:
        return self.family.link_name


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Model parameters: fixed effects, random-intercept variance, NB size."""

    beta: np.ndarray
    sigma2: float
    kappa: float | None = None
    sigma0_2: float = 1.0

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


def linear_predictor(params: ParamVector, x, b: float) -> float:
    """x'beta + b for a single covariate vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (params.p,):
        raise ValueError(f"covariate vector has shape {x.shape}, expected ({params.p},)")
    return float(x @ params.beta + b)


def inverse_link(family: Family, eta):
    """Canonical inverse link; logistic saturates gracefully for extreme eta."""
    if family is Family.LOGISTIC:
        return stable_expit(eta)
    out = np.exp(np.asarray(eta, dtype=float))
    return out if out.ndim else float(out)


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

    if not np.all(np.isfinite(dataset.weights) & (dataset.weights > 0)):
        violations.append(Violation("weights", "observation weights must be finite and positive"))

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

    gi = dataset.group_index
    covered = np.concatenate([gi.indices[g] for g in gi.group_ids]) if gi.group_ids else np.array([])
    if covered.size != dataset.n_obs or np.unique(covered).size != dataset.n_obs:
        violations.append(Violation("groups", "group index sets do not partition the observations"))

    return violations
