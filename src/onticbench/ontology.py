"""Finite ontological models: ontic spaces, epistemic states, responses.

A model is a triple (space, preparations, measurements):

  * the ontic space is an ordered list of named finite factors; its points
    are tuples of one label per factor, canonically ordered by factor
    position and then by declared label order (first factor slowest);
  * an epistemic state assigns an exact probability weight to each point,
    stored sparsely (absent means zero);
  * a response function family assigns each point a length-K outcome
    distribution, stored densely.

Constructors check shape only.  OnticSpace.check_point is the one
point-membership check, used by every constructor and lookup that takes a
point.  Validators return verdicts rather than raising, so a malformed
model can be loaded, inspected, and reported on.  The quantum side enters
only as data: check_born_agreement compares a model's predictions cell by
cell with target rows, one exact outcome distribution per preparation,
such as the Born rows of a quantum scenario.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence
from operator import index

from .numerics import ONE, QSqrt2, ZERO, as_qsqrt2, is_distribution, is_probability
from .verdicts import Record, Verdict, _set

Point = tuple[str, ...]


def format_point(point: Point) -> str:
    return "(" + ",".join(point) + ")"


class Factor(Record):
    """One named coordinate of the ontic space, with its label order."""

    _fields = ("name", "labels")

    def __init__(self, name: str, labels: Sequence[str]) -> None:
        labels = tuple(labels)
        _set(self, "name", name)
        _set(self, "labels", labels)
        _check_token(name, "factor name")
        if not labels:
            raise ValueError(f"factor {name!r} has no labels")
        for label in labels:
            _check_token(label, f"label of factor {name!r}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"factor {name!r} has duplicate labels")


def _check_token(token: str, what: str) -> None:
    if not token or any(c.isspace() for c in token) or any(c in "(),#" for c in token):
        raise ValueError(f"bad {what}: {token!r} (tokens must be non-empty, "
                         "without whitespace or '(', ')', ',', '#')")


class OnticSpace(Record):
    """The product of its factors' labels.

    The points and the index from point to position are built once here;
    they take no part in equality, hashing or repr.
    """

    _fields = ("factors",)

    def __init__(self, factors: Sequence[Factor]) -> None:
        factors = tuple(factors)
        _set(self, "factors", factors)
        if not factors:
            raise ValueError("an ontic space needs at least one factor")
        names = [f.name for f in factors]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate factor names: {names}")
        points: list[Point] = [()]
        for factor in factors:
            points = [p + (label,) for p in points for label in factor.labels]
        _set(self, "_points", tuple(points))
        _set(self, "_index", {p: i for i, p in enumerate(points)})

    @property
    def points(self) -> tuple[Point, ...]:
        """All points in canonical order (first factor varies slowest)."""
        return self._points

    @property
    def size(self) -> int:
        return len(self._points)

    @property
    def factor_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.factors)

    def check_point(self, point: Sequence[str]) -> Point:
        """The point as a tuple; ValueError unless it belongs to this space."""
        point = tuple(point)
        if point not in self._index:
            raise ValueError(f"point {format_point(point)} is not in the space")
        return point

    def point_index(self, point: Point) -> int:
        return self._index[self.check_point(point)]

    def subspace(self, names: Sequence[str]) -> "OnticSpace":
        """The space of the named factors, kept in this space's order."""
        wanted = set(names)
        missing = wanted - set(self.factor_names)
        if missing:
            raise ValueError(f"unknown factors: {sorted(missing)}")
        kept = tuple(f for f in self.factors if f.name in wanted)
        return OnticSpace(kept)


class EpistemicState(Record):
    """A sparsely stored exact distribution over the points of a space.

    Construction checks that every point belongs to the space and drops
    exact zeros; it does not insist on normalization, which is the job of
    validate_epistemic (invalid states must be representable so they can
    be reported on).
    """

    _fields = ("space", "weights")

    def __init__(self, space: OnticSpace, weights: Mapping[Point, QSqrt2]) -> None:
        cleaned: dict[Point, QSqrt2] = {}
        for point, value in weights.items():
            point = space.check_point(point)
            value = as_qsqrt2(value)
            if value:
                cleaned[point] = value
        _set(self, "space", space)
        _set(self, "weights", cleaned)

    def weight(self, point: Point) -> QSqrt2:
        return self.weights.get(self.space.check_point(point), ZERO)

    def support(self) -> tuple[Point, ...]:
        """Support points in canonical space order."""
        return tuple(p for p in self.space.points if p in self.weights)

    def total(self) -> QSqrt2:
        total = ZERO
        for value in self.weights.values():
            total = total + value
        return total


class ResponseFunctions(Record):
    """A dense family of outcome distributions, one per point.

    ``rows`` maps every point of the space to a K-tuple; outcome k (1-based)
    of point p is rows[p][k-1].  ``filler`` records the default value used
    for unlisted entries in the text form, so dumps round-trip; it carries
    no semantic weight once rows are dense.
    """

    _fields = ("space", "outcome_count", "rows", "filler")
    _compared = ("space", "outcome_count", "rows")

    def __init__(
        self,
        space: OnticSpace,
        outcome_count: int,
        rows: Mapping[Point, Sequence[QSqrt2]],
        filler: QSqrt2 = ZERO,
    ) -> None:
        outcome_count = index(outcome_count)
        if outcome_count < 1:
            raise ValueError("a measurement needs at least one outcome")
        filler = as_qsqrt2(filler)
        dense: dict[Point, tuple[QSqrt2, ...]] = {}
        for point, row in rows.items():
            point = space.check_point(point)
            row = tuple(as_qsqrt2(v) for v in row)
            if len(row) != outcome_count:
                raise ValueError(
                    f"row at {format_point(point)} has {len(row)} entries, "
                    f"expected {outcome_count}"
                )
            dense[point] = row
        missing = [p for p in space.points if p not in dense]
        if missing:
            raise ValueError(
                f"rows missing for {len(missing)} points, first {format_point(missing[0])}"
            )
        _set(self, "space", space)
        _set(self, "outcome_count", outcome_count)
        _set(self, "rows", dense)
        _set(self, "filler", filler)


class OntologicalModel(Record):
    _fields = ("space", "preparations", "measurements")

    def __init__(
        self,
        space: OnticSpace,
        preparations: Mapping[str, EpistemicState],
        measurements: Mapping[str, ResponseFunctions],
    ) -> None:
        preparations = dict(preparations)
        measurements = dict(measurements)
        _set(self, "space", space)
        _set(self, "preparations", preparations)
        _set(self, "measurements", measurements)
        for label, prep in preparations.items():
            _check_token(label, "preparation label")
            if prep.space != space:
                raise ValueError(f"preparation {label!r} lives on a different space")
        for label, meas in measurements.items():
            _check_token(label, "measurement label")
            if meas.space != space:
                raise ValueError(f"measurement {label!r} lives on a different space")

    def preparation(self, label: str) -> EpistemicState:
        try:
            return self.preparations[label]
        except KeyError:
            raise ValueError(
                f"unknown preparation {label!r}; have {sorted(self.preparations)}"
            ) from None

    def measurement(self, label: str) -> ResponseFunctions:
        try:
            return self.measurements[label]
        except KeyError:
            raise ValueError(
                f"unknown measurement {label!r}; have {sorted(self.measurements)}"
            ) from None


# ---- validators ----------------------------------------------------------


# Each validator first decides in integers (numerics.is_distribution); only
# a state or row that fails it is walked value by value to name its faults.


def validate_epistemic(state: EpistemicState) -> Verdict:
    """Weights all in [0, 1] and summing to exactly one."""
    if is_distribution(state.weights.values()):
        return Verdict(True)
    failures: list[str] = []
    witnesses: list[Point] = []
    for point in state.support():
        value = state.weights[point]
        if not is_probability(value):
            failures.append(f"weight {value} at {format_point(point)} is outside [0, 1]")
            witnesses.append(point)
    total = state.total()
    if total != ONE:
        failures.append(f"weights sum to {total}, deficit {ONE - total}")
    return Verdict(not failures, tuple(failures), tuple(witnesses))


def validate_responses(responses: ResponseFunctions) -> Verdict:
    """Each point's row lies in [0, 1]^K and sums to exactly one."""
    failures: list[str] = []
    witnesses: list[Point] = []
    for point in responses.space.points:
        row = responses.rows[point]
        if is_distribution(row):
            continue
        bad = False
        for k, value in enumerate(row, start=1):
            if not is_probability(value):
                failures.append(
                    f"response for outcome {k} at {format_point(point)} is {value}, outside [0, 1]"
                )
                bad = True
        total = ZERO
        for value in row:
            total = total + value
        if total != ONE:
            failures.append(f"responses at {format_point(point)} sum to {total}, not 1")
            bad = True
        if bad:
            witnesses.append(point)
    return Verdict(not failures, tuple(failures), tuple(witnesses))


# ---- predictions ----------------------------------------------------------


def predicted_statistics(
    model: OntologicalModel, prep_label: str, meas_label: str
) -> list[QSqrt2]:
    """Law of total probability: p(k) = sum_p mu(p) * xi_k(p), exactly."""
    prep = model.preparation(prep_label)
    meas = model.measurement(meas_label)
    totals = [ZERO] * meas.outcome_count
    for point, weight in prep.weights.items():
        row = meas.rows[point]
        for i in range(meas.outcome_count):
            totals[i] = totals[i] + weight * row[i]
    return totals


class PredictionCell(Record):
    _fields = ("prep_label", "meas_label", "outcome", "predicted", "target")

    def __init__(
        self, prep_label: str, meas_label: str, outcome: int, predicted: QSqrt2, target: QSqrt2
    ) -> None:
        _set(self, "prep_label", prep_label)
        _set(self, "meas_label", meas_label)
        _set(self, "outcome", outcome)  # 1-based
        _set(self, "predicted", predicted)
        _set(self, "target", target)

    @property
    def match(self) -> bool:
        return self.predicted == self.target


class PredictionReport(Record):
    _fields = ("cells",)

    def __init__(self, cells: tuple[PredictionCell, ...]) -> None:
        _set(self, "cells", cells)

    @property
    def all_match(self) -> bool:
        return all(cell.match for cell in self.cells)

    def to_dict(self) -> dict:
        return {
            "all_match": self.all_match,
            "cells": [
                {
                    "prep": c.prep_label,
                    "meas": c.meas_label,
                    "outcome": c.outcome,
                    "predicted": str(c.predicted),
                    "target": str(c.target),
                    "match": c.match,
                }
                for c in self.cells
            ],
        }


def check_born_agreement(
    model: OntologicalModel, meas_label: str, targets: Mapping[str, Sequence[QSqrt2]]
) -> PredictionReport:
    """Compare model predictions with target rows, cell by cell.

    targets maps each preparation label to the outcome distribution it must
    reproduce under measurement meas_label, such as a row of Born
    probabilities.  Every (preparation, outcome) cell is compared exactly.
    """
    meas = model.measurement(meas_label)
    cells: list[PredictionCell] = []
    for prep_label, row in targets.items():
        if len(row) != meas.outcome_count:
            raise ValueError(
                f"measurement {meas_label!r} has {meas.outcome_count} outcomes, "
                f"the target row for {prep_label!r} has {len(row)}"
            )
        predicted = predicted_statistics(model, prep_label, meas_label)
        for k, (p, t) in enumerate(zip(predicted, row), start=1):
            cells.append(PredictionCell(prep_label, meas_label, k, p, t))
    return PredictionReport(tuple(cells))


# ---- sampling --------------------------------------------------------------

# Each draw reads two 64-bit words r as dyadics u = r / 2^64: the first picks
# a support point, the second that point's outcome, each as the first index
# with u < cdf.  For an integer r, r / 2^64 < c holds exactly when
# r < ceil(c * 2^64), rational or irrational c alike, so before any draw the
# exact cumulative weights become integer threshold lists, one for the support
# and one per support point, and each word is one bisect_right over a plain
# list: a zero-probability cell can never be selected.
_DYADIC_BITS = 64
_DYADIC_DEN = 1 << _DYADIC_BITS


def _thresholds(weights: Iterable[QSqrt2]) -> list[int]:
    """ceil(c * 2^64) for each cumulative weight c, in order."""
    thresholds: list[int] = []
    running = ZERO
    for w in weights:
        running = running + w
        thresholds.append(math.ceil(running * _DYADIC_DEN))
    return thresholds


def _substream(seed: int, worker: int) -> random.Random:
    # Worker sub-streams are keyed by the string "seed:worker"; string
    # seeding hashes via SHA-512, stable across platforms and runs.
    return random.Random(f"{seed}:{worker}")


def simulate(
    model: OntologicalModel,
    prep_label: str,
    meas_label: str,
    samples: int,
    seed: int,
    jobs: int = 1,
) -> list[int]:
    """Draw exact samples, returning outcome counts (index k-1 = outcome k).

    Reproducible bit for bit given (samples, seed, jobs): the sample count
    is split evenly across ``jobs`` worker sub-streams (worker w uses the
    generator seeded with "seed:w"), and counts are summed.
    """
    if samples < 0:
        raise ValueError("sample count must be nonnegative")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    prep = model.preparation(prep_label)
    meas = model.measurement(meas_label)
    verdict = validate_epistemic(prep)
    if not verdict.ok:
        raise ValueError(f"preparation {prep_label!r} is invalid: {verdict.failures[0]}")
    verdict = validate_responses(meas)
    if not verdict.ok:
        raise ValueError(f"measurement {meas_label!r} is invalid: {verdict.failures[0]}")

    support = prep.support()
    points = _thresholds(prep.weights[p] for p in support)
    rows = [_thresholds(meas.rows[p]) for p in support]

    counts = [0] * meas.outcome_count
    base, extra = divmod(samples, jobs)
    # Workers past the sample count draw nothing, so they are never seeded.
    for worker in range(min(jobs, samples)):
        chunk = base + (1 if worker < extra else 0)
        draw = _substream(seed, worker).getrandbits
        for _ in range(chunk):
            row = rows[bisect_right(points, draw(_DYADIC_BITS))]
            counts[bisect_right(row, draw(_DYADIC_BITS))] += 1
    return counts
