"""Finite ontological models: ontic spaces, epistemic states, responses.

A model is a triple (space, preparations, measurements):

  * the ontic space is an ordered list of named finite factors; its points
    are tuples of one label per factor, canonically ordered by factor
    position and then by declared label order (first factor slowest);
  * an epistemic state assigns an exact probability weight to each point,
    stored sparsely (absent means zero);
  * a response function family assigns each point a length-K outcome
    distribution, stored densely.

Constructors check shape only.  ResponseFunctions decides a whole table
at once and walks it point by point only to coerce values or name a
fault; EpistemicState tests each point with one index lookup.
OnticSpace.check_point names a point that is not in the space for both,
and for every lookup that takes a point.  The model loader checks each
point itself first, so that its error can name the line and column.
Validators return verdicts rather than raising, so a malformed model can
be loaded, inspected, and reported on.  The quantum side enters only as
data: check_born_agreement compares a model's predictions cell by cell
with target rows, one exact outcome distribution per preparation, such as
the Born rows of a quantum scenario.
"""

from __future__ import annotations

import math
import random
import re
import sys
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain
from operator import index

from .numerics import (
    ONE, QSqrt2, ZERO, as_qsqrt2, ceil_sqrt2, is_distribution, is_probability, qdot, qsum,
)
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
    be reported on).  A plain-tuple point of the space and a QSqrt2 value
    cost one index lookup and two type tests; any other key goes through
    check_point, which copies it to a plain tuple or names the first point
    that is not in the space, and any other value through as_qsqrt2.
    """

    _fields = ("space", "weights")

    def __init__(self, space: OnticSpace, weights: Mapping[Point, QSqrt2]) -> None:
        known = space._index
        cleaned: dict[Point, QSqrt2] = {}
        for point, value in weights.items():
            if type(point) is not tuple or point not in known:
                point = space.check_point(point)
            if type(value) is not QSqrt2:
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
        return qsum(self.weights.values())


class ResponseFunctions(Record):
    """A dense family of outcome distributions, one per point.

    ``rows`` maps every point of the space to a K-tuple; outcome k (1-based)
    of point p is rows[p][k-1].  ``filler`` records the default value used
    for unlisted entries in the text form, so dumps round-trip; it carries
    no semantic weight once rows are dense.

    Construction decides the whole mapping at once: its keys are exactly
    the space's points, as plain tuples, and every row is a tuple or list
    of K QSqrt2 values.  Any other mapping is walked point by point, which
    coerces int and Fraction values and names the first foreign point,
    wrong-length row or missing point.
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
        table = rows.values()
        if (
            set(map(type, rows)) == {tuple}
            and rows.keys() == space._index.keys()
            and set(map(type, table)) <= {tuple, list}
            and set(map(len, table)) == {outcome_count}
            and set(map(type, chain.from_iterable(table))) == {QSqrt2}
        ):
            dense = dict(zip(rows, map(tuple, table)))
        else:
            dense = {}
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
        total = qsum(row)
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
    weights = list(prep.weights.values())
    rows = [meas.rows[point] for point in prep.weights]
    return [qdot(weights, [row[i] for row in rows]) for i in range(meas.outcome_count)]


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
# exact cumulative weights become integer threshold lists, one for the
# support and one per support point, and a word picks bisect_right over its
# list: a zero-probability cell can never be selected.
#
# Most draws are decided by their words' top bytes (a guide table: Chen &
# Asau, AIIE Trans. 6 (1974); Devroye, Non-Uniform Random Variate
# Generation (1986), III.2).  Bucket b holds the words with top byte b.  A
# threshold cuts the buckets at t / 2^56: strictly inside a bucket, which it
# splits, unless t is a multiple of 2^56.  In a run of buckets that no
# threshold cuts, every word has the same bisect_right index in every list
# as the run's first word.  So per word one 256-entry table maps a top byte
# to the first bucket of its run, and another marks the split buckets.
#
# Words come up to _BLOCK draws at a time from one getrandbits(128 * n) call
# read little-endian, which on CPython gives the words of 2n successive
# getrandbits(64) calls: bytes 16i..16i+7 are draw i's first word, the next
# 8 its second.  bytes.translate maps each block's top bytes to runs and a
# Counter tallies the (first run, second run) pairs; a draw with a split
# bucket takes the two bisections on its full words instead.  At the end
# each unsplit pair takes them once, on its runs' first words.  The law, and
# so every count, is that of one pair of bisections per draw; the
# exact_counts oracle in tests/test_ontology.py, which draws with
# getrandbits(64), checks the word order on every Python version tested.
_DYADIC_BITS = 64
_BUCKET_SHIFT = _DYADIC_BITS - 8
_BUCKET_MASK = (1 << _BUCKET_SHIFT) - 1
_BLOCK = 4096


def _thresholds(weights: Iterable[QSqrt2]) -> list[int]:
    """ceil(c * 2^64) for each cumulative weight c, in order.

    The weights are summed once in integers over the lcm L of their
    denominators, so each running sum is (A + B*sqrt2)/L.
    """
    values = tuple(weights)
    den = math.lcm(*[v._d for v in values])
    a = b = 0
    thresholds: list[int] = []
    for v in values:
        scale = den // v._d
        a += v._a * scale
        b += v._b * scale
        thresholds.append(ceil_sqrt2(a << _DYADIC_BITS, b << _DYADIC_BITS, den))
    return thresholds


def _guide(lists: Iterable[Sequence[int]]) -> tuple[bytearray, bytearray]:
    """The guide and split tables of some threshold lists (see above).

    guide[b] is the first bucket of the run that holds bucket b; split[b]
    is 255 when a threshold lies strictly inside bucket b, else 0.
    """
    thresholds = set(chain.from_iterable(lists))
    inside = {t >> _BUCKET_SHIFT for t in thresholds if t & _BUCKET_MASK}
    edges = sorted({t >> _BUCKET_SHIFT for t in thresholds} | {b + 1 for b in inside} | {0, 256})
    guide = bytearray(256)
    for low, high in zip(edges, edges[1:]):
        guide[low:high] = bytes((low,)) * (high - low)
    split = bytearray(256)
    for b in inside:
        split[b] = 0xFF
    return guide, split


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
    point_guide, point_split = _guide([points])
    row_guide, row_split = _guide(rows)

    counts = [0] * meas.outcome_count
    pairs: Counter[int] = Counter()
    base, extra = divmod(samples, jobs)
    # Workers past the sample count draw nothing, so they are never seeded.
    for worker in range(min(jobs, samples)):
        left = base + (1 if worker < extra else 0)
        draw = _substream(seed, worker).getrandbits
        while left:
            n = min(left, _BLOCK)
            left -= n
            raw = draw(128 * n).to_bytes(16 * n, "little")
            first, second = raw[7::16], raw[15::16]
            keys = bytearray(2 * n)
            keys[0::2] = first.translate(point_guide)
            keys[1::2] = second.translate(row_guide)
            pairs.update(memoryview(keys).cast("H"))
            # A byte of the two split masks OR-ed is 255 exactly where either is.
            flags = int.from_bytes(first.translate(point_split), "little") | int.from_bytes(
                second.translate(row_split), "little"
            )
            for match in re.finditer(b"\xff", flags.to_bytes(n, "little")):
                i = 16 * match.start()
                row = rows[bisect_right(points, int.from_bytes(raw[i : i + 8], "little"))]
                counts[bisect_right(row, int.from_bytes(raw[i + 8 : i + 16], "little"))] += 1
    for key, count in pairs.items():
        # The cast read each pair of bytes in native order; this undoes it.
        first_run, second_run = key.to_bytes(2, sys.byteorder)
        if not (point_split[first_run] or row_split[second_run]):
            row = rows[bisect_right(points, first_run << _BUCKET_SHIFT)]
            counts[bisect_right(row, second_run << _BUCKET_SHIFT)] += count
    return counts
