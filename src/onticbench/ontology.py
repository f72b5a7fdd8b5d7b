"""Finite ontological models: ontic spaces, epistemic states, responses.

A model is a triple (space, preparations, measurements):

  * the ontic space is an ordered list of named finite factors; its points
    are tuples of one label per factor, canonically ordered by factor
    position and then by declared label order (first factor slowest);
  * an epistemic state assigns an exact probability weight to each point,
    stored sparsely (absent means zero);
  * a response function family assigns each point a length-K outcome
    distribution, stored densely.

Constructors check shape only, each record in one walk over its mapping:
EpistemicState and ResponseFunctions test each point with one index
lookup and each value with one type test.  OnticSpace.check_point says
why a point is not in the space, for both, for every lookup that takes a
point, and for the model loader, which adds the line and column to its
error.  Validators return verdicts rather than raising, so a malformed
model can be loaded, inspected, and reported on.  The quantum side enters
only as data: check_born_agreement compares a model's predictions cell
by cell with target rows, one exact outcome distribution per preparation,
such as the Born rows of a quantum scenario.
"""

from __future__ import annotations

import math
import random
import re
from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain, product
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
        points = tuple(product(*[f.labels for f in factors]))
        _set(self, "_points", points)
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
        """The point as a tuple; ValueError unless it belongs to this space.

        The error names a wrong coordinate count, or else the first factor
        that lacks its coordinate.
        """
        point = tuple(point)
        if point in self._index:
            return point
        if len(point) != len(self.factors):
            raise ValueError(
                f"point {format_point(point)} has {len(point)} coordinates, "
                f"space has {len(self.factors)}"
            )
        coord, factor = next((c, f) for c, f in zip(point, self.factors) if c not in f.labels)
        raise ValueError(f"factor {factor.name!r} has no label {coord!r}")

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

    Construction walks the mapping once, as EpistemicState does: any key
    but a plain-tuple point of the space goes through check_point, any row
    but a tuple is copied to one, and a row with a value that is not a
    QSqrt2 is rebuilt through as_qsqrt2 before its length is tested.  It
    names the first foreign point or wrong-length row in mapping order,
    then the first missing point in space order.
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
        known = space._index
        dense: dict[Point, tuple[QSqrt2, ...]] = {}
        for point, row in rows.items():
            if type(point) is not tuple or point not in known:
                point = space.check_point(point)
            if type(row) is not tuple:
                row = tuple(row)
            for value in row:
                if type(value) is not QSqrt2:
                    row = tuple(map(as_qsqrt2, row))
                    break
            if len(row) != outcome_count:
                raise ValueError(
                    f"row at {format_point(point)} has {len(row)} entries, "
                    f"expected {outcome_count}"
                )
            dense[point] = row
        if len(dense) != space.size:
            missing = next(p for p in space.points if p not in dense)
            raise ValueError(
                f"rows missing for {space.size - len(dense)} points, first {format_point(missing)}"
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
# to the number of its run, and every split bucket to the lane's mark, the
# number of runs: at most 255 whenever a bucket is split.
#
# Words come up to _BLOCK draws at a time from one getrandbits(128 * n) call
# read little-endian, which on CPython gives the words of 2n successive
# getrandbits(64) calls: bytes 16i..16i+7 are draw i's first word, the next
# 8 its second.
#
# A block is tallied one byte per draw, in one pass or more.  Call a lane's
# run numbers and its mark its ids: I for the first word and W for the
# second.  A draw with ids (i, j) gets the code i*W + j: two lane tables map
# a top byte to i*W and to j, and the two translated blocks, read as ints,
# are added once.  While I*W <= 256 no byte carries into the next and one
# pass takes every point id; otherwise each pass takes 256 // W - 1 of them,
# and the point ids of the other passes share the next block of W codes.  A
# 256-entry slot table maps each code to a slot of its outcome, decided once
# per call by the two bisections on its runs' first words; to 254 in that
# shared block, for the draws another pass counts; and to 255 for a code with
# a mark and for any outcome past a pass's 254th.  The codes are translated
# through it, one bytes.count per slot adds up an outcome, and each draw
# marked 255 takes the two bisections on its full words.  With W > 128 no
# point id fits beside the shared block, so one pass marks every draw 255.
#
# The law, and so every count, is that of one pair of bisections per draw;
# the exact_counts oracle in tests/test_ontology.py, which draws with
# getrandbits(64), checks the word order on every Python version tested.
# Exactness has a converse: a positive weight below 2^-64 can get a
# zero-width interval (its threshold equal to the one before it), and then
# it is never drawn; a weight of at least 2^-64 always spans a word.
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


def _guide(lists: Iterable[Sequence[int]]) -> tuple[list[int], bytearray]:
    """The runs of some threshold lists (see above): (starts, guide).

    starts[k] is the first bucket of run k, and guide[b] the number of the
    run that holds bucket b, or the mark len(starts) where a threshold lies
    strictly inside bucket b.
    """
    thresholds = set(chain.from_iterable(lists))
    inside = {t >> _BUCKET_SHIFT for t in thresholds if t & _BUCKET_MASK}
    edges = sorted({t >> _BUCKET_SHIFT for t in thresholds} | {b + 1 for b in inside} | {0, 256})
    starts: list[int] = []
    guide = bytearray(256)
    for low, high in zip(edges, edges[1:]):
        if low not in inside:
            guide[low:high] = bytes((len(starts),)) * (high - low)
            starts.append(low)
    for b in inside:
        guide[b] = len(starts)
    return starts, guide


def _ids(runs: tuple[list[int], bytearray]) -> int:
    """A lane's ids: its runs, and its mark where a bucket is split."""
    starts, guide = runs
    return len(starts) + (len(starts) < 256 and len(starts) in guide)


def _passes(
    points: list[int],
    rows: list[list[int]],
    point_runs: tuple[list[int], bytearray],
    row_runs: tuple[list[int], bytearray],
) -> list[tuple[bytes, bytearray, list[int]]]:
    """The tally's passes (see above), each (point lane, slots, outcomes),
    outcomes[s] being slot s's outcome index."""
    point_starts, point_guide = point_runs
    ids, width = _ids(point_runs), _ids(row_runs)
    if ids * width <= 256:
        step = ids
    elif width <= 128:
        step = 256 // width - 1
    else:
        return [(bytes(256), bytearray(b"\xff" * 256), [])]
    # Each row run: its number and its first word.
    row_keys = [(run, start << _BUCKET_SHIFT) for run, start in enumerate(row_runs[0])]
    passes = []
    for low in range(0, ids, step):
        taken = range(low, min(low + step, ids))
        slots = bytearray(b"\xff" * 256)
        slot_of: dict[int, int] = {}
        for base, point_id in zip(range(0, 256, width), taken):
            if point_id < len(point_starts):
                row = rows[bisect_right(points, point_starts[point_id] << _BUCKET_SHIFT)]
                for run, key in row_keys:
                    slots[base + run] = slot_of.setdefault(bisect_right(row, key), len(slot_of))
        if len(slot_of) > 254:
            # Only a lone pass has this many outcomes: bisect past its 254th.
            slots = slots.translate(bytes(range(254)) + b"\xff\xff")
        skip = len(taken) * width
        if step < ids:
            slots[skip : skip + width] = b"\xfe" * width
        lane = bytes((i - low) * width if i in taken else skip for i in range(ids))
        passes.append((point_guide.translate(lane.ljust(256, b"\0")), slots, list(slot_of)[:254]))
    return passes


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
    row_runs = _guide(rows)
    passes = _passes(points, rows, _guide([points]), row_runs)
    row_lane = row_runs[1]

    counts = [0] * meas.outcome_count
    base, extra = divmod(samples, jobs)
    # Workers past the sample count draw nothing, so they are never seeded.
    for worker in range(min(jobs, samples)):
        left = base + (1 if worker < extra else 0)
        draw = _substream(seed, worker).getrandbits
        while left:
            n = min(left, _BLOCK)
            left -= n
            raw = draw(128 * n).to_bytes(16 * n, "little")
            first = raw[7::16]
            row_codes = int.from_bytes(raw[15::16].translate(row_lane), "little")
            for point_lane, slots, outcomes in passes:
                codes = int.from_bytes(first.translate(point_lane), "little") + row_codes
                # Slot 255 marks the draws this pass bisects, 254 those another pass counts.
                marked = codes.to_bytes(n, "little").translate(slots)
                for slot, outcome in enumerate(outcomes):
                    counts[outcome] += marked.count(slot)
                for match in re.finditer(b"\xff", marked):
                    i = 16 * match.start()
                    row = rows[bisect_right(points, int.from_bytes(raw[i : i + 8], "little"))]
                    counts[bisect_right(row, int.from_bytes(raw[i + 8 : i + 16], "little"))] += 1
    return counts
