"""The text form of an ontological model.

A model file is line-oriented UTF-8.  A line ends at a newline (LF) and
nowhere else; a carriage return before it is dropped, so CRLF files load
too.  Blank lines separate sections; ``#`` starts a comment that runs to
the end of the line.  The header line names the format and its schema
version:

    onticbench-model 1

    space
      factor lambda1 HH HT TH TT
      factor lambda_s 1 2
    end

    preparation nu00
      (HH,HH,1) 1/4
    end

    measurement M
      outcomes 4
      filler 1/4
      1 (HH,HH,2) 1/2
    end

Points are comma-joined label tuples without spaces; probabilities use
the Q(sqrt2) text form (which never contains a comma, so the last field
may contain spaces, e.g. ``1/3 + sqrt2/7``), with at most 4300 digits in
a numeral (numerics.MAX_NUMERAL_DIGITS).  A preparation lists its nonzero
weights; a measurement lists ``outcome point value`` triples for every
entry that differs from its declared filler.  Fields are separated by any
run of whitespace; an error in a field names the column where the field
starts, counting a tab as one character.

dumps() is canonical: sections are ordered space, preparations (sorted by
label), measurements (sorted by label); points follow the canonical space
order, measurement entries are outcome-major; rationals are in lowest
terms.  loads(dumps(m)) reproduces the model and dumps(loads(text)) is
byte-identical for text that is already canonical.

loads() performs structural validation only (syntax, label references,
duplicates, size), so files describing non-normalized models load and can
be handed to the validators.  A measurement has at most one ``outcomes K``
and one ``filler`` line; a repeat is a ModelFormatError at the repeated
line.  A space may have at most MAX_POINTS points, and all measurements
together at most MAX_CELLS response cells (outcomes times points, summed
over the measurements); a larger space is a ModelFormatError at its
``space`` line, and the ``outcomes K`` line that takes the model past
MAX_CELLS is one at that line, each raised before anything is allocated.

Repeated content is cheap.  loads() parses each distinct point token,
value text and outcome numeral once per call and shares the result (a
padded model repeats a few values over many lines), so a line whose
tokens were all read before costs dict lookups only; a column is computed
only for an error.  ResponseFunctions checks a table in one walk, one
index lookup per point and one type test per value, and the validators
decide each row in integers (numerics.is_distribution), walking a row
value by value only to name the faults of one that fails.

read_model() is the one place a model file is opened and decoded: it
reads a path and hands the text to loads().  load_model() additionally
enforces semantic validity and is what the non-diagnostic commands use.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .numerics import QSqrt2, ZERO, is_count
from .ontology import (
    EpistemicState,
    Factor,
    OnticSpace,
    OntologicalModel,
    Point,
    ResponseFunctions,
    _check_token,
    format_point,
    validate_epistemic,
    validate_responses,
)

FORMAT_NAME = "onticbench-model"
SCHEMA_VERSION = 1
MAX_POINTS = 1 << 16  # points of the ontic space
MAX_CELLS = 1 << 18  # outcome count times points, summed over the measurements


class ModelFormatError(ValueError):
    """Structural problem in a model file, located by line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ModelValidationError(ValueError):
    """The file parsed, but the model it describes is semantically invalid."""


# One logical line: (line number, text, column).  The text is stripped of
# its comment and trimmed at both ends; the column is where it starts.
_Line = tuple[int, str, int]


def _logical_lines(text: str) -> list[_Line]:
    lines = []
    for number, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        if "#" in stripped:
            stripped = stripped.split("#", 1)[0].rstrip()
        if stripped:
            lines.append((number, stripped, len(raw) - len(raw.lstrip()) + 1))
    return lines


def _parse_point(
    token: str, space: OnticSpace, points: dict[str, Point], line: int, text: str, col: int,
    after: int = 0,
) -> Point:
    """The point a first-seen token names, stored in ``points``.

    ``token`` is the first field of the line ``text`` (starting at column
    ``col``) at or after offset ``after``; the column is computed only to
    name a bad token, whose fault ``OnticSpace.check_point`` words.
    """
    if token.startswith("(") and token.endswith(")"):
        try:
            labels = space.check_point(token[1:-1].split(","))
        except ValueError as err:
            message = str(err)
        else:
            points[token] = labels
            return labels
    else:
        message = f"expected a point like (a,b), got {token!r}"
    raise ModelFormatError(message, line, col + text.index(token, after))


# A count with more digits than MAX_CELLS, once its leading zeros are
# stripped, exceeds every count a model holds.  Such a token is refused
# unconverted: int() would refuse a long one with an unlocated message.
_COUNT_DIGITS = len(str(MAX_CELLS))


def _parse_value(
    value: str, values: dict[str, QSqrt2], line: int, text: str, col: int
) -> QSqrt2:
    """The value of a first-seen value text, stored in ``values``.

    ``value`` is the last field of the line ``text``, which starts at
    column ``col``.
    """
    try:
        parsed = QSqrt2.parse(value)
    except ValueError as exc:
        raise ModelFormatError(str(exc), line, col + len(text) - len(value)) from None
    values[value] = parsed
    return parsed


# Section parsers: each reads the lines between a header and its 'end'.
# loads() gives each section kind one branch (header, parser, 'end',
# object), so an entry error is reported before a missing 'end'.
# ``points`` and ``values`` hold what one loads() call has parsed, keyed
# by text, and a measurement keeps its outcome numerals the same way: each
# field is looked up there first, so a line whose tokens were all read
# before costs dict hits.  Only a miss is parsed and checked; the first
# fault ends the call with its own line and column, and only a token that
# parsed is stored.  Sharing a parsed value is safe: QSqrt2 is immutable.


def _space_entries(body: Sequence[_Line]) -> list[Factor]:
    factors: dict[str, Factor] = {}
    for line, text, _ in body:
        parts = text.split()
        if parts[0] != "factor" or len(parts) < 3:
            raise ModelFormatError("expected 'factor NAME LABEL...' or 'end'", line)
        if parts[1] in factors:
            raise ModelFormatError(f"duplicate factor {parts[1]!r}", line)
        try:
            factors[parts[1]] = Factor(parts[1], tuple(parts[2:]))
        except ValueError as exc:
            raise ModelFormatError(str(exc), line) from None
    return list(factors.values())


def _preparation_entries(
    body: Sequence[_Line], space: OnticSpace, points: dict[str, Point], values: dict[str, QSqrt2]
) -> dict[Point, QSqrt2]:
    weights: dict[Point, QSqrt2] = {}
    for line, text, col in body:
        parts = text.split(None, 1)
        if len(parts) != 2:
            raise ModelFormatError("expected 'POINT VALUE'", line, col)
        point = points.get(parts[0]) or _parse_point(parts[0], space, points, line, text, col)
        if point in weights:
            raise ModelFormatError(f"duplicate point {format_point(point)}", line, col)
        value = values.get(parts[1])
        weights[point] = (
            value if value is not None else _parse_value(parts[1], values, line, text, col)
        )
    return weights


def _measurement_entries(
    body: Sequence[_Line],
    space: OnticSpace,
    points: dict[str, Point],
    values: dict[str, QSqrt2],
    cells: int,
):
    """(outcome count or None, filler, {point: row}).

    A row is a K-list for each point an entry names, with None in the cells
    no entry sets.  ``cells`` counts the response cells of the earlier
    measurements; an ``outcomes K`` line that takes the model past
    MAX_CELLS is an error, raised before any row is allocated.
    """
    outcome_count: int | None = None
    filler = ZERO
    rows: dict[Point, list[QSqrt2 | None]] = {}
    numerals: dict[str, int] = {}  # outcome token -> outcome, once it passed
    seen = set()  # 'outcomes' and 'filler' come at most once
    for line, text, col in body:
        parts = text.split(None, 2)
        outcome = numerals.get(parts[0]) if len(parts) == 3 else None
        if outcome is None:
            if parts[0] in ("outcomes", "filler"):
                if parts[0] in seen:
                    raise ModelFormatError(f"duplicate {parts[0]!r} line", line, col)
                seen.add(parts[0])
            if parts[0] == "outcomes":
                digits = parts[1].lstrip("0") if len(parts) == 2 and is_count(parts[1]) else ""
                if not digits:
                    raise ModelFormatError("expected 'outcomes K'", line, col)
                if len(digits) > _COUNT_DIGITS:
                    raise ModelFormatError(
                        f"an outcome count of {len(digits)} digits makes more than "
                        f"{MAX_CELLS} response cells in the model",
                        line,
                        col,
                    )
                outcome_count = int(digits)
                if cells + outcome_count * space.size > MAX_CELLS:
                    raise ModelFormatError(
                        f"{outcome_count} outcomes at {space.size} points make more than "
                        f"{MAX_CELLS} response cells in the model "
                        f"({cells} in earlier measurements)",
                        line,
                        col,
                    )
                continue
            if parts[0] == "filler":
                if len(parts) < 2:
                    raise ModelFormatError("expected 'filler VALUE'", line, col)
                value = text.split(None, 1)[1]
                filler = values.get(value)
                if filler is None:
                    filler = _parse_value(value, values, line, text, col)
                continue
            if outcome_count is None:
                raise ModelFormatError("'outcomes K' must precede entries", line, col)
            if len(parts) != 3:
                raise ModelFormatError("expected 'OUTCOME POINT VALUE'", line, col)
            if not is_count(parts[0]):
                raise ModelFormatError(
                    f"expected an outcome number, got {parts[0]!r}", line, col
                )
            digits = parts[0].lstrip("0")
            if len(digits) > _COUNT_DIGITS:
                raise ModelFormatError(
                    f"outcome number of {len(digits)} digits out of range 1..{outcome_count}",
                    line,
                    col,
                )
            outcome = int(digits or "0")
            if not 1 <= outcome <= outcome_count:
                raise ModelFormatError(
                    f"outcome {outcome} out of range 1..{outcome_count}", line, col
                )
            numerals[parts[0]] = outcome
        point = points.get(parts[1]) or _parse_point(
            parts[1], space, points, line, text, col, len(parts[0])
        )
        row = rows.get(point)
        if row is None:
            row = rows[point] = [None] * outcome_count
        elif row[outcome - 1] is not None:
            raise ModelFormatError(
                f"duplicate entry for outcome {outcome} at {format_point(point)}",
                line,
                col,
            )
        value = values.get(parts[2])
        row[outcome - 1] = (
            value if value is not None else _parse_value(parts[2], values, line, text, col)
        )
    return outcome_count, filler, rows


def _section_label(kind: str, args: list[str], space, seen: dict, line: int) -> str:
    """The label of a preparation or measurement header, checked."""
    if space is None:
        raise ModelFormatError("space section must come first", line)
    if len(args) != 1:
        raise ModelFormatError(f"expected '{kind} LABEL'", line)
    try:
        _check_token(args[0], f"{kind} label")
    except ValueError as exc:
        raise ModelFormatError(str(exc), line) from None
    if args[0] in seen:
        raise ModelFormatError(f"duplicate {kind} {args[0]!r}", line)
    return args[0]


def loads(text: str) -> OntologicalModel:
    """Parse a model file; structural errors raise ModelFormatError."""
    lines = _logical_lines(text)
    if not lines:
        raise ModelFormatError("empty model file", 1)
    line, head, _ = lines[0]
    header = head.split()
    if len(header) != 2 or header[0] != FORMAT_NAME:
        raise ModelFormatError(f"expected header '{FORMAT_NAME} {SCHEMA_VERSION}'", line)
    if header[1] != str(SCHEMA_VERSION):
        raise ModelFormatError(f"unsupported schema version {header[1]}", line)

    space: OnticSpace | None = None
    preparations: dict[str, EpistemicState] = {}
    measurements: dict[str, ResponseFunctions] = {}
    points: dict[str, Point] = {}
    values: dict[str, QSqrt2] = {}
    cells = 0  # response cells of the measurements so far
    # A section ends at the next line that reads just "end"; one that never
    # does lands on the sentinel at len(lines).
    texts = [head for _, head, _ in lines] + ["end"]
    i = 1
    while i < len(lines):
        line, head, _ = lines[i]
        kind, *args = head.split()
        end = texts.index("end", i + 1)
        body = lines[i + 1:end]
        if kind == "space":
            if args:
                raise ModelFormatError("'space' takes no arguments", line)
            if space is not None:
                raise ModelFormatError("duplicate space section", line)
            factors = _space_entries(body)
            if end == len(lines):
                raise ModelFormatError(f"unterminated {kind} section", line)
            if math.prod(len(f.labels) for f in factors) > MAX_POINTS:
                raise ModelFormatError(f"space has more than {MAX_POINTS} points", line)
            try:
                space = OnticSpace(tuple(factors))
            except ValueError as exc:
                raise ModelFormatError(str(exc), line) from None
        elif kind == "preparation":
            label = _section_label(kind, args, space, preparations, line)
            weights = _preparation_entries(body, space, points, values)
            if end == len(lines):
                raise ModelFormatError(f"unterminated {kind} section", line)
            preparations[label] = EpistemicState(space, weights)
        elif kind == "measurement":
            label = _section_label(kind, args, space, measurements, line)
            outcomes, filler, entries = _measurement_entries(body, space, points, values, cells)
            if end == len(lines):
                raise ModelFormatError(f"unterminated {kind} section", line)
            if outcomes is None:
                raise ModelFormatError(f"measurement {label!r} declares no outcome count", line)
            # The filler line may follow the entries, so unset cells are
            # filled only now; points no entry names share one row.
            rows = dict.fromkeys(space.points, (filler,) * outcomes)
            for point, row in entries.items():
                rows[point] = tuple([filler if v is None else v for v in row])
            measurements[label] = ResponseFunctions(space, outcomes, rows, filler)
            cells += outcomes * space.size
        else:
            raise ModelFormatError(
                f"expected 'space', 'preparation', or 'measurement', got {kind!r}",
                line,
            )
        i = end + 1

    if space is None:
        raise ModelFormatError("model file has no space section", lines[-1][0])
    return OntologicalModel(space, preparations, measurements)


def dumps(model: OntologicalModel) -> str:
    """Render the canonical text form (see the module docstring)."""
    out: list[str] = [f"{FORMAT_NAME} {SCHEMA_VERSION}", ""]
    out.append("space")
    for factor in model.space.factors:
        out.append("  factor " + factor.name + " " + " ".join(factor.labels))
    out.append("end")
    for label in sorted(model.preparations):
        state = model.preparations[label]
        out.append("")
        out.append(f"preparation {label}")
        for point in state.support():
            out.append(f"  {format_point(point)} {state.weights[point]}")
        out.append("end")
    for label in sorted(model.measurements):
        meas = model.measurements[label]
        out.append("")
        out.append(f"measurement {label}")
        out.append(f"  outcomes {meas.outcome_count}")
        out.append(f"  filler {meas.filler}")
        for k in range(1, meas.outcome_count + 1):
            for point in meas.space.points:
                value = meas.rows[point][k - 1]
                if value != meas.filler:
                    out.append(f"  {k} {format_point(point)} {value}")
        out.append("end")
    return "\n".join(out) + "\n"


def validate_model(model: OntologicalModel) -> dict[str, object]:
    """All semantic verdicts, keyed 'preparation LABEL' / 'measurement LABEL'."""
    verdicts = {}
    for label in sorted(model.preparations):
        verdicts[f"preparation {label}"] = validate_epistemic(model.preparations[label])
    for label in sorted(model.measurements):
        verdicts[f"measurement {label}"] = validate_responses(model.measurements[label])
    return verdicts


def read_model(path: str) -> OntologicalModel:
    """Read, decode, and parse a model file; structural checks only."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Everything before exc.start decoded, so the column counts characters.
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        raise ModelFormatError(
            f"not UTF-8 text: {exc.reason}",
            data.count(b"\n", 0, exc.start) + 1,
            len(data[line_start:exc.start].decode("utf-8")) + 1,
        ) from None
    return loads(text)


def load_model(path: str) -> OntologicalModel:
    """Read, parse, and fully validate a model file."""
    model = read_model(path)
    for name, verdict in validate_model(model).items():
        if not verdict.ok:
            raise ModelValidationError(f"{name}: {verdict.failures[0]}")
    return model

