"""One codec for every tabular artifact and every JSON input.

A :class:`Table` lists a row type's columns once, each with a :class:`Cell`
that turns a value into a CSV cell or JSON value and back. Every CSV the
package writes goes through :func:`write_rows` (standard quoting, ``\\n``
line ends, optional trailing ``# note`` lines) and every CSV it reads goes
through :func:`read_rows` or :func:`read_csv`, so whatever one subcommand
writes, another reads back cell for cell.

A cell's ``load`` is also the one type rule for the JSON input files, whose
fields :func:`load_fields` checks: a boolean is not a number, a float is finite.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Sequence


def _same(value):
    return value


@dataclass(frozen=True)
class Cell:
    """How one column's values are written to and read from CSV and JSON."""

    fmt: Callable[[Any], str]  # value -> CSV cell
    parse: Callable[[str], Any]  # CSV cell -> value
    load: Callable[[Any], Any]  # JSON value -> value
    dump: Callable[[Any], Any] = _same  # value -> JSON value
    nullable: bool = False


def _typed(kinds, name: str, convert: Callable = _same) -> Callable[[Any], Any]:
    """A JSON value -> value rule: one of ``kinds``, and a boolean only when they are ``bool``."""

    def load(value):
        if isinstance(value, bool) != (kinds is bool) or not isinstance(value, kinds):
            raise ValueError(f"expected {name}, got {json.dumps(value)}")
        return convert(value)

    return load


def _finite(value) -> float:  # value: CSV text or a JSON number
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


TEXT = Cell(str, str, _typed(str, "a string"))
ID = Cell(str, str, _typed((str, int), "a string or an integer", str))  # as in a JSONL log row
INT = Cell(str, int, _typed(int, "an integer"))
FLOAT = Cell(repr, _finite, _typed((int, float), "a number", _finite))  # repr reads back as the same float
FLOAT4 = Cell(lambda v: f"{v:.4f}", _finite, FLOAT.load)  # four decimals, for reading by eye
BOOL = Cell(lambda v: "true" if v else "false", _parse_bool, _typed(bool, "a boolean"))


def optional(cell: Cell) -> Cell:
    """The same cell, with None as an empty CSV cell and as JSON null."""
    return Cell(
        fmt=lambda v: "" if v is None else cell.fmt(v),
        parse=lambda s: None if s == "" else cell.parse(s),
        load=lambda v: None if v is None else cell.load(v),
        dump=lambda v: None if v is None else cell.dump(v),
        nullable=True,
    )


@dataclass(frozen=True)
class Table:
    """Columns of one artifact, in the field order of ``row``.

    ``key`` names the record list in the JSON document. Rows are ``row``
    instances, or plain tuples when ``row`` is None.
    """

    key: str
    row: type | None
    columns: Sequence[tuple[str, Cell]]

    @property
    def header(self) -> list[str]:
        return [name for name, _ in self.columns]

    def values(self, row) -> Sequence:
        return row if self.row is None else [getattr(row, name) for name, _ in self.columns]

    def make(self, values: Sequence):
        return tuple(values) if self.row is None else self.row(*values)


def write_rows(header: Sequence[str], rows: Iterable[Sequence[str]], notes: Sequence[str] = ()) -> str:
    """Header, rows of text cells and ``# note`` lines as CSV text.

    csv.writer quotes neither a leading ``#`` nor a bare carriage return, which
    would read back as a note and a line break, so such rows are quoted in full.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(header)
    for row in rows:
        if row[0].startswith("#") or any("\r" in cell for cell in row):
            quoted.writerow(row)
        else:
            writer.writerow(row)
    for note in notes:
        out.write(f"# {note}\n")
    return out.getvalue()


def read_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) of every CSV record of ``text``, header included.

    A record that spans lines (a quoted line break) is numbered by its first line.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    line = 1
    try:
        for cells in reader:
            yield line, cells
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"malformed CSV: {exc}") from None


def _records(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) per record, skipping blank and ``#`` lines between records."""
    lines = iter(io.StringIO(text, newline=""))
    line_no = 0
    for line in lines:
        line_no += 1
        if not line.strip() or line.startswith("#"):
            continue
        # a reader per record pulls only that record's lines, so a line
        # inside a quoted multi-line cell is never taken for a note
        reader = csv.reader(chain([line], lines))
        cells = next(reader)
        yield line_no, cells
        line_no += reader.line_num - 1


def write_csv(table: Table, rows: Iterable, notes: Sequence[str] = ()) -> str:
    """Rows of ``table`` under its header as CSV text, then ``# note`` lines."""
    cells = [cell for _, cell in table.columns]
    return write_rows(table.header, ([c.fmt(v) for c, v in zip(cells, table.values(row))] for row in rows), notes)


def read_csv(table: Table, text: str) -> list:
    """Rows of a CSV written by :func:`write_csv`; ValueError on a bad header or row."""
    rows = []
    try:
        records = _records(text)
        first = next(records, None)
        if first is None or first[1] != table.header:
            raise ValueError(f"{table.key} CSV header mismatch; expected {','.join(table.header)}")
        for line, cells in records:
            if len(cells) != len(table.columns):
                raise ValueError(f"line {line}: expected {len(table.columns)} fields, got {len(cells)}")
            values = []
            for (name, cell), text_value in zip(table.columns, cells):
                try:
                    values.append(cell.parse(text_value))
                except ValueError as exc:
                    raise ValueError(f"line {line}, {name}: {exc}") from None
            rows.append(table.make(values))
    except csv.Error as exc:
        raise ValueError(f"malformed CSV: {exc}") from None
    return rows


def to_json(table: Table, rows: Iterable, **extra) -> dict:
    """A versioned JSON document with the rows as records under ``table.key``."""
    records = [{name: cell.dump(v) for (name, cell), v in zip(table.columns, table.values(row))} for row in rows]
    return {"schema_version": 1, table.key: records, **extra}


def from_json(table: Table, data) -> list:
    """Rows of a document written by :func:`to_json`; ValueError when malformed."""
    fields = [(name, cell, None) for name, cell in table.columns]
    try:
        return [table.make(list(load_fields(fields, record).values())) for record in data[table.key]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad {table.key} JSON: {exc}") from None


def load_fields(fields: Sequence[tuple], data) -> dict:
    """Each (name, cell, default) field's value in a JSON object, by name.

    A missing key reads its default, so a default of None makes a field
    required. ValueError, naming the field, on a bad value or key.
    """
    if not isinstance(data, dict):
        raise ValueError(f"expected an object, got {json.dumps(data)}")
    unknown = sorted(set(data) - {name for name, _, _ in fields})
    if unknown:
        raise ValueError(f"unknown keys {unknown}")
    values = {}
    for name, cell, default in fields:
        value = data.get(name, default)
        try:
            if value is None and not cell.nullable:
                raise ValueError("must not be null" if name in data else "missing")
            values[name] = cell.load(value)
        except (ValueError, OverflowError) as exc:  # overflow: an integer beyond the float range
            raise ValueError(f"{name}: {exc}") from None
    return values


def record(fields: Sequence[tuple], make: Callable = dict) -> Cell:
    """A JSON-only cell: an object of ``fields``, passed to ``make`` as keywords."""
    return Cell(None, None, lambda value: make(**load_fields(fields, value)))


def dict_of(cell: Cell) -> Cell:
    """A JSON-only cell: an object with a ``cell`` value under each key."""

    def load(value) -> dict:
        keys = value if isinstance(value, dict) else ()  # load_fields rejects a non-object
        return load_fields([(key, cell, None) for key in keys], value)

    return Cell(None, None, load)


def list_of(cell: Cell, size: int | None = None) -> Cell:
    """A JSON-only cell: a list of ``cell`` values, exactly ``size`` of them when given."""

    def load(value) -> list:
        if not isinstance(value, list) or size not in (None, len(value)):
            raise ValueError(f"expected a list{'' if size is None else f' of {size}'}, got {json.dumps(value)}")
        # read as the object {"[0]": value[0], ...}, so that a message names the position
        return list(dict_of(cell).load({f"[{i}]": item for i, item in enumerate(value)}).values())

    return Cell(None, None, load)


def number_fields(cls) -> list[tuple]:
    """(name, INT or FLOAT, default) for each field of a dataclass of numbers, by its default's type."""
    return [(f.name, INT if type(f.default) is int else FLOAT, f.default) for f in cls.__dataclass_fields__.values()]
