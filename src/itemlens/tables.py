"""One codec for every tabular artifact: CSV text and JSON records.

A :class:`Table` lists a row type's columns once, each with a :class:`Cell`
that turns a value into a CSV cell or JSON value and back. Every CSV the
package writes goes through :func:`write_rows` (standard quoting, ``\\n``
line ends, optional trailing ``# note`` lines) and every CSV it reads goes
through :func:`read_rows` or :func:`read_csv`, so whatever one subcommand
writes, another reads back cell for cell.
"""

from __future__ import annotations

import csv
import io
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


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def _load_bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected a boolean, got {value!r}")
    return value


TEXT = Cell(str, str, str)
INT = Cell(str, int, int)
FLOAT = Cell(repr, float, float)  # shortest repr: reads back as the same float
FLOAT4 = Cell(lambda v: f"{v:.4f}", float, float)  # four decimals, for reading by eye
BOOL = Cell(lambda v: "true" if v else "false", _parse_bool, _load_bool)


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
    rows = []
    try:
        for record in data[table.key]:
            values = []
            for name, cell in table.columns:
                value = record.get(name)
                if value is None and not cell.nullable:
                    raise ValueError(f"{name!r} is missing")
                values.append(cell.load(value))
            rows.append(table.make(values))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad {table.key} JSON: {exc}") from None
    return rows
