"""CSV artifacts with a JSON mirror: named tables plus a provenance header.

An Artifact writes BASE.csv and BASE.json from the same payload: the
provenance (tool version, command, flags, seed), the write timestamp, the
tables by name and any extra keys.  Exact quantities print as p/q strings.

Table rows are rendered at write time, one row at a time: each row's cells
become text once and go to both files before the next row is read, so no
table is held as text.  A row of int, Fraction and str cells takes each text
from a value -> text dict that lives for one write, so str runs once per
distinct value, not once per cell.  A row whose cell texts neither CSV quoting
nor JSON escaping would touch is joined once, and both files are written from
that line.
A matrix table holds its IncidenceMatrix, and each row is built from its
stored cells: the zeros between them are slices of one precomputed zero run
per file.  A row whose stored columns are not its support() row, whose stored
values are not all int, Fraction or str, or whose line is not plain, is
rendered cell by cell like any other row.
The JSON mirror is byte for byte what json.dump(payload, fh, indent=1)
followed by a newline would write.
"""

import csv
import json
import numbers
from datetime import datetime, timezone
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from . import __version__
from .lattice import _dense_row


def _scalar(v):
    """Cell text: p/q for exact values, shortest round-trip repr for floats."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, Fraction)):
        return str(v)
    if isinstance(v, numbers.Integral):  # numpy integer scalars
        return str(int(v))
    if isinstance(v, numbers.Real):  # float; numpy floats would repr as np.float64(...)
        return repr(float(v))
    return str(v)


_PLAIN_CELLS = frozenset((int, Fraction, str))

# top-level keys of the JSON mirror that Artifact.extra may not replace
_RESERVED_KEYS = frozenset(("provenance", "timestamp", "tables"))


class _Texts(dict):
    """value -> str(value) for int, Fraction and str cells, filled on a miss.

    Exact within those three types: equal values print the same text (2 and
    Fraction(2) both print 2, and a str never equals a number).  A bool, float
    or numpy cell may equal an int yet print otherwise, so none is ever a key.
    """

    __slots__ = ()

    def __missing__(self, value):
        text = self[value] = str(value)
        return text


def _cells(row, texts):
    """Cell texts of one row: from TEXTS, a _Texts, when every cell is an int,
    Fraction or str, through _scalar otherwise."""
    if _PLAIN_CELLS.issuperset(map(type, row)):
        return list(map(texts.__getitem__, row))
    return [_scalar(v) for v in row]


def _plain_line(cells):
    """The cells joined by commas, when csv.writer and JSON would write them as they are.

    Otherwise None, and None for an empty line: no cells, or one empty cell,
    which csv.writer writes as '""'.
    """
    line = ",".join(cells)
    return line if _is_plain(line, len(cells)) else None


def _is_plain(line, count):
    """Whether LINE, COUNT cell texts joined by commas, is written as it is to CSV and JSON.

    That holds when the line is nonempty printable ASCII without '"' or '\\'
    and holds exactly count - 1 commas, so that no cell has one.
    """
    return (
        line
        and line.isascii()
        and line.isprintable()
        and '"' not in line
        and "\\" not in line
        and line.count(",") == count - 1
    )


def _render(row, texts):
    """(line, text, cells) of one row: its CSV line, or None when csv.writer must
    write CELLS, and the JSON text between the row's brackets ('' for no cells)."""
    cells = _cells(row, texts)
    line = _plain_line(cells)
    if line is None:
        return None, ",\n     ".join(map(_json_str, cells)), cells
    return line, '"' + line.replace(",", '",\n     "') + '"', cells


class _MatrixRows:
    """The rows [label, *row] of a square IncidenceMatrix, rendered from its stored cells.

    Iterating gives the rows as cells, like any table's rows; Artifact.write
    calls render instead.
    """

    __slots__ = ("labels", "matrix")

    def __init__(self, labels, matrix):
        self.labels = labels
        self.matrix = matrix

    def __iter__(self):
        n = len(self.labels)
        return (
            [label, *_dense_row(cols, vals, n)]
            for label, cols, vals in zip(self.labels, self.matrix.columns, self.matrix.values)
        )

    def render(self, texts):
        """_render's (line, text, cells) per row, built from the row's stored cells.

        The zeros between stored cells are sliced from one ',0' run and from
        its JSON counterpart, and each stored cell's text comes from TEXTS.
        Every cell that is not stored is the int 0, so that is exact for a row
        whose stored columns are its support() row, whose stored values are
        int, Fraction or str (a bool or float prints otherwise), and whose line
        is plain.  Any other row goes through _render.
        """
        n = len(self.labels)
        zeros_csv = ",0" * n
        zeros_json = '",\n     "0' * n
        matrix = self.matrix
        rows = zip(self.labels, matrix.columns, matrix.values, matrix.support())
        for label, cols, vals, support in rows:
            if (
                cols == support
                and type(label) in _PLAIN_CELLS
                and _PLAIN_CELLS.issuperset(map(type, vals))
            ):
                head = texts[label]
                csv_parts, json_parts = [head], ['"' + head]
                end = 0
                for j, v in zip(cols, vals):
                    text = texts[v]
                    csv_parts += zeros_csv[: 2 * (j - end)], ",", text
                    json_parts += zeros_json[: 10 * (j - end)], '",\n     "', text
                    end = j + 1
                csv_parts.append(zeros_csv[: 2 * (n - end)])
                line = "".join(csv_parts)
                if _is_plain(line, n + 1):
                    json_parts += zeros_json[: 10 * (n - end)], '"'
                    yield line, "".join(json_parts), None
                    continue
            yield _render([label, *_dense_row(cols, vals, n)], texts)


class Artifact:
    """Named tables plus provenance, rendered to a CSV and a JSON mirror.

    Rows are kept as the caller gave them and rendered at write time, one row
    at a time into both files, so no table is ever held as text.
    """

    def __init__(self, command, argv, seed=None):
        self.provenance = {
            "tool": "mobiusboot",
            "version": __version__,
            "command": command,
            "flags": " ".join(argv),
            "seed": "-" if seed is None else str(seed),
        }
        self.tables = []
        self.extra = {}

    def add_table(self, name, columns, rows):
        """Add a table; ROWS (an iterable of cell sequences) is read once, by write."""
        if any(name == t[0] for t in self.tables):
            raise ValueError(f"duplicate table name {name!r}")
        self.tables.append((name, list(columns), rows))

    def add_matrix(self, name, labels, matrix):
        """Add a square IncidenceMatrix as a table: columns "row" and LABELS, one
        row [label, *cells] per matrix row, written from the matrix's stored cells."""
        self.add_table(name, ["row"] + labels, _MatrixRows(labels, matrix))

    def write(self, base):
        """Write BASE.csv and BASE.json, each table's rows streamed into both.

        Each row's cells are rendered once and written to both files before
        the next row is read.  The JSON mirror is byte for byte what
        json.dump(payload, fh, indent=1) plus a newline gives, the payload
        being the provenance, the timestamp, the tables by name and then the
        extra keys.
        """
        clash = _RESERVED_KEYS.intersection(self.extra)
        if clash:
            raise ValueError(f"extra keys {sorted(clash)} would replace the artifact's own blocks")
        stamp = datetime.now(timezone.utc).isoformat()
        base = Path(base)
        if base.parent != Path("."):
            base.parent.mkdir(parents=True, exist_ok=True)

        # The small parts first, so that one JSON cannot encode fails before any
        # file opens.  Columns sit three levels deep: JSON strings never hold a
        # raw newline, so re-indenting every newline of json.dumps is exact.
        head = json.dumps({"provenance": self.provenance, "timestamp": stamp}, indent=1)
        extra = json.dumps(self.extra, indent=1)[1:-2]  # '\n "key": value,...', '' if empty
        table_heads = [
            f'  {_json_str(name)}: {{\n   "columns": '
            + json.dumps(columns, indent=1).replace("\n", "\n   ")
            + ',\n   "rows": ['
            for name, columns, _ in self.tables
        ]

        with open(f"{base}.csv", "w") as csv_fh, open(f"{base}.json", "w") as json_fh:
            for key, val in self.provenance.items():
                csv_fh.write(f"# {key}: {val}\n")
            csv_fh.write(f"# timestamp: {stamp}\n")
            writer = csv.writer(csv_fh, lineterminator="\n")
            json_fh.write(head[:-2] + ',\n "tables": {')
            table_sep = "\n"
            texts = _Texts()
            for (name, columns, rows), table_head in zip(self.tables, table_heads):
                csv_fh.write(f"# table: {name}\n")
                writer.writerow(columns)
                json_fh.write(table_sep + table_head)
                if isinstance(rows, _MatrixRows):
                    rendered = rows.render(texts)
                else:
                    rendered = (_render(row, texts) for row in rows)
                row_sep = ""
                for line, text, cells in rendered:
                    if line is None:
                        writer.writerow(cells)
                    else:
                        csv_fh.write(line + "\n")
                    if text:
                        json_fh.write(f"{row_sep}\n    [\n     {text}\n    ]")
                    else:
                        json_fh.write(f"{row_sep}\n    []")
                    row_sep = ","
                json_fh.write("\n   ]\n  }" if row_sep else "]\n  }")
                table_sep = ",\n"
            json_fh.write("\n }" if self.tables else "}")
            json_fh.write(f",{extra}\n}}\n" if extra else "\n}\n")
