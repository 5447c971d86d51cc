"""CSV artifacts with a JSON mirror: named tables plus a provenance header.

An Artifact writes BASE.csv and BASE.json from the same payload: the
provenance (tool version, command, flags, seed), the write timestamp, the
tables by name and any extra keys.  Exact quantities print as p/q strings.

Table rows are rendered at write time, one row at a time: each row's cells
become text once and go to both files before the next row is read, so no
table is held as text.  A row's cells print through _scalar; csv.writer
writes them to the CSV, and the JSON string encoder to the mirror.
A matrix table holds its IncidenceMatrix.  A row whose label is plain text
and whose stored values are all int or Fraction is built from its stored
cells: the zeros between them, which the matrix guarantees are the int 0,
are slices of one precomputed zero run per file.  Any other matrix row
goes the way every other row does.
The JSON mirror is byte for byte what json.dump(payload, fh, indent=1)
followed by a newline would write.
"""

import csv
import json
import numbers
from datetime import datetime, timezone
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from . import __version__
from .moments import _exact_str


def _scalar(v):
    """Cell text: p/q for exact values, in full, shortest round-trip repr for floats."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (numbers.Rational, str)):  # numpy integers print as ints do
        return _exact_str(v)
    if isinstance(v, numbers.Real):  # float; numpy floats would repr as np.float64(...)
        return repr(float(v))
    return str(v)


# values whose text is digits, '-' and '/' only: written as they are to CSV and JSON
_EXACT_TYPES = frozenset((int, Fraction))

# top-level keys of the JSON mirror that Artifact.extra may not replace
_RESERVED_KEYS = frozenset(("provenance", "timestamp", "tables"))


def _is_plain(text):
    """Whether csv.writer and JSON write TEXT, a cell of a row of two or more,
    as it is: printable ASCII without ',', '"' or '\\'."""
    return text.isascii() and text.isprintable() and not any(c in text for c in ',"\\')


class _MatrixRows:
    """The rows [label, *row] of a square IncidenceMatrix, rendered from its stored cells."""

    __slots__ = ("labels", "matrix")

    def __init__(self, labels, matrix):
        self.labels = labels
        self.matrix = matrix

    def render(self):
        """Per row (line, text), its CSV line and its JSON text; or (None, cells).

        A row whose label is a plain str and whose stored values are all int
        or Fraction is built from its stored cells, each printed in full, and
        the zeros between them, sliced from one ',0' run and from its JSON
        counterpart.  That is exact for any stored columns: every cell the
        matrix does not store is the int 0, and int and Fraction texts are
        plain.  Any other row comes as its cells, [label, *dense row], the
        dense row built from that row's stored cells alone (the matrix's
        entries would build every row), for Artifact.write to print like
        every other table's rows.
        """
        n = len(self.labels)
        zeros_csv = ",0" * n
        zeros_json = '",\n     "0' * n
        rows = zip(self.labels, self.matrix.columns, self.matrix.values)
        for i, (label, cols, vals) in enumerate(rows):
            if type(label) is str and _is_plain(label) and _EXACT_TYPES.issuperset(map(type, vals)):
                csv_parts, json_parts = [label], ['"' + label]
                end = 0
                for j, v in zip(cols, vals):
                    text = _exact_str(v)
                    csv_parts += zeros_csv[: 2 * (j - end)], ",", text
                    json_parts += zeros_json[: 10 * (j - end)], '",\n     "', text
                    end = j + 1
                csv_parts += zeros_csv[: 2 * (n - end)], "\n"
                json_parts += zeros_json[: 10 * (n - end)], '"'
                yield "".join(csv_parts), "".join(json_parts)
            else:
                yield None, [label, *self.matrix.row(i)]


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
        if len(labels) != len(matrix.index):
            raise ValueError(f"{len(labels)} labels for a matrix of {len(matrix.index)} rows")
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
            for (name, columns, rows), table_head in zip(self.tables, table_heads):
                csv_fh.write(f"# table: {name}\n")
                writer.writerow(columns)
                json_fh.write(table_sep + table_head)
                rendered = rows.render() if isinstance(rows, _MatrixRows) else zip(repeat(None), rows)
                row_sep = ""
                for line, row in rendered:
                    if line is None:
                        cells = [_scalar(v) for v in row]
                        writer.writerow(cells)
                        text = ",\n     ".join(map(_json_str, cells))
                    else:
                        csv_fh.write(line)
                        text = row
                    if text:
                        json_fh.write(f"{row_sep}\n    [\n     {text}\n    ]")
                    else:
                        json_fh.write(f"{row_sep}\n    []")
                    row_sep = ","
                json_fh.write("\n   ]\n  }" if row_sep else "]\n  }")
                table_sep = ",\n"
            json_fh.write("\n }" if self.tables else "}")
            json_fh.write(f",{extra}\n}}\n" if extra else "\n}\n")
