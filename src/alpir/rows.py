"""The one writer of every table alpir prints.

A table is a list of field names and rows of values in that order. CSV
gives a header line, then one line per row: an empty cell for None and
str() of any other value, which for a float is its repr, the shortest
text that reads back to the same float. A cell that holds the same
object as the cell above it reuses that cell's text, so a value repeated
down a column (as bounds_rows repeats a block's n, k, eps and flat
costs) is written once. json-lines gives one object per row with sorted
keys, and no header.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence


def write_rows(fh, fields: Sequence[str], rows: Iterable[Sequence],
               fmt: str) -> None:
    write = fh.write
    if fmt == "csv":
        write(",".join(fields) + "\n")
        above, cells = (), []
        for row in rows:
            cells = [c if v is u else "" if v is None else str(v)
                     for v, u, c in zip(row, above, cells)]
            cells += ["" if v is None else str(v) for v in row[len(cells):]]
            write(",".join(cells) + "\n")
            above = tuple(row)  # a caller may refill one list
    else:
        for row in rows:
            write(json.dumps(dict(zip(fields, row)), sort_keys=True) + "\n")
