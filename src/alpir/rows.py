"""The one writer of every table alpir prints.

A table is a list of field names and rows of values in that order. CSV
gives a header line, then one line per row: an empty cell for None and
str() of any other value, which for a float is its repr, the shortest
text that reads back to the same float. json-lines gives one object per
row with sorted keys, and no header.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence


def write_rows(fh, fields: Sequence[str], rows: Iterable[Sequence],
               fmt: str) -> None:
    write = fh.write
    if fmt == "csv":
        write(",".join(fields) + "\n")
        for row in rows:
            write(",".join(["" if v is None else str(v) for v in row]) + "\n")
    else:
        for row in rows:
            write(json.dumps(dict(zip(fields, row)), sort_keys=True) + "\n")
