"""rows.write_rows: reusing the text of a repeated object never shows."""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from alpir.rows import write_rows


def plain_csv(fields, rows) -> str:
    """Every cell through its own str(), the reference for write_rows."""
    lines = [list(fields)] + [["" if v is None else str(v) for v in row]
                              for row in rows]
    return "".join(",".join(cells) + "\n" for cells in lines)


def pool(drawn):
    """Cells whose text differs while they compare equal, or that are
    equal and distinct objects: 0.0 and -0.0, 1 and 1.0, a float and its
    copy, and None."""
    cells = [None, float("0.0"), float("-0.0"), 1, float("1.0"),
             float("2.5"), float("2.5"), "L-PIR"]
    for x in drawn:
        cells += [x, type(x)(repr(x))]
    return cells


@given(drawn=st.lists(st.one_of(st.floats(), st.integers(-3, 3)),
                      max_size=3),
       picks=st.lists(st.lists(st.integers(0, 13), max_size=6), max_size=8),
       refill=st.booleans())
@settings(max_examples=300, deadline=None)
def test_csv_equals_plain_str_cells(drawn, picks, refill):
    """Rows of changing length, drawn from a small pool of objects so
    that one object often sits under itself. With `refill`, every row is
    one list filled again, as a caller may hand it over."""
    cells = pool(drawn)
    rows = [tuple(cells[i % len(cells)] for i in row) for row in picks]

    def given_rows():
        buf = []
        for row in rows:
            if refill:
                buf[:] = row
                yield buf
            else:
                yield row

    fields = ("a", "b", "c")
    fh = io.StringIO()
    write_rows(fh, fields, given_rows(), "csv")
    assert fh.getvalue() == plain_csv(fields, rows)
