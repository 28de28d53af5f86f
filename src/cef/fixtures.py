"""Embedded reference values for the two series at the canonical
diagonal points x = y in {0.01, 0.1, 0.5, 1, 2.5, 5, 7.5, 10, 12.5, 15}.

The text blocks below are kept verbatim as published, one table for the
real part (the Voigt function) and one for the imaginary part, and are
parsed rather than retyped into scattered constants. Columns: the
finite-interval series, the Chiarella-Reichel pole sum, and TOMS
Algorithm 680 (Poppe & Wijers, 1990) as the high-accuracy reference.

Markers on the pole-sum column record its documented behaviour at small
y: '!' failed outright, '~' insufficient accuracy, '_' reduced but usable
accuracy. The failed values are intentionally preserved; reproducing them
is a fidelity check on the implementation, not a defect. A row is a
``collections.namedtuple``.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = ["ReferenceRow", "reference_rows", "CR_STATUS_LABELS"]

_REAL_TABLE = """\
0.01  0.01  9.887176929549550E-1  !4.196286232960261E0   9.887176929549547E-1
0.1   0.1   8.884785624756435E-1  !7.590865094856971E-1  8.884785624756436E-1
0.5   0.5   5.331567079121748E-1  ~5.331626469616391E-1  5.331567079121750E-1
1     1     3.047442052569125E-1  _3.047442051814129E-1  3.047442052569128E-1
2.5   2.5   1.167371250446503E-1  1.167371250446503E-1   1.167371250446503E-1
5     5     5.696543988817698E-2  5.696543988817699E-2   5.696543988817697E-2
7.5   7.5   3.777752935845998E-2  3.777752935845999E-2   3.777752935846000E-2
10    10    2.827946745423245E-2  2.827946745423246E-2   2.827946745423246E-2
12.5  12.5  2.260351678541391E-2  2.260351678541392E-2   2.260351678541391E-2
15    15    1.882714532513676E-2  1.882714532513675E-2   1.882714532513676E-2
"""

_IMAG_TABLE = """\
0.01  0.01  1.108529605747765E-2  !4.137187541585456E0   1.108529605747726E-2
0.1   0.1   9.433165105728508E-2  !2.042540773419453E-1  9.433165105728510E-2
0.5   0.5   2.304882313844584E-1  ~2.304774733809673E-1  2.304882313844584E-1
1     1     2.082189382028317E-1  _2.082189382021634E-1  2.082189382028316E-1
2.5   2.5   1.079085859964814E-1  1.079085859964814E-1   1.079085859964814E-1
5     5     5.583874277539103E-2  5.583874277539103E-2   5.583874277539103E-2
7.5   7.5   3.744329372959511E-2  3.744329372959512E-2   3.744329372959514E-2
10    10    2.813843327633689E-2  2.813843327633690E-2   2.813843327633690E-2
12.5  12.5  2.253130329137736E-2  2.253130329137737E-2   2.253130329137736E-2
15    15    1.878535427799564E-2  1.878535427799565E-2   1.878535427799565E-2
"""

_MARKERS = {"!": "failed", "~": "insufficient", "_": "reduced"}

# display labels for the pole-sum column, used by the table command
CR_STATUS_LABELS = {
    "failed": "inaccurate",
    "insufficient": "inaccurate (reduced precision)",
    "reduced": "slightly reduced precision",
    "accurate": "",
}


# cr_status is 'accurate', 'reduced', 'insufficient', or 'failed'
ReferenceRow = namedtuple("ReferenceRow", ["x", "y", "refined", "cr", "reference", "cr_status"])


def _parse_line(line: str) -> tuple[float, float, list[float], str]:
    """x, y, the three column values and the pole-sum status of one line."""
    x, y, *values = line.split()
    status = _MARKERS.get(values[1][0], "accurate")
    return float(x), float(y), [float(v.lstrip("".join(_MARKERS))) for v in values], status


def reference_rows() -> tuple[ReferenceRow, ...]:
    """The ten reference rows with real and imaginary parts combined."""
    rows = []
    for re_line, im_line in zip(_REAL_TABLE.splitlines(), _IMAG_TABLE.splitlines(),
                                strict=True):
        x, y, re_values, status = _parse_line(re_line)
        im_x, im_y, im_values, im_status = _parse_line(im_line)
        assert (x, y) == (im_x, im_y)
        assert status == im_status, "status markers must match across tables"
        rows.append(ReferenceRow(x, y, *map(complex, re_values, im_values), status))
    return tuple(rows)
