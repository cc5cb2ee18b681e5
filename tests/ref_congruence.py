"""The dense congruence wrapper that the library no longer carries.

``exactlinalg.congruence_rows`` eliminates sparse integer rows; reports
hand it Goeritz rows keyed by face id, and ``signature_symmetric`` hands
it the rows of a dense integer matrix.  The dense wrapper below, with
its ``Fraction`` scaling, is kept here verbatim as a test helper, so the
kernel's tests can still feed it dense and rational matrices.
"""

from math import lcm
from typing import TYPE_CHECKING

from tracekit.exactlinalg import congruence_rows

if TYPE_CHECKING:
    from fractions import Fraction


def congruence_eliminate(m) -> "tuple[int, int, int | Fraction]":
    """Diagonalize a symmetric matrix by exact congruence; returns (pos,
    neg, det), as ``congruence_rows`` does for its rows.  The input must
    be square and symmetric; it is not checked here.  A rational input
    is first multiplied by the lcm of its nonzero entries'
    denominators, and det is divided back."""
    rows = {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(m)}
    scale = lcm(*(x.denominator for r in rows.values() for x in r.values()))
    if scale != 1:
        rows = {i: {j: (x * scale).numerator for j, x in r.items()}
                for i, r in rows.items()}
    pos, neg, d = congruence_rows(rows)
    if scale == 1:
        return pos, neg, d
    from fractions import Fraction  # loaded already: the input holds Fractions

    det = Fraction(d, scale ** len(m))
    return pos, neg, det.numerator if det.denominator == 1 else det
