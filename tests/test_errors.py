import math

import pytest

from toephankel.errors import NotMatching, NumericalBreakdown, below


def test_below_reads_non_finite_as_breakdown():
    # NaN and inf are no verdict: NumericalBreakdown (exit 4), whichever
    # side of the gate they would fall on
    with pytest.raises(NumericalBreakdown, match="nan"):
        below(math.nan, 1e-8, NotMatching, "residual")
    with pytest.raises(NumericalBreakdown, match="inf"):
        below(0.0, math.inf, NotMatching, "residual")
    # a finite value must lie strictly below its bound
    with pytest.raises(NotMatching, match="residual 1.000e-08 is not below 1.000e-08"):
        below(1e-8, 1e-8, NotMatching, "residual")
    below(math.nextafter(1e-8, 0.0), 1e-8, NotMatching, "residual")
