import math
from fractions import Fraction

import numpy as np
import pytest

from hyplam import NoRootError
from hyplam.optimize import bisect_root, golden_max, golden_min


class TestBisectRoot:
    def test_tiny_values_keep_their_sign(self):
        # 1e-200 * 1e-200 underflows to 0: a product of values loses the sign
        assert bisect_root(lambda x: 1e-200 * (x - 0.3), 0.0, 1.0) == pytest.approx(0.3, abs=1e-12)

    def test_huge_numpy_values_do_not_overflow(self):
        # np.float64 products overflow with a RuntimeWarning
        root = bisect_root(lambda x: np.float64(1e200) * (x - 0.3), np.float64(0.0), np.float64(1.0))
        assert root == pytest.approx(0.3, abs=1e-12)

    def test_no_sign_change(self):
        with pytest.raises(NoRootError):
            bisect_root(lambda x: 1.0 + x * x, -1.0, 1.0)

    def test_zero_tolerance_stops_at_adjacent_doubles(self):
        s = math.sqrt(0.5)
        below = s if Fraction(s) ** 2 < Fraction(1, 2) else math.nextafter(s, 0.0)
        root = bisect_root(lambda x: x * x - 0.5, 0.0, 1.0, tol=0.0)
        assert root in (below, math.nextafter(below, 1.0))


class TestGolden:
    @pytest.mark.parametrize("search,sign", [(golden_min, 1.0), (golden_max, -1.0)])
    def test_zero_tolerance_stops_when_the_bracket_cannot_split(self, search, sign):
        # the objective is flat to rounding within ~1e-8 of 0.3
        x, fx = search(lambda t: sign * (t - 0.3) ** 2, 0.0, 1.0, tol=0.0)
        assert x == pytest.approx(0.3, abs=1e-7) and abs(fx) < 1e-14
