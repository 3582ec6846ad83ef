import pytest

pytest.importorskip("numpy")  # optimize holds the registry's row oracles, and loads it

from hyplam.optimize import golden_max, golden_min


class TestGolden:
    @pytest.mark.parametrize("search,sign", [(golden_min, 1.0), (golden_max, -1.0)])
    def test_zero_tolerance_stops_when_the_bracket_cannot_split(self, search, sign):
        # the objective is flat to rounding within ~1e-8 of 0.3
        x, fx = search(lambda t: sign * (t - 0.3) ** 2, 0.0, 1.0, tol=0.0)
        assert x == pytest.approx(0.3, abs=1e-7) and abs(fx) < 1e-14
