import numpy as np
import pytest

from hyplam import NoRootError
from hyplam.optimize import bisect_root


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
