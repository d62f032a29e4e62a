import math

import numpy as np
import pytest

from barw.logdomain import LOG_ZERO, LogValue, logsumexp_1d


def ulp(x):
    return math.ulp(abs(x)) if x != 0.0 else 5e-324


class TestLogValue:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        "log_mag", [-650.0, -100.0, -7.25, -1.0, -1e-3, 0.0, 0.5, 3.0, 100.0, 650.0]
    )
    def test_round_trip_preserves_sign_and_log_magnitude(self, sign, log_mag):
        # one ulp at the working scale max(1, |L|): log(exp(L)) carries the
        # absolute rounding of exp, which is relative, so the tolerance
        # cannot shrink below ~2e-16 however small L is
        v = LogValue(sign, log_mag)
        back = LogValue.from_real(v.to_real())
        assert back.sign == sign
        assert abs(back.log_magnitude - log_mag) <= ulp(max(1.0, abs(log_mag)))

    @pytest.mark.parametrize("x", [1.0, -1.0, 0.5, -0.5, 3.141592653589793])
    def test_real_round_trip(self, x):
        back = LogValue.from_real(x).to_real()
        assert abs(back - x) <= ulp(x)
        assert math.copysign(1.0, back) == math.copysign(1.0, x)

    def test_zero(self):
        v = LogValue.from_real(0.0)
        assert v.sign == 0
        assert v.to_real() == 0.0
        assert float(v) == 0.0

    def test_invalid_sign_rejected(self):
        with pytest.raises(ValueError):
            LogValue(2, 0.0)

    def test_zero_needs_neg_inf_magnitude(self):
        with pytest.raises(ValueError):
            LogValue(0, 1.0)


class TestLogSumExp:
    def test_empty(self):
        assert logsumexp_1d(np.array([])) == LOG_ZERO

    def test_all_neg_inf(self):
        assert logsumexp_1d(np.array([LOG_ZERO, LOG_ZERO])) == LOG_ZERO

    def test_matches_direct(self):
        a = np.array([-1.0, -2.0, -3.0])
        assert abs(logsumexp_1d(a) - math.log(np.exp(a).sum())) < 1e-14
