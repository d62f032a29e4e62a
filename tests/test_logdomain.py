import math

import numpy as np

from barw.logdomain import LOG_ZERO, logsumexp_1d


class TestLogSumExp:
    def test_empty(self):
        assert logsumexp_1d(np.array([])) == LOG_ZERO

    def test_all_neg_inf(self):
        assert logsumexp_1d(np.array([LOG_ZERO, LOG_ZERO])) == LOG_ZERO

    def test_matches_direct(self):
        a = np.array([-1.0, -2.0, -3.0])
        assert abs(logsumexp_1d(a) - math.log(np.exp(a).sum())) < 1e-14
