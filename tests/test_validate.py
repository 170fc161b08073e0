import math

from jcpair import validate


def reported(*pairs):
    checks = validate._Checks("suite")
    for residual, tol in pairs:
        checks.add(residual, tol)
    result = checks.result()
    return result, validate.summary_text([result], 1, 1).splitlines()[1]


class TestChecks:
    def test_worst_ratio_wins_and_last_wins_a_tie(self):
        result, line = reported((1e-12, 1e-10), (3e-15, 1e-12), (1e-14, 1e-12), (2e-12, 2e-10))
        assert result.passed
        assert (result.residual, result.tol) == (2e-12, 2e-10)
        assert line.endswith("max_residual=2.000000e-12 tol=2e-10")

    def test_zero_tolerance(self):
        result, line = reported((0.0, 0.0), (1e-15, 1e-10))
        assert result.passed and (result.residual, result.tol) == (1e-15, 1e-10)
        result, line = reported((1e-15, 1e-10), (1.0, 0.0), (1e-3, 1e-10))
        assert not result.passed and (result.residual, result.tol) == (1.0, 0.0)
        assert line == f"FAIL {'suite':<30} max_residual=1.000000e+00 tol=0"

    def test_nan_between_finite_residuals_is_reported(self):
        result, line = reported((1e-15, 1e-10), (math.nan, 1e-10), (2e-15, 1e-10))
        assert not result.passed
        assert math.isnan(result.residual) and result.tol == 1e-10
        assert line == f"FAIL {'suite':<30} max_residual=nan tol=1e-10"

    def test_lone_nan_is_reported(self):
        result, line = reported((math.nan, 1e-10),)
        assert not result.passed
        assert line == f"FAIL {'suite':<30} max_residual=nan tol=1e-10"

    def test_nan_outranks_a_failed_requirement(self):
        result, line = reported((math.nan, 0.0), (1.0, 0.0), (5.0, 1e-10))
        assert not result.passed
        assert line == f"FAIL {'suite':<30} max_residual=nan tol=0"
