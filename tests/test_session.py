"""Test-session health: a failing Hypothesis test is reported as one failure
and the rest of the session still runs under `filterwarnings = ["error"]`."""

from __future__ import annotations

pytest_plugins = ["pytester"]


def test_failing_hypothesis_test_does_not_end_the_session(pytester):
    pytester.makeini("[pytest]\nfilterwarnings = error\n")
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_plain():
            pass
        """
    )
    result = pytester.runpytest("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
