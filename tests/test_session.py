"""Test-session health: a failing Hypothesis test is reported as one failure
and the rest of the session still runs under `filterwarnings = ["error"]`."""

from __future__ import annotations

from hypothesis.configuration import set_hypothesis_home_dir, storage_directory

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
    # The inner run is in-process, so its failure patch and examples would be
    # written under the checkout's Hypothesis directory without this.
    home = storage_directory(intent_to_write=False).home_directory
    set_hypothesis_home_dir(pytester.path / ".hypothesis")
    try:
        result = pytester.runpytest("-p", "no:cacheprovider")
    finally:
        set_hypothesis_home_dir(home)
    result.assert_outcomes(failed=1, passed=1)
