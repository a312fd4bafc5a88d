"""The suite's warning filters let a failing property test fail alone.

On a failure hypothesis imports libcst to write a patch, and libcst's
dependency ``mypy_extensions`` warns DeprecationWarning at import; under an
unscoped ``error::DeprecationWarning`` that warning aborts the whole run
with INTERNALERROR, so every later test goes unrun.
"""

import re
from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def test_a_failing_given_test_fails_alone_under_the_suite_filters(pytester):
    # the [tool.pytest.ini_options] table, filters included, as pyproject has it
    table = re.search(r"^\[tool\.pytest\.ini_options\]\n(.*?)(?=^\[|\Z)",
                      PYPROJECT.read_text(), re.S | re.M)[1]
    pytester.makepyprojecttoml("[tool.pytest.ini_options]\n" + table)
    path = pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 10

        def test_after():
            pass
        """
    )
    # a fresh interpreter, so hypothesis imports libcst on this failure
    result = pytester.runpytest_subprocess(path, "-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
