"""The project's pytest settings keep a failing hypothesis test reported.

The run happens in a fresh interpreter, with the project's pyproject.toml
and a copy of tests/conftest.py, so that nothing this session has already
imported hides what a real run would do.
"""

import os
from pathlib import Path

pytest_plugins = ["pytester"]

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


def test_failing_hypothesis_test_is_named_and_later_tests_run(pytester, monkeypatch):
    pytester.makeconftest((TESTS / "conftest.py").read_text())
    pytester.makepyfile(test_case="""
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(n):
            assert n < 5

        def test_passes():
            pass
    """)
    # arelax_testkit, which the conftest imports, and the package itself
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(TESTS), str(ROOT / "src")]))
    result = pytester.runpytest_subprocess(
        "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(pytester.path),
        "-p", "no:cacheprovider", "test_case.py",
    )
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["FAILED test_case.py::test_fails*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
