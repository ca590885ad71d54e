"""The project's pytest settings, run in a fresh interpreter with the
project's pyproject.toml, reject a misspelt marker and a repeated
parametrize id."""

from pathlib import Path

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parent.parent


def _run_with_project_settings(pytester, *args):
    return pytester.runpytest_subprocess(
        "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(pytester.path),
        "-p", "no:cacheprovider", *args, "test_case.py",
    )


def test_unknown_marker_fails_collection(pytester):
    pytester.makepyfile(test_case="""
        import pytest

        @pytest.mark.slwo
        def test_marked():
            pass
    """)
    # with the unknown-marker warning ignored, only strict markers stop it
    result = _run_with_project_settings(pytester, "-W", "ignore::pytest.PytestUnknownMarkWarning")
    result.assert_outcomes(errors=1)
    result.stdout.fnmatch_lines(["*'slwo' not found in `markers` configuration option*"])


def test_duplicate_parametrize_id_fails_collection(pytester):
    pytester.makepyfile(test_case="""
        import pytest

        @pytest.mark.parametrize("x", [1, 2], ids=["same", "same"])
        def test_param(x):
            pass
    """)
    # without strict parametrization ids pytest runs them as same0 and same1
    result = _run_with_project_settings(pytester)
    result.assert_outcomes(errors=1)
    result.stdout.fnmatch_lines(["Duplicate parametrization IDs detected*"])
