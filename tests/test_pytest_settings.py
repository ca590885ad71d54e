"""The project's pytest settings, run in a fresh interpreter with the
project's pyproject.toml, reject a misspelt marker."""

from pathlib import Path

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parent.parent


def test_unknown_marker_fails_collection(pytester):
    pytester.makepyfile(test_case="""
        import pytest

        @pytest.mark.slwo
        def test_marked():
            pass
    """)
    # with the unknown-marker warning ignored, only strict markers stop it
    result = pytester.runpytest_subprocess(
        "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(pytester.path),
        "-p", "no:cacheprovider", "-W", "ignore::pytest.PytestUnknownMarkWarning", "test_case.py",
    )
    result.assert_outcomes(errors=1)
    result.stdout.fnmatch_lines(["*'slwo' not found in `markers` configuration option*"])
