"""The README's `>>>` examples run as a doctest, so the quickstart stays true."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_hold():
    result = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert result.attempted >= 7 and result.failed == 0
