import pytest

from mutants import first_failure

CASE = "tests/test_cli.py::TestDeriveMalformed::test_exit_code"


@pytest.mark.parametrize("summary, want", [
    # a parametrized id holding spaces, then pytest's reason
    (f"FAILED {CASE}[covered pos3d_t X NaN] - AssertionError: assert 0 == 1",
     f"{CASE}[covered pos3d_t X NaN]"),
    (f"ERROR {CASE}[covered Z 1e-40] - OSError: no space left on device",
     f"{CASE}[covered Z 1e-40]"),
    # no reason after the id
    (f"FAILED {CASE}[covered pos3d_t X NaN]", f"{CASE}[covered pos3d_t X NaN]"),
    # the reason holds brackets and a separator of its own
    (f"FAILED {CASE}[a b] - assert [1, 2] == [1] - x", f"{CASE}[a b]"),
    # an id whose parameters hold the separator
    (f"FAILED {CASE}[a - b] - AssertionError", f"{CASE}[a - b]"),
    ("FAILED tests/test_pipeline.py::test_a_view_holds_one_z - assert False",
     "tests/test_pipeline.py::test_a_view_holds_one_z"),
    ("FAILED tests/test_pipeline.py::test_a_view_holds_one_z",
     "tests/test_pipeline.py::test_a_view_holds_one_z"),
], ids=["reason", "error", "no-reason", "bracketed-reason", "separator-in-id",
        "unparametrized", "unparametrized-no-reason"])
def test_first_failure_is_the_whole_id(summary, want):
    stdout = f"..F\n=== short test summary info ===\n{summary}\n1 failed in 0.1s\n"
    assert first_failure(stdout) == want


def test_first_failure_is_the_first_listed():
    stdout = (f"FAILED {CASE}[first case] - AssertionError\n"
              f"FAILED {CASE}[second case] - AssertionError\n")
    assert first_failure(stdout) == f"{CASE}[first case]"


def test_no_failure_is_none():
    assert first_failure("...\n3 passed in 0.1s\n") is None
    # a test's own output that merely mentions the word is no summary line
    assert first_failure("  FAILED here\n3 passed in 0.1s\n") is None
