import sys

import pytest


@pytest.fixture
def default_digit_limit():
    """Python's default int-to-str digit limit, 4300, for one test.

    PYTHONINTMAXSTRDIGITS or a test can change the limit; the error
    messages that shorten long rationals are pinned at the default.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)
