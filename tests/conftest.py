import sys
from fractions import Fraction

import pytest

from primecover import cli, hits, sequences, sievelab
from primecover.primes import primes_between


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


@pytest.fixture
def sieve_no_further_than(monkeypatch):
    """Make any sieve of a range that ends past a limit fail the test before it runs.

    Call it with the limit. It replaces primes_between where sequences,
    sievelab, hits and cli bind it, so no scan, fan-out interval included,
    sieves past the limit: a regression fails at once instead of allocating.
    """
    def limit_to(limit):
        def spy(x, y):
            if Fraction(y) > limit:
                pytest.fail(f"sieved to {y}, past {limit}")
            return primes_between(x, y)

        for module in (sequences, sievelab, hits, cli):
            monkeypatch.setattr(module, "primes_between", spy)

    return limit_to
