import primecover


def test_every_public_name_resolves():
    missing = [name for name in primecover.__all__ if not hasattr(primecover, name)]
    assert missing == []
    assert len(set(primecover.__all__)) == len(primecover.__all__)


def test_star_import():
    namespace = {}
    exec("from primecover import *", namespace)
    assert set(primecover.__all__) <= set(namespace)
