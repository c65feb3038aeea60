from collections import Counter

import pytest

from isoposet import all_subgroups, alternating, psl2, sl2_5


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    """Shared lattice cache so expensive enumerations run once per session."""
    return str(tmp_path_factory.mktemp("lattice-cache"))


@pytest.fixture
def call_counter(monkeypatch):
    """``call_counter(owner, name, key=None)`` wraps ``owner.name`` through
    monkeypatch and returns a Counter of its calls: keyed by
    ``key(*args, **kwargs)``, or all under ``name`` when no key is given.
    The wrapper is a plain function, so a wrapped method stays a method."""

    def install(owner, name, key=None):
        calls = Counter()
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[name if key is None else key(*args, **kwargs)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    return install


@pytest.fixture(scope="session")
def a5():
    return alternating(5)


@pytest.fixture(scope="session")
def psl25():
    return psl2(5)


@pytest.fixture(scope="session")
def psl27():
    return psl2(7)


@pytest.fixture(scope="session")
def sl25():
    return sl2_5()


@pytest.fixture(scope="session")
def a5_lattice(a5, cache_dir):
    return all_subgroups(a5, cache_dir=cache_dir)


@pytest.fixture(scope="session")
def psl25_lattice(psl25, cache_dir):
    return all_subgroups(psl25, cache_dir=cache_dir)


@pytest.fixture(scope="session")
def psl27_lattice(psl27, cache_dir):
    return all_subgroups(psl27, cache_dir=cache_dir)
