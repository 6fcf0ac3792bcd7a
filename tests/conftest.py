"""Fixtures shared by the test modules."""

import os

import pytest

from golden_bounds import _pool, linalg, orders

import freeze


@pytest.fixture(autouse=True)
def empty_spectral_cache():
    """Start every test with an empty spectral cache and a zero tally, so
    that what a test counts does not hang on the tests run before it."""
    linalg._CACHE.clear()


@pytest.fixture(scope="session")
def pinned_digests() -> dict:
    """Every frozen digest, computed once per session in one new process
    pinned to one BLAS kernel and numpy CPU dispatch (``freeze.PIN``).  The
    process inherits this one's CPU affinity, so a sweep there splits as it
    would here."""
    return freeze.pinned_digests()


@pytest.fixture(autouse=True)
def new_workers():
    """Stop the sweep workers after every test.  A worker runs the package
    as it was when it was forked, so the next test's first split call forks
    workers that see the patches made before it, and no patch outlives its
    test in a worker."""
    yield
    _pool.stop()


@pytest.fixture
def chain_checks(monkeypatch) -> list:
    """The exponents at which the chain sampler runs the shared Loewner test,
    ``orders.loewner_leq``, one per call: each call compares two powers, and
    the exponent recorded is that of the last ``power`` taken before it."""
    exponents, checked = [], []
    power, loewner_leq = orders.power, orders.loewner_leq

    def recording_power(matrix, exponent):
        exponents.append(float(exponent))
        return power(matrix, exponent)

    def counting_loewner_leq(lhs, rhs):
        checked.append(exponents[-1])
        return loewner_leq(lhs, rhs)

    monkeypatch.setattr(orders, "power", recording_power)
    monkeypatch.setattr(orders, "loewner_leq", counting_loewner_leq)
    return checked


@pytest.fixture
def one_cpu():
    """Narrow this process's CPU affinity to one CPU for the test, then
    restore it: ``run_instances`` then certifies every instance in this
    process, where a test's monkeypatches see them all."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)
