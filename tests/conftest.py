"""Fixtures shared by the test modules."""

import pytest

from golden_bounds import orders


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
