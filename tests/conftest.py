"""Fixtures shared by the test modules."""

import pytest

from golden_bounds import sampling


@pytest.fixture
def chain_checks(monkeypatch) -> list:
    """The exponents at which the chain sampler runs its shared Loewner test,
    one per call: each call compares two powers, and the exponent recorded is
    that of the last ``power`` the sampler took before the call."""
    exponents, checked = [], []
    power, violation = sampling.power, sampling._loewner_violation

    def recording_power(matrix, exponent):
        exponents.append(float(exponent))
        return power(matrix, exponent)

    def counting_violation(lhs, rhs):
        checked.append(exponents[-1])
        return violation(lhs, rhs)

    monkeypatch.setattr(sampling, "power", recording_power)
    monkeypatch.setattr(sampling, "_loewner_violation", counting_violation)
    return checked
