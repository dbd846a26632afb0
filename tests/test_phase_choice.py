"""The paper's phase choice, pinned on the generators, and the character
twists that the registry checks cannot all tell from it.

Any character chi of the theta group gives another proper representation,
chi(A) U_N(A), with chi(S) a 4th root of unity and chi(T2) any unit.  Each
twist is exactly multiplicative, unitary and Egorov-exact, so some of them
pass every check of suites.CHECKS.  U_N(S) = e(QQ'/N)/sqrt(N) and
U_N(T2) = diag e(Q^2/N), the paper's formulas at the generators, pin chi = 1.
"""

import math

import numpy as np
import pytest

from qcatmap import hecke, propagator, suites, weyl
from qcatmap.sl2 import S_PLUS, T2_PLUS, decompose

DIMS = [*range(1, 65), 128, 129, 1024, 1025]
PIN_TOL = 1e-14


def _pinning_error(n):
    """Worst entry of U_N(S) and U_N(T2) off the paper's formulas."""
    q = np.arange(n)
    s = np.exp(2j * np.pi * (np.outer(q, q) % n / n)) / math.sqrt(n)
    t2 = np.diag(np.exp(2j * np.pi * (q * q % n / n)))
    return max(np.abs(propagator.build(S_PLUS, n) - s).max(),
               np.abs(propagator.build(T2_PLUS, n) - t2).max())


@pytest.mark.parametrize("n", DIMS)
def test_generators_carry_the_papers_phases(n):
    assert _pinning_error(n) < PIN_TOL


# (chi(S), chi(T2)) and the registry checks that fail under the twist
TWISTS = {
    "(-1)^b": ((-1, 1), set()),
    "chi(T2) = -1": ((1, -1), {"mod2n"}),
    "chi(S) = i": ((1j, 1), {"mod2n"}),
    "chi(T2) = i": ((1, 1j), {"mod4n", "mod2n"}),
}


def _twisted(real, chi_s, chi_t2):
    """build_many times chi(A), chi read off the word decompose(A)."""
    chi = {"S": chi_s, "S-": 1 / chi_s, "P": chi_s ** 2, "T2": chi_t2,
           "T2-": 1 / chi_t2}

    def build_many(ms, n, check=True):
        ms = list(ms)
        u = real(ms, n, check)
        return u * np.array([math.prod(chi[tok] for tok in decompose(m))
                             for m in ms])[:, None, None]

    return build_many


@pytest.mark.parametrize("twist", TWISTS)
def test_each_twist_fails_its_checks_and_the_pinning(monkeypatch, twist):
    (chi_s, chi_t2), fails = TWISTS[twist]
    twisted = _twisted(propagator.build_many, chi_s, chi_t2)
    for module in (propagator, suites, hecke, weyl):
        monkeypatch.setattr(module, "build_many", twisted)
    failed = {name for name in suites.CHECKS if not suites.run_check(name, {}).passed}
    assert failed == fails
    assert min(_pinning_error(n) for n in DIMS) > PIN_TOL
