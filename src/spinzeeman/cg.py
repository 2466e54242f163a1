"""Clebsch-Gordan coefficients from the Racah closed form.

Condon-Shortley phase convention: coefficients are real, and the stretched
coefficient <j1 j1; j2 (J-j1) | J J> is positive for every J.  The sum is
taken over log-factorials, so its terms stay finite well past the j <= 2
range actually exercised here (safe for j up to ~20).
"""

from __future__ import annotations

import math


def _half_integer(value: float, name: str) -> float:
    doubled = 2.0 * value
    if not math.isfinite(doubled):
        raise ValueError(f"{name} is not finite or too large, got {value}")
    rounded = round(doubled)
    if abs(doubled - rounded) > 1e-9:
        raise ValueError(f"{name} must be an integer or half-integer, got {value}")
    return rounded / 2.0


def _is_integer(value: float) -> bool:
    return value == round(value)


def _lf(arg: float) -> float:
    return math.lgamma(round(arg) + 1)


def cg_coefficient(j1: float, m1: float, j2: float, m2: float,
                   j: float, m: float) -> float:
    """<j1 m1; j2 m2 | j m> with Condon-Shortley phases.

    Returns 0 when the selection rules (m = m1 + m2, triangle inequality,
    integral j1 + j2 + j) are not met.  Raises ``ValueError`` for arguments
    that are not valid angular-momentum quantum numbers, or not finite.
    """
    j1 = _half_integer(j1, "j1")
    m1 = _half_integer(m1, "m1")
    j2 = _half_integer(j2, "j2")
    m2 = _half_integer(m2, "m2")
    j = _half_integer(j, "j")
    m = _half_integer(m, "m")

    for jj, mm, name in ((j1, m1, "j1/m1"), (j2, m2, "j2/m2")):
        if jj < 0:
            raise ValueError(f"{name}: j must be non-negative, got {jj}")
        if abs(mm) > jj:
            raise ValueError(f"{name}: |m| exceeds j ({mm} vs {jj})")
        if not _is_integer(jj - mm):
            raise ValueError(f"{name}: j and m must differ by an integer")
    if j < 0:
        raise ValueError(f"j must be non-negative, got {j}")
    if not _is_integer(j - m):
        raise ValueError("j and m must differ by an integer")

    if m1 + m2 != m:
        return 0.0
    if j < abs(j1 - j2) or j > j1 + j2:
        return 0.0
    if not _is_integer(j1 + j2 + j):
        return 0.0
    if abs(m) > j:
        return 0.0

    # Summing the log terms in sorted order keeps coefficients related by
    # m-reflections bit-identical, so downstream cancellations are exact.
    pref_terms = sorted(
        (
            _lf(j1 + j2 - j), _lf(j + j1 - j2), _lf(j - j1 + j2),
            _lf(j + m), _lf(j - m),
            _lf(j1 + m1), _lf(j1 - m1), _lf(j2 + m2), _lf(j2 - m2),
        )
    )
    log_pref = 0.5 * (
        math.log(2.0 * j + 1.0) + math.fsum(pref_terms) - _lf(j1 + j2 + j + 1)
    )

    k_min = int(round(max(0.0, j2 - j - m1, j1 - j + m2)))
    k_max = int(round(min(j1 + j2 - j, j1 - m1, j2 + m2)))
    total = 0.0
    for k in range(k_min, k_max + 1):
        den_terms = sorted(
            (
                _lf(k), _lf(j1 + j2 - j - k),
                _lf(j1 - m1 - k), _lf(j2 + m2 - k),
                _lf(j - j2 + m1 + k), _lf(j - j1 - m2 + k),
            )
        )
        total += (-1.0) ** k * math.exp(log_pref - math.fsum(den_terms))
    return total
