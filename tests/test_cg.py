"""Clebsch-Gordan coefficients against ladder operators and exact rationals."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from spinzeeman import cg_coefficient

HALF_GRID = [0.0, 0.5, 1.0, 1.5, 2.0]


def _m_values(j):
    return [j - k for k in range(int(round(2 * j)) + 1)]


def _single_spin_ops(j):
    dim = int(round(2 * j)) + 1
    m = np.array(_m_values(j))
    jz = np.diag(m)
    lower = np.zeros((dim, dim))
    for k in range(dim - 1):
        lower[k + 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] - 1))
    return jz, lower


def ladder_cg_table(j1, j2):
    """Couple j1 x j2 by explicit ladder operators.

    Top states |J, J> are built by orthogonalizing within the M = J product
    subspace against all higher-J states, with the Condon-Shortley sign fixed
    by a positive <j1 j1; j2 (J - j1)| J J> component; lower M states follow
    by applying the total lowering operator.  Completely independent of the
    closed-form implementation under test.
    """
    d1 = int(round(2 * j1)) + 1
    d2 = int(round(2 * j2)) + 1
    _jz1, lo1 = _single_spin_ops(j1)
    _jz2, lo2 = _single_spin_ops(j2)
    lower = np.kron(lo1, np.eye(d2)) + np.kron(np.eye(d1), lo2)
    m1s, m2s = _m_values(j1), _m_values(j2)

    def pair_index(m1, m2):
        return m1s.index(m1) * d2 + m2s.index(m2)

    table = {}
    two_j_top = int(round(2 * (j1 + j2)))
    two_j_bot = int(round(2 * abs(j1 - j2)))
    vectors_by_jm = {}
    for two_j in range(two_j_top, two_j_bot - 1, -2):
        jj = two_j / 2.0
        members = [(m1, m2) for m1 in m1s for m2 in m2s if m1 + m2 == jj]
        higher = [vectors_by_jm[key] for key in vectors_by_jm if key[1] == jj]
        # the orthogonal complement of the higher-J states inside the M = jj
        # product subspace is one-dimensional: Gram-Schmidt finds it
        vec = None
        for m1, m2 in members:
            v = np.zeros(d1 * d2)
            v[pair_index(m1, m2)] = 1.0
            for h in higher:
                v -= np.dot(h, v) * h
            norm = np.linalg.norm(v)
            if norm > 1e-6:
                vec = v / norm
                break
        assert vec is not None
        if vec[pair_index(j1, jj - j1)] < 0:
            vec = -vec
        vectors_by_jm[(jj, jj)] = vec
        mm = jj
        while mm > -jj:
            norm = math.sqrt(jj * (jj + 1) - mm * (mm - 1))
            vec = lower @ vec / norm
            mm -= 1.0
            vectors_by_jm[(jj, mm)] = vec
    for (jj, mm), vec in vectors_by_jm.items():
        for m1 in m1s:
            m2 = mm - m1
            if m2 in m2s:
                table[(m1, m2, jj, mm)] = vec[pair_index(m1, m2)]
    return table


@pytest.mark.parametrize("j1", HALF_GRID)
@pytest.mark.parametrize("j2", HALF_GRID)
def test_matches_ladder_oracle(j1, j2):
    table = ladder_cg_table(j1, j2)
    for (m1, m2, jj, mm), expected in table.items():
        got = cg_coefficient(j1, m1, j2, m2, jj, mm)
        assert got == pytest.approx(expected, abs=1e-12)


def test_frozen_values():
    assert cg_coefficient(0.5, 0.5, 0.5, -0.5, 1, 0) == pytest.approx(
        1 / math.sqrt(2), abs=1e-15
    )
    assert cg_coefficient(0.5, -0.5, 0.5, 0.5, 0, 0) == pytest.approx(
        -1 / math.sqrt(2), abs=1e-15
    )
    assert cg_coefficient(1, 0, 1, 0, 2, 0) == pytest.approx(
        math.sqrt(2 / 3), abs=1e-15
    )
    assert cg_coefficient(1, 0, 1, 0, 1, 0) == 0.0
    assert cg_coefficient(1, 0, 1, 0, 0, 0) == pytest.approx(
        -1 / math.sqrt(3), abs=1e-15
    )


@pytest.mark.parametrize(
    "j1,j2",
    [(0.5, 0.5), (1.0, 0.5), (1.5, 1.0), (2.0, 2.0), (50.0, 50.0)],
)
def test_stretched_state_is_one(j1, j2):
    top = j1 + j2
    assert cg_coefficient(j1, j1, j2, j2, top, top) == pytest.approx(1.0, abs=1e-14)


def test_selection_rules_give_zero():
    assert cg_coefficient(0.5, 0.5, 0.5, 0.5, 1, 0) == 0.0  # M != m1 + m2
    assert cg_coefficient(0.5, 0.5, 0.5, -0.5, 2, 0) == 0.0  # triangle
    assert cg_coefficient(1, 1, 1, 1, 1, 2) == 0.0  # |M| > J


@pytest.mark.parametrize("j1", HALF_GRID)
@pytest.mark.parametrize("j2", HALF_GRID)
def test_orthogonality(j1, j2):
    m1s, m2s = _m_values(j1), _m_values(j2)
    js = [
        two_j / 2.0
        for two_j in range(
            int(round(2 * abs(j1 - j2))), int(round(2 * (j1 + j2))) + 1, 2
        )
    ]
    # row orthonormality over (m1, m2)
    for ja in js:
        for jb in js:
            for ma in _m_values(ja):
                for mb in _m_values(jb):
                    total = sum(
                        cg_coefficient(j1, m1, j2, m2, ja, ma)
                        * cg_coefficient(j1, m1, j2, m2, jb, mb)
                        for m1 in m1s
                        for m2 in m2s
                    )
                    expected = 1.0 if (ja, ma) == (jb, mb) else 0.0
                    assert total == pytest.approx(expected, abs=1e-12)
    # column orthonormality over (J, M)
    for m1 in m1s:
        for m2 in m2s:
            for m1b in m1s:
                for m2b in m2s:
                    total = sum(
                        cg_coefficient(j1, m1, j2, m2, jj, mm)
                        * cg_coefficient(j1, m1b, j2, m2b, jj, mm)
                        for jj in js
                        for mm in _m_values(jj)
                    )
                    expected = 1.0 if (m1, m2) == (m1b, m2b) else 0.0
                    assert total == pytest.approx(expected, abs=1e-12)


def test_argument_errors():
    with pytest.raises(ValueError):
        cg_coefficient(0.3, 0.3, 0.5, 0.5, 1, 0.8)
    with pytest.raises(ValueError):
        cg_coefficient(0.5, 1.5, 0.5, -0.5, 1, 1)  # |m1| > j1
    with pytest.raises(ValueError):
        cg_coefficient(1, 0.5, 1, 0.5, 2, 1)  # j and m differ by half
    with pytest.raises(ValueError):
        cg_coefficient(0.5, 0.5, 0.5, -0.5, 0.5, 0)  # (j, m) pair invalid
    with pytest.raises(ValueError):
        cg_coefficient(-1, 0, 1, 0, 1, 0)
    # twice the argument overflows, or it is not finite: named, not raised
    # as OverflowError by the rounding
    for position, name in enumerate(("j1", "m1", "j2", "m2", "j", "m")):
        for value in (1e308, -1e308, math.inf, -math.inf, math.nan):
            args = [0.0] * 6
            args[position] = value
            with pytest.raises(ValueError, match=(
                    rf"^{name} is not finite or too large, got ")):
                cg_coefficient(*args)


def test_large_spins_take_no_table_bound():
    # j1 + j2 + j >= 199 read past the end of a former 200-entry table
    value = cg_coefficient(50, 0, 50, 0, 100, 0)
    # stretched, J = j1 + j2:
    # <j1 m1; j2 m2|J M>^2 = C(2j1, j1+m1) C(2j2, j2+m2) / C(2J, J+M)
    exact = math.sqrt(math.comb(100, 50) ** 2 / math.comb(200, 100))
    assert value == pytest.approx(exact, rel=1e-12)


def _exact_cg(j1, m1, j2, m2, j, m):
    """The Racah sum in exact rationals, rounded once at the end."""
    f = math.factorial

    def fact(x):
        return f(int(round(x)))

    square = Fraction(
        int(round(2 * j + 1)) * fact(j1 + j2 - j) * fact(j + j1 - j2)
        * fact(j - j1 + j2) * fact(j + m) * fact(j - m) * fact(j1 - m1)
        * fact(j1 + m1) * fact(j2 - m2) * fact(j2 + m2),
        fact(j1 + j2 + j + 1))
    k_min = int(round(max(0, j2 - j - m1, j1 - j + m2)))
    k_max = int(round(min(j1 + j2 - j, j1 - m1, j2 + m2)))
    total = sum(Fraction((-1) ** k, fact(k) * fact(j1 + j2 - j - k)
                         * fact(j1 - m1 - k) * fact(j2 + m2 - k)
                         * fact(j - j2 + m1 + k) * fact(j - j1 - m2 + k))
                for k in range(k_min, k_max + 1))
    return math.copysign(math.sqrt(total * total * square), total)


def _random_coefficients(spin_sum, count, seed):
    """``count`` valid <j1 m1; j2 m2|j m> with j1 + j2 + j = ``spin_sum``."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        two_j1 = rng.randrange(2 * spin_sum + 1)
        two_j2 = rng.randrange(2 * spin_sum + 1 - two_j1)
        two_j = 2 * spin_sum - two_j1 - two_j2
        if not abs(two_j1 - two_j2) <= two_j <= two_j1 + two_j2:
            continue
        two_m1 = rng.randrange(-two_j1, two_j1 + 1, 2)
        two_m2 = rng.randrange(-two_j2, two_j2 + 1, 2)
        if abs(two_m1 + two_m2) <= two_j:
            cases.append((two_j1 / 2, two_m1 / 2, two_j2 / 2, two_m2 / 2,
                          two_j / 2, (two_m1 + two_m2) / 2))
    return cases


# the module docstring's measured bounds: 2.5e-12 is the worst of 8000
# random coefficients at sum 60, so 5e-12 leaves room for other samples
@pytest.mark.parametrize("spin_sum,tol", [(30, 1e-13), (60, 5e-12)])
def test_sums_within_range_match_exact_rationals(spin_sum, tol):
    j = spin_sum / 3
    cases = [(j, 0, j, 0, j, 0)] + _random_coefficients(spin_sum, 200,
                                                        seed=spin_sum)
    for args in cases:
        assert abs(cg_coefficient(*args) - _exact_cg(*args)) <= tol, args


@pytest.mark.parametrize("args", [(30, 0, 30, 0, 30, 0),
                                  (20, 0, 20.5, 0.5, 20.5, 0.5)])
def test_sums_past_range_raise(args):
    with pytest.raises(ValueError, match=(
            r"^j1 \+ j2 \+ j = \d+ is past 60, the accurate range of a "
            r"sum of several terms$")):
        cg_coefficient(*args)
