"""Brute-force divisibility counts over small prime fields."""

from itertools import product

import pytest

import rpphilb.pointcount
from rpphilb import RPP, CapExceeded, DomainError, YoungDiagram
from rpphilb.pointcount import (
    PrimeField,
    configured_budget,
    count_points,
    is_prime,
)
from rpphilb.rpp import enumerate_rpps
from rpphilb.series import evaluate_motive, motivic_series

from conftest import (
    all_monics_count_points,
    diagrams_up_to,
    long_division_divides,
    rising_filling,
)


def test_is_prime_small_values():
    primes = [p for p in range(2, 30) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_is_miller_rabin_with_a_bound():
    assert [n for n in range(-3, 5000) if is_prime(n)] == [
        n for n in range(-3, 5000) if _trial_division_is_prime(n)
    ]
    # trial division up to the square root takes seconds to hours on these
    assert is_prime(10**16 + 61) and is_prime(10**18 + 3)
    # strong pseudoprimes to the first 11 and the first 12 prime bases
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    with pytest.raises(CapExceeded) as err:
        is_prime(rpphilb.pointcount.MAX_PRIME_TEST)
    assert err.value.code == "cap-exceeded"


def test_prime_field_guards(monkeypatch):
    with pytest.raises(DomainError) as err:
        PrimeField(6)
    assert err.value.code == "nonprime-modulus"
    with pytest.raises(CapExceeded) as err:
        PrimeField(11)
    assert err.value.code == "cap-exceeded"
    # the cap is checked before primality, so a nonprime above it is over the cap
    with pytest.raises(CapExceeded):
        PrimeField(12)
    # a modulus that is not an int is a parse-error, as every other integer input is
    for p in (True, 2.0, 3.5, "3", None):
        for call in (is_prime, PrimeField, lambda p: count_points(RPP.from_text("1"), p)):
            with pytest.raises(DomainError) as err:
                call(p)
            assert err.value.code == "parse-error", (call, p)
    monkeypatch.setattr(rpphilb.pointcount, "DEFAULT_MAX_P", 11)
    assert PrimeField(11).p == 11


def test_monic_enumeration():
    F2 = PrimeField(2)
    assert list(F2.monic_polynomials(2)) == [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    assert len(list(PrimeField(3).monic_polynomials(3))) == 27
    assert list(F2.monic_polynomials(0)) == [(1,)]


def test_divisibility_over_f2():
    F2 = PrimeField(2)
    # x^2 + 1 = (x + 1)^2 over F_2
    assert F2.divides((1, 1), (1, 0, 1))
    assert not F2.divides((0, 1), (1, 0, 1))
    # the constant 1 divides everything
    assert F2.divides((1,), (1, 1, 1))


def test_divides_matches_long_division_oracle():
    for p in (2, 3):
        field = PrimeField(p)
        monics = [m for d in range(4) for m in product(range(p), repeat=d)]
        for a in monics:
            for b in monics:
                assert field.divides((*a, 1), (*b, 1)) == long_division_divides(p, a, b), (p, a, b)


def test_single_box_counts_all_monic_polynomials():
    for p in (2, 3):
        for m in (1, 2, 3):
            assert count_points(RPP.from_text(str(m)), p) == p ** m


def test_counts_are_invariant_under_zero_padding(domino_rpp):
    padded = RPP.from_text("0 1 / 0 2")
    for p in (2, 3):
        assert count_points(padded, p) == count_points(domino_rpp, p)


def test_counts_match_all_monics_oracle_on_random_fillings():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    diagrams = diagrams_up_to(5)

    @st.composite
    def cases(draw):
        n = rising_filling(draw(st.sampled_from(diagrams)), lambda: draw(st.integers(0, 2)))
        return n, draw(st.sampled_from((2, 3, 5)))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        n, p = case
        hypothesis.assume(p**n.size <= 5**4)
        assert count_points(n, p) == all_monics_count_points(n, p)

    check()


def test_larger_neighbour_rule_matches_all_monics_oracle():
    # each box is built on its neighbour of larger degree and tests the other;
    # 148 of these fillings build some box on its up neighbour; the 6-box ones
    # are needed, since up to 5 boxes a candidate left unmultiplied whenever the
    # tested neighbour is the constant 1 still counts right ("0 1 / 0 1 / 1 1" does not)
    def built_on_up(n):
        degrees = (*n.values, 0)  # index -1 reads the zero extension, as in count_points
        return any(degrees[u] > degrees[l] for l, u in zip(n.diagram.left, n.diagram.up))

    fillings = [n for d in diagrams_up_to(6) for n in enumerate_rpps(d, 4)]
    assert (len(fillings), sum(map(built_on_up, fillings))) == (590, 148)
    for n in fillings:
        for p in (2, 3):
            assert count_points(n, p) == all_monics_count_points(n, p), (n.to_text(), p)
    grid = RPP.from_text("0 0 3 / 0 2 5 / 3 5 5")
    assert count_points(grid, 2) == all_monics_count_points(grid, 2) == 152


@pytest.mark.parametrize("cols", [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 1, 1)])
def test_p1_counts_match_p1_series_when_diagonals_are_distinct(cols):
    # an F_p divisor on P1 is a monic f and a multiplicity at infinity, so the
    # P1 count of n sums the A1 counts of r over the RPP splittings n = m + r
    diagram = YoungDiagram(cols)
    rpps = enumerate_rpps(diagram, 4)
    projective = motivic_series(diagram, "P1", 4)
    for p in (2, 3):
        affine = {r.values: count_points(r, p) for r in rpps}
        for n in rpps:
            splittings = (tuple(a - b for a, b in zip(n.values, m.values)) for m in rpps)
            counted = sum(affine.get(r, 0) for r in splittings)
            assert counted == evaluate_motive(projective.coefficient(n.values), p), (n.values, p)


def test_evaluate_motive():
    assert evaluate_motive((0, 0, 1), 3) == 9
    assert evaluate_motive((1, 2), 2) == 5


def test_budget_guard(monkeypatch):
    with pytest.raises(CapExceeded) as err:
        count_points(RPP.from_text("30"), 2)
    assert err.value.code == "budget-exceeded"
    # a configured budget overrides the default
    monkeypatch.setenv("RPPHILB_MAX_BUDGET", str(2 ** 20))
    assert count_points(RPP.from_text("20"), 2) == 2 ** 20
    # p^|n| is built only below the budget's bit length, and printed only where Python prints it
    for budget, text, p, power in (
        (str(2**20), "1 2 / 2 3", 7, "7^8 = 5764801"),
        (str(2**20), "21", 2, "2^21"),  # at the bit length 21, 2^21 is past 2^20 unbuilt
        ("9" * 4300, "14000", 7, "7^14000"),  # 11832 digits, more than Python prints
    ):
        monkeypatch.setenv("RPPHILB_MAX_BUDGET", budget)
        with pytest.raises(CapExceeded) as err:
            count_points(RPP.from_text(text), p)
        assert err.value.message == f"{power} candidate tuples exceed the budget {budget}"


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("RPPHILB_MAX_BUDGET", "16")
    assert configured_budget() == 16
    with pytest.raises(CapExceeded):
        count_points(RPP.from_text("5"), 2)
    monkeypatch.setenv("RPPHILB_MAX_BUDGET", "not a number")
    with pytest.raises(DomainError) as err:
        configured_budget()
    assert err.value.code == "parse-error"


def test_nonprime_modulus():
    with pytest.raises(DomainError) as err:
        count_points(RPP.from_text("1"), 4)
    assert err.value.code == "nonprime-modulus"
