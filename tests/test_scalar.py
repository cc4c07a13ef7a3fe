"""Scalar layer: exact rationals, the shared field protocol, seeded sampling."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from butterfly import (
    DivisionByZero,
    RationalFunction,
    ZeroDenominator,
    derive_rng,
    field_div,
    format_rational,
    parse_rational,
    sample_ratio,
    sample_ratios,
    sample_rational,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=10**4)


def test_field_div_basic():
    assert field_div(Fraction(1, 2), Fraction(1, 3)) == Fraction(3, 2)


def test_field_div_frozen_value():
    # oracle: 6*7 = 42, 35*2 = 70, gcd(42,70) = 14 -> 3/5
    assert field_div(Fraction(6, 35), Fraction(2, 7)) == Fraction(3, 5)


def test_field_div_carries_context():
    with pytest.raises(DivisionByZero, match="lines parallel"):
        field_div(Fraction(1), Fraction(0), "lines parallel")


def test_truthiness_is_the_exact_zero_test():
    # the shared field protocol: `not x` holds exactly for the zero element
    # on both backends
    assert not Fraction(0)
    assert Fraction(0, 5) + Fraction(1, 7)
    a = RationalFunction.variable("a")
    assert not (a * a - a * a)
    assert (a + 1) * (a - 1) - a * a


@given(rationals)
def test_self_division_is_one(x):
    if x != 0:
        assert field_div(x, x) == 1


@given(rationals, rationals, rationals)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert (x + y) - y == x


@given(rationals, rationals)
def test_results_stay_canonical(x, y):
    for value in (x + y, x - y, x * y):
        assert value.denominator > 0
        from math import gcd
        assert gcd(abs(value.numerator), value.denominator) == 1


def test_format_rational():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(0)) == "0"


@given(rationals | st.fractions(), st.integers(min_value=1, max_value=10**6))
def test_format_parse_round_trip(x, m):
    assert parse_rational(format_rational(x)) == x
    assert parse_rational(f"{x.numerator * m}/{x.denominator * m}") == x


def test_parse_rational_rejects_garbage():
    # int() alone takes "1_0", "\u0663" (an Arabic-Indic 3), "+3", " 3",
    # "3\n" and "\uff13" (a fullwidth 3); "3/-4" and "3/+4" put a sign on
    # the denominator
    for bad in ("", "one", "1.5", "2/2/2", "1_0", "\u0663", "+3",
                "3/-4", "3/+4", " 3", "3\n", "\uff13", "--3", "-", "/4", "3/"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_parse_rational_zero_denominator_is_typed():
    for bad in ("1/0", "3/000", "-0/0"):
        with pytest.raises(ZeroDenominator, match="zero denominator"):
            parse_rational(bad)


def _parts(text):
    x = parse_rational(text)
    return x.numerator, x.denominator


def test_from_parts_reduces():
    assert _parts("2/4") == (1, 2)
    assert _parts("0012/0008") == (3, 2)


def test_from_parts_normalizes_sign():
    # the sign of a negative rational sits on the numerator
    assert _parts("-6/12") == (-1, 2)
    assert parse_rational("-6/12") == Fraction(-1, 2)


def test_from_parts_zero():
    assert _parts("0/7") == (0, 1)
    assert _parts("-0") == (0, 1)


def test_sample_bound_one():
    rng = derive_rng(0, "bound-one")
    values = {sample_rational(rng, 1) for _ in range(50)}
    assert values <= {Fraction(-1), Fraction(0), Fraction(1)}
    assert len(values) == 3


def test_sample_rejects_bad_bound():
    with pytest.raises(ValueError):
        sample_rational(derive_rng(0), 0)


def test_sample_deterministic():
    a = [sample_rational(derive_rng(99, "t"), 20) for _ in range(10)]
    b = [sample_rational(derive_rng(99, "t"), 20) for _ in range(10)]
    assert a == b


def test_sample_stays_in_range_and_reduced():
    rng = derive_rng(3, "range")
    from math import gcd
    for _ in range(500):
        x = sample_rational(rng, 7)
        assert abs(x.numerator) <= 7
        assert 1 <= x.denominator <= 7
        assert gcd(abs(x.numerator), x.denominator) == 1


def test_sample_mean_matches_enumeration():
    # exact mean of |p/q| over all reduced pairs, by brute-force enumeration
    from math import gcd
    total, count = Fraction(0), 0
    for p in range(-10, 11):
        for q in range(1, 11):
            if gcd(abs(p), q) == 1:
                total += abs(Fraction(p, q))
                count += 1
    exact_mean = total / count

    rng = derive_rng(42, "mean")
    draws = 10_000
    empirical = sum(abs(sample_rational(rng, 10)) for _ in range(draws)) / draws
    assert abs(empirical - exact_mean) < Fraction(1, 2)


def ref_sample_rational(rng, bound):
    """The sampler's contract written with `randint`: p, then q, until coprime."""
    from math import gcd
    while True:
        p = rng.randint(-bound, bound)
        q = rng.randint(1, bound)
        if gcd(abs(p), q) == 1:
            return Fraction(p, q)


@pytest.mark.parametrize("bound", range(1, 65))
def test_sample_stream_matches_randint_reference(bound):
    # bounds 1..64 cross every bit-width edge of 2*bound+1 and of bound
    # (1, 2, 4, 8, 16, 32, 64 and their neighbours)
    for label in ("a", "b", "c"):
        rng, ref = derive_rng(7, label, bound), derive_rng(7, label, bound)
        pairs = derive_rng(7, label, bound)
        drawn = [sample_rational(rng, bound) for _ in range(20)]
        assert drawn == [ref_sample_rational(ref, bound) for _ in range(20)]
        assert all(type(x) is Fraction for x in drawn)
        assert rng.getstate() == ref.getstate()
        # sample_ratio is the same draw as its reduced int pair
        assert ([sample_ratio(pairs, bound) for _ in range(20)]
                == [x.as_integer_ratio() for x in drawn])
        assert pairs.getstate() == ref.getstate()


@settings(max_examples=300, deadline=None)
@given(bound=st.integers(1, 60), n=st.integers(0, 12),
       seed=st.integers(0, 2**32))
def test_sample_ratios_is_n_single_draws(bound, n, seed):
    # one batched call takes the stream of n single draws, and leaves the
    # generator where they leave it
    rng, twin, ref = (derive_rng(seed, "ratios") for _ in range(3))
    drawn = sample_ratios(rng, bound, n)
    assert drawn == [sample_ratio(twin, bound) for _ in range(n)]
    assert drawn == [ref_sample_rational(ref, bound).as_integer_ratio()
                     for _ in range(n)]
    assert rng.getstate() == twin.getstate() == ref.getstate()


@pytest.mark.parametrize("bound", [0, -1, -20])
def test_sample_ratios_rejects_bad_bound(bound):
    for n in (0, 1, 5):
        with pytest.raises(ValueError, match="bound must be >= 1"):
            sample_ratios(derive_rng(0), bound, n)


def test_derive_rng_label_independence():
    # different label paths give different streams, same path the same one
    assert derive_rng(1, "x").random() == derive_rng(1, "x").random()
    assert derive_rng(1, "x").random() != derive_rng(1, "y").random()
    assert derive_rng(1, "trial", 0).random() != derive_rng(1, "trial", 1).random()
