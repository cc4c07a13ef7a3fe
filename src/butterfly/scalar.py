"""Exact scalar arithmetic shared by both backends of the geometry kernel.

A "scalar" anywhere in this package is either a `fractions.Fraction`
(numeric work) or a `RationalFunction` over Q(a, b, c, d, k) (symbolic
work, see `ratfun`).  The two meet a common protocol — the arithmetic
operators plus truthiness, where ``bool(x)`` is False exactly for the
zero element — which keeps the kernel generic without a class hierarchy.
No floats appear anywhere; equality is exact.  `parse_rational` reads the
"p/q" form `format_rational` writes, and rejects a zero denominator.

Seeded sampling has one rejection loop, `sample_ratios`, which draws n
values in one call, each as its reduced int pair (p, q); `sample_ratio` is
its one-value case.  The samplers in `theorems` take one batched draw per
candidate and test it on the pairs before they build any `Fraction`, and
`.geo` trials bind each parameter to its pair.  `sample_rational` is the
same draw as a `Fraction`, for callers that want `Fraction`s.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from random import Random

from .errors import DivisionByZero, ZeroDenominator


def field_div(x, y, context: str = "division by zero"):
    """x / y, raising a typed error that names the geometric situation."""
    if not y:
        raise DivisionByZero(context)
    return x / y


def format_rational(x: Fraction) -> str:
    """Canonical "p/q" form ("p" alone when q = 1)."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# What format_rational prints, plus unreduced fractions such as "6/4":
# ASCII digits only ([0-9], not \d, which matches every Unicode digit).
_RATIONAL_LITERAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse the canonical "p/q" form; inverse of format_rational.

    Accepted: ASCII digits with one optional leading "-", then optionally
    "/" and an ASCII-digit denominator.  Anything else (a sign on the
    denominator, "+", "_", whitespace, non-ASCII digits) raises ValueError,
    and a zero denominator raises ZeroDenominator.  The result is reduced,
    with a positive denominator.
    """
    if not _RATIONAL_LITERAL.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    num, den = int(num), int(den or 1)
    if not den:
        raise ZeroDenominator(f"rational with zero denominator: {num}/0")
    return Fraction(num, den)


def sample_ratios(rng: Random, bound: int, n: int) -> list[tuple[int, int]]:
    """n uniform draws of a reduced pair (p, q), |p| <= bound, 1 <= q <= bound.

    Each pair is what `Fraction(p, q).as_integer_ratio()` returns, so equal
    pairs are equal rationals, and a caller can test a candidate on the
    ints before it builds a `Fraction`.

    Rejection sampling over the (p, q) grid: p is drawn, then q, and a
    reduced pair is kept, any other redrawn, so every reduced fraction in
    range is equally likely.  Each of p and q takes the draws
    `rng.randint(-bound, bound)` and `rng.randint(1, bound)` would take:
    `getrandbits` of the range width's bit length, repeated until the value
    falls inside the width.  The stream is therefore the randint stream,
    draw for draw, and deterministic for a given generator state; n draws
    in one call take the stream of n single draws, with the setup done
    once.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    getrandbits = rng.getrandbits
    width = 2 * bound + 1
    p_bits, q_bits = width.bit_length(), bound.bit_length()
    pairs = []
    for _ in range(n):
        while True:
            p = getrandbits(p_bits)
            while p >= width:
                p = getrandbits(p_bits)
            q = getrandbits(q_bits)
            while q >= bound:
                q = getrandbits(q_bits)
            p -= bound
            q += 1
            if gcd(p, q) == 1:
                break
        pairs.append((p, q))
    return pairs


def sample_ratio(rng: Random, bound: int) -> tuple[int, int]:
    """One draw of `sample_ratios`: the same stream."""
    return sample_ratios(rng, bound, 1)[0]


def sample_rational(rng: Random, bound: int) -> Fraction:
    """The draw of `sample_ratio` as a Fraction: the same stream, for
    callers that want `Fraction`s."""
    return Fraction(*sample_ratio(rng, bound))


def derive_rng(seed: int, *labels: object) -> Random:
    """Independent deterministic generator for one trial or task.

    Seeding by the label path string makes streams for different labels
    independent of each other and of execution order, so trials are
    replayable individually and could run in parallel without changing
    what any one of them draws.
    """
    return Random(":".join([str(seed), *(str(item) for item in labels)]))
