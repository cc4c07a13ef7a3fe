"""Typed errors for the exact-geometry toolkit.

Every geometric degeneracy that a randomized trial may legitimately hit
derives from DegenerateConfig, so trial drivers can catch exactly one
type and record a skip.  Contract violations (zero literal denominators,
exhausted samplers) are deliberately *not* members: they indicate bugs or
unusable sampling bounds, never skippable noise.
"""

from __future__ import annotations


class ButterflyError(Exception):
    """Base class for every error raised by this package."""


class ZeroDenominator(ButterflyError):
    """A rational value was requested with denominator zero."""


class DegenerateConfig(ButterflyError):
    """A configuration hit a geometric degeneracy; the trial is skipped."""


class DivisionByZero(DegenerateConfig):
    """Exact division by a zero scalar; the message carries the geometric context."""


class CoincidentPoints(DegenerateConfig):
    """Two points that must be distinct are equal."""


class ParallelLines(DegenerateConfig):
    """Two lines that must meet are parallel; carries both lines for diagnosis."""

    def __init__(self, message: str = "lines are parallel", l1=None, l2=None):
        super().__init__(message)
        self.lines = (l1, l2)


class CoincidentLines(DegenerateConfig):
    """Two lines that must be distinct are the same line."""


class CollinearPoints(DegenerateConfig):
    """Three points that must span a triangle are collinear."""


class NotCollinear(DegenerateConfig):
    """Points that must share a line do not."""


class DegenerateNewtonLine(DegenerateConfig):
    """The two diagonal midpoints coincide, so no Newton line exists."""


class CoincidentCircles(DegenerateConfig):
    """Two circles that must be distinct are equal."""


class PointNotOnCircle(DegenerateConfig):
    """A point required to lie on a circle does not (exact membership test)."""


class PointNotOnLine(DegenerateConfig):
    """A point required to lie on a line does not (exact incidence test)."""


class DenominatorVanishes(DegenerateConfig):
    """A rational function was evaluated where its denominator is zero."""


class SamplerExhausted(ButterflyError):
    """A sampler found no admissible configuration within its redraw budget.

    Not a skip: no trial can run, because the sampling bound admits too few
    values for the result's side conditions.
    """


class EmptyScene(ButterflyError):
    """A scene with no drawable content was handed to the renderer."""
