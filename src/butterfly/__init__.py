"""Exact verification of the butterfly theorem, two generalizations, and three lemmas.

Everything runs over exact fields: random checks use rational arithmetic,
symbolic proofs use rational functions in a, b, c, d, k, and geometric
predicates are decided with zero tolerance in both.  Constructions can
also be written as .geo files and verified or rendered through the CLI.
"""

from .errors import (
    ButterflyError,
    CoincidentCircles,
    CoincidentLines,
    CoincidentPoints,
    CollinearPoints,
    DegenerateConfig,
    DegenerateNewtonLine,
    DenominatorVanishes,
    DivisionByZero,
    EmptyScene,
    NotCollinear,
    ParallelLines,
    PointNotOnCircle,
    PointNotOnLine,
    SamplerExhausted,
    ZeroDenominator,
)
from .scalar import (
    derive_rng,
    field_div,
    format_rational,
    parse_rational,
    sample_ratio,
    sample_ratios,
    sample_rational,
)
from .poly import Polynomial
from .ratfun import RationalFunction
from .geom import (
    Circle,
    Line,
    Point,
    are_coaxial,
    are_concyclic,
    circle_on_diameter,
    circumcenter,
    circumcircle,
    cross_ratio,
    evaluate_object,
    harmonic,
    intersect_lines,
    is_collinear,
    is_midpoint,
    is_on_circle,
    is_on_line,
    is_parallel,
    is_perpendicular,
    line_side,
    line_through,
    midpoint,
    newton_line,
    on_unit_circle,
    parallelogram_fourth,
    pencil_cross_ratio,
    perp_bisector,
    perp_through,
    point_on,
    power_of_point,
    projective_point,
    second_intersection,
)
from .dsl import (
    Construction,
    Counterexample,
    DslError,
    DslNameError,
    DslSyntaxError,
    DslTypeError,
    VerificationReport,
    evaluate_construction,
    parse,
    to_source,
)
from .theorems import (
    ChordButterflyConfig,
    CyclicConfig,
    GaugeConfig,
    QuadConfig,
    build_chord,
    build_lemma2,
    build_lemma3,
    build_thm0,
    build_thm1,
    build_thm2,
    check_thm1_harmonic,
    check_thm2_perpendicularity,
    prove_lemma3,
    prove_thm1,
    prove_thm2,
    run_numeric,
    run_suite,
    sample_chord,
    sample_cyclic,
    sample_gauge,
    sample_lemma2,
    sample_quad,
)
from .render import Scene, render_svg, scene_from_construction

__version__ = "0.1.0"
