"""Exact coefficient statistics of polynomial families.

Counts coefficients of f(x)^n over finite fields through a digit
automaton, recovers the rational generating functions of those counts,
fits the periodic-plus-exponential law for g(x)^(q^m - c), and evaluates
the lattice-path / polytope / recurrence counting formulas for products
of shifting variable blocks -- all in exact integer and rational
arithmetic, cross-checkable against a brute-force expansion oracle.
"""

from .automaton import DigitAutomaton, build_automaton
from .ffield import Field, find_irreducible, is_primitive
from .mpoly import MultiPoly, ZZ, parse_poly
from .oracle import brute_power_census, brute_product_census
from .qpow import QPowProfile, count_qpow, fit_qpow_profile, splitting_degree
from .ratgen import (
    LinearRecurrence,
    RationalGF,
    fit_recurrence,
    fit_repunit_genfun,
    genfun_equal_as_series,
    seq_to_genfun,
)

__version__ = "0.1.0"

__all__ = [
    "DigitAutomaton",
    "Field",
    "LinearRecurrence",
    "MultiPoly",
    "QPowProfile",
    "RationalGF",
    "ZZ",
    "brute_power_census",
    "brute_product_census",
    "build_automaton",
    "count_qpow",
    "find_irreducible",
    "fit_qpow_profile",
    "fit_recurrence",
    "fit_repunit_genfun",
    "genfun_equal_as_series",
    "is_primitive",
    "parse_poly",
    "seq_to_genfun",
    "splitting_degree",
]
