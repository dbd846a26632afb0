"""Exact quantization of torus cat maps.

Integer 2x2 matrices with the parity pattern (a*b and c*d even) act on
N-dimensional position space through explicit unitary propagators whose
entries are quadratic exponential sums.  The package builds these
propagators, evaluates the underlying Gauss sums in closed form, rewrites
matrices as words in a small set of generators, and checks the exact
identities the construction satisfies: multiplicativity, conjugation of
Weyl translation operators, dependence on the matrix only mod 4N, and
commuting families arising from congruence conditions.
"""

from .gauss import (GaussParams, VanishingError, gauss_closed,
                    gauss_closed_many, gauss_direct, is_nonvanishing)
from .hecke import (CapExceededError, NotCongruentError, commutant_mod,
                    congruent_companion, mod2N_factor, verify_hecke,
                    verify_mod4N)
from .numtheory import NotCoprimeError, jacobi
from .propagator import (MULT_TOL, UNITARITY_TOL, CaseTag, ExponentError,
                         InvalidParityError, Report, UnitarityError, build,
                         classify, h_phase, propagator_json, unitarity_defect,
                         verify_mult)
from .sl2 import (IDENTITY, P_MAT, S_MINUS, S_PLUS, T2_MINUS, T2_PLUS, TOKENS,
                  LiftError, Mat2, ModMatrix, NotThetaError, decompose,
                  evaluate, format_word, is_theta, lift_theta, parse_word,
                  random_theta, reduce_mod, reduce_word)
from .weyl import (EGOROV_TOL, compose_classical, egorov_mode_errors, quantize,
                   verify_egorov, weyl_op)

__version__ = "0.1.0"

__all__ = [
    "GaussParams", "VanishingError",
    "gauss_closed", "gauss_closed_many", "gauss_direct", "is_nonvanishing",
    "CapExceededError", "LiftError", "ModMatrix", "NotCongruentError",
    "commutant_mod", "congruent_companion", "lift_theta", "mod2N_factor",
    "reduce_mod", "verify_hecke", "verify_mod4N",
    "NotCoprimeError", "jacobi",
    "MULT_TOL", "UNITARITY_TOL", "CaseTag", "ExponentError",
    "InvalidParityError", "Report",
    "UnitarityError", "build", "classify", "h_phase", "propagator_json",
    "unitarity_defect", "verify_mult",
    "IDENTITY", "P_MAT", "S_MINUS", "S_PLUS", "T2_MINUS", "T2_PLUS",
    "TOKENS", "Mat2", "NotThetaError", "decompose", "evaluate",
    "format_word", "is_theta", "parse_word", "random_theta", "reduce_word",
    "EGOROV_TOL", "compose_classical", "egorov_mode_errors", "quantize",
    "verify_egorov", "weyl_op",
    "__version__",
]
