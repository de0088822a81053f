"""Exact balanced-pair analysis of primitive substitutions.

Parses substitution rule files, computes exact spectral data of the
transition matrix (characteristic polynomial, Perron-Frobenius eigenvalue
and left eigenvector over its number field), runs the balanced pair
algorithm under plain, letter-class, and generalized length-vector balance
notions, and derives spectral verdicts from the coincidence structure of the
resulting pair graph.
"""

__version__ = "0.1.0"

from .engine import (BalancedPair, Budgets, Closure, DensityStats, PairGraph,
                     children, coincidence_analysis, coincidence_density,
                     initial_pairs, pair_graph, run_bpa)
from .equivalence import (LengthSpec, Relation, letter_equiv_classes,
                          resolve_length_vector)
from .errors import (BalpairError, EmptyConfig, InternalInvariantError,
                     NoExpandingFixedPoint, NotBalanced, NotClosed,
                     RuleSyntaxError, ScanOverflow, StabilityNotReached)
from .linalg import (EigenReport, char_poly, classify_spectrum, integer_form,
                     left_pf_eigenvector, perron_data)
from .numberfield import FieldScalar, NumberField
from .polynomial import RatPoly, factor_poly
from .substitution import (Alphabet, FixedPointStream, Letter, Substitution,
                           admissible_prefixes, auto_prefixes,
                           fixed_point_stream, parse_substitution,
                           population_vector)
from .verdict import (AnalysisConfig, AnalysisReport, CellResult,
                      RelationSpec, SpectrumVerdict, analyze, verdict)

__all__ = [name for name in dir() if not name.startswith("_")]
