"""Symbolic and numerical toolkit for the standard quantum sphere.

Layers, bottom up: exact and high-precision scalar fields, the quantum
group algebra with Haar state, an expression grammar with canonical
serialization, twisted derivations, matrix-seminorm contexts, and the
level-N transform with its spin spectrum.  The package root exports
only these exact layers, so `import qsphere` loads no numpy.  The
numerical layers, on numpy alone, are imported by name: norm and seminorm
estimators from `qsphere.specnorm`, distance lower bounds between the
level-N state and the counit from `qsphere.mkdist`, and the
verification suites from `qsphere.suites`.
"""

from .berezin import Berezin, BerezinSpectrum, SliceCheck
from .exprs import QExprError, canonical_json, element_to_obj, \
    element_to_text, parse_expression, scalar_to_obj
from .gns import FuzzyVector, GnsContext
from .qhopf import Algebra, AlgebraElement, Monomial, TensorElement, \
    make_algebra, make_algebra_float
from .session import SessionConfig, parse_q
from .uq_actions import UqActions

__version__ = "0.1.0"

__all__ = [
    "Algebra", "AlgebraElement", "Berezin", "BerezinSpectrum",
    "FuzzyVector", "GnsContext", "Monomial", "QExprError",
    "SessionConfig", "SliceCheck", "TensorElement", "UqActions",
    "canonical_json", "element_to_obj", "element_to_text", "make_algebra",
    "make_algebra_float", "parse_expression", "parse_q", "scalar_to_obj",
]
