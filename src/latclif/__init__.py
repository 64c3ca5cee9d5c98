"""latclif: exact discrete differential forms and Clifford operators on symmetric lattices."""

from .coeffs import (
    BoxFunction,
    EmptyValidityError,
    ExactPolynomial,
    diff,
    shift,
    skew_diff,
    star_laplacian,
    sym_diff,
)
from .forms import Form, blade_mul, d, d_minus, d_plus, dagger, involution, reversion
from .operators import Operator, anticommutator, commutator, gamma, upsilon, vartheta, xi
from .scalars import Scalar
from .universal import Reduction, Torus, UForm, adjacency, theta

__version__ = "0.1.0"

__all__ = [
    "BoxFunction",
    "EmptyValidityError",
    "ExactPolynomial",
    "Form",
    "Operator",
    "Reduction",
    "Scalar",
    "Torus",
    "UForm",
    "adjacency",
    "anticommutator",
    "blade_mul",
    "commutator",
    "d",
    "d_minus",
    "d_plus",
    "dagger",
    "diff",
    "gamma",
    "involution",
    "reversion",
    "shift",
    "skew_diff",
    "star_laplacian",
    "sym_diff",
    "theta",
    "upsilon",
    "vartheta",
    "xi",
]
