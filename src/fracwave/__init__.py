"""fracwave: contour-integral functional calculus for almost sectorial
operators and Caputo wave-type Volterra equations (1 < alpha < 2).

The package namespace re-exports each library module's ``__all__``.
"""

__version__ = "0.1.0"

from . import contour, fractional, mittag_leffler, operator_model, propagators, solvers
from .mittag_leffler import *
from .fractional import *
from .operator_model import *
from .contour import *
from .propagators import *
from .solvers import *

# too generic a name for the package namespace: fracwave.operator_model.apply
del apply

__all__ = ["__version__"] + [
    name
    for module in (mittag_leffler, fractional, operator_model, contour, propagators, solvers)
    for name in module.__all__
    if name != "apply"
]
