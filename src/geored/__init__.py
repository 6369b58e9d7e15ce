"""geored: numerical verification of geometric reduction procedures and
constrained relativistic particle dynamics."""

from geored.dualnum import Dual

__version__ = "0.1.0"
__all__ = ["Dual", "__version__"]
