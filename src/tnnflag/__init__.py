"""
Exact arithmetic for the totally nonnegative complete flag variety and its
tropicalization: cell parameterizations, Pluecker coordinates, extremal
indices, inverse maps, and certificate-producing membership tests.
"""

__version__ = "0.1.0"

# each library module's __all__ is the package's export list; the oracle,
# which only checks the library, is imported by name (tnnflag.oracle)
from .perms import *
from .algebra import *
from .wiring import *
from .plucker import *
from .extremal import *
from .membership import *
