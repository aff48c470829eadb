"""kronkit: exact Kronecker coefficients for symmetric group characters.

The package layers a fast reduction pipeline (rectangle stability,
vanishing tests, closed two-row formulas) over a brute-force exact oracle
(border-strip character values and tableau enumeration), and ships
exhaustive sweeps that check the former against the latter.
"""

# Each layer exports the names in its __all__, in layer order.
from .errors import *
from .partitions import *
from .lr import *
from .characters import *
from .reductions import *
from .kronecker import *

from . import characters, errors, kronecker, lr, partitions, reductions

# The public surface: the __all__ of each layer, and nothing else.
__all__ = [
    name
    for layer in (errors, partitions, lr, characters, reductions, kronecker)
    for name in layer.__all__
]

__version__ = "0.1.0"
