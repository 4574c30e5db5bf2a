"""Exponents and bounds for rectangle probabilities of
rho-correlated uniform binary strings.

The package computes, for sets A, B on the hypercube {0,1}^n with rates
alpha = log2|A|/n and beta = log2|B|/n, the exponential decay rate of
P[X in A, Y in B]: exact finite-n oracles, exact sphere-pair exponents,
closed-form universal bounds, a support-aware hypercontractivity solver,
and a zero-error adder-channel feasibility scanner built on top.

Each module's ``__all__`` is the one list of its public names; the
package exports all of them.
"""

from .entropy import *
from .oracle import *
from .exponents import *
from .hypercontractivity import *
from .adder_mac import *
from .sweeps import *
from .verify import *
from . import adder_mac, entropy, exponents, hypercontractivity, oracle, sweeps, verify

__version__ = "0.1.0"

__all__ = [
    *entropy.__all__,
    *oracle.__all__,
    *exponents.__all__,
    *hypercontractivity.__all__,
    *adder_mac.__all__,
    *sweeps.__all__,
    *verify.__all__,
    "__version__",
]
