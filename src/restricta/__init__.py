"""restricta: digit-restricted prime counting, circle-method arc
bookkeeping, Markov eigenvalue certificates, and exact-measure metric
Diophantine approximation experiments.

The Python API is the layer modules, e.g. ``from restricta import fourier``.
"""

__version__ = "0.1.0"

from . import arcs, digit_systems, dioph, errors, fourier, gcdgraph, markov, primes  # noqa: F401
