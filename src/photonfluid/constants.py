"""Exact SI defining constants (SI 2019), the one source of physical units.

ħ is formed as h/2π from the exact h, like CODATA's own value, rather than
written as a rounded literal.
"""

import math

C = 299_792_458.0        # speed of light in vacuum, m/s
H = 6.62607015e-34       # Planck constant, J·s
HBAR = H / (2.0 * math.pi)
K_B = 1.380649e-23       # Boltzmann constant, J/K
