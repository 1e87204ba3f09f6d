"""Physical constants used throughout the toolkit.

Values are CODATA 2018 / SI 2019 and deliberately pinned rather than pulled
from an external source, so that numerical results are reproducible across
environments.
"""

BOHR_MAGNETON = 9.2740100783e-24  # J/T
PLANCK = 6.62607015e-34  # J*s (exact in SI 2019)

#: GHz per tesla per unit g-factor (mu_B / h, 13.996245 GHz/T), the slope used
#: by every field<->frequency conversion in the toolkit.
GHZ_PER_TESLA_PER_G = BOHR_MAGNETON / PLANCK * 1e-9
