"""Finite-orbit analysis for maximal unipotent automorphism group actions
on complete simplicial toric varieties, via exact fan combinatorics.

The package exports the two entry points of the documented API; every other
name is imported from its module (`unifan.orbits`, `unifan.families`, ...).
"""

__version__ = "0.1.0"

from .fan import validate_fan
from .pipeline import analyze_fan
