"""eelab: a numerical laboratory for entropy solutions of the 2D eikonal equation.

Builds divergence-free unit test fields on grids, mollifies them, evaluates
entropy productions and their closed-form decompositions, constructs the
factorized kinetic measure, estimates Besov seminorms, and verifies the
coercive interaction functional - all with two independent computation paths
wherever an identity is claimed.
"""

__version__ = "0.1.0"
