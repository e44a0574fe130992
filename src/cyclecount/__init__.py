"""Exact induced-cycle counting, constructions, bounds, and verification.

Every name lives in its submodule and is imported from there, for example
`from cyclecount.counting import count_fast`; the package root holds only
the version.
"""

__version__ = "0.1.0"
