"""Variational Cartan ideals on fibered coordinate charts.

Given a k-form theta (or the one-form factors of its differential) on a
bundle chart, the package builds the variational ideal (the contraction
forms psi of the problem), its characteristic distribution, the
critical-section PDE system, and reconstructs critical sections
numerically by integrating characteristic vector fields.  For a
volume-preserving field it assembles the action form, with the
orientation sign fixed by the parity of the phase dimension.
"""

from . import (
    symexpr,
    forms,
    linalg,
    ideals,
    decomp,
    varprin,
    flows,
    liouville,
    specio,
    fixtures,
)

__version__ = "0.1.0"

__all__ = [
    "symexpr",
    "forms",
    "linalg",
    "ideals",
    "decomp",
    "varprin",
    "flows",
    "liouville",
    "specio",
    "fixtures",
]
