"""Variational Cartan ideals on fibered coordinate charts.

Given a k-form theta (or the one-form factors of its differential) on a
bundle chart, the package builds the variational ideal (the contraction
forms psi of the problem), its characteristic distribution, the
critical-section PDE system, and reconstructs critical sections
numerically by integrating characteristic vector fields.  For a
volume-preserving field it assembles the action form, with the
orientation sign fixed by the parity of the phase dimension.

Submodules load on first use (`import cartanvp.forms`, or the attribute
`cartanvp.forms`), so a process imports only what it runs; numpy is
loaded by the numeric code alone (`flows`, sampled rank certificates,
the Frobenius fallback, the fixture checks).
"""

import importlib

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


def __getattr__(name: str):
    # PEP 562: a submodule of __all__ is imported on its first attribute
    # access, after which it is an attribute of the package
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
