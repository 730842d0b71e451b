"""etalab: a desk-scale numerical laboratory for delocalized spectral
invariants of lattice operators over group algebras.

Modules
-------
groups
    Finitely generated group models, word metrics, conjugacy, growth counts.
group_algebra
    Matrix-coefficient group-algebra elements, convolution, weighted norms.
cyclic
    Cyclic cochains, coboundary and periodicity operators, trace pairings.
operators
    Equivariant operator backends and certified functional calculus.
eta
    Delocalized spectral-flow integrals, thresholds, tail certificates.
pairing
    Boundary loops of idempotents and the two-route pairing identity.
cli
    Command-line front end emitting JSON/CSV reports.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import errors  # noqa: F401
from .errors import (  # noqa: F401
    CertificateError,
    ConfigError,
    EtalabError,
    PreconditionError,
    RepresentationError,
    ResourceBudgetError,
)
