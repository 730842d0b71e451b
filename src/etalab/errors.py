"""Shared exception types.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map them onto stable exit codes:

* bad input / malformed representation      -> :class:`RepresentationError`,
  :class:`ConfigError`, :class:`PreconditionError`  (exit code 2)
* a certified invariant failed numerically  -> :class:`CertificateError`
  (exit code 1, the failing invariant is named)
* resource budget exceeded                  -> :class:`ResourceBudgetError`
  (exit code 3)
"""

from __future__ import annotations


class EtalabError(Exception):
    """Base class for all package-specific errors."""


class RepresentationError(EtalabError, ValueError):
    """An element, matrix, or cochain value is malformed for its model."""


class PreconditionError(EtalabError, ValueError):
    """A documented mathematical precondition of an operation is violated."""


class ConfigError(EtalabError, ValueError):
    """A config file or CLI argument could not be interpreted."""


class ResourceBudgetError(EtalabError, RuntimeError):
    """An enumeration or computation exceeded its declared budget."""


class CertificateError(EtalabError, RuntimeError):
    """A build-time or run-time certificate check failed.

    Parameters
    ----------
    invariant:
        Short name of the invariant that failed (machine-readable).
    message:
        Optional detail (the violation and the bound it missed).
    witness:
        Optional witness object (e.g. the tuple where a cochain identity
        breaks) for diagnostics.
    """

    def __init__(self, invariant: str, message: str = "", witness=None):
        self.invariant = invariant
        self.message = message
        self.witness = witness
        text = f"certificate failed: {invariant}"
        if message:
            text += f" ({message})"
        if witness is not None:
            text += f"; witness: {witness!r}"
        super().__init__(text)
