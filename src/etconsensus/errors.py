"""Exception hierarchy shared by every module in the package."""

from __future__ import annotations


class EtcError(Exception):
    """Base class for all package-specific errors."""


class TopologyError(EtcError):
    """Graph structure is invalid: asymmetric adjacency, unknown agent, bad shape."""


class ConnectivityError(EtcError):
    """The communication graph is not connected."""


class ModelError(EtcError):
    """A dynamics model was given inconsistent dimensions or an empty sample grid."""


class CertificateError(EtcError):
    """A stability certificate is malformed, e.g. P is not symmetric positive definite."""


class NumericsError(EtcError):
    """A numeric computation produced non-finite values or failed to converge.

    When raised from inside a simulation run, ``partial_record`` holds the
    truncated run record covering every completed step, so callers can flush
    diagnostics before aborting. When raised by a step, ``stack`` holds the
    stepped [x; xhat] rows that went non-finite.
    """

    def __init__(self, message: str, partial_record=None, stack=None):
        super().__init__(message)
        self.partial_record = partial_record
        self.stack = stack


class UsageError(EtcError):
    """An operation was called in a context it does not support."""


class ConfigError(EtcError):
    """A configuration value is missing, of the wrong type, or violates a constraint."""


class DegenerateError(EtcError):
    """An analytic bound is undefined for the given inputs (division by zero scale)."""
