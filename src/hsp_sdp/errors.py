"""Exception types shared across the package.

Every guard in the public API raises one of these rather than a bare
ValueError, so callers (and the CLI exit-code mapping) can tell configuration
mistakes apart from algorithmic failures.
"""


class HspError(Exception):
    """Base class for all package errors."""


class NotInvertible(HspError):
    """Modular inverse requested for a non-unit."""


class InvalidPrime(HspError):
    """p must be an odd prime."""


class RTooSmall(HspError):
    """Exponent r below the supported range."""


class Overflow(HspError):
    """Group order would exceed the documented 2**63 guard."""


class InvalidDescriptor(HspError):
    """Subgroup descriptor fields out of range for the group."""


class TooLarge(HspError):
    """Materialization / brute force guard exceeded."""


class RetriesExhausted(HspError):
    """A Las Vegas routine ran out of retry budget."""


class VerificationFailed(HspError):
    """A recovered subgroup failed oracle verification (must never happen)."""


class PreconditionViolated(HspError):
    """Caller broke a documented precondition."""
