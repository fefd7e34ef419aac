"""Shared exception types."""


class CapExceeded(RuntimeError):
    """An enumeration grew past its configured element cap."""


class OracleDisagreement(RuntimeError):
    """The fast engine and the brute-force oracle returned different answers.

    This should never happen; it indicates a bug in one of the two routes.
    """
