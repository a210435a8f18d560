class BelforgeError(Exception):
    """Base class for all toolkit errors."""


class UsageError(BelforgeError):
    """Bad command line or configuration; maps to exit code 1."""


class DataError(BelforgeError):
    """Malformed or inconsistent input data; maps to exit code 2."""


class ArtifactError(BelforgeError):
    """Missing or unreadable artifact / I-O failure; maps to exit code 3."""


class NetworkError(BelforgeError):
    """Retryable network failure (endpoint unreachable, HTTP >= 400)."""


class UnencodableTextError(DataError):
    """Raised when a mention is empty after trimming or has no UTF-8 encoding
    (a lone surrogate), and so cannot be embedded."""
