"""Error taxonomy shared across the package.

Domain errors mean an argument outside the mathematical domain of an operation,
or an invalid experiment configuration.  Capability errors mean the request is
well posed but exceeds a deliberate size or feature limit.  Embedding errors
flag a broken circulant embedding, which the theory rules out for the kernels
used here, so they indicate an implementation bug rather than bad input.
"""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation, or a bad config."""


class CapabilityError(RuntimeError):
    """Request exceeds a documented size or feature limit."""


class EmbeddingError(RuntimeError):
    """Circulant embedding produced a materially negative eigenvalue."""
