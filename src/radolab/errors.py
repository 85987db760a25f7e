"""Shared error types."""


class CapExceededError(ValueError):
    """An input exceeds a size cap (columns, monomials or total degree)."""

    def __init__(self, cap: int, message: str = ""):
        self.cap = cap
        super().__init__(message or f"instance exceeds the enumeration cap ({cap})")
