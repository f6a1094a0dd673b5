"""ConfVerify: the static binary verifier."""

from .verify import BinaryVerifier, verify_binary

__all__ = ["verify_binary", "BinaryVerifier"]
