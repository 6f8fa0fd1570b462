"""Exception types raised by the MiniFS toolkit.

Everything derives from :class:`MiniFsError` so callers can catch the
whole family with one handler.  Parsing and validation problems carry
enough context in the message to locate the offending byte or record.
"""

from __future__ import annotations


class MiniFsError(Exception):
    """Base class for all toolkit errors."""


# --- on-disk structure decoding ---------------------------------------------

class BadMagic(MiniFsError):
    """The bytes at the expected position do not spell ``MINIFS``."""


class TruncatedTable(MiniFsError):
    """A file record names a chunk that the chunk table does not hold."""


class TruncatedImage(MiniFsError):
    """A computed region extends past the end of the available bytes."""


class OffsetOutOfRange(MiniFsError):
    """A byte offset points outside the region it addresses."""


class UnterminatedString(MiniFsError):
    """No NUL terminator before the end of the name pool."""


class NonAsciiName(MiniFsError):
    """A name string contains bytes outside printable ASCII."""


class UnsafePath(MiniFsError):
    """A joined path could escape the extraction root."""


class ArithmeticOverflow(MiniFsError):
    """Layout arithmetic exceeds the format's 32-bit addressing."""


class ValidationFailed(MiniFsError):
    """An image failed structural validation.

    ``violations`` holds the individual findings; the message summarises
    them.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:8])
        more = "" if len(self.violations) <= 8 else f" (+{len(self.violations) - 8} more)"
        super().__init__(f"{len(self.violations)} validation violation(s): {lines}{more}")


# --- chunk codec -------------------------------------------------------------

class UnknownConfigWord(MiniFsError):
    """The leading 4 bytes of a chunk are not a known configuration word."""

    def __init__(self, word: bytes, message: str | None = None):
        self.word = bytes(word)
        super().__init__(message or f"unknown chunk configuration word {self.word.hex()}")


class CorruptStream(MiniFsError):
    """The LZMA decoder rejected the chunk payload."""


class SizeMismatch(MiniFsError):
    """Decoded chunk length differs from the recorded decompressed size."""

    def __init__(self, expected: int, actual: int, message: str | None = None):
        self.expected = expected
        self.actual = actual
        super().__init__(message or f"decompressed to {actual} bytes, expected {expected}")


class ChunkTooLarge(MiniFsError):
    """A chunk record declares more decompressed bytes than the decoder accepts."""


class EncodeError(MiniFsError):
    """The LZMA encoder failed (should not happen for valid inputs)."""


# --- extraction / packing ----------------------------------------------------

class NotFound(MiniFsError):
    """A file selector matched no entry."""


class AmbiguousPath(MiniFsError):
    """A path selector matched more than one entry."""


class FileTooLarge(MiniFsError):
    """A single file exceeds the configured chunk capacity."""


class NamePoolTooLarge(MiniFsError):
    """The name pool would exceed 32-bit offset addressing."""


# --- scanning / fixtures -----------------------------------------------------

class EmptyInput(MiniFsError):
    """An operation that needs at least one byte received none."""


class UnknownShape(MiniFsError):
    """Requested fixture shape is not one of the known profiles."""
