"""Exception taxonomy shared across the toolkit."""


class NTError(Exception):
    """Base class for all toolkit errors."""


class ShapeMismatch(NTError):
    """Operand shapes are incompatible."""


class NonFiniteTensor(NTError):
    """An operation produced NaN or Inf values."""


class NonFiniteLoss(NTError):
    """Training loss became NaN or Inf; carries epoch/batch diagnostics."""


class InvalidArg(NTError):
    """Argument outside its documented domain."""


class ArchMismatch(NTError):
    """Networks do not share the architecture required by the operation."""


class ArchIncompatible(NTError):
    """Source network cannot be pruned down to the reference architecture."""


class UnsupportedTopology(NTError):
    """Layer graph is outside the supported sequential family."""


class EmptyLayer(NTError):
    """A pruning policy would remove every unit of a layer."""


class BadMagic(NTError):
    """File does not start with the expected magic bytes."""


class TruncatedFile(NTError):
    """File ended before the promised payload."""


class CountMismatch(NTError):
    """Paired files disagree on the number of records."""


class VersionUnsupported(NTError):
    """Checkpoint version byte is unknown to this build."""


class PayloadLengthMismatch(NTError):
    """Checkpoint payload length disagrees with the header architecture."""


class CorruptHeader(NTError):
    """Checkpoint header is not UTF-8 JSON in the expected schema."""


class BadSpec(NTError):
    """A JSON spec or descriptor lacks a required key or has one of the wrong type."""


class UsageError(NTError):
    """Bad command-line invocation."""
