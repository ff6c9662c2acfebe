"""Typed errors raised across the pipeline.

Parsing and numeric failures never surface as bare asserts or panics;
every malformed input maps to one of these classes so callers (and the
CLI exit-code contract) can tell config, data, and numeric failures apart.
"""


class MosDistillError(Exception):
    """Base class for every error this package raises deliberately."""


class IoFailure(MosDistillError):
    """A file could not be opened, read, or written."""


class MalformedScan(MosDistillError):
    """Scan file size or contents violate the binary point layout."""


class MalformedLabel(MosDistillError):
    """Label file size is not a whole number of 32-bit records."""


class LabelCountMismatch(MosDistillError):
    """Label record count disagrees with the companion scan."""


class MalformedPoseLine(MosDistillError):
    """A pose line does not hold 12 finite floats."""


class MalformedCalib(MosDistillError):
    """Calibration file lacks a well-formed extrinsic line."""


class ShapeMismatch(MosDistillError):
    """Array arguments disagree in shape where they must match."""


class LengthMismatch(MosDistillError):
    """Paired sequences disagree in length."""


class EmptyFrame(MosDistillError):
    """An operation requiring at least one valid cell got none."""


class FormatError(MosDistillError):
    """A binary container has a bad magic, version, or size arithmetic."""


class ConfigError(MosDistillError):
    """A configuration value or key is invalid."""


class IndexOutOfRange(MosDistillError, IndexError):
    """A frame, sequence or class index is outside the valid range."""


class NonFiniteLoss(MosDistillError):
    """Training produced a NaN or infinite loss value."""

    def __init__(self, message: str, frame_id: int | None = None) -> None:
        super().__init__(message)
        self.frame_id = frame_id
