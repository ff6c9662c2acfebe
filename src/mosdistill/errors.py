"""Typed errors raised across the pipeline.

Parsing and numeric failures never surface as bare asserts or panics;
every malformed input maps to one of these classes so callers (and the
CLI exit-code contract) can tell config, data, and numeric failures apart.
Each class carries its CLI exit code: 1 config, usage or I/O, 2 malformed
or mismatched data, 3 numeric failure.
"""

from contextlib import contextmanager
from pathlib import Path


class MosDistillError(Exception):
    """Base class for every error this package raises deliberately."""

    exit_code = 1


class DataError(MosDistillError):
    """Input data is malformed or disagrees with its companions."""

    exit_code = 2


class IoFailure(MosDistillError):
    """A file could not be opened, read, or written."""


@contextmanager
def file_errors(verb: str, what: str, path):
    """The one file-error path: an OSError inside the block becomes
    IoFailure ``cannot <verb> <what> <path>: <reason>``."""
    try:
        yield
    except OSError as exc:
        raise IoFailure(f"cannot {verb} {what} {path}: {exc}") from exc


def read_file(path, what: str, text: bool = False) -> bytes | str:
    """``path``'s bytes, or its text as UTF-8 with bad bytes replaced; an
    OSError becomes IoFailure naming ``what``."""
    with file_errors("read", what, path):
        p = Path(path)
        return p.read_text(encoding="utf-8", errors="replace") if text else p.read_bytes()


def write_file(path, data: bytes | memoryview | str, what: str) -> None:
    """Write text or bytes to ``path``; an OSError becomes IoFailure naming ``what``."""
    with file_errors("write", what, path):
        if isinstance(data, str):
            Path(path).write_text(data)
        else:
            Path(path).write_bytes(data)


def make_dirs(path, what: str) -> None:
    """``mkdir -p path``; an OSError becomes IoFailure naming ``what``."""
    with file_errors("write", what, path):
        Path(path).mkdir(parents=True, exist_ok=True)


class MalformedScan(DataError):
    """Scan file size or contents violate the binary point layout."""


class MalformedLabel(DataError):
    """Label file size is not a whole number of 32-bit records."""


class LabelCountMismatch(DataError):
    """Label record count disagrees with the companion scan."""


class MalformedPoseLine(DataError):
    """A pose line does not hold the 12 floats of a rigid transform."""


class MalformedCalib(DataError):
    """A calib file lacks a ``Tr:`` line holding a rigid extrinsic."""


class ShapeMismatch(DataError):
    """Array arguments disagree in shape where they must match."""


class LengthMismatch(DataError):
    """Paired sequences disagree in length."""


class EmptyFrame(MosDistillError):
    """An operation requiring at least one valid cell got none."""


class FormatError(DataError):
    """A binary container has a bad magic, version, or size arithmetic."""


class ConfigError(MosDistillError):
    """A configuration value or key is invalid."""


class IndexOutOfRange(MosDistillError, IndexError):
    """A frame, sequence or class index is outside the valid range."""


class NonFiniteLoss(MosDistillError):
    """Training produced a NaN or infinite loss value."""

    exit_code = 3
