"""The one way the package writes a file and decodes a text file."""

import os
from contextlib import suppress
from pathlib import Path

from .exceptions import FormatError


def _write(path, data):
    """Write bytes, a str (as UTF-8) or an iterable of bytes-like chunks to
    ``<path>.partial``, then rename it to path: an interrupted write leaves
    the old file or none."""
    data = data.encode("utf-8") if isinstance(data, str) else data
    partial = f"{path}.partial"
    try:
        with open(partial, "wb") as fh:
            for chunk in [data] if isinstance(data, bytes) else data:
                fh.write(chunk)
        os.replace(partial, path)
    except BaseException:
        with suppress(OSError):
            os.remove(partial)
        raise


def _read_text(path, what, error=FormatError):
    """path's UTF-8 text, newlines as written; other bytes raise error."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise error(f"{path}: not a UTF-8 {what}") from None
