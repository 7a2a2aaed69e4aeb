"""Text and JSON files: every file the package writes appears whole or not at
all, and every text file it reads is decoded here."""

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

from .errors import FormatError


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Yield a temp file next to ``path`` that replaces ``path`` on a clean
    exit; on an error the temp file is removed and ``path`` is left as it was."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def read_text(path, what: str) -> str:
    """The UTF-8 text in ``path``, the ``what`` named in errors, with a leading
    byte-order mark skipped and line ends kept as stored."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{what} {path} is not UTF-8 text: {exc}") from exc


def read_json_object(path, what: str) -> dict:
    """The JSON object in the text file ``path``."""
    try:
        payload = json.loads(read_text(path, what))
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed {what} {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{what} {path} must hold a JSON object")
    return payload


def write_json(path, payload) -> None:
    """Write ``payload`` as JSON with sorted keys, indent 2 and a final newline."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
