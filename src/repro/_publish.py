"""Atomic publication of a whole text file.

Every file the package rewrites in place — merged manifests, a
checkpoint's fresh generation, the RunLog index, the lint baselines and
lint cache entries — is staged in a temporary sibling of the target and
moved over it with one :func:`os.replace`, so a concurrent reader or a
crash mid-write sees the previous file or the new one, never a torn one
(lint rule RPR340).  The sibling shares the target's directory because
the rename is atomic only within one filesystem (RPR350).  The module
sits at the package root, beside :mod:`repro._bitops`, because the
tracing plane must not import :mod:`repro.exec` (RPR230).
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path

__all__ = ["publish_text"]


def publish_text(path: Path, text: str) -> None:
    """Replace ``path`` with a file holding ``text``, atomically.

    The parent directory must exist.  On failure the staging file is
    removed, ``path`` is untouched and the exception propagates.
    """
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w") as staging:
            staging.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
