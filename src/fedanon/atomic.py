"""All-or-nothing file writes.

Every persisted artifact (the delta log, the reports, the utility table) is
written here: each file goes to a temporary name beside its target first,
and only once all of them are written are they renamed into place, so a
failed write leaves the previous files as they were.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Mapping


def replace_files(contents: Mapping[Path, bytes]) -> None:
    """Write each path's bytes under `.<name>.tmp` beside it, then rename
    every temporary onto its path; temporaries never outlive the call."""
    temps = {path: path.with_name(f".{path.name}.tmp") for path in contents}
    try:
        for path, data in contents.items():
            temps[path].write_bytes(data)
        for path, temp in temps.items():
            os.replace(temp, path)
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
