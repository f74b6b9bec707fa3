"""Deterministic report serialization: CSV/JSON writers, atomic file output.

CSV numbers carry 17 significant digits ('.' decimal separator, '\\n' line
endings) so values round-trip exactly; identical inputs produce bit-identical
files (no timestamps or environment-dependent content).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def csv_text(header: Sequence[str], columns: Sequence) -> str:
    cols = [np.asarray(c) for c in columns]
    lines = [",".join(header)]
    for i in range(len(cols[0]) if cols else 0):
        cells = []
        for c in cols:
            v = c[i]
            cells.append(str(v) if isinstance(v, str) or c.dtype.kind in "US" else fmt(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_text_atomic(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path: Path, obj) -> None:
    write_text_atomic(path, json_text(obj))
