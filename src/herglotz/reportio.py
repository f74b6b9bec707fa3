"""Deterministic report serialization: CSV/JSON writers, atomic file output.

CSV numbers carry 17 significant digits ('.' decimal separator, '\\n' line
endings) so values round-trip exactly; identical inputs produce bit-identical
files (no timestamps or environment-dependent content).
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def csv_text(header: Sequence[str], columns: Sequence) -> str:
    cols = [np.asarray(c).tolist() for c in columns]
    # one format per column: text as it is, numbers as fmt writes them
    row = ",".join("{}" if c and isinstance(c[0], (str, bytes)) else "{:.17g}"
                   for c in cols) + "\n"
    rows = list(zip(*cols))
    # the whole table in one format call, the values flattened row by row
    return ",".join(header) + "\n" + (row * len(rows)).format(*chain.from_iterable(rows))


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
