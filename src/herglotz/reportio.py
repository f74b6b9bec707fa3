"""Deterministic report serialization: CSV/JSON writers, atomic file output.

CSV numbers carry 17 significant digits ('.' decimal separator, '\\n' line
endings) so values round-trip exactly; text fields are quoted as RFC 4180
says where they hold a comma, a quote or a line break. Identical inputs
produce bit-identical files (no timestamps or environment-dependent
content); their permissions follow the umask, as for open().
"""

from __future__ import annotations

import json
import os
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _field(text: str) -> str:
    """A CSV text field as RFC 4180 writes it: in double quotes, each quote
    doubled, when it holds a comma, a quote or a line break; else as it is."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_text(header: Sequence[str], columns: Sequence) -> str:
    cols = [np.asarray(c).tolist() for c in columns]
    # one format per column: text quoted by _field, each distinct value once,
    # numbers as fmt writes them ('%.17g' % v is '{:.17g}'.format(v))
    fmts = []
    for j, c in enumerate(cols):
        if c and isinstance(c[0], (str, bytes)):
            fields = {v: _field(str(v)) for v in set(c)}
            cols[j] = [fields[v] for v in c]
            fmts.append("%s")
        else:
            fmts.append("%.17g")
    row = ",".join(fmts) + "\n"
    rows = list(zip(*cols))
    # the whole table in one % over a tuple, the values flattened row by row
    return ",".join(header) + "\n" + (row * len(rows)) % tuple(chain.from_iterable(rows))


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_text_atomic(path: Path, text: str) -> None:
    """Write text to path as UTF-8 through a fresh file in the same
    directory, renamed over path once complete; a write that fails leaves no
    temporary file. The file is created with mode 0o666, so the umask
    decides the report's permissions, as for open(). The directory, parents
    included, is created only when the file cannot be opened without it."""
    path = os.fspath(path)
    data = memoryview(text.encode())
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        fd = os.open(tmp, flags, 0o666)
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp, flags, 0o666)
    try:
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path: Path, obj) -> None:
    write_text_atomic(path, json_text(obj))
