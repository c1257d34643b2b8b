"""The bit-exact map-table file format.

    %bfmap 1
    src <p> <k> <m> <n>
    dst <p'> <k'> <m'> <n'>
    <X-text> -> <Y-text>        (exactly p^(k m n) data lines)

Matrix text is the row-major "0,1;2,3" encoding.  Lines starting with '#'
are comments.  The domain must be complete and duplicate-free.
"""

from __future__ import annotations

import numpy as np

from .errors import DuplicateKey, FormatError, IncompleteDomain
from .fields import make_field
from .homs import MapTable
from .matrices import Mat, space_size

MAGIC = "%bfmap 1"


def write_map_table(f: MapTable, path) -> None:
    with open(path, "w") as out:
        out.write(MAGIC + "\n")
        out.write(f"src {f.src_field.p} {f.src_field.k} {f.m} {f.n}\n")
        out.write(f"dst {f.dst_field.p} {f.dst_field.k} {f.m2} {f.n2}\n")
        for code in range(f.count):
            X = Mat.decode(f.src_field, code, f.m, f.n)
            out.write(f"{X.to_text()} -> {f.apply_code(code).to_text()}\n")


def _parse_header_line(lineno, line, tag):
    parts = line.split()
    if len(parts) != 5 or parts[0] != tag:
        raise FormatError(f"expected '{tag} p k m n'", line=lineno)
    try:
        p, k, m, n = (int(t) for t in parts[1:])
    except ValueError:
        raise FormatError(f"non-integer field in '{tag}' header", line=lineno) from None
    if min(m, n) < 1:
        raise FormatError(f"matrix shape in '{tag}' header must be positive", line=lineno)
    return make_field(p, k), m, n


def parse_map_table(path) -> MapTable:
    """Load and fully validate a map-table file.

    The header is checked against the file before anything is allocated:
    the domain must be enumerable and must have one data line per point.
    """
    with open(path) as fh:
        raw = fh.read().splitlines()
    lines = [(i + 1, s.strip()) for i, s in enumerate(raw)]
    lines = [(i, s) for i, s in lines if s and not s.startswith("#")]
    if not lines or lines[0][1] != MAGIC:
        raise FormatError(f"missing magic line '{MAGIC}'",
                          line=lines[0][0] if lines else 1)
    if len(lines) < 3:
        raise FormatError("truncated header", line=lines[-1][0])
    src_field, m, n = _parse_header_line(*lines[1], "src")
    dst_field, m2, n2 = _parse_header_line(*lines[2], "dst")
    count = space_size(src_field.q, m, n)
    data = lines[3:]
    if len(data) < count:
        raise IncompleteDomain(
            f"header declares {count} domain points, file has {len(data)} data lines")

    codes, rows = [], []
    seen = np.zeros(count, dtype=bool)
    for lineno, line in data:
        if "->" not in line:
            raise FormatError("expected '<X> -> <Y>'", line=lineno)
        left, right = (s.strip() for s in line.split("->", 1))
        try:
            X = Mat.from_text(src_field, left)
            Y = Mat.from_text(dst_field, right)
        except Exception as e:
            raise FormatError(f"bad matrix text: {e}", line=lineno) from None
        if X.shape != (m, n) or Y.shape != (m2, n2):
            raise FormatError("matrix shape disagrees with the header", line=lineno)
        code = X.encode()
        if seen[code]:
            raise DuplicateKey(f"domain point repeated at line {lineno}: {left}")
        seen[code] = True
        codes.append(code)
        rows.append(Y.a)
    if not seen.all():
        missing = int(np.nonzero(~seen)[0][0])
        raise IncompleteDomain(
            f"{int((~seen).sum())} domain points missing, first code {missing}")
    images = np.empty((count, m2, n2), dtype=dst_field.dtype)
    images[codes] = rows
    return MapTable(src_field, m, n, dst_field, m2, n2, images)
