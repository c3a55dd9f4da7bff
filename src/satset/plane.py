"""Projective planes of order q as immutable incidence structures.

A plane holds two cross-indexed arrays: ``line_points[j]`` lists the q+1
points of line j in ascending order, and ``point_lines[P]`` the q+1 lines
through point P.  Canonical PG(2,q) uses a fixed indexing of homogeneous
triples (leftmost nonzero coordinate normalised to 1):

    points 0 .. q^2-1      (1, a, b)   index = a*q + b
    points q^2 .. q^2+q-1  (0, 1, a)   index = q^2 + a
    point  q^2+q           (0, 0, 1)

Lines carry the identical encoding on their dual triples, and point P lies
on line L exactly when the dot product of the two triples vanishes.  As
that relation is symmetric, a canonical plane keeps one int32 table:
``point_lines`` is ``line_points``.  Loaded planes, arbitrarily labelled,
keep a second table inverted from the first.  The fixed indexing makes
every construction in this package reproducible.
"""

from __future__ import annotations

import functools
import io
import itertools
import string
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Iterable, NoReturn, Sequence

import numpy as np

from .gf import GaloisField, field_for_order

PLANE_HEADER = "PLANE v1"

# Largest plane `build_pg2` and `load_plane` make, in bytes of its n x (q+1)
# int32 table.  PG(2,512) needs 0.54 GB; PG(2,1024) would need 4.3 GB.
PLANE_BYTES_CAP = 1 << 31


def point_triple(q: int, index: int) -> tuple[int, int, int]:
    """Decode a canonical point (or dual line) index into its triple."""
    if not 0 <= index <= q * q + q:
        raise ValueError(f"index {index} out of range for order {q}")
    if index < q * q:
        return (1, index // q, index % q)
    if index < q * q + q:
        return (0, 1, index - q * q)
    return (0, 0, 1)


def triple_index(q: int, triple: Sequence[int]) -> int:
    """Encode a normalised triple (leftmost nonzero coordinate = 1)."""
    x, y, z = triple
    if x == 1:
        return y * q + z
    if x == 0 and y == 1:
        return q * q + z
    if x == 0 and y == 0 and z == 1:
        return q * q + q
    raise ValueError(f"triple {triple!r} is not normalised")


class PlaneAxiomError(ValueError):
    """Rows that parse but break an axiom of a projective plane."""


@dataclass
class ValidationReport:
    ok: bool
    failures: list[str]


class ProjectivePlane:
    """Incidence structure with q^2+q+1 points and lines, q+1 per line."""

    def __init__(self, q: int, line_points, origin: str):
        """A plane over the caller's rows, proven and copied.

        The axioms are checked on the raw rows, so ragged ones and
        out-of-range values get named; the plane keeps its own frozen
        int32 copy and never makes read-only an array its caller holds.
        """
        failure, table, point_lines = _check_axioms(line_points, q)
        if failure is not None:
            raise PlaneAxiomError("invalid plane: " + failure)
        self._adopt(q, np.array(table, dtype=np.int32, order="C"), point_lines, origin, None)

    @classmethod
    def _trusted(cls, q: int, line_points: np.ndarray, point_lines: np.ndarray,
                 origin: str, field: GaloisField | None = None) -> ProjectivePlane:
        """A plane over int32 tables the package has proven itself, adopted as they are."""
        plane = cls.__new__(cls)
        plane._adopt(q, line_points, point_lines, origin, field)
        return plane

    def _adopt(self, q, line_points, point_lines, origin, field) -> None:
        self.q = q
        self.n = q * q + q + 1
        self.origin = origin
        self.field = field
        self.line_points = line_points
        self.point_lines = point_lines
        self.line_points.setflags(write=False)
        self.point_lines.setflags(write=False)

    @staticmethod
    def _invert(line_points: np.ndarray, n: int, q: int) -> np.ndarray:
        """The lines through each point, ascending: one sort of keys point*n + line.

        Entry for entry this is a stable argsort of the entries grouped by
        point.  The keys are int32 while n*n fits (n <= 46340, q <= 214),
        which halves the bytes sorted, and int64 above.  Raises unless every
        point lies on exactly q+1 lines, that is unless each sorted key less
        n times its slot's point lies in [0, n).
        """
        key_type = np.int32 if n * n <= 1 << 31 else np.int64
        owner = np.repeat(np.arange(n, dtype=key_type), q + 1)
        keys = np.multiply(line_points.ravel(), n, dtype=key_type)
        keys += owner
        keys.sort()
        lines = np.subtract(keys, np.multiply(owner, n, out=owner), out=owner)
        if lines.min() < 0 or lines.max() >= n:
            raise ValueError("some point is not on exactly q+1 lines")
        return lines.astype(np.int32, copy=False).reshape(n, q + 1)

    def __eq__(self, other):
        # round-trip identity ignores the origin tag
        return (isinstance(other, ProjectivePlane)
                and self.q == other.q
                and np.array_equal(self.line_points, other.line_points))

    def __repr__(self):
        return f"ProjectivePlane(q={self.q}, n={self.n}, origin={self.origin!r})"

    def line_through(self, p: int, r: int) -> int:
        """Index of the unique line containing two distinct points."""
        return self._common(self.point_lines, p, r, "point", "line_through")

    def meet(self, l1: int, l2: int) -> int:
        """The unique common point of two distinct lines."""
        return self._common(self.line_points, l1, l2, "line", "meet")

    def _common(self, table: np.ndarray, a: int, b: int, kind: str, name: str) -> int:
        """The one entry rows a and b of `table` share, for `line_through` and `meet`."""
        a, b = _point_index(self, a, kind), _point_index(self, b, kind)
        if a == b:
            raise ValueError(f"{name} needs two distinct {kind}s")
        return int(np.intersect1d(table[a], table[b], assume_unique=True)[0])


def check_table_bytes(q: int) -> None:
    """Refuse an order whose int32 incidence table exceeds `PLANE_BYTES_CAP`."""
    if (needed := (q * q + q + 1) * (q + 1) * 4) > PLANE_BYTES_CAP:
        # a figure over 60 digits is shown in E notation, which Decimal writes
        # without the int-to-str conversion Python limits to 4300 digits
        mib = needed >> 20
        size = str(mib) if mib < 10 ** 60 else f"{Decimal(mib):.3e}"
        raise ValueError(f"PG(2,{_echo(str(q))}) needs a {size} MiB incidence table, "
                         f"above the {PLANE_BYTES_CAP >> 20} MiB ceiling")


def build_pg2(field: GaloisField) -> ProjectivePlane:
    """Canonical Desarguesian plane PG(2,q) over the given field.

    Each class of dual triples gets its rows from closed forms, in order.
    Incidence is symmetric (point j lies on line k exactly when k lies on
    j), so the one table serves as `point_lines` too.  Its degree check, a
    blocked count over every row, stays: an index >= n leaves some point
    short.  An order above `PLANE_BYTES_CAP` is refused before any table.
    """
    q = field.q
    n = q * q + q + 1
    check_table_bytes(q)
    add, mul, neg, inv = (field.tables[k] for k in ("add", "mul", "neg", "inv"))
    # div[d - 1, x] = x/d for d = 1 .. q-1
    div = mul[inv[1:]]
    a = np.arange(q, dtype=np.int32)
    aq = a * q
    qq = q * q
    line_points = np.empty((n, q + 1), dtype=np.int32)
    # grid[d1, d2] is line (1, d1, d2); for d2 != 0 it holds
    # (1, a, -(1 + d1 a)/d2) for every a, then (0, 1, -d1/d2)
    grid = line_points[:qq].reshape(q, q, q + 1)
    for d1 in range(q):
        grid[d1, 1:, :q] = np.take(div, neg[add[1, mul[d1, a]]], axis=1) + aq
        grid[d1, 1:, q] = qq + div[:, neg[d1]]
    # (1, d1, 0), d1 != 0: (1, -1/d1, b) for every b, then (0, 0, 1)
    grid[1:, 0, :q] = div[:, neg[1], None] * q + a
    grid[1:, 0, q] = n - 1
    # (1, 0, 0): every (0, 1, a), then (0, 0, 1)
    grid[0, 0] = np.append(qq + a, n - 1)
    # (0, 1, d2), d2 != 0: (1, a, -a/d2), then (0, 1, -1/d2)
    line_points[qq + 1:qq + q, :q] = np.take(div, neg[a], axis=1) + aq
    line_points[qq + 1:qq + q, q] = qq + div[:, neg[1]]
    # (0, 1, 0): every (1, 0, b), then (0, 0, 1)
    line_points[qq] = np.append(a, n - 1)
    # (0, 0, 1): every (1, a, 0), then (0, 1, 0)
    line_points[n - 1] = np.append(aq, qq)
    if np.any(_row_counts(line_points, None, n) != q + 1):
        raise ValueError("some point is not on exactly q+1 lines")
    return ProjectivePlane._trusted(q, line_points, line_points, "canonical-PG2", field)


@functools.lru_cache(maxsize=4)
def canonical_plane(q: int) -> ProjectivePlane:
    """Canonical PG(2,q) for a prime power q; the last four orders are cached.

    The bound keeps a sweep over many orders from holding every plane.  An
    order above `PLANE_BYTES_CAP` is refused before its field is built.
    """
    check_table_bytes(q)
    return build_pg2(field_for_order(q))


def validate_axioms(rows, q: int) -> ValidationReport:
    """Check the projective-plane axioms, reporting the first failure found.

    Accepts a 2-D integer array of line rows or a list of rows, ragged
    ones included.  Integer arrays are checked as they are, with no
    conversion to lists; an integral float is taken as the integer it
    equals.  The checks run in a fixed order and the first failure is the
    one reported: the line count; then the first row that is no sequence
    or has the wrong size, an entry that is not a whole number (a bool, a
    str, a fractional float), an index outside [0, n) or entries not
    strictly ascending (in that order within a row); the point degrees;
    and, point by point, every unordered pair lying on exactly one common
    line.  Together with the line-size and point-degree counts the last
    forces the dual axiom (two lines meet in exactly one point) by double
    counting, so it is not checked separately.

    The pair check is a cover check.  Once the earlier checks pass, the
    q+1 lines through p hold (q+1)q = n-1 slots besides p, one for each
    other point, so their union is every point exactly when every pair
    (p, x) has exactly one common line.  The lines are packed into n-bit
    rows, cut into column slabs of `_BIT_TABLE_BYTES` at most (one slab
    up to q = 151), and the points are taken in blocks of 512: each
    block's cover is one 512-row buffer into which the rows of its
    points' lines are ORed column by column.  A pair needs checking from
    one side only, so the block [s, s+512) ORs only the words from s >> 6
    onward.  The first point a per-point count fails, p*, misses some
    x0 > p* (an x0 < p* would fail first), a bit the slab holding x0
    keeps, while every earlier point covers all n points; so the least
    point the slabs refuse is p*, and one count there names the pair.
    """
    failure, _, _ = _check_axioms(rows, q)
    return ValidationReport(failure is None, [] if failure is None else [failure])


# Bytes of one column slab of the pair check's packed bit table, n rows of
# uint64 words: every word of a plane up to q = 151 fits in one slab.
_BIT_TABLE_BYTES = 1 << 26


def _check_axioms(rows, q: int) -> tuple[str | None, np.ndarray | None, np.ndarray | None]:
    """`validate_axioms`' first failure, or None, the checked table and its inverse."""
    n = q * q + q + 1
    if len(rows) != n:
        return f"line count: expected {n} lines, got {len(rows)}", None, None
    if isinstance(rows, np.ndarray) and rows.dtype.kind not in "iu":
        rows = rows.tolist()        # float, bool, str and object entries, one by one
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        sized = n if rows.shape[1] == q + 1 else 0
        table = rows[:sized] if rows.dtype.kind == "i" else rows[:sized].astype(np.int64)
    else:
        # the first row that is no sequence, has the wrong size or a non-integer
        # entry ends the table; entries are checked one by one only if some is no int
        ints = all(map(_is_int_type, set(map(type, itertools.chain.from_iterable(
            row for row in rows if hasattr(row, "__len__"))))))
        sized = next((j for j, row in enumerate(rows) if not hasattr(row, "__len__")
                      or len(row) != q + 1 or not (ints or all(map(_is_integer, row)))), n)
        try:
            table = np.array(rows[:sized], dtype=np.int64).reshape(sized, q + 1)
        except OverflowError:
            # an index beyond int64 is out of range however large: clip it to n
            table = np.array([[min(max(v, -1), n) for v in row] for row in rows[:sized]],
                             dtype=np.int64)
    bad_range = ((table < 0) | (table >= n)).any(axis=1)
    bad = np.flatnonzero(bad_range | (np.diff(table, axis=1) <= 0).any(axis=1))
    if bad.size:
        j = int(bad[0])
        if bad_range[j]:
            return f"point index: line {j} has an index outside [0, {n})", None, None
        return f"ascending: line {j} is not strictly ascending", None, None
    if sized < n:
        if not hasattr(rows[sized], "__len__"):
            return (f"line size: line {sized} is not a sequence of points, "
                    f"expected {q + 1}"), None, None
        if len(rows[sized]) == q + 1:
            return f"point index: line {sized} has a non-integer entry", None, None
        return (f"line size: line {sized} has {len(rows[sized])} points, "
                f"expected {q + 1}"), None, None
    degrees = _row_counts(table, None, n)
    if np.any(degrees != q + 1):
        bad = int(np.flatnonzero(degrees != q + 1)[0])
        return (f"point degree: point {bad} lies on {int(degrees[bad])} lines, "
                f"expected {q + 1}"), None, None
    point_lines = ProjectivePlane._invert(table, n, q)
    p = _first_uncovered_point(table, point_lines, n)
    if p < n:
        counts = np.bincount(table[point_lines[p]].ravel(), minlength=n)
        counts[p] = 1
        other = int(np.flatnonzero(counts != 1)[0])
        word = "no common line" if counts[other] == 0 else "more than one common line"
        return f"unique meet: points {p} and {other} have {word}", None, None
    return None, table, point_lines


def _is_int_type(t: type) -> bool:
    """Whether values of type t are integers: int or a numpy integer, not bool."""
    return issubclass(t, (int, np.integer)) and t is not bool


def _is_integer(value) -> bool:
    """Whether a row entry is a whole number: an int or an integral float, not a bool."""
    if isinstance(value, (float, np.floating)):
        return value.is_integer()
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _first_uncovered_point(table: np.ndarray, point_lines: np.ndarray, n: int) -> int:
    """The least point whose lines do not cover every point, or n.

    Line j is an n-bit row with bit x set when x is on it; the padding
    bits past n (n is odd, so the last word has some) are set in every
    row.  The words are cut into slabs [lo, hi) of as many as fit n rows
    in `_BIT_TABLE_BYTES`, each packed into one reused table and scanned
    in turn.  A slab is packed 256 lines at a time through one reused
    bool buffer, as wide as the slab, whose padding columns are set once:
    each block clears its other columns, sets its points in [lo, hi) with
    one flat scatter at intp indices row * (hi - lo) + point - lo, and
    `packbits` writes it straight into the block's rows of the slab.
    Points are taken 512 at a time, only below the least refused point
    found so far: the cover of the block [s, s+512) starts as the slab's
    rows, from word s >> 6 on, of each point's first line, and each
    further column of its `point_lines` rows is ORed into it in place, so
    one 512-row buffer is all the scan holds.  A point is refused when a
    bit of its cover is clear.
    """
    width, slab = 64 * -(-n // 64), 64 * max(1, _BIT_TABLE_BYTES // (8 * n))
    first, table_bits = n, np.empty((n, min(width, slab) // 64), dtype="<u8")
    for lo in range(0, width, slab):
        hi = min(width, lo + slab)
        bits = table_bits[:, :(hi - lo) // 64]
        on = np.zeros((256, hi - lo), dtype=bool)
        on[:, n - lo:] = True
        offsets = np.arange(-lo, 256 * (hi - lo) - lo, hi - lo, dtype=np.intp)[:, None]
        for s in range(0, n, 256):
            lines = table[s:s + 256]
            block = on[:len(lines)]
            block[:, :n - lo] = False
            flat = np.add(lines, offsets[:len(lines)], dtype=np.intp)
            if lo or hi < n:
                flat = flat[(lines >= lo) & (lines < hi)]
            on.ravel()[flat.ravel()] = True
            bits.view(np.uint8)[s:s + 256] = np.packbits(block, axis=1, bitorder="little")
        for s in range(0, min(first, hi), 512):
            lines, w = point_lines[s:s + 512], max(0, (s - lo) >> 6)
            cover = bits[lines[:, 0], w:]
            for c in range(1, lines.shape[1]):
                cover |= bits[lines[:, c], w:]
            refused = np.flatnonzero((~cover).any(axis=1))
            if refused.size:
                first = min(first, s + int(refused[0]))
                break
    return first


def _block_rows(n: int, width: int) -> int:
    """Rows of `width` entries in one block of about max(n, 2^16) entries."""
    return max(1, max(n, 1 << 16) // width)


def _row_counts(table: np.ndarray, rows: np.ndarray | None, n: int) -> np.ndarray:
    """How often each value in [0, n) occurs in `table[rows]` (all rows if None).

    One bincount per block of about max(n, 2^16) entries: no gather of
    every row, nor its intp copy, is made at once, and each block still
    outweighs the n counts its bincount returns.  Values >= n are dropped.
    """
    counts = np.zeros(n, dtype=np.int64)
    step = _block_rows(n, table.shape[1])
    for start in range(0, len(table) if rows is None else len(rows), step):
        block = slice(start, start + step)
        counts += np.bincount(table[block if rows is None else rows[block]].ravel(),
                              minlength=n)[:n]
    return counts


def line_hits(plane: ProjectivePlane, points: np.ndarray) -> np.ndarray:
    """How many of the given (distinct) points lie on each line.

    Reads only the lines through the points: O(len(points) q) work.
    """
    return _row_counts(plane.point_lines, points, plane.n)


def on_lines(plane: ProjectivePlane, lines: np.ndarray) -> np.ndarray:
    """Whether each point lies on any of the given lines, as a bool mask.

    One scatter per block of about max(n, 2^16) entries, through an intp
    copy of the block's rows: an int32 index sends numpy's fancy
    assignment down its slower casting path.
    """
    mask = np.zeros(plane.n, dtype=bool)
    step = _block_rows(plane.n, plane.q + 1)
    for start in range(0, len(lines), step):
        mask[plane.line_points[lines[start:start + step]].astype(np.intp)] = True
    return mask


def join_rows(plane: ProjectivePlane, points: list[int]) -> np.ndarray:
    """joins[k, x]: the line through points[k] and x, as int32.

    Row k is written from the pencil of points[k]; its own column holds
    one of the lines through it.
    """
    joins = np.empty((len(points), plane.n), dtype=np.int32)
    for k, s in enumerate(points):
        lines = plane.point_lines[s]
        joins[k, plane.line_points[lines]] = lines[:, None]
    return joins


def _point_index(plane: ProjectivePlane, v, kind: str = "point") -> int:
    """v as an int: an int or numpy integer, not a bool, in [0, n); else ValueError."""
    if not _is_int_type(type(v)):
        raise ValueError(f"{kind} index {_echo(repr(v))} is not an integer")
    if not 0 <= v < plane.n:
        # Decimal writes an index past int's 4300-digit str limit, which _echo cuts
        raise ValueError(f"{kind} index {_echo(f'{Decimal(int(v)):f}')} outside [0, {plane.n})")
    return int(v)


def _point_indices(plane: ProjectivePlane, points: Iterable[int]) -> np.ndarray:
    """The given points as one intp array.

    An integer array is taken by its dtype alone; other input is read
    entry by entry, and the first bool or non-integer entry (a float, even
    an integral one) raises, as does the first index outside [0, n).
    """
    if isinstance(points, np.ndarray) and points.dtype.kind not in "iu":
        points = points.tolist()        # bool, float and object entries, one by one
    if not isinstance(points, np.ndarray):
        points = list(points)
        if not all(map(_is_int_type, set(map(type, points)))):
            _point_index(plane, next(v for v in points if not _is_int_type(type(v))))
    try:
        # an unsigned array is checked before its cast, where 2**63 and up would wrap
        unsigned = isinstance(points, np.ndarray) and points.dtype.kind == "u"
        idx = points if unsigned else np.asarray(points, dtype=np.intp)
        bad = idx[(idx < 0) | (idx >= plane.n)]
    except OverflowError:        # beyond intp, so outside the plane as well
        bad = [v for v in points if not 0 <= v < plane.n]
    if len(bad):
        _point_index(plane, bad[0])         # raises: it lies outside the plane
    return idx.astype(np.intp, copy=False)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _echo(text: str) -> str:
    """Input text for an error message, cut to 40 characters and marked '...'."""
    return text if len(text) <= 40 else text[:40] + "..."


def save_plane(plane: ProjectivePlane, destination) -> None:
    """Write the plane file: header, order, then one ascending row per line."""
    out = [PLANE_HEADER, f"q={plane.q}"]
    out.extend(" ".join(str(v) for v in row) for row in plane.line_points.tolist())
    Path(destination).write_text("\n".join(out) + "\n")


def load_plane(source) -> ProjectivePlane:
    """Read and fully validate a plane file; raises ValueError on any defect.

    The file is read once, front to back, so a pipe serves as well.  The
    data rows are parsed once into one int32 table, which is checked and
    inverted as an array.  A token, the order's too, is an ASCII decimal
    integer with at most one sign (`_decimal`).  The first defect in file
    order is the one reported, as the row-by-row checks find it: leading
    or trailing whitespace, then a non-integer token, then the first
    failure of `validate_axioms`, a `PlaneAxiomError`.  An order above
    `PLANE_BYTES_CAP` is refused from the first two lines, before the rest.
    """
    with Path(source).open() as f:
        header, order = f.readline(), f.readline()
        q = (_decimal(order[2:].removesuffix("\n"))
             if header == PLANE_HEADER + "\n" and order[:2] == "q=" else None)
        if q is not None:
            check_table_bytes(q)
        body = f.read()
    if not (body or order or header or "\n").endswith("\n"):     # an empty file passes
        raise ValueError("plane file must end with a newline")
    if not order:
        raise ValueError("plane file is missing its header")
    if header != PLANE_HEADER + "\n":
        raise ValueError(f"bad header: expected {PLANE_HEADER!r}, got {_echo(repr(header[:-1]))}")
    if not order.startswith("q="):
        raise ValueError("second line must be q=<order>")
    if q is None:
        raise ValueError(f"bad order line {_echo(repr(order[:-1]))}")
    if q < 2:
        raise ValueError(f"order must be >= 2, got {_echo(str(q))}")
    n = q * q + q + 1
    if (rows := body.count("\n")) != n:
        raise ValueError(f"line count: expected {n} data rows, got {rows}")
    table = _parse_rows(body)
    if table is None or len(table) != n:
        _raise_first_row_failure(body.split("\n")[:-1], q)
    del body        # the parsed table is all the checks read
    failure, _, point_lines = _check_axioms(table, q)
    if failure is not None:
        raise PlaneAxiomError("axiom failure: " + failure)
    return ProjectivePlane._trusted(q, table, point_lines, "loaded-file")


_ROW_CHARS = b"0123456789+- \n"


def _parse_rows(body: str) -> np.ndarray | None:
    """The data rows as one int32 table, or None if the parse fails.

    It fails on any character but digits, signs, spaces and newlines, on
    a token numpy cannot read as an int32 (the empty one a leading,
    trailing or doubled space makes included) and on rows of unequal
    length.  It skips blank rows, so the caller checks the row count too.
    """
    if not body.isascii() or (raw := body.encode("ascii")).translate(None, _ROW_CHARS):
        return None
    try:
        return np.loadtxt(io.BytesIO(raw), dtype=np.int32, delimiter=" ", comments=None, ndmin=2)
    except ValueError:
        return None


def _raise_first_row_failure(data: list[str], q: int) -> NoReturn:
    """Raise why `_parse_rows` refused the data rows, found row by row.

    Only a failed parse calls this.  Every refused file fails here: a
    refused character, an unreadable token or a blank row fails the
    whitespace or token test, a token outside int32 the range check and
    rows of unequal length the size check.
    """
    rows, n = [], q * q + q + 1
    for j, row_text in enumerate(data):
        if row_text != row_text.strip():
            raise ValueError(f"line {j}: leading or trailing whitespace")
        tokens = row_text.split(" ")
        if not all(map(_is_decimal, tokens)):
            raise ValueError(f"line {j}: non-integer token")
        # a token too long for `_decimal` lies outside the plane, as one beyond int64
        rows.append([n if (v := _decimal(tok)) is None else v for tok in tokens])
    raise PlaneAxiomError("axiom failure: " + _check_axioms(rows, q)[0])


def _is_decimal(token: str) -> bool:
    """Whether a token is ASCII decimal digits after at most one leading sign.

    `int` takes more: underscores between digits and non-ASCII digits.
    """
    digits = token[1:] if token[:1] in ("+", "-") else token
    return digits.isascii() and digits.isdigit()


def _decimal(token: str) -> int | None:
    """The value of a token `_is_decimal` accepts, else None, as past `int`'s digit limit."""
    try:
        return int(token) if _is_decimal(token) else None
    except ValueError:
        return None


def save_point_set(points: Iterable[int], destination) -> None:
    """Write a point-set file: one ascending index per line."""
    out = "\n".join(str(v) for v in sorted(points))
    Path(destination).write_text(out + "\n" if out else "")


def load_point_set(source) -> set[int]:
    """Read a point-set file: ascending indices, ``#`` comments allowed.

    An index is an ASCII decimal integer with at most one sign, as in a
    plane file; a negative one is left for the caller's range check.  Only
    ASCII whitespace around it is dropped, so a no-break space is refused.
    """
    values = []
    for ln, raw in enumerate(Path(source).read_text().split("\n"), start=1):
        body = raw.split("#", 1)[0].strip(string.whitespace)
        if not body:
            continue
        if (v := _decimal(body)) is None:
            raise ValueError(f"line {ln}: expected a point index, got {_echo(repr(body))}")
        if values and v <= values[-1]:
            raise ValueError(f"line {ln}: indices must be strictly ascending")
        values.append(v)
    return set(values)
