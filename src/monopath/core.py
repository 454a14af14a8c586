"""Core data model: colourings of K_n, monochromatic paths, path covers.

Vertices are the integers 1..n.  A colouring assigns every unordered pair
{u, v} one of two colours, red or blue.  Internally the colouring keeps one
integer bitmask per vertex and per colour (bit i set means vertex i+1 is a
neighbour in that colour), which makes common-neighbour queries single AND
operations and keeps induced-subgraph extraction cheap.
"""

from __future__ import annotations

import bisect
import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence


class MonopathError(Exception):
    """Base class for all package errors."""


class InvalidEdge(MonopathError):
    """Raised when an edge query names a loop or an out-of-range vertex."""


class GuardFailed(MonopathError):
    """Raised when a construction cannot certify its target bound."""


class Colour(enum.Enum):
    RED = "R"
    BLUE = "B"

    @property
    def complement(self) -> "Colour":
        return Colour.BLUE if self is Colour.RED else Colour.RED

    def __repr__(self) -> str:  # keeps reprs short in traces
        return self.name


RED = Colour.RED
BLUE = Colour.BLUE


def iter_edges(n: int) -> Iterator[tuple[int, int]]:
    """Edges of K_n in row-major order: (1,2), (1,3), ..., (1,n), (2,3), ..."""
    return itertools.combinations(range(1, n + 1), 2)


def edge_count(n: int) -> int:
    return n * (n - 1) // 2


# edge colours as bytes: 0/1 values <-> the ASCII digits int(..., 2) reads
_BOOL_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_BOOLS = bytes.maketrans(b"01", b"\x00\x01")


def _bit(v: int) -> int:
    # vertex v <-> bit v-1
    return 1 << (v - 1)


def vertex_mask(vertices: Iterable[int]) -> int:
    """The bitmask with bit v-1 set for every vertex v (ValueError below 1);
    from 28 + top/28 vertices on, one parse of a digit 1 per vertex, not one OR each."""
    vs = vertices if hasattr(vertices, "__len__") else list(vertices)
    if len(vs) > 28 and (len(vs) - 28) * 28 >= (top := max(vs)) and min(vs) >= 1:
        digits = bytearray(b"0") * (top + 1)  # digit v: vertex v
        for v in vs:
            digits[v] = 49  # ord("1")
        return int(digits[:0:-1], 2)
    mask = 0  # short, sparse or below 1 (which raises)
    for v in vs:
        mask |= 1 << (v - 1)
    return mask


def mask_vertices(mask: int) -> list[int]:
    """The vertices of a bitmask, ascending (ValueError below 0).  A mask
    over 64 bits wide with at least one bit in 8 set is listed in one C-level
    pass over bin()'s digits, not one whole-mask pop per vertex.  On a 2-vCPU
    Xeon host the two cost the same at about 17 set bits of 100, 60 of 500,
    125 of 1,000 and 190 of 2,000; with 1,912 of 2,000 set the digit pass
    took 73 us and the pops 655 us."""
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    if (top := mask.bit_length()) > 64 and mask.bit_count() * 8 >= top:
        digits = bin(mask)[:1:-1].encode().translate(_DIGIT_BOOLS)  # v at v - 1
        return list(itertools.compress(range(1, top + 1), digits))
    out = []  # narrow or sparse: one pop per vertex
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length())
    return out


def grow_end(rows: Sequence[int], path: list[int], free: int) -> int:
    """Extend path at its last vertex, lowest free neighbour first, until
    that end has no neighbour in free; rows[v - 1] is vertex v's mask, and
    free holds no vertex of path.  Returns what is left of free."""
    cand = rows[path[-1] - 1] & free
    while cand:
        low = cand & -cand
        free ^= low
        w = low.bit_length()
        path.append(w)
        cand = rows[w - 1] & free
    return free


def _columns(rows: Sequence[int], n: int, cols: Iterable[int]) -> list[int]:
    """For each v in cols, the mask whose bit i is bit v-1 of rows[i]; every
    row is below 2**n.

    Vertex v is the digit at n - v of a row's n-digit binary string.  The
    rows fill one len(rows) x n digit matrix, last row first, so each mask is
    a column of it read as binary: one C-level slice per row and per column,
    not one digit gather per entry, in len(rows) * n bytes of work space."""
    width = f"0{n}b"
    digits = bytearray(len(rows) * n)
    for i, row in enumerate(reversed(rows)):
        digits[i * n:(i + 1) * n] = format(row, width).encode()
    return [int(digits[n - v::n], 2) for v in cols]


class Colouring:
    """A 2-edge-colouring of the complete graph on vertices 1..n.

    Immutable by convention: all mutating-style operations return a new
    instance.  Equality and hashing look at (n, red adjacency) only, since
    the blue masks are determined.
    """

    __slots__ = ("n", "_red", "_blue")

    def __init__(self, n: int, red_masks: Sequence[int]):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if len(red_masks) != n:
            raise ValueError(f"expected {n} masks, got {len(red_masks)}")
        full = (1 << n) - 1
        self.n = n
        self._red = tuple(red_masks)
        self._blue = tuple((full & ~m & ~_bit(v + 1)) for v, m in enumerate(red_masks))
        for v in range(1, n + 1):
            m = self._red[v - 1]
            if m & _bit(v):
                raise ValueError(f"vertex {v}: red mask contains a loop")
            if m & ~full:
                raise ValueError(f"vertex {v}: red mask exceeds vertex range")
        # symmetric iff the masks equal their transpose; only an asymmetric
        # matrix is walked edge by edge, to name its first pair
        if _columns(self._red, n, range(1, n + 1)) == list(self._red):
            return
        for u, v in iter_edges(n):
            if bool(self._red[u - 1] & _bit(v)) != bool(self._red[v - 1] & _bit(u)):
                raise ValueError(f"asymmetric red adjacency at ({u}, {v})")

    @classmethod
    def _trusted(cls, n: int, red_masks: Sequence[int]) -> "Colouring":
        # constructors that build symmetric loop-free masks skip revalidation;
        # anything user-supplied must go through __init__
        self = object.__new__(cls)
        full = (1 << n) - 1
        self.n = n
        self._red = tuple(red_masks)
        self._blue = tuple((full & ~m & ~_bit(v + 1)) for v, m in enumerate(self._red))
        return self

    @classmethod
    def from_edge_bits(cls, n: int, red_bits: Iterable[bool]) -> "Colouring":
        """Build from booleans in iter_edges order (True = red)."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        digits = bytes(map(bool, red_bits)).translate(_BOOL_DIGITS)
        if len(digits) != edge_count(n):
            raise ValueError(f"expected {edge_count(n)} edge bits, got {len(digits)}")
        return cls._from_digits(n, digits)

    @classmethod
    def _from_digits(cls, n: int, digits: bytes) -> "Colouring":
        # digits: the upper triangle as ASCII, b"1" = red, in iter_edges
        # order; the caller has checked that there are edge_count(n) of them.
        # Row u's digits go into an n*n digit matrix at columns u+1..n, so
        # vertex v's full row is its column down to the diagonal (the
        # transpose) plus its own suffix: C-level slices, no work per edge
        buf = bytearray(b"0") * (n * n)
        i = 0
        for u in range(1, n):
            row = (u - 1) * n
            buf[row + u:row + n] = digits[i:i + n - u]
            i += n - u
        masks = []
        for v in range(1, n + 1):
            row = (v - 1) * n
            full_row = buf[v - 1:row + v:n] + buf[row + v:row + n]
            masks.append(int(full_row[::-1], 2))  # vertex w is bit w-1
        return cls._trusted(n, masks)

    @classmethod
    def from_function(cls, n: int, fn: Callable[[int, int], Colour]) -> "Colouring":
        return cls.from_edge_bits(n, (fn(u, v) is RED for u, v in iter_edges(n)))

    @classmethod
    def monochromatic(cls, n: int, colour: Colour) -> "Colouring":
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        full = (1 << n) - 1
        if colour is RED:
            return cls._trusted(n, [full & ~_bit(v) for v in range(1, n + 1)])
        return cls._trusted(n, [0] * n)

    def colour(self, u: int, v: int) -> Colour:
        if u == v:
            raise InvalidEdge(f"loop at vertex {u}")
        for w in (u, v):
            if not 1 <= w <= self.n:
                raise InvalidEdge(f"vertex {w} outside 1..{self.n}")
        return RED if self._red[u - 1] & _bit(v) else BLUE

    def rows(self, colour: Colour) -> tuple[int, ...]:
        """Every vertex's mask in the given colour, vertex v's at index v - 1."""
        return self._red if colour is RED else self._blue

    def mask(self, v: int, colour: Colour) -> int:
        """Neighbourhood of v in the given colour, as a bitmask."""
        if not 1 <= v <= self.n:
            raise InvalidEdge(f"vertex {v} outside 1..{self.n}")
        return self._red[v - 1] if colour is RED else self._blue[v - 1]

    def degree(self, v: int, colour: Colour) -> int:
        return self.mask(v, colour).bit_count()

    def flipped(self) -> "Colouring":
        """The colouring with red and blue exchanged."""
        return Colouring._trusted(self.n, self._blue)

    def with_edge(self, u: int, v: int, colour: Colour) -> "Colouring":
        """A copy with one edge recoloured."""
        self.colour(u, v)  # validates the pair
        masks = list(self._red)
        if colour is RED:
            masks[u - 1] |= _bit(v)
            masks[v - 1] |= _bit(u)
        else:
            masks[u - 1] &= ~_bit(v)
            masks[v - 1] &= ~_bit(u)
        return Colouring._trusted(self.n, masks)

    def induced(self, keep: Iterable[int]) -> tuple["Colouring", dict[int, int]]:
        """Induced sub-colouring on `keep`, relabelled 1..k in sorted order.

        Returns the new colouring and the map new-label -> old-label.  Its
        working memory is one k x n byte matrix for k kept vertices, at most
        the n*n bytes of _from_digits's, so gen.MAX_N bounds it too.
        """
        old = sorted(set(keep))
        if not old:
            raise ValueError("cannot induce on an empty vertex set")
        n = self.n
        # old is sorted, so its ends bound the range; the lowest vertex
        # outside it is old[0] or the first one above n
        if old[0] < 1 or old[-1] > n:
            bad = old[0] if old[0] < 1 else old[bisect.bisect_right(old, n)]
            raise InvalidEdge(f"vertex {bad} outside 1..{n}")
        # by symmetry v's relabelled row is its column in the kept rows
        masks = _columns([self._red[v - 1] for v in old], n, old)
        sub = Colouring._trusted(len(old), masks)
        return sub, {i + 1: v for i, v in enumerate(old)}

    def _edge_digits(self) -> str:
        # the edge colours as "1" (red) and "0" (blue), in iter_edges order:
        # in row u's n-digit binary string vertex v is the digit at n - v, so
        # reading it backwards from n-u-1 gives vertices u+1..n
        n = self.n
        width = f"0{n}b"
        return "".join(
            format(self._red[u - 1], width)[n - u - 1::-1] for u in range(1, n)
        )

    def edge_bits(self) -> list[bool]:
        digits = self._edge_digits().encode("ascii").translate(_DIGIT_BOOLS)
        return list(map(bool, digits))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Colouring):
            return NotImplemented
        return self.n == other.n and self._red == other._red

    def __hash__(self) -> int:
        return hash((self.n, self._red))

    def __repr__(self) -> str:
        return f"Colouring(n={self.n})"


@dataclass(frozen=True, slots=True)
class Path:
    """A vertex-sequence path carrying a colour label.

    A single vertex is a path of length 0; the empty path is permitted as a
    degenerate value but never appears in a valid cover.
    """

    vertices: tuple[int, ...]
    colour: Colour

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))

    @property
    def length(self) -> int:
        """Edge count."""
        return max(0, len(self.vertices) - 1)

    def reversed(self) -> "Path":
        return Path(self.vertices[::-1], self.colour)

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True, slots=True)
class PathCover:
    """A family of paths, all labelled with one colour, over vertices 1..n."""

    colour: Colour
    paths: tuple[Path, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))

    @property
    def size(self) -> int:
        return len(self.paths)


class FailureKind(enum.Enum):
    NONE = "None"
    MISSING_VERTEX = "MissingVertex"
    DUPLICATE_VERTEX_IN_PATH = "DuplicateVertexInPath"
    WRONG_COLOUR_EDGE = "WrongColourEdge"
    COLOUR_MISMATCH_ACROSS_PATHS = "ColourMismatchAcrossPaths"
    OUT_OF_RANGE_VERTEX = "OutOfRangeVertex"


@dataclass(frozen=True)
class CoverReport:
    valid: bool
    failure_kind: FailureKind = FailureKind.NONE
    detail: object = None


def validate_cover(g: Colouring, cover: PathCover) -> CoverReport:
    """Check that `cover` is a valid same-colour path cover of g.

    Paths may share vertices; only repetition inside one path is illegal.
    Scan order is deterministic: paths in cover order; within a path the
    colour label is checked first, then vertices in sequence order (range,
    duplication, then the edge arriving at that vertex).  Coverage of all of
    1..n is checked last, reporting the lowest missing vertex.
    """
    # every vertex's neighbours in the cover's colour: an edge is one bit test
    rows = g.rows(cover.colour)
    covered: set[int] = set()
    for idx, p in enumerate(cover.paths):
        if p.colour is not cover.colour:
            return CoverReport(False, FailureKind.COLOUR_MISMATCH_ACROSS_PATHS, idx)
        in_path: set[int] = set()
        prev: int | None = None
        for v in p.vertices:
            if not 1 <= v <= g.n:
                return CoverReport(False, FailureKind.OUT_OF_RANGE_VERTEX, v)
            if v in in_path:
                return CoverReport(False, FailureKind.DUPLICATE_VERTEX_IN_PATH, v)
            in_path.add(v)
            if prev is not None and not rows[prev - 1] >> (v - 1) & 1:
                return CoverReport(False, FailureKind.WRONG_COLOUR_EDGE, (prev, v))
            prev = v
        covered |= in_path
    for v in range(1, g.n + 1):
        if v not in covered:
            return CoverReport(False, FailureKind.MISSING_VERTEX, v)
    return CoverReport(True)
