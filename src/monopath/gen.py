"""Instance generators: the extremal construction, seeded random colourings,
an indexed enumerator, and adversarial hill-climbing over edge flips."""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass

from .core import Colouring, edge_count, iter_edges
from .oracle import DEFAULT_ORACLE_THRESHOLD, exact_f

# bump if the edge-sampling scheme ever changes; identical (n, p, seed) must
# give identical colourings across platforms and releases.  The scheme is one
# Random(seed).random() draw per edge in iter_edges order, red iff it is below
# p; random_colouring reads the same draws as whole Mersenne Twister words
GENERATOR_NAME = "monopath-rng-v1"

# edges drawn per getrandbits call: 2**16 edges are 512 KiB of generator output
_CHUNK = 1 << 16
_WORD_PAIR = struct.Struct("<2I")

# each kind's parameters and their types, the one table that the CLI's
# generator tags (gen, --gen and sweep) and the sweep's seed list read; a
# GenSpec field that its kind does not list keeps its default
PARAMS: dict[str, dict[str, type]] = {
    "extremal": {},
    "random": {"p": float, "seed": int},
    "adversarial": {"seed": int, "iters": int, "restarts": int},
    "enumerate": {"seed": int},
}

# the largest n a GenSpec accepts, checked before anything is built:
# Colouring._from_digits lays the edges out in an n*n-byte digit matrix,
# which at 2**14 vertices is 256 MiB
MAX_N = 1 << 14


@dataclass(frozen=True)
class GenSpec:
    """Declarative instance request.  For kind "enumerate" the seed is the
    colouring index; "extremal" ignores seed entirely."""

    kind: str
    n: int
    p: float = 0.5
    seed: int = 0
    iters: int = 0
    restarts: int = 1

    def __post_init__(self):
        if self.kind not in PARAMS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"need 1 <= n <= {MAX_N}, got {self.n}")
        if not 0 <= self.p <= 1:
            raise ValueError(f"need 0 <= p <= 1, got {self.p}")


def extremal(n: int) -> Colouring:
    """The paper's extremal colouring: the hub on the last isqrt(n) - 1
    labels, so a blue clique on the first n - isqrt(n) + 1."""
    return Colouring.hub(n, range(n - math.isqrt(n) + 2, n + 1))


def random_colouring(n: int, p: float, seed: int) -> Colouring:
    """Each edge independently red with probability p.

    The scheme is unchanged: one `Random(seed).random()` draw per edge, in
    iter_edges order, and the edge is red iff the draw is below p.  The draws
    are read as whole Mersenne Twister words, a chunk of edges per
    getrandbits call, and settled by C-level bytes methods, so no per-edge
    list is built."""
    if not 0 <= p <= 1:
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    rng = random.Random(seed)
    m = edge_count(n)
    bound = math.ceil(p * 2**53)
    digits = bytearray(m)
    for start in range(0, m, _CHUNK):
        c = min(_CHUNK, m - start)
        digits[start:start + c] = _draw_digits(rng, c, bound)
    return Colouring._from_digits(n, digits)


def _draw_digits(rng: random.Random, c: int, bound: int) -> bytes:
    # the next c random() draws as ASCII digits, b"1" where the draw is below
    # bound / 2**53.  random() is (a * 2**26 + b) / 2**53 with a = w0 >> 5 and
    # b = w1 >> 6 for its two 32-bit words, which getrandbits(64 * c) returns
    # low word first.  The 53-bit integer's top 8 bits are w0's top byte:
    # every byte but bound's own settles the draw, and the draws on bound's
    # byte (about 1 in 256; none if bound ends a byte's range) are compared
    # in full
    words = rng.getrandbits(64 * c).to_bytes(8 * c, "little")
    top = bound >> 45
    tie = b"?" if bound & ((1 << 45) - 1) else b"0"
    digits = words[3::8].translate((b"1" * top + tie + b"0" * 255)[:256])
    i = digits.find(b"?")
    if i < 0:
        return digits
    digits = bytearray(digits)
    while i >= 0:
        w0, w1 = _WORD_PAIR.unpack_from(words, 8 * i)
        digits[i] = ord("1") if (w0 >> 5 << 26 | w1 >> 6) < bound else ord("0")
        i = digits.find(b"?", i + 1)
    return digits


def indexed_colouring(n: int, index: int) -> Colouring:
    """The index-th colouring, low bit = first edge in iter_edges order."""
    m = edge_count(n)
    if not 0 <= index < 1 << m:
        raise ValueError(f"index {index} outside 0..2^{m}-1")
    # the low bit first, without re-shifting the whole index once per edge
    digits = format(index, f"0{m}b")[::-1][:m]  # [:m]: 0 formats as "0" at m = 0
    return Colouring._from_digits(n, digits.encode("ascii"))


def _score(g: Colouring) -> int:
    if g.n <= DEFAULT_ORACLE_THRESHOLD:
        return exact_f(g).value
    from .solver import solve

    return solve(g).cover.size


def adversarial_search(
    n: int, iters: int, seed: int, restarts: int = 1
) -> tuple[Colouring, int]:
    """Hill-climb single-edge flips from the extremal colouring, accepting
    non-worsening moves; the result never scores below extremal.  The score
    is the oracle's value up to its threshold, the solver's size above."""
    base = extremal(n)
    base_score = _score(base)
    best, best_score = base, base_score
    edges = list(iter_edges(n))
    for r in range(restarts):
        rng = random.Random(seed * 1000003 + r)
        cur, cur_score = base, base_score
        for _ in range(iters):
            if not edges:
                break
            u, v = edges[rng.randrange(len(edges))]
            cand = cur.with_edge(u, v, cur.colour(u, v).complement)
            cand_score = _score(cand)
            if cand_score >= cur_score:
                cur, cur_score = cand, cand_score
                if cur_score > best_score:
                    best, best_score = cur, cur_score
    return best, best_score


def build(spec: GenSpec) -> Colouring:
    if spec.kind == "extremal":
        return extremal(spec.n)
    if spec.kind == "random":
        return random_colouring(spec.n, spec.p, spec.seed)
    if spec.kind == "enumerate":
        return indexed_colouring(spec.n, spec.seed)
    return adversarial_search(spec.n, spec.iters, spec.seed, spec.restarts)[0]
