"""The retrieval scheme: message layout, path sampling, queries, answers.

Each message of L bits is split into a masked part and an open part, each
cut into N-1 subpackets. Masked subpackets are s bits wide and are always
one-time-padded with the shared key S that only the databases hold; open
subpackets are L/(N-1) - s bits wide and travel in the clear inside XOR
combinations. The layout of message k is

    bits [0, (N-1)s)              masked subpackets 1..N-1, s bits each
    bits [(N-1)s, L)              open subpackets 1..N-1, w bits each

with w = L/(N-1) - s, so subpacket index 0 means "nothing".

A retrieval draws a base vector x in [0, N-1]^K. Database d (0-based)
receives the query vector v with v_k = x_k for k != i and
v_i = (x_i + d + 1) mod N, so the desired coordinate sweeps all N residues
across the databases while every other coordinate is common. Low-cost
bases (x_k = 0 for all k != i) carry weight p each; all other bases carry
weight q, with p/q = e^eps. The database answers with the XOR of the
selected masked subpackets plus the key, and the XOR of the selected open
subpackets (empty when every v_k is 0).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Optional, Sequence

from .bits import BitString
from .bounds import alpha1_rate
from .params import SystemParams

# Guard subtracted inside the ceiling that quantizes the key size, so that
# float noise of a few ulp above an exact integer cannot cost a whole
# extra key bit. Matches the package-wide 1e-9 comparison tolerance.
CEIL_GUARD = 1e-9


class PathClass(Enum):
    LOW = "Low"
    HIGH = "High"


@dataclass(frozen=True)
class PartitionLayout:
    """How messages are cut up and how large the shared key is."""

    key_bits: int
    masked_subpacket_bits: int
    open_subpacket_bits: int
    subpackets_per_part: int
    effective_alpha: float
    effective_delta: float

    @property
    def message_bits(self) -> int:
        return self.subpackets_per_part * (
            self.masked_subpacket_bits + self.open_subpacket_bits
        )

    def subpacket(self, message: BitString, part: int, index: int) -> BitString:
        """Subpacket `index` (1-based) of part 1 (masked) or part 2 (open)."""
        if message.nbits != self.message_bits:
            raise ValueError("message width does not match layout")
        if not 1 <= index <= self.subpackets_per_part:
            raise ValueError("subpacket index out of range")
        if part == 1:
            return message.slice((index - 1) * self.masked_subpacket_bits,
                                 self.masked_subpacket_bits)
        if part == 2:
            base = self.subpackets_per_part * self.masked_subpacket_bits
            return message.slice(base + (index - 1) * self.open_subpacket_bits,
                                 self.open_subpacket_bits)
        raise ValueError("part must be 1 or 2")


def layout_for_key_bits(params: SystemParams, key_bits: int) -> PartitionLayout:
    """Build the layout for an explicit key size (key_bits in [0, L/(N-1)])."""
    per_sub = params.subpacket_total_bits()
    if not 0 <= key_bits <= per_sub:
        raise ValueError("key_bits must lie in [0, message_bits/(n_databases-1)]")
    open_bits = per_sub - key_bits
    dist = path_distribution(params)
    high_total = 1.0 - dist.p * params.n_databases
    eff_delta = high_total * open_bits / params.message_bits
    return PartitionLayout(
        key_bits=key_bits,
        masked_subpacket_bits=key_bits,
        open_subpacket_bits=open_bits,
        subpackets_per_part=params.subpacket_count(),
        effective_alpha=key_bits / params.message_bits,
        effective_delta=eff_delta,
    )


def plan_partition(params: SystemParams) -> PartitionLayout:
    """Choose the key size from the privacy budgets and lay the messages out.

    The key rate alpha1 is quantized to whole bits by rounding up, so the
    realized leakage never exceeds the delta budget (up to the ceiling
    guard); the realized download cost can only improve on the bound.
    """
    alpha = alpha1_rate(params)
    key_bits = math.ceil(alpha * params.message_bits - CEIL_GUARD)
    key_bits = max(0, min(key_bits, params.subpacket_total_bits()))
    return layout_for_key_bits(params, key_bits)


@dataclass(frozen=True)
class PathDistribution:
    """Per-base-vector probabilities of the retrieval path draw."""

    n_databases: int
    n_messages: int
    p: float
    q: float

    @property
    def low_total(self) -> float:
        return self.p * self.n_databases


def path_distribution(params: SystemParams) -> PathDistribution:
    """p = e^eps/(N e^eps + N^K - N) per low-cost base, q = 1/(...) otherwise.

    In the eps -> infinity limit this degenerates to p = 1/N, q = 0.
    """
    n, k = params.n_databases, params.n_messages
    if n < 2:
        raise ValueError("path distribution needs n_databases >= 2")
    e = params.exp_eps()
    high = n ** k - n
    if math.isinf(e):
        return PathDistribution(n, k, 1.0 / n, 0.0)
    denom = n * e + high
    return PathDistribution(n, k, e / denom, 1.0 / denom)


@dataclass(frozen=True)
class PathChoice:
    base: tuple[int, ...]
    desired: int
    path_class: PathClass


def classify_base(base: Sequence[int], desired: int) -> PathClass:
    if any(base[j] for j in range(len(base)) if j != desired):
        return PathClass.HIGH
    return PathClass.LOW


# Draw count from which `_draw_below` reads words in batches. A batch
# round costs a getrandbits, a to_bytes and a translate, and where half
# the words are rejected (n a power of two) a batch takes several rounds,
# so few draws are faster one by one. Measured on CPython 3.11 in
# `sample_path` at N = 2 and N = 128, the batch took 1.06-1.07x the
# loop's time at 5 draws, 0.99-1.02x at 6 and 7, and 0.95-0.97x at 8.
_BATCH_MIN_DRAWS = 7


@lru_cache(maxsize=256)
def _top_byte_tables(n: int) -> tuple[bytes, bytes]:
    """`bytes.translate` arguments for randrange(n), n <= 255: the table
    maps a word's top byte to the value it draws, and the delete set holds
    the top bytes that randrange rejects."""
    shift = 8 - n.bit_length()
    return (bytes(b >> shift for b in range(256)),
            bytes(b for b in range(256) if b >> shift >= n))


def _draw_below(n: int, m: int, rng) -> Sequence[int]:
    """The values of m calls rng.randrange(n), leaving rng in the same state.

    randrange(n) keeps a 32-bit word w iff w >> (32 - k) < n, with
    k = n.bit_length(), and getrandbits(32 j) returns j consecutive words,
    lowest first. For n <= 255 only the top byte of w matters, so each
    round reads one word per value still missing and keeps the accepted
    top bytes; no round reads past the word that completes the last value.
    Only an exact `random.Random` is batched, since a subclass may draw
    differently.
    """
    if type(rng) is not random.Random or n > 255 or m < _BATCH_MIN_DRAWS:
        return [rng.randrange(n) for _ in range(m)]
    table, reject = _top_byte_tables(n)
    out = b""
    while len(out) < m:
        missing = m - len(out)
        words = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
        out += words[3::4].translate(table, reject)
    return out


def sample_path(dist: PathDistribution, desired: int, rng) -> PathChoice:
    """Draw one base vector without enumerating the N^K-point support.

    The draws are, in order: rng.randrange(N) for the desired coordinate,
    rng.random() for the class, and on a high-cost path K-1 more
    randrange(N) for the other coordinates, all drawn again while all are
    zero. Those K-1 values read the same Mersenne-Twister words as K-1
    randrange(N) calls, so the path and the state left in rng are exactly
    those of a per-draw loop. The words are read in batches when rng is
    exactly `random.Random`, N <= 255 and K-1 >= 7; otherwise the loop
    itself runs.
    """
    n, k = dist.n_databases, dist.n_messages
    if not 0 <= desired < k:
        raise ValueError("desired message index out of range")
    first = rng.randrange(n)
    if rng.random() < dist.low_total:
        base = [0] * k
        base[desired] = first
        return PathChoice(tuple(base), desired, PathClass.LOW)
    others = _draw_below(n, k - 1, rng)
    while not any(others):
        others = _draw_below(n, k - 1, rng)
    return PathChoice((*others[:desired], first, *others[desired:]),
                      desired, PathClass.HIGH)


def structure_probability(dist: PathDistribution, indices: Sequence[int],
                          desired: int) -> float:
    """P(a given database receives query vector `indices` | desired).

    The same for every database: p when all off-desired coordinates are
    zero, q otherwise.
    """
    if any(indices[j] for j in range(len(indices)) if j != desired):
        return dist.q
    return dist.p


@dataclass(frozen=True)
class QueryVector:
    indices: tuple[int, ...]


@dataclass(frozen=True)
class MessageStore:
    """Replicated database contents: K messages plus the shared key."""

    messages: tuple[BitString, ...]
    key: BitString
    # layout -> subpacket table, filled on first use by subpacket_table.
    _tables: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    @classmethod
    def random(cls, params: SystemParams, layout: PartitionLayout,
               rng) -> "MessageStore":
        msgs = tuple(BitString.random(params.message_bits, rng)
                     for _ in range(params.n_messages))
        return cls(msgs, BitString.random(layout.key_bits, rng))

    def subpacket_table(self, layout: PartitionLayout) -> tuple:
        """(key, rows): the fold operands `answer` XORs.

        Row k, entry v-1 holds layout.subpacket(message k, 1, v) and
        layout.subpacket(message k, 2, v). Each operand is an int, or a
        read-only uint8 array of packed bytes for a wide part (see
        `bits`). The table is built on first use and lives as long as the
        store; it holds one more copy of the messages. Servers share a
        store across threads, and a race only builds the same table twice.
        """
        table = self._tables.get(layout)
        if table is None:
            if self.key.nbits != layout.masked_subpacket_bits:
                raise ValueError("key width does not match layout")
            rows = tuple(
                tuple((layout.subpacket(m, 1, v)._operand(),
                       layout.subpacket(m, 2, v)._operand())
                      for v in range(1, layout.subpackets_per_part + 1))
                for m in self.messages)
            table = self._tables.setdefault(layout,
                                            (self.key._operand(), rows))
        return table


def make_queries(choice: PathChoice, params: SystemParams) -> tuple[QueryVector, ...]:
    """Query vectors for databases 0..N-1; only the desired coordinate varies."""
    n = params.n_databases
    out = []
    for d in range(n):
        v = list(choice.base)
        v[choice.desired] = (choice.base[choice.desired] + d + 1) % n
        out.append(QueryVector(tuple(v)))
    return tuple(out)


@dataclass(frozen=True)
class Answer:
    """One database's reply: keyed XOR part and clear XOR part."""

    masked: BitString
    open: BitString


def answer(store: MessageStore, layout: PartitionLayout,
           query: QueryVector) -> Answer:
    """Evaluate one query against the store.

    The masked part always carries the key, so it is s bits even for the
    all-zero query; the open part is empty exactly when every index is 0
    (for layouts with a nonzero open width).
    """
    indices = query.indices
    if len(indices) != len(store.messages):
        raise ValueError("query length does not match message count")
    top = max(indices, default=0)
    if min(indices, default=0) < 0 or top > layout.subpackets_per_part:
        raise ValueError("query index out of range")
    key, rows = store.subpacket_table(layout)
    # `0 ^ key` keeps the in-place XORs out of the table (see
    # BitString._operand).
    masked, open_ = 0 ^ key, 0
    for row, v in zip(rows, indices):
        if v:
            m, o = row[v - 1]
            masked ^= m
            open_ ^= o
    return Answer(BitString._of_operand(masked, store.key.nbits),
                  BitString._of_operand(
                      open_, layout.open_subpacket_bits if top else 0))


def _desired_zero_index(queries: Sequence[QueryVector], desired: int) -> dict:
    """Map desired-coordinate value -> database position; must be a bijection."""
    seen = {}
    for d, qv in enumerate(queries):
        v = qv.indices[desired]
        if v in seen:
            raise ValueError("duplicate desired-coordinate value across queries")
        seen[v] = d
    if 0 not in seen:
        raise ValueError("no query has 0 at the desired coordinate")
    return seen


def decode(answers: Sequence[Answer], queries: Sequence[QueryVector],
           desired: int) -> BitString:
    """Recover the desired message from the N aligned (answer, query) pairs."""
    if len(answers) != len(queries):
        raise ValueError("answers and queries must align")
    where = _desired_zero_index(queries, desired)
    n = len(queries)
    a0 = answers[where[0]]
    masked_parts, open_parts = [], []
    for ell in range(1, n):
        if ell not in where:
            raise ValueError("desired coordinate does not cover all residues")
        a = answers[where[ell]]
        masked_parts.append(a0.masked ^ a.masked)
        open_parts.append(a0.open ^ a.open)
    return BitString.join(masked_parts + open_parts)


@dataclass(frozen=True)
class ResidualView:
    """What the answers still describe after the desired message is removed.

    coefficients lists (message index, subpacket index) pairs of the one
    surviving open-part XOR combination; empty on low-cost paths, where
    nothing about the other messages survives.
    """

    coefficients: tuple[tuple[int, int], ...]
    bits: Optional[BitString]

    @property
    def leaked_bits(self) -> int:
        return self.bits.nbits if self.bits is not None else 0


def residual_view(answers: Sequence[Answer], queries: Sequence[QueryVector],
                  decoded: BitString, layout: PartitionLayout) -> ResidualView:
    """XOR the recovered message back out of every open part.

    Masked parts are never touched: the key pads them once and the user
    cannot strip it. On a high-cost path every database's open part
    collapses to the same single XOR of undesired open subpackets, which
    is exactly the leaked material.
    """
    if len(answers) != len(queries):
        raise ValueError("answers and queries must align")
    n = len(queries)
    varying = [j for j, col in enumerate(zip(*(qv.indices for qv in queries)))
               if col.count(col[0]) != n]
    if len(varying) != 1:
        raise ValueError("queries must vary in exactly one coordinate")
    desired = varying[0]
    base = queries[0].indices
    coeffs = tuple((j, v) for j, v in enumerate(base) if v and j != desired)
    if not coeffs:
        for d, qv in enumerate(queries):
            v = qv.indices[desired]
            expect = (layout.subpacket(decoded, 2, v) if v
                      else BitString.zeros(0))
            if answers[d].open != expect:
                raise ValueError("answers inconsistent with decoded message")
        return ResidualView((), None)
    residual = None
    for d, qv in enumerate(queries):
        v = qv.indices[desired]
        part = answers[d].open
        if v:
            part = part ^ layout.subpacket(decoded, 2, v)
        if residual is None:
            residual = part
        elif part != residual:
            raise ValueError("answers inconsistent with decoded message")
    return ResidualView(coeffs, residual)


def session_download_bits(layout: PartitionLayout, path_class: PathClass) -> int:
    """Total answer bits of one session: L + s on low, N L/(N-1) on high."""
    n = layout.subpackets_per_part + 1
    per_answer = layout.masked_subpacket_bits + layout.open_subpacket_bits
    if path_class is PathClass.HIGH:
        return n * per_answer
    return layout.message_bits + layout.key_bits


def expected_cost(params: SystemParams, layout: PartitionLayout) -> float:
    """Mean download per message bit under the realized (quantized) layout."""
    n = params.n_databases
    dist = path_distribution(params)
    return (1.0 + 1.0 / (n - 1)
            - dist.low_total * layout.open_subpacket_bits / params.message_bits)
