"""Huffman-shaped binary wavelet matrix and the split walks every query runs.

Symbols are 1..sigma, and the alphabet must be dense (every value
occurs).  Each symbol gets a prefix-free code whose length is optimal for
the symbol counts among codes of at most ceil(lg sigma) + 1 bits, found
by package-merge (Larmore and Hirschberg, "A fast algorithm for optimal
length-limited Huffman codes", JACM 1990).  The cap keeps a rare symbol
within one level of the fixed-length code, and that code is among the
candidates, so the codes never cost more than ceil(lg sigma) bits a
symbol.  The matrix is the Huffman-shaped wavelet matrix of Claude,
Navarro and Ordonez ("The wavelet matrix", Inf. Syst. 2015).

Level l holds bit l of every code longer than l, most significant bit
first, in the order the level above leaves the positions: the stable
partition of level l - 1 by its bits, zeros first, less the positions
whose code ended there.  Codes are assigned level by level so that those
positions are one block at the front.  In matrix order the code trie's
nodes at depth d are the zero children of the internal nodes at depth
d - 1, then their one children.  The first of them are the leaves of
depth d, taken in increasing symbol order by the symbols whose codes have
d bits; the rest are the internal nodes of depth d, in that order.  Each
level is therefore one plain bitvector with its zero count and the
number of positions that end below it, and a range of positions maps one
level down with two rank1 calls, read straight from the level's words
and rank directory.  Within the ending block each symbol's occurrences
form one run in text order.

The range queries are top-down split walks over the code trie: a node's
positions inside a range map to its children's with two ranks.  Each
child slot carries the largest whole-sequence count of the symbols below
it and the smallest of those symbols (a leaf slot's own symbol), both
derived in O(sigma) from the counts and the code lengths and never
stored.  A range count never exceeds the whole-sequence count, so a node
whose range holds at most thr positions, or whose largest count is at
most thr, holds no symbol occurring more than thr times.
`range_counts` keeps only the other nodes, fewer than ceil(1/tau) per
level for thr = floor(tau * length); `range_minority` expands those same
heavy nodes until one of their children is nonempty and light, then
descends along any nonempty child to a leaf, whose size is a count of at
most thr.  The walk is complete: a minority's leaf is nonempty and light,
and the highest light node on its root path has a heavy parent, which
the walk expands.  Both cost O(lg sigma / tau) level steps, where the
paper's O(1/tau) assumes constant-time access and rank.  `range_mode` is
best-first: it expands the node whose bound, the smaller of its range
size and its largest count, is highest, the one with the lowest symbol
below among equals, and drops a node whose bound is below the best count
found, or equal to it over higher symbols only.  Each node it expands
holds at least the mode's count occ of positions, so it makes at most
2 * depth * floor(len / occ) rank1 calls.

The file stores n, sigma, the code-length table packed at the longest
length's bit width, one header for all levels (each level's bit length)
and then every level's words as one stream, whose word counts follow
from that header.  The lengths are checked in O(sigma) before any level
is read, each level's size against the code trie before any word is
read; the codes follow from the lengths, and the counts from one
level-by-level split walk at load.
"""

from __future__ import annotations

import heapq
import operator
from array import array

import numpy as np

from .bits import BitVector, _typed
from .counters import OpTally
from .errors import DomainError, FormatError, RangeError
from .serial import ByteReader, ByteWriter


def check_range(lo, hi, n: int) -> tuple[int, int]:
    """The range [lo, hi] as plain ints; RangeError unless both ends are
    integers (Python or NumPy) with 1 <= lo <= hi <= n."""
    try:
        lo, hi = operator.index(lo), operator.index(hi)
    except TypeError:
        raise RangeError(f"range ends must be integers, got {lo!r} and {hi!r}") from None
    if not (1 <= lo <= n and 1 <= hi <= n):
        raise RangeError(f"range [{lo}, {hi}] outside 1..{n}")
    if lo > hi:
        raise RangeError(f"empty range [{lo}, {hi}]")
    return lo, hi


def _check_dense(counts: np.ndarray) -> None:
    if (counts == 0).any():
        missing = int(np.flatnonzero(counts == 0)[0]) + 1
        raise DomainError(f"alphabet is not dense: symbol {missing} never occurs")


def length_cap(sigma: int) -> int:
    """Longest code allowed over sigma symbols: ceil(lg sigma) + 1 bits."""
    return (sigma - 1).bit_length() + 1


def code_lengths(counts: np.ndarray) -> np.ndarray:
    """Optimal code lengths of at most `length_cap` bits for positive counts.

    Package-merge: the deepest list holds the symbols by count; each list
    above merges them with the sums of consecutive pairs of the list
    below, symbols first among equals.  The first 2 sigma - 2 items of
    the top list are taken, a taken pair takes both its items one list
    down, and a symbol's code length is the number of lists in which it
    is taken.  Within a list the taken items are a prefix, so counting
    them is all the bookkeeping needed.
    """
    sigma = int(counts.size)
    if sigma == 1:
        return np.zeros(1, dtype=np.uint8)
    order = np.argsort(counts, kind="stable")
    w = counts[order].astype(np.int64)
    ramp = np.arange(sigma)
    items = w
    leaf_at = []  # per list from the second deepest up: where its symbols sit
    for _ in range(length_cap(sigma) - 1):
        h = items.size // 2
        pairs = items[0 : 2 * h : 2] + items[1 : 2 * h : 2]
        at = ramp + np.searchsorted(pairs, w, side="left")
        items = np.empty(sigma + h, dtype=np.int64)
        items[at] = w
        items[np.arange(h) + np.searchsorted(w, pairs, side="right")] = pairs
        leaf_at.append(at)
    sorted_lens = np.zeros(sigma, dtype=np.uint8)
    take = 2 * sigma - 2
    for at in reversed(leaf_at):
        leaves = int(np.searchsorted(at, take))
        sorted_lens[:leaves] += 1
        take = 2 * (take - leaves)
    sorted_lens[:take] += 1  # the deepest list holds symbols only
    lens = np.empty(sigma, dtype=np.uint8)
    lens[order] = sorted_lens
    return lens


def _check_lengths(lens: np.ndarray) -> None:
    """FormatError unless `lens` are the lengths of a complete prefix code
    within the cap (a single symbol has the empty code)."""
    sigma = int(lens.size)
    cap = length_cap(sigma)
    if sigma > 1 and not lens.all():
        raise FormatError("code length 0 with more than one symbol")
    top = int(lens.max())
    if top > cap:
        raise FormatError(f"code length {top} above the cap of {cap} bits")
    hist = np.bincount(lens, minlength=cap + 1).tolist()
    kraft = sum(c << (cap - d) for d, c in enumerate(hist))
    if kraft != 1 << cap:
        raise FormatError(f"code lengths break Kraft equality: {kraft} / 2**{cap}")


def _write_lengths(w: ByteWriter, lens: np.ndarray) -> None:
    """A width byte, then each length in that many bits, the first in the
    low bits of the first byte."""
    width = int(lens.max()).bit_length()
    w.u8(width)
    bits = np.unpackbits(lens[:, None], axis=1, count=width, bitorder="little")
    w.raw(np.packbits(bits.reshape(-1), bitorder="little").tobytes())


def _read_lengths(r: ByteReader, sigma: int) -> np.ndarray:
    width = r.u8()
    if width > length_cap(sigma).bit_length():
        raise FormatError(f"code lengths packed {width} bits wide, above the cap")
    raw = np.frombuffer(r.raw((sigma * width + 7) // 8), dtype=np.uint8)
    if not width:
        return np.zeros(sigma, dtype=np.uint8)
    bits = np.unpackbits(raw, count=sigma * width, bitorder="little").reshape(sigma, width)
    return np.packbits(bits, axis=1, bitorder="little").reshape(sigma)


def _lengths_bits(sigma: int, width: int) -> int:
    return 8 + 8 * ((sigma * width + 7) // 8)


def _ends(lens: np.ndarray, counts: np.ndarray) -> list[int]:
    """Per level, the number of positions whose code ends there."""
    per = np.zeros(int(lens.max()) + 1, dtype=np.int64)
    np.add.at(per, lens, counts)
    return per[1:].tolist()


class _Shape:
    """The code trie that code lengths determine, level by level.

    leaf_sym lists the symbols (0-based) by (length, symbol): the leaves of
    each depth in matrix order.  For level l, inner[l] internal nodes sit at
    depth l, leaves[l] codes end at depth l + 1, and the first of them is
    leaf_sym[first[l]].  code holds each symbol's bits, the first level's
    most significant.
    """

    def __init__(self, lens: np.ndarray):
        sigma = int(lens.size)
        depth = int(lens.max())
        per = np.bincount(lens, minlength=depth + 1)
        starts = (np.cumsum(per) - per).tolist()
        per = per.tolist()
        self.depth = depth
        self.leaf_sym = np.argsort(lens, kind="stable")
        self.leaves = per[1:]
        self.first = starts[1:]
        self.inner = [1]
        for d in range(1, depth):
            self.inner.append(2 * self.inner[-1] - per[d])
        # walk each leaf up from its slot at its depth; at depth d the slots
        # are the zero children of inner[d - 1] nodes, then their one children
        d = lens[self.leaf_sym].astype(np.int64)
        slot = np.arange(sigma) - np.asarray(starts, dtype=np.int64)[d]
        code = np.zeros(sigma, dtype=np.int64)
        for lvl in range(depth - 1, -1, -1):
            live = d > lvl
            s = slot[live]
            bit = s >= self.inner[lvl]
            slot[live] = s - bit * self.inner[lvl] + per[lvl]
            code[live] |= bit.astype(np.int64) << (d[live] - 1 - lvl)
        self.code = np.empty(sigma, dtype=np.int64)
        self.code[self.leaf_sym] = code


class WaveletSequence:
    def __init__(self):
        self.n = 0
        self.sigma = 0
        self.counts: np.ndarray | None = None  # per-symbol totals
        self.tally = OpTally()
        self._levels: list[BitVector] = []  # top first
        self._code = array("H")  # per symbol: code bits
        self._len = array("B")  # per symbol: code length
        self._top = 0  # the largest symbol count
        # per level: (words, cum, zeros - ends, ends, inner, leaves, smallest
        # symbol below each child slot, largest count below each child slot);
        # a leaf slot's smallest symbol is its own (0-based)
        self._steps: list[tuple] = []

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(cls, data, sigma: int | None = None) -> "WaveletSequence":
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("sequence must be a non-empty 1-d array")
        if arr.min() < 1:
            raise DomainError("symbols must be positive integers")
        amax = int(arr.max())
        sigma = amax if sigma is None else int(sigma)
        if amax > sigma:
            raise DomainError(f"symbol {amax} exceeds declared alphabet {sigma}")
        counts = np.bincount(arr, minlength=sigma + 1)[1:].astype(np.int64)
        _check_dense(counts)

        seq = cls()
        seq.n = int(arr.size)
        seq.sigma = sigma
        lens = code_lengths(counts)
        shape = _Shape(lens)
        depth = shape.depth
        ends = _ends(lens, counts)
        # each position's code, left-aligned to the depth so every level
        # reads its bit with one shift
        aligned = shape.code << (depth - lens.astype(np.int64))
        codes = aligned.astype(np.min_scalar_type((1 << depth) - 1))[arr - 1]
        levels = []
        for lvl in range(depth):
            bits = ((codes >> (depth - 1 - lvl)) & 1).astype(bool)
            levels.append(BitVector.from_numpy_bool(bits))
            if lvl + 1 < depth:  # the codes ending here lead the next order
                codes = np.concatenate((codes[~bits], codes[bits]))[ends[lvl]:]
        seq._assemble(lens, shape, levels, counts)
        return seq

    def _assemble(self, lens: np.ndarray, shape: _Shape, levels: list, counts: np.ndarray) -> None:
        """Store the levels and counts and derive the per-symbol and
        per-level tables the walks read."""
        self._levels = levels
        self.counts = counts
        ends = _ends(lens, counts)
        self._code = _typed(shape.code, _typecode((1 << shape.depth) - 1))
        self._len = _typed(lens, "B")
        self._top = int(counts.max())
        self._steps = [
            (store.words, store.cum, store.n_bits - store.ones - ends[lvl], ends[lvl],
             shape.inner[lvl], shape.leaves[lvl], least, top)
            for lvl, (store, least, top) in enumerate(
                zip(levels, _slot_least(shape), _slot_max(shape, counts)))
        ]

    # -- basic properties ----------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of levels: the longest code's length."""
        return len(self._levels)

    def code(self, a: int) -> str:
        """Symbol a's code as a string of bits, the top level's first."""
        self._check_symbol(a)
        length = self._len[a - 1]
        return format(self._code[a - 1], f"0{length}b") if length else ""

    def symbol_count(self, a: int) -> int:
        self._check_symbol(a)
        return int(self.counts[a - 1])

    def entropy_h0(self) -> float:
        p = self.counts / self.n
        return float(-(p * np.log2(p)).sum())

    def _check_symbol(self, a: int) -> None:
        if not (1 <= a <= self.sigma):
            raise DomainError(f"symbol {a} outside alphabet [1, {self.sigma}]")

    # -- the walks (untallied internals) ---------------------------------------------

    def _split_walk(self, cl: int, cr: int, thr: int) -> tuple[dict[int, int], int]:
        """Symbols occurring more than thr times at top-level positions
        cl+1..cr, with their counts, and the number of rank1 calls made.

        A child is dropped when its range holds at most thr positions or
        no symbol below it occurs more than thr times in the whole
        sequence: no symbol below it can clear thr.
        """
        out: dict[int, int] = {}
        if cr - cl <= thr or self._top <= thr:
            return out, 0
        if not self._steps:
            return {1: cr - cl}, 0
        steps = self._steps
        ranks = 0
        stack = [(0, 0, cl, cr)]
        while stack:
            lvl, node, s, e = stack.pop()
            words, cum, z1, ends, inner, leaves, least, top = steps[lvl]
            # _rank_pair, inlined on the path every majority takes
            off = s & 63
            r1s = cum[s >> 6] + (words[s >> 6] & ((1 << off) - 1)).bit_count() if off else cum[s >> 6]
            off = e & 63
            r1e = cum[e >> 6] + (words[e >> 6] & ((1 << off) - 1)).bit_count() if off else cum[e >> 6]
            ranks += 2
            cs, ce = s - r1s - ends, e - r1e - ends
            if ce - cs > thr and top[node] > thr:
                if node < leaves:
                    out[least[node] + 1] = ce - cs
                else:
                    stack.append((lvl + 1, node - leaves, cs, ce))
            child = node + inner
            cs, ce = z1 + r1s, z1 + r1e
            if ce - cs > thr and top[child] > thr:
                if child < leaves:
                    out[least[child] + 1] = ce - cs
                else:
                    stack.append((lvl + 1, child - leaves, cs, ce))
        return out, ranks

    def _mode_walk(self, cl: int, cr: int) -> tuple[tuple[int, int], int]:
        """The most frequent symbol at top-level positions cl+1..cr (a
        nonempty range), the lowest on a tie, with its count, and the
        number of rank1 calls made.

        Best-first: a node's bound, the smaller of its range size and its
        largest count, caps the count of every symbol below it, and the
        heap yields the highest bound first, the lowest symbol below among
        equals.  A child is dropped when its bound is below the best count
        so far, or equal to it with every symbol below higher than the
        best symbol; the walk stops at the first node it would drop.
        Every node expanded holds at least the mode's count occ of
        positions, and the nodes of a level are disjoint, so at most
        2 * depth * floor(len / occ) rank1 calls are made.
        """
        if not self._steps:
            return (1, cr - cl), 0
        steps = self._steps
        push, pop = heapq.heappush, heapq.heappop
        ranks = best = best_sym = 0
        heap = [(-min(cr - cl, self._top), 0, 0, 0, cl, cr)]
        while heap:
            neg, low, lvl, node, s, e = pop(heap)
            if -neg < best or (-neg == best and low > best_sym):
                break
            words, cum, z1, ends, inner, leaves, least, top = steps[lvl]
            r1s, r1e = _rank_pair(words, cum, s, e)
            ranks += 2
            for child, cs, ce in (
                (node, s - r1s - ends, e - r1e - ends),
                (node + inner, z1 + r1s, z1 + r1e),
            ):
                bound = ce - cs
                if top[child] < bound:
                    bound = top[child]
                if not bound or bound < best or (bound == best and least[child] > best_sym):
                    continue
                if child < leaves:  # a leaf's bound is its exact count
                    best, best_sym = bound, least[child]
                else:
                    push(heap, (-bound, least[child], lvl + 1, child - leaves, cs, ce))
        return (best_sym + 1, best), ranks

    def _minority_walk(self, cl: int, cr: int, thr: int) -> tuple[tuple[int, int] | None, int]:
        """Some symbol occurring 1..thr times at top-level positions
        cl+1..cr with its count, or None, and the number of rank1 calls.

        Heavy nodes, those the majority walk keeps, are expanded; the first
        nonempty child that is not heavy leads down to a witness.
        """
        if cr - cl <= thr or self._top <= thr:  # every symbol present qualifies
            return self._leaf_below(0, 0, cl, cr)
        if not self._steps:  # the one symbol occurs more than thr times
            return None, 0
        steps = self._steps
        ranks = 0
        stack = [(0, 0, cl, cr)]
        while stack:
            lvl, node, s, e = stack.pop()
            words, cum, z1, ends, inner, leaves, least, top = steps[lvl]
            r1s, r1e = _rank_pair(words, cum, s, e)
            ranks += 2
            for child, cs, ce in (
                (node, s - r1s - ends, e - r1e - ends),
                (node + inner, z1 + r1s, z1 + r1e),
            ):
                if ce == cs:
                    continue
                if ce - cs <= thr or top[child] <= thr:
                    if child < leaves:
                        return (least[child] + 1, ce - cs), ranks
                    found, more = self._leaf_below(lvl + 1, child - leaves, cs, ce)
                    return found, ranks + more
                if child >= leaves:  # a heavy leaf is no minority
                    stack.append((lvl + 1, child - leaves, cs, ce))
        return None, ranks

    def _leaf_below(self, lvl: int, node: int, s: int, e: int) -> tuple[tuple[int, int], int]:
        """(symbol, count) of a leaf below internal node `node` of level lvl
        whose positions s+1..e are nonempty, following nonempty children,
        and the number of rank1 calls made."""
        if not self._steps:
            return (1, e - s), 0
        steps, ranks = self._steps, 0
        while True:
            words, cum, z1, ends, inner, leaves, least, _ = steps[lvl]
            r1s, r1e = _rank_pair(words, cum, s, e)
            ranks += 2
            child, cs, ce = node, s - r1s - ends, e - r1e - ends
            if ce == cs:
                child, cs, ce = node + inner, z1 + r1s, z1 + r1e
            if child < leaves:
                return (least[child] + 1, ce - cs), ranks
            lvl, node, s, e = lvl + 1, child - leaves, cs, ce

    # -- public operations (tallied) --------------------------------------------------

    def range_counts(self, lo: int, hi: int, thr: int = 0) -> dict[int, int]:
        """Counts of the symbols occurring more than thr times in S[lo..hi],
        from one pruned top-down split walk (thr = 0 gives the whole
        histogram)."""
        lo, hi = check_range(lo, hi, self.n)
        out, ranks = self._split_walk(lo - 1, hi, thr)
        self.tally.ranks += ranks
        return out

    def range_mode(self, lo: int, hi: int) -> tuple[int, int]:
        """The most frequent symbol in S[lo..hi], the lowest on a tie, with
        its count, from one best-first walk."""
        lo, hi = check_range(lo, hi, self.n)
        found, ranks = self._mode_walk(lo - 1, hi)
        self.tally.ranks += ranks
        return found

    def range_minority(self, lo: int, hi: int, thr: int) -> tuple[int, int] | None:
        """Some (symbol, count) with 1 <= count <= thr in S[lo..hi], or None
        when every symbol there occurs more than thr times."""
        lo, hi = check_range(lo, hi, self.n)
        if thr < 1:
            return None
        found, ranks = self._minority_walk(lo - 1, hi, thr)
        self.tally.ranks += ranks
        return found

    def to_array(self) -> np.ndarray:
        """Rebuild the raw sequence (1-based symbols), bottom level first.

        Below each level the order is the ending block, each symbol's run
        in leaf order, then the next level's positions.
        """
        if not self._levels:
            return np.ones(self.n, dtype=np.int64)
        # two buffers take turns: a level decodes its positions straight
        # behind the ending runs of the level above, the order that level
        # partitioned them into, and level 0 decodes into the whole of bufs[1]
        bufs = np.empty(self.n, dtype=np.int64), np.empty(self.n, dtype=np.int64)
        for lvl in range(self.depth - 1, -1, -1):
            store = self._levels[lvl]
            _, _, z1, ends, _, leaves, least, _ = self._steps[lvl]
            part = bufs[lvl & 1][: store.n_bits]
            syms = np.asarray(least[:leaves], dtype=np.int64)
            part[:ends] = np.repeat(syms + 1, self.counts[syms])
            above = self._steps[lvl - 1][3] if lvl else 0
            up = bufs[(lvl + 1) & 1][above : above + store.n_bits]
            bits = store.to_numpy_bool()
            up[~bits] = part[: z1 + ends]
            up[bits] = part[z1 + ends :]
        return bufs[1]

    # -- serialization ------------------------------------------------------------------

    def write_to(self, w: ByteWriter) -> None:
        w.u64(self.n)
        w.u32(self.sigma)
        _write_lengths(w, np.frombuffer(self._len, dtype=np.uint8))
        for store in self._levels:  # the level header
            w.u64(store.n_bits)
        for store in self._levels:  # the word stream
            w.words(store.words, counted=False)

    @classmethod
    def read_from(cls, r: ByteReader) -> "WaveletSequence":
        seq = cls()
        seq.n = r.u64()
        seq.sigma = r.u32()
        if not 1 <= seq.sigma <= seq.n:
            raise FormatError(f"alphabet size {seq.sigma} outside [1, n = {seq.n}]")
        lens = _read_lengths(r, seq.sigma)
        _check_lengths(lens)
        shape = _Shape(lens)
        sizes = []
        held = seq.n
        for lvl in range(shape.depth):
            n_bits = r.u64()
            if lvl == 0 and n_bits != seq.n:
                raise FormatError(f"level 0 holds {n_bits} bits, expected {seq.n}")
            if not 2 * shape.inner[lvl] <= n_bits <= held:
                raise FormatError(f"level {lvl} holds {n_bits} bits, outside "
                                  f"[{2 * shape.inner[lvl]}, {held}]")
            held = n_bits
            sizes.append(n_bits)
        levels = [BitVector(r.words((n_bits + 63) // 64), n_bits) for n_bits in sizes]
        counts = _leaf_counts(levels, shape, seq.n)
        seq._assemble(lens, shape, levels, counts)
        return seq

    def to_bytes(self) -> bytes:
        w = ByteWriter()
        self.write_to(w)
        return w.getvalue()

    def size_bits(self) -> int:
        # n, sigma and the packed code lengths; per level its bit length;
        # then the words
        table = _lengths_bits(self.sigma, self.depth.bit_length())
        words = sum(len(store.words) for store in self._levels)
        return 8 * (8 + 4) + table + 64 * self.depth + 64 * words


def _rank_pair(words, cum, s: int, e: int) -> tuple[int, int]:
    """rank1 at s and at e on one level, read straight from its words and
    rank directory."""
    off = s & 63
    r1s = cum[s >> 6] + (words[s >> 6] & ((1 << off) - 1)).bit_count() if off else cum[s >> 6]
    off = e & 63
    r1e = cum[e >> 6] + (words[e >> 6] & ((1 << off) - 1)).bit_count() if off else cum[e >> 6]
    return r1s, r1e


def _typecode(top: int) -> str:
    """The narrowest of array('H'), ('I') and ('Q') that holds 0..top."""
    return "H" if top < 1 << 16 else "I" if top < 1 << 32 else "Q"


def _fold_slots(shape: _Shape, by_leaf: np.ndarray, fold, code: str) -> list[array]:
    """Per level, a value for each child slot as array(code): a leaf slot's
    own, from by_leaf (one value per symbol in leaf order), an internal
    one's the fold of its two children's.

    At each depth the slots are the leaves, then the internal nodes in
    order, and internal node j of level l has slots j and inner[l] + j one
    level down, so the levels fill bottom-up in O(sigma).
    """
    out = []
    below = by_leaf[:0]  # per internal node of the level below
    for lvl in range(shape.depth - 1, -1, -1):
        first, leaves, inner = shape.first[lvl], shape.leaves[lvl], shape.inner[lvl]
        slots = np.concatenate((by_leaf[first : first + leaves], below))
        out.append(_typed(slots, code))
        below = fold(slots[:inner], slots[inner:])
    return out[::-1]


def _slot_max(shape: _Shape, counts: np.ndarray) -> list[array]:
    """Per level, the largest symbol count below each child slot."""
    return _fold_slots(shape, counts[shape.leaf_sym], np.maximum, _typecode(int(counts.max())))


def _slot_least(shape: _Shape) -> list[array]:
    """Per level, the smallest symbol (0-based) below each child slot; at a
    leaf slot, the leaf's own symbol."""
    return _fold_slots(shape, shape.leaf_sym, np.minimum, _typecode(shape.leaf_sym.size - 1))


def _leaf_counts(levels: list, shape: _Shape, n: int) -> np.ndarray:
    """Each symbol's count, from a split walk over the whole sequence that
    handles all nodes of one depth at once; FormatError where the levels
    do not fit the code trie.

    The internal nodes of a level tile it in order, given by their
    boundaries; one rank at each boundary splits them into the next
    depth's slots, whose leading leaves must cover exactly the positions
    that end there, each leaf at least one.
    """
    if not levels:
        return np.array([n], dtype=np.int64)  # one symbol, the empty code
    counts = np.zeros(shape.leaf_sym.size, dtype=np.int64)
    bounds = np.array([0, n], dtype=np.int64)
    for lvl, store in enumerate(levels):
        below = levels[lvl + 1].n_bits if lvl + 1 < len(levels) else 0
        ends = store.n_bits - below
        r1 = store.rank1_array(bounds)
        zeros = store.n_bits - store.ones
        slots = np.concatenate((bounds - r1, zeros + r1[1:]))
        leaves, first = shape.leaves[lvl], shape.first[lvl]
        runs = np.diff(slots[: leaves + 1])
        if slots[leaves] != ends or (runs <= 0).any():
            raise FormatError(f"sequence level {lvl} does not fit its code lengths")
        counts[shape.leaf_sym[first : first + leaves]] = runs
        bounds = slots[leaves:] - ends
    return counts
