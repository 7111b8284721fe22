"""Set partitions, cyclic intervals, finite and affine permutations.

Labels are 1-based everywhere: the ground set of size n is {1, ..., n}.
Permutations are stored in one-line notation as the tuple (w(1), ..., w(n))
and compose as functions, (v*w)(x) = v(w(x)).

Affine permutations are bijections f of the integers with f(a+n) = f(a)+n,
normalised so that f(1)+...+f(n) equals 1+2+...+n; they are stored by their
window (f(1), ..., f(n)).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Sequence, Tuple


# ---------------------------------------------------------------------------
# look-ups in frozen tuples


def lookup_table(obj, items) -> dict:
    """The items of a frozen dataclass's tuple field as a dict, built on the
    first lookup and kept on the instance outside its dataclass fields, so
    that ==, hash and repr do not see it."""
    table = obj.__dict__.get("_table")
    if table is None:
        table = dict(items)
        object.__setattr__(obj, "_table", table)
    return table


# ---------------------------------------------------------------------------
# set partitions


@dataclass(frozen=True)
class SetPartition:
    """A partition of a finite label set into nonempty disjoint blocks."""

    blocks: Tuple[FrozenSet[int], ...]

    def __init__(self, blocks: Iterable[Iterable[int]]):
        bs = tuple(sorted((frozenset(b) for b in blocks), key=lambda b: min(b)))
        if any(not b for b in bs):
            raise ValueError("empty block in set partition")
        all_elems = [x for b in bs for x in b]
        if len(all_elems) != len(set(all_elems)):
            raise ValueError("blocks are not disjoint")
        object.__setattr__(self, "blocks", bs)

    @staticmethod
    def _trusted(blocks: Tuple[FrozenSet[int], ...]) -> "SetPartition":
        """SetPartition(blocks) unchecked: blocks are nonempty disjoint
        frozensets, sorted by their least element."""
        part = object.__new__(SetPartition)
        object.__setattr__(part, "blocks", blocks)
        return part

    @property
    def ground(self) -> FrozenSet[int]:
        return frozenset(x for b in self.blocks for x in b)

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def block_of(self, x: int) -> FrozenSet[int]:
        for b in self.blocks:
            if x in b:
                return b
        raise KeyError(x)

    def same_block(self, x: int, y: int) -> bool:
        return y in self.block_of(x)

    def __str__(self):
        return "{" + ", ".join("{" + ",".join(map(str, sorted(b))) + "}" for b in self.blocks) + "}"


def partition_closure(n: int, pairs: Iterable[Tuple[int, int]]) -> SetPartition:
    """The finest set partition of {1..n} with i and j in one block for
    each pair (i, j) of pairs: the equivalence relation they generate.

    >>> print(partition_closure(4, [(1, 2), (3, 4)]))
    {{1,2}, {3,4}}
    """
    parts = [{i} for i in range(n + 1)]  # parts[i] is i's block; parts[0] is unused
    for i, j in pairs:
        a, b = parts[i], parts[j]
        if a is not b:
            if len(a) < len(b):
                a, b = b, a
            a |= b
            for x in b:
                parts[x] = a
    # each block comes first at its least label
    blocks = {id(b): b for b in parts[1:]}.values()
    return SetPartition._trusted(tuple(map(frozenset, blocks)))


def refines(b: SetPartition, s: SetPartition) -> bool:
    """True iff every block of b is contained in a block of s.

    >>> refines(SetPartition([{1},{2},{3}]), SetPartition([{1,2},{3}]))
    True
    >>> refines(SetPartition([{1,2},{3}]), SetPartition([{1,3},{2}]))
    False
    """
    if b.ground != s.ground:
        raise ValueError("mismatched ground sets")
    return all(blk <= s.block_of(min(blk)) for blk in b.blocks)


def set_partitions(items: Iterable[int]):
    """Yield the set partitions of the items by the restricted-growth
    recursion: each as a tuple of blocks, each block a sorted tuple, the
    blocks ordered by their smallest item.

    >>> list(set_partitions([1, 2, 3]))
    [((1, 2, 3),), ((1, 2), (3,)), ((1, 3), (2,)), ((1,), (2, 3)), ((1,), (2,), (3,))]
    """
    return _grow(sorted(items), 0, [])


def _grow(items: list, i: int, blocks: list):
    """The set partitions that extend blocks, a partition of items[:i], to
    all the items: items[i] joins each block in turn, then starts its own."""
    if i == len(items):
        yield tuple(tuple(b) for b in blocks)
        return
    for b in blocks:
        b.append(items[i])
        yield from _grow(items, i + 1, blocks)
        b.pop()
    blocks.append([items[i]])
    yield from _grow(items, i + 1, blocks)
    blocks.pop()


def all_set_partitions(n: int) -> list[SetPartition]:
    """All set partitions of {1..n}, in set_partitions order."""
    return [SetPartition(p) for p in set_partitions(range(1, n + 1))]


def arrangements(kind: str, items: Sequence):
    """The orders of the items that a complex kind tells apart: every order
    ("ordered"), the first item fixed and the rest in every order
    ("cyclic", one order per rotation class), or the items as given
    ("unordered").

    >>> [len(list(arrangements(kind, "abcd"))) for kind in ("ordered", "cyclic", "unordered")]
    [24, 6, 1]
    """
    items = tuple(items)
    if kind == "ordered":
        return itertools.permutations(items)
    if kind == "cyclic":
        return (items[:1] + rest for rest in itertools.permutations(items[1:]))
    if kind == "unordered":
        return (items,)
    raise ValueError(f"unknown kind {kind!r}")


def arrange(kind: str, items: tuple, key) -> tuple:
    """The items in the canonical order of a complex kind: as given
    ("ordered"), sorted by key ("unordered"), or the rotation that starts at
    the smallest key ("cyclic"); key None compares the items themselves.
    The keys must be distinct, as the blocks of a set partition and the
    trees of a forest are, for the rotation to be canonical.

    >>> blocks = ((3,), (1, 2), (4,))
    >>> [arrange(kind, blocks, None) for kind in ("ordered", "unordered", "cyclic")]
    [((3,), (1, 2), (4,)), ((1, 2), (3,), (4,)), ((1, 2), (4,), (3,))]
    >>> arrange("cyclic", ("abc", "d", "ef"), len)
    ('d', 'ef', 'abc')
    >>> arrange("dihedral", blocks, None)
    Traceback (most recent call last):
    ...
    ValueError: unknown kind 'dihedral'
    """
    if kind == "unordered":
        return tuple(sorted(items, key=key))
    if kind == "cyclic":
        i = items.index(min(items, key=key))
        return items[i:] + items[:i]
    if kind == "ordered":
        return items
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# cyclic intervals


@dataclass(frozen=True)
class CyclicInterval:
    """The interval [i, j] = {i < i+1 < ... < j} in the cyclic order on Z/n."""

    i: int
    j: int
    n: int

    def __post_init__(self):
        if not (1 <= self.i <= self.n and 1 <= self.j <= self.n):
            raise ValueError("endpoints out of range")
        if self.i == self.j:
            raise ValueError("degenerate interval: i = j")

    def elements(self) -> Tuple[int, ...]:
        out = [self.i]
        x = self.i
        while x != self.j:
            x = x % self.n + 1
            out.append(x)
        return tuple(out)

    def __contains__(self, x: int) -> bool:
        return x in self.elements()

    def __len__(self):
        return (self.j - self.i) % self.n + 1

    def is_subinterval_of(self, other: "CyclicInterval") -> bool:
        """Order-preserving containment: [3,1] is not inside [1,3].

        self starts (self.i - other.i) mod n steps into other and must end
        inside it.

        >>> CyclicInterval(3, 1, 4).is_subinterval_of(CyclicInterval(2, 1, 4))
        True
        >>> CyclicInterval(3, 1, 3).is_subinterval_of(CyclicInterval(1, 3, 3))
        False
        """
        if self.n != other.n:
            raise ValueError("different ambient cyclic orders")
        return (self.i - other.i) % self.n + len(self) <= len(other)


# ---------------------------------------------------------------------------
# finite permutations


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n} in one-line notation."""

    images: Tuple[int, ...]

    def __init__(self, images: Sequence[int]):
        t = tuple(images)
        if sorted(t) != list(range(1, len(t) + 1)):
            raise ValueError(f"not a permutation: {t}")
        object.__setattr__(self, "images", t)

    @staticmethod
    def _trusted(images: Tuple[int, ...]) -> "Permutation":
        """Permutation(images) unchecked: images holds 1..n once each."""
        perm = object.__new__(Permutation)
        object.__setattr__(perm, "images", images)
        return perm

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        sw, ow = self.images, other.images
        if len(sw) != len(ow):
            raise ValueError("size mismatch")
        return Permutation._trusted(tuple([sw[x - 1] for x in ow]))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for x, y in enumerate(self.images, 1):
            inv[y - 1] = x
        return Permutation._trusted(tuple(inv))

    def is_identity(self) -> bool:
        return all(self(x) == x for x in range(1, self.n + 1))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation._trusted(tuple(range(1, n + 1)))

    @staticmethod
    def long_cycle(n: int) -> "Permutation":
        """r = (1 2 ... n), the rotation a -> a+1."""
        return Permutation._trusted(tuple(range(2, n + 1)) + (1,))

    @staticmethod
    def transposition(n: int, a: int, b: int) -> "Permutation":
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"a transposition of 1..{n} swaps two of them, not {a} and {b}")
        im = list(range(1, n + 1))
        im[a - 1], im[b - 1] = b, a
        return Permutation._trusted(tuple(im))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        out = Permutation.identity(self.n)
        for _ in range(k):
            out = self * out
        return out

    def __str__(self):
        return "(" + " ".join(map(str, self.images)) + ")"


def interval_reversal(i: int, j: int, n: int) -> Permutation:
    """The permutation reversing the cyclic interval [i,j] and fixing the rest.

    >>> interval_reversal(4, 1, 4).images
    (4, 2, 3, 1)
    >>> interval_reversal(1, 4, 4).images
    (4, 3, 2, 1)
    """
    elems = CyclicInterval(i, j, n).elements()
    im = list(range(1, n + 1))
    for k, x in enumerate(elems):
        im[x - 1] = elems[len(elems) - 1 - k]
    return Permutation._trusted(tuple(im))


def is_translation(w: Permutation, i: int, j: int) -> bool:
    """True iff w(i+k) = w(i)+k for k = 1, ..., j-i."""
    if not (1 <= i < j <= w.n):
        raise ValueError("need 1 <= i < j <= n")
    return all(w(i + k) == w(i) + k for k in range(1, j - i + 1))


# ---------------------------------------------------------------------------
# affine permutations


def _binom2(n: int) -> int:
    return n * (n + 1) // 2


@dataclass(frozen=True)
class AffinePermutation:
    """Window notation (f(1), ..., f(n)) of a normalised affine permutation.

    Validity (checked at construction, the single trust boundary): the window
    entries form a complete residue system mod n and sum to n(n+1)/2.
    Products are valid by construction and are stored through
    ``AffinePermutation._trusted``, unchecked.
    """

    window: Tuple[int, ...]

    def __init__(self, window: Sequence[int]):
        t = tuple(int(x) for x in window)
        n = len(t)
        if n == 0:
            raise ValueError("empty window")
        if sorted(x % n for x in t) != list(range(n)):
            raise ValueError(f"window residues not a complete system mod {n}: {t}")
        if sum(t) != _binom2(n):
            raise ValueError(f"window sum {sum(t)} != {_binom2(n)}")
        object.__setattr__(self, "window", t)

    @staticmethod
    def _trusted(window: Tuple[int, ...]) -> "AffinePermutation":
        """Store a window known to be valid; its contract is a tuple of ints
        that the constructor would accept unchanged."""
        ap = object.__new__(AffinePermutation)
        object.__setattr__(ap, "window", window)
        return ap

    @property
    def n(self) -> int:
        return len(self.window)

    def __call__(self, a: int) -> int:
        n = self.n
        i = (a - 1) % n + 1
        m = (a - i) // n
        return self.window[i - 1] + n * m

    def __mul__(self, other: "AffinePermutation") -> "AffinePermutation":
        sw = self.window
        n = len(sw)
        if n != len(other.window):
            raise ValueError("size mismatch")
        # self(v) = sw[r] + v - 1 - r with r = (v - 1) mod n, for each entry v
        # of other's window
        out = []
        for v in other.window:
            r = (v - 1) % n
            out.append(sw[r] + v - 1 - r)
        return AffinePermutation._trusted(tuple(out))

    def inverse(self) -> "AffinePermutation":
        n = self.n
        win = [0] * n
        for i in range(1, n + 1):
            v = self(i)
            r = (v - 1) % n + 1
            m = (v - r) // n
            win[r - 1] = i - n * m
        return AffinePermutation(tuple(win))

    def is_identity(self) -> bool:
        return self.window == tuple(range(1, self.n + 1))

    @staticmethod
    def identity(n: int) -> "AffinePermutation":
        return AffinePermutation(tuple(range(1, n + 1)))

    @staticmethod
    def from_permutation(w: Permutation) -> "AffinePermutation":
        return AffinePermutation(w.images)

    @staticmethod
    def from_translation(k: Sequence[int]) -> "AffinePermutation":
        """f(i + nm) = i + n*k_i + nm, for an integer vector with sum zero."""
        if sum(k) != 0:
            raise ValueError("translation vector must sum to zero")
        n = len(k)
        return AffinePermutation(tuple(i + n * k[i - 1] for i in range(1, n + 1)))

    def reduce_mod_n(self) -> Permutation:
        n = self.n
        return Permutation(tuple((self.window[i] - 1) % n + 1 for i in range(n)))

    def rotate(self, p: int = 1) -> "AffinePermutation":
        """The Z/n action (r^p . f)(a) = f(a-p) + p."""
        return AffinePermutation(tuple(self(i - p) + p for i in range(1, self.n + 1)))

    def __str__(self):
        return "[" + " ".join(map(str, self.window)) + "]"


def affine_interval_reversal(i: int, j: int, n: int) -> AffinePermutation:
    """Reverse every integer interval lying over the cyclic interval [i,j].

    The preimage of [i,j] under Z -> Z/n is a disjoint union of integer
    intervals; each is reversed in place and everything else is fixed.  For a
    standard interval (i < j) this is the image of interval_reversal under the
    embedding of the finite symmetric group.

    >>> affine_interval_reversal(1, 3, 3).window
    (3, 2, 1)
    >>> affine_interval_reversal(2, 1, 2).window
    (0, 3)
    """
    if i == j:
        raise ValueError("degenerate interval")
    length = len(CyclicInterval(i, j, n))
    # the integer interval [i, i+length-1] maps onto [i,j]; reversal there is
    # x -> 2i + length - 1 - x, repeated n-periodically.
    win = []
    for x in range(1, n + 1):
        # position of x relative to the interval copy containing it, if any
        offset = (x - i) % n
        if offset < length:
            start = x - offset
            win.append(2 * start + length - 1 - x)
        else:
            win.append(x)
    return AffinePermutation(tuple(win))


def affine_decompose(f: AffinePermutation) -> tuple[Permutation, Tuple[int, ...]]:
    """Split f = f_sigma * f_k into finite part and root-lattice translation.

    Recomposition is exact: compose(affine_decompose(f)) == f.
    """
    n = f.n
    sigma = f.reduce_mod_n()
    k = tuple((f.window[i - 1] - sigma(i)) // n for i in range(1, n + 1))
    assert sum(k) == 0
    return sigma, k


def affine_recompose(sigma: Permutation, k: Sequence[int]) -> AffinePermutation:
    return AffinePermutation.from_permutation(sigma) * AffinePermutation.from_translation(k)


@dataclass(frozen=True)
class ExtAffinePermutation:
    """An element (f, r^shift) of the extension of the affine symmetric group
    by Z/n, where r acts by (r.f)(a) = f(a-1) + 1."""

    base: AffinePermutation
    shift: int

    def __post_init__(self):
        object.__setattr__(self, "shift", self.shift % self.base.n)

    @property
    def n(self) -> int:
        return self.base.n

    def __mul__(self, other: "ExtAffinePermutation") -> "ExtAffinePermutation":
        if self.n != other.n:
            raise ValueError("size mismatch")
        base = other.base if self.shift == 0 else other.base.rotate(self.shift)
        return ExtAffinePermutation(self.base * base, self.shift + other.shift)

    def inverse(self) -> "ExtAffinePermutation":
        return ExtAffinePermutation(
            self.base.inverse().rotate(-self.shift), -self.shift
        )

    def is_identity(self) -> bool:
        return self.shift == 0 and self.base.is_identity()

    @staticmethod
    def identity(n: int) -> "ExtAffinePermutation":
        return ExtAffinePermutation(AffinePermutation.identity(n), 0)

    def to_symmetric(self) -> Permutation:
        """Project to the finite symmetric group, r going to the long cycle."""
        return self.base.reduce_mod_n() * Permutation.long_cycle(self.n) ** self.shift


def ext_affine_to_semidirect(g: ExtAffinePermutation) -> tuple[Permutation, Tuple[int, ...]]:
    """Identify the extended group with S_n x| Z^n/Z.

    Returns (u, k) where u is the symmetric-group image and k is a vector in
    Z^n normalised so its last entry is 0 (a chosen coset representative of
    Z^n/Z).  The kernel element for k has f(i + nm) = i + n*k_i - sum(k) + nm
    and carries shift sum(k) mod n.
    """
    n = g.n
    u = g.to_symmetric()
    # peel off the symmetric part: h := split(u)^{-1} * g lies in the kernel
    split_u = ExtAffinePermutation(AffinePermutation.from_permutation(u), 0)
    h = split_u.inverse() * g
    c = h.shift
    # h.base window: h(i) = i + n*k_i - sum(k), with sum(k) = c + n*t
    raw = [h.base.window[i - 1] - i for i in range(1, n + 1)]  # n*k_i - sum(k)
    # choose sum(k) = s with s = c mod n making all k_i integral
    s = None
    for t in range(-n, n + 1):
        cand = c + n * t
        if all((r + cand) % n == 0 for r in raw):
            s = cand
            break
    assert s is not None, "no consistent lift"
    k = [(r + s) // n for r in raw]
    assert sum(k) == s
    # normalise modulo the diagonal copy of Z
    last = k[-1]
    k = tuple(x - last for x in k)
    return u, k


def semidirect_to_ext_affine(u: Permutation, k: Sequence[int]) -> ExtAffinePermutation:
    """Inverse of ext_affine_to_semidirect (k taken modulo the diagonal)."""
    n = u.n
    last = k[-1]
    k = [x - last for x in k]
    s = sum(k)
    base = AffinePermutation(tuple(i + n * k[i - 1] - s for i in range(1, n + 1)))
    kernel = ExtAffinePermutation(base, s)
    return ExtAffinePermutation(AffinePermutation.from_permutation(u), 0) * kernel


def semidirect_mul(
    a: tuple[Permutation, Tuple[int, ...]], b: tuple[Permutation, Tuple[int, ...]]
) -> tuple[Permutation, Tuple[int, ...]]:
    """Product in S_n x| Z^n/Z matching the extended affine group law."""
    g = semidirect_to_ext_affine(*a) * semidirect_to_ext_affine(*b)
    return ext_affine_to_semidirect(g)


def all_permutations(n: int) -> list[Permutation]:
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
