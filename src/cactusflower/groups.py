"""Presentations of the cactus-family groups and evaluable homomorphisms.

Words are tuples of letters:

    ("s", i, j)    interval reverser; a standard generator needs i < j, the
                   affine family allows any i != j (cyclic intervals)
    ("w", perm)    an element of the symmetric-group letter copy
    ("a", perm)    the other symmetric-group copy (virtual symmetric words)
    ("a", k)       Coxeter generator k = 1..n-1 of the first symmetric-group
                   copy of virtual_sym
    ("b", k)       Coxeter generator of the other copy (virtual_sym) or of
                   the symmetric part of virtual_cactus
    ("r",)         the rotation of the extended (affine) groups
    ("sigma", k)   Coxeter generator of the affine symmetric group, k = 0..n-1
    ("sA", seq)    pure virtual cactus generator, seq an ordered subset
    ("sig", i, j)  pure virtual symmetric generator

The word problem is solved by faithful evaluation in S, AS and EAS, for vC
words of trivial shadow exactly in the one-vertex complex hatD_n, and for vS
words exactly in the Coxeter kernel of vS_n -> S_n.
"""
from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Tuple

from .combinatorics import (
    AffinePermutation,
    ExtAffinePermutation,
    Permutation,
    affine_interval_reversal,
    all_permutations,
    interval_reversal,
    lookup_table,
)

Letter = tuple
Word = Tuple[Letter, ...]

_FAMILY_OF = {
    "C": "cactus",
    "AC": "affine_cactus",
    "EAC": "ext_affine_cactus",
    "vC": "virtual_cactus",
    "vS": "virtual_sym",
    "PvC": "pure_virtual_cactus",
    "PvS": "pure_virtual_sym",
}
FAMILIES = tuple(_FAMILY_OF.values())


def _cyc(i: int, k: int, n: int) -> int:
    """Index shift modulo n, writing n instead of 0."""
    return (i + k - 1) % n + 1


def shift_pair(i: int, j: int, k: int, n: int) -> tuple[int, int]:
    return _cyc(i, k, n), _cyc(j, k, n)


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class Presentation:
    family: str
    n: int
    generators: Tuple[Letter, ...]
    relators: Tuple[Word, ...]
    # partner[g] is the designated inverse generator (g itself for involutions)
    partner: Tuple[Tuple[Letter, Letter], ...]


def _letter_key(x: Letter):
    return tuple((0, t) if isinstance(t, int) else (1, str(t)) for t in x)


def _word_key(w: Word):
    return tuple(_letter_key(x) for x in w)


def _min_rotation(key: Tuple[int, ...], inv: Tuple[int, ...]) -> Tuple[int, ...]:
    """The least rotation of two int tuples of one length."""
    return min(word[k:] + word[:k] for word in (key, inv) for k in range(len(word)))


def canonical_cyclic(w: Word, partner: Dict[Letter, Letter]) -> Word:
    """Canonical form of a relator: minimum over rotations of the word and of
    its inverse (reverse with letters replaced by their partners), in
    `_word_key` order.  The letters are ranked in `_letter_key` order, so the
    rotations compare as int tuples.

    A rotated inverse of a stored relator gives the relator back:

    >>> p = make_presentation("pure_virtual_sym", 3)
    >>> partner = dict(p.partner)
    >>> rel = p.relators[0]
    >>> inv = tuple(partner[x] for x in reversed(rel))
    >>> canonical_cyclic(inv[2:] + inv[:2], partner) == rel
    True
    """
    inv = tuple(partner[x] for x in reversed(w))
    letters = sorted(set(w) | set(inv), key=_letter_key)
    rank = {x: r for r, x in enumerate(letters)}
    best = _min_rotation(tuple(rank[x] for x in w), tuple(rank[x] for x in inv))
    return tuple(letters[r] for r in best)


def _ranked_presentation(
    family: str, n: int, gens: Tuple[Letter, ...], partner: Dict[Letter, Letter],
    ranked_words: Callable[[Dict[Letter, int]], Iterable[Tuple[int, ...]]],
) -> Presentation:
    """The presentation whose relators are the distinct canonical forms (as
    canonical_cyclic gives them) of the words `ranked_words(rank)` yields,
    sorted in `_word_key` order.

    The generators are ranked once in `_letter_key` order, and `rank` maps
    each to its rank; the words come as int tuples of ranks, so the set and
    the final sort compare plain int tuples, which order as the letter keys
    do.
    """
    letters = sorted(gens, key=_letter_key)
    rank = {x: r for r, x in enumerate(letters)}
    partner_rank = [rank[partner[x]] for x in letters]
    rels = set()
    for key in ranked_words(rank):
        rels.add(_min_rotation(key, tuple(partner_rank[r] for r in reversed(key))))
    relators = tuple(tuple(letters[r] for r in rel) for rel in sorted(rels))
    return Presentation(family, n, gens, relators, tuple((g, partner[g]) for g in gens))


def _in_ranks(words: Iterable[Word]):
    """The `ranked_words` of _ranked_presentation for words in letters."""
    return lambda rank: (tuple(rank[x] for x in w) for w in words)


def _standard_pairs(n: int):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _cyclic_pairs(n: int):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def _cactus_relators(pairs, n: int) -> list[Word]:
    """The involution, disjointness and nesting relators on interval
    reversers; `pairs` fixes the generating set (standard or cyclic).

    The pair (i, j) is the cyclic interval of length (j - i) % n + 1 from i,
    with an int mask of its elements.  q lies in order inside p when it
    starts (q_i - p_i) % n steps into p and ends inside it, and the reversal
    of p sends the point t steps into p to the one t steps before p's end.
    """
    gens = [("s", *p) for p in pairs]
    rel: list[Word] = [(g, g) for g in gens]
    lengths = [(j - i) % n + 1 for i, j in pairs]
    masks = [
        sum(1 << ((i - 1 + t) % n) for t in range(m)) for (i, _), m in zip(pairs, lengths)
    ]
    for a, b in itertools.combinations(range(len(pairs)), 2):
        if not masks[a] & masks[b]:
            rel.append((gens[a], gens[b], gens[a], gens[b]))
    for a, (pi, _) in enumerate(pairs):
        end = pi + lengths[a] - 2  # (end - t) % n + 1 is t steps before p's end
        for b, (qi, _) in enumerate(pairs):
            t = (qi - pi) % n
            if b != a and t + lengths[b] <= lengths[a]:
                image = ("s", (end - t - lengths[b] + 1) % n + 1, (end - t) % n + 1)
                rel.append((gens[a], gens[b], gens[a], image))
    return rel


def _coxeter_sym_relators(tag: str, n: int) -> list[Word]:
    """Relators of the symmetric group on adjacent transpositions, with
    letters tagged by the copy they belong to."""
    rel: list[Word] = []
    for k in range(1, n):
        g = (tag, k)
        rel.append((g, g))
    for k in range(1, n - 1):
        a, b = (tag, k), (tag, k + 1)
        rel.append((a, b, a, b, a, b))
    for k in range(1, n):
        for l in range(k + 2, n):
            a, b = (tag, k), (tag, l)
            rel.append((a, b, a, b))
    return rel


def ordered_subsets(n: int):
    for size in range(2, n + 1):
        for combo in itertools.permutations(range(1, n + 1), size):
            yield combo


def make_presentation(family: str, n: int) -> Presentation:
    """Generators and relators of one of the cactus-family groups.

    For the pure virtual cactus group the commuting relation is imposed for
    disjoint pairs {A, B} and the exchange relation for pairwise disjoint
    triples {A, B, C} (with B, C allowed empty but not both); this is the
    reading that matches the boundary squares of the quotient cube complex.

    >>> make_presentation("cactus", 3).generators
    (('s', 1, 2), ('s', 1, 3), ('s', 2, 3))
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 2:
        raise ValueError("need n >= 2")

    if family in ("cactus", "affine_cactus"):
        pairs = _standard_pairs(n) if family == "cactus" else _cyclic_pairs(n)
        gens = tuple(("s", *p) for p in pairs)
        rel = _cactus_relators(pairs, n)
        partner = tuple((g, g) for g in gens)
        return Presentation(family, n, gens, tuple(rel), partner)

    if family == "ext_affine_cactus":
        base = make_presentation("affine_cactus", n)
        r = ("r",)
        rinv = ("r-",)
        gens = base.generators + (r, rinv)
        rel = list(base.relators)
        rel.append(tuple([r] * n))
        rel.append((r, rinv))
        for (i, j) in _cyclic_pairs(n):
            i2, j2 = shift_pair(i, j, 1, n)
            rel.append((r, ("s", i, j), rinv, ("s", i2, j2)))
        partner = tuple((g, g) for g in base.generators) + ((r, rinv), (rinv, r))
        return Presentation(family, n, gens, tuple(rel), partner)

    if family == "virtual_sym":
        rel = _coxeter_sym_relators("a", n) + _coxeter_sym_relators("b", n)
        for w in all_permutations(n):
            for k in range(1, n):
                if w(k + 1) == w(k) + 1:
                    bw = _sym_word("b", w)
                    bwi = _sym_word("b", w.inverse())
                    rel.append(bw + (("a", k),) + bwi + (("a", w(k)),))
        gens = tuple(("a", k) for k in range(1, n)) + tuple(("b", k) for k in range(1, n))
        partner = tuple((g, g) for g in gens)
        return Presentation(family, n, gens, tuple(rel), partner)

    if family == "virtual_cactus":
        pairs = _standard_pairs(n)
        rel = _cactus_relators(pairs, n)
        rel += _coxeter_sym_relators("b", n)
        for (i, j) in pairs:
            for w in _translations(i, j, n):
                bw = _sym_word("b", w)
                bwi = _sym_word("b", w.inverse())
                rel.append(bw + (("s", i, j),) + bwi + (("s", w(i), w(j)),))
        gens = tuple(("s", *p) for p in pairs) + tuple(("b", k) for k in range(1, n))
        partner = tuple((g, g) for g in gens)
        return Presentation(family, n, gens, tuple(rel), partner)

    if family == "pure_virtual_sym":
        gens = tuple(("sig", i, j) for (i, j) in _cyclic_pairs(n))
        partner_d = {("sig", i, j): ("sig", j, i) for (i, j) in _cyclic_pairs(n)}
        return _ranked_presentation(
            family, n, gens, partner_d, _in_ranks(_pure_virtual_sym_words(n))
        )

    if family == "pure_virtual_cactus":
        gens = tuple(("sA", a) for a in ordered_subsets(n))
        partner_d = {("sA", a): ("sA", a[::-1]) for _, a in gens}
        return _ranked_presentation(
            family, n, gens, partner_d, lambda rank: _pure_virtual_cactus_words(rank, n)
        )

    raise AssertionError


def _pure_virtual_sym_words(n: int):
    """The commuting squares and the hexagons of the pure virtual symmetric
    group, one word at a time."""
    for (i, j) in _cyclic_pairs(n):
        for (l, m) in _cyclic_pairs(n):
            if not {i, j} & {l, m}:
                yield (("sig", i, j), ("sig", l, m), ("sig", j, i), ("sig", m, l))
    for i, j, l in itertools.permutations(range(1, n + 1), 3):
        yield (
            ("sig", i, j), ("sig", i, l), ("sig", j, l),
            ("sig", j, i), ("sig", l, i), ("sig", l, j),
        )


def _pure_virtual_cactus_words(rank: Dict[Letter, int], n: int):
    """One word in ranks for each relator of the pure virtual cactus group.

    A commuting relator s_A s_B s_rev(A) s_rev(B), for disjoint A and B, is
    also spelt from rev(A) or rev(B), and with B first: the eight spellings
    are its rotations and those of its inverse, so one word is made per
    unordered pair of disjoint reversal classes {A, rev(A)}.  A nesting
    relator, A inside the context (C, ..., B), is also spelt from rev(A)
    and from the context (rev(B), rev(C)) (its inverse and a rotation):
    only A < rev(A) and (C, B) < (rev(B), rev(C)) are taken.
    """
    r = {x[1]: k for x, k in rank.items()}
    classes = [a for a in r if a < a[::-1]]
    # commuting: the classes grouped by their bitmask, disjoint masks paired
    by_mask: Dict[int, list] = {}
    for a in classes:
        by_mask.setdefault(sum(1 << x for x in a), []).append((r[a], r[a[::-1]]))
    masks = sorted(by_mask)
    for k, mask_a in enumerate(masks):
        for mask_b in masks[k + 1 :]:
            if mask_a & mask_b:
                continue
            for a, ar in by_mask[mask_a]:
                for b, br in by_mask[mask_b]:
                    yield (a, b, ar, br)
    # nesting: A inside the context (C, ..., B); C and B may be empty but
    # not both, and the whole ordered subset C A B stays inside [n]
    for a in classes:
        ar = r[a[::-1]]
        rest = [x for x in range(1, n + 1) if x not in a]
        for csize in range(len(rest) + 1):
            for c in itertools.permutations(rest, csize):
                left = [x for x in rest if x not in c]
                for bsize in range(len(left) + 1):
                    if csize + bsize == 0:
                        continue
                    for b in itertools.permutations(left, bsize):
                        if (c, b) < (b[::-1], c[::-1]):
                            yield (ar, r[c + a + b], ar, r[b[::-1] + a + c[::-1]])


def _translations(i: int, j: int, n: int) -> list[Permutation]:
    """The permutations w of [n] other than the identity that translate
    [i, j], w(i + k) = w(i) + k for k <= j - i (is_translation), in the
    lexicographic order of all_permutations.  The interval goes onto a block
    a, ..., a + j - i, and the other positions take the other values in
    every order."""
    span = j - i
    found = []
    for a in range(1, n - span + 1):
        block = tuple(range(a, a + span + 1))
        rest = [x for x in range(1, n + 1) if not a <= x <= a + span]
        for p in itertools.permutations(rest):
            found.append(p[: i - 1] + block + p[i - 1 :])
    found.sort()
    identity = tuple(range(1, n + 1))
    return [Permutation(w) for w in found if w != identity]


@functools.lru_cache(maxsize=256)
def _transposition_word(images: Tuple[int, ...]) -> Tuple[int, ...]:
    """A fixed reduced word, in adjacent transpositions (bubble sort), for
    the permutation with these images, as the indices k of the letters
    (k, k+1); kept per permutation, as the same few recur."""
    images = list(images)
    out = []
    changed = True
    while changed:
        changed = False
        for k in range(len(images) - 1):
            if images[k] > images[k + 1]:
                images[k], images[k + 1] = images[k + 1], images[k]
                out.append(k + 1)
                changed = True
    # out sorts p to the identity multiplying on the right; reversal gives p
    return tuple(reversed(out))


def _sym_word(tag: str, w: Permutation) -> Word:
    """The word of _transposition_word(w) with each letter tagged."""
    return tuple((tag, k) for k in _transposition_word(w.images))


# ---------------------------------------------------------------------------
# evaluation into solvable targets


def eval_letter_sym(x: Letter, n: int) -> Permutation:
    kind = x[0]
    if kind == "s":
        return interval_reversal(x[1], x[2], n)
    if kind in ("w", "a", "b"):
        if isinstance(x[1], Permutation):
            return x[1]
        return Permutation.transposition(n, x[1], x[1] + 1)
    if kind == "sigma":
        k = x[1]
        if k == 0:
            return Permutation.transposition(n, 1, n)
        return Permutation.transposition(n, k, k + 1)
    if kind == "r":
        return Permutation.long_cycle(n)
    if kind == "r-":
        return Permutation.long_cycle(n).inverse()
    if kind in ("sA", "sig"):
        return Permutation.identity(n)
    raise ValueError(f"letter {x!r} has no symmetric-group shadow")


def affine_sigma(k: int, n: int) -> AffinePermutation:
    if k == 0:
        win = list(range(1, n + 1))
        win[0], win[n - 1] = 0, n + 1
        return AffinePermutation(tuple(win))
    win = list(range(1, n + 1))
    win[k - 1], win[k] = k + 1, k
    return AffinePermutation(tuple(win))


def eval_letter_affine(x: Letter, n: int) -> AffinePermutation:
    kind = x[0]
    if kind == "s":
        return affine_interval_reversal(x[1], x[2], n)
    if kind == "sigma":
        return affine_sigma(x[1], n)
    if kind in ("w", "a", "b"):
        return AffinePermutation.from_permutation(eval_letter_sym(x, n))
    raise ValueError(f"letter {x!r} has no affine evaluation")


def eval_letter_ext_affine(x: Letter, n: int) -> ExtAffinePermutation:
    if x[0] == "r":
        return ExtAffinePermutation(AffinePermutation.identity(n), 1)
    if x[0] == "r-":
        return ExtAffinePermutation(AffinePermutation.identity(n), -1)
    return ExtAffinePermutation(eval_letter_affine(x, n), 0)


SOLVABLE_TARGETS = ("S", "AS", "EAS")

# each solvable target: (its identity at rank n, its letter evaluator)
_EVALUATORS = {
    "S": (Permutation.identity, eval_letter_sym),
    "AS": (AffinePermutation.identity, eval_letter_affine),
    "EAS": (ExtAffinePermutation.identity, eval_letter_ext_affine),
}


def evaluate_word(code: str, word: Word, n: int):
    """The value of a word in the solvable group S, AS or EAS of rank n."""
    if code not in SOLVABLE_TARGETS:
        raise ValueError(f"{code} is not a solvable evaluation target")
    identity, evaluate = _EVALUATORS[code]
    out = identity(n)
    for x in word:
        out = out * evaluate(x, n)
    return out


# ---------------------------------------------------------------------------
# homomorphisms

GROUPS = ("C", "AC", "EAC", "vC", "vS", "S", "AS", "EAS", "PvC", "PvS")

_DIAGRAM_ARROWS = {
    ("C", "S"), ("C", "EAC"),
    ("AC", "AS"), ("AC", "S"), ("AC", "vC"),
    ("EAC", "vC"), ("EAC", "EAS"), ("EAC", "S"),
    ("EAS", "vS"), ("EAS", "S"),
    ("vC", "vS"), ("vC", "S"),
    ("vS", "S"),
    ("S", "EAS"), ("S", "S"),
}


@dataclass(frozen=True)
class GroupHom:
    source: str
    target: str
    n: int
    images: Tuple[Tuple[Letter, object], ...]

    def map_word(self, w: Word) -> Word:
        """Substitute generator images (for presentation targets)."""
        return _substitute(self, lookup_table(self, self.images), w)


def _substitute(h: GroupHom, table: dict, w: Word) -> Word:
    """map_word with the generator-image table of h already built."""
    out: list[Letter] = []
    for x in w:
        img = table.get(x)
        if img is None:
            img = _generic_letter_image(h.target, x, h.n)
        out.extend(img)
    return tuple(out)


def _generic_letter_image(target: str, x: Letter, n: int):
    """Images of letters outside the finite generator table: symmetric-copy
    letters map across by relabelling."""
    if x[0] == "w" and target in ("vC", "vS"):
        return (("w", x[1]),)
    if x[0] == "b" and target in ("vC", "vS"):
        return (("w", Permutation.transposition(n, x[1], x[1] + 1)),)
    raise KeyError(x)


def hom(pair: tuple[str, str], n: int) -> GroupHom:
    """The named arrow of the group diagram, as a generator-image table.

    An arrow into S, AS or EAS sends each generator (and r- from EAC) to its
    letter's value there; the arrows into presentations are listed by hand.
    """
    src, dst = pair
    if (src, dst) not in _DIAGRAM_ARROWS:
        raise ValueError(f"arrow {src} -> {dst} is not in the diagram")
    if n < 2:
        raise ValueError("need n >= 2")
    images: dict[Letter, object] = {}

    if dst in SOLVABLE_TARGETS:
        evaluate = _EVALUATORS[dst][1]
        for x in generators_of(src, n) + ([("r-",)] if src == "EAC" else []):
            images[x] = evaluate(x, n)
    elif (src, dst) == ("C", "EAC"):
        for (i, j) in _standard_pairs(n):
            images[("s", i, j)] = (("s", i, j),)
    elif (src, dst) in (("AC", "vC"), ("EAC", "vC")):
        r = Permutation.long_cycle(n)
        for (i, j) in _cyclic_pairs(n):
            if i < j:
                images[("s", i, j)] = (("s", i, j),)
            else:
                i2, j2 = shift_pair(i, j, -(i - 1), n)
                assert i2 == 1 and i2 < j2
                images[("s", i, j)] = (
                    ("w", r ** (i - 1)), ("s", i2, j2), ("w", r ** (1 - i)),
                )
        if src == "EAC":
            images[("r",)] = (("w", r),)
            images[("r-",)] = (("w", r.inverse()),)
    elif (src, dst) == ("EAS", "vS"):
        r = Permutation.long_cycle(n)
        for k in range(1, n):
            images[("sigma", k)] = (("a", Permutation.transposition(n, k, k + 1)),)
        images[("sigma", 0)] = (
            ("w", r.inverse()),
            ("a", Permutation.transposition(n, 1, 2)),
            ("w", r),
        )
        images[("r",)] = (("w", r),)
    elif (src, dst) == ("vC", "vS"):
        for (i, j) in _standard_pairs(n):
            images[("s", i, j)] = (("a", interval_reversal(i, j, n)),)
        for k in range(1, n):
            images[("b", k)] = (("w", Permutation.transposition(n, k, k + 1)),)
    return GroupHom(src, dst, n, tuple(sorted(images.items(), key=lambda kv: _letter_key(kv[0]))))


# ---------------------------------------------------------------------------
# verification


@dataclass
class HomReport:
    hom: GroupHom
    results: list = field(default_factory=list)  # (relator, status, witness)

    @property
    def all_proven(self) -> bool:
        return all(st == "proven" for _, st, _ in self.results)

    @property
    def failures(self):
        return [r for r in self.results if r[1] == "failed"]


def verify_hom(h: GroupHom, mode="solvable_target", depth: int = 6) -> HomReport:
    """Check that every relator of the source maps to the identity.

    For solvable targets the check is complete (evaluation): each relator
    acts on the window 1, ..., n through the offset tables of its letters'
    images, and one that fails is multiplied out in the target group for its
    witness.  Otherwise a non-identity symmetric-group shadow is failed, with
    the shadow as witness.  Into vC, an image of trivial shadow is decided
    exactly in hatD_n: proven, or refuted with the stuck word of `_pvc_reduce`
    as witness, which rests on hatD_n being non-positively curved (certified
    by the flag check for n <= 6, the paper's theorem beyond).  Into vS, one
    of trivial shadow is failed with its `b` shadow if that is not trivial,
    else proven or refuted with its reduced kernel word (`_vs_reduce`).
    `depth` is read by nothing: `perfbench/roots_words.py` passes it and
    `mode`, which ROADMAP item 4 removes with the benchmark's next revision.
    """
    pres = make_presentation(_family_of(h.source), h.n)
    report = HomReport(h)
    if mode == "solvable_target":
        if h.target not in SOLVABLE_TARGETS:
            raise ValueError(f"target {h.target} has no evaluation; use bounded_rewrite")
        table = lookup_table(h, h.images)
        n = h.n
        offsets = {x: _window_offsets(value, n) for x, value in table.items()}
        start = list(range(1, n + 1))
        for rel in pres.relators:
            # the relator's value on the window, its last letter acting first
            window = start
            for x in reversed(rel):
                e = offsets[x]
                window = [v + e[(v - 1) % n] for v in window]
            shift = window[0] - 1
            if shift % n == 0 and window == [v + shift for v in start]:
                report.results.append((rel, "proven", None))
                continue
            acc = table[rel[0]]
            for x in rel[1:]:
                acc = acc * table[x]
            report.results.append((rel, "failed", acc))
        return report
    if mode == "bounded_rewrite":
        if h.target not in ("vC", "vS"):
            raise ValueError(f"verify hom evaluates into S, AS and EAS and decides vC and vS, not {h.target}")
        for rel in pres.relators:
            word = h.map_word(rel)
            shadow, witness = evaluate_word("S", word, h.n), ()
            if shadow.is_identity() and h.target == "vS":
                shadow, witness = _vs_reduce(word, h.n)
            elif shadow.is_identity():
                witness = tuple(("sA", a) for a in _pvc_reduce(_pure_letters(word, h.n)))
            if not shadow.is_identity():
                report.results.append((rel, "failed", shadow))
            else:
                report.results.append((rel, "refuted" if witness else "proven", witness or None))
        return report
    raise ValueError(f"unknown mode {mode!r}")


def _window_offsets(value, n: int) -> list[int]:
    """e with the value acting on an integer v as v + e[(v - 1) % n]: a
    permutation or an affine permutation f gives e[r] = f(r + 1) - r - 1,
    and an extended value (f, s) acts as v -> f(v + s).

    A product of values is the identity exactly when its action fixes
    1, ..., n up to a translation by a multiple of n: that translation is 0
    in S and AS, and in EAS it absorbs the shifts, which are kept mod n.
    """
    shift = 0
    if isinstance(value, ExtAffinePermutation):
        value, shift = value.base, value.shift
    window = value.images if isinstance(value, Permutation) else value.window
    return [shift + window[q] - q - 1 for q in ((r + shift) % n for r in range(n))]


def _family_of(code: str) -> str:
    if code in SOLVABLE_TARGETS:
        raise ValueError(f"source {code} has no presentation to check")
    return _FAMILY_OF[code]


# ---------------------------------------------------------------------------
# the word problem in the virtual groups


def merge_permutation_letters(word: Word) -> Word:
    """Merge adjacent permutation letters of one copy and drop identities;
    Coxeter-index letters such as ("a", k) pass through unchanged."""
    out: list[Letter] = []
    for x in word:
        perm = isinstance(x[-1], Permutation)
        if perm and out and out[-1][0] == x[0] and isinstance(out[-1][-1], Permutation):
            x = (x[0], out.pop()[1] * x[1])
        if not perm or not x[1].is_identity():
            out.append(x)
    return tuple(out)


def _pure_letters(word: Word, n: int) -> list:
    """Reidemeister-Schreier rewriting of a virtual cactus word: with u the
    shadow of the prefix read so far, ("s", i, j) gives the ordered subset
    (u(i), ..., u(j)), so a word of trivial shadow is the product of the s_A.
    """
    u = Permutation.identity(n)
    out = []
    for x in word:
        if x[0] == "s":
            out.append(tuple(u(k) for k in range(x[1], x[2] + 1)))
        u = u * eval_letter_sym(x, n)
    return out


def _pvc_corner(a: tuple, b: tuple):
    """(b', a') with s_a s_b = s_b' s_a' across a square of hatD_n (a
    commuting or nesting relator of PvC_n), or None if no square has it.

    >>> _pvc_corner((1, 2), (3, 4))
    ((3, 4), (1, 2))
    >>> _pvc_corner((2, 1), (3, 1, 2))
    ((3, 2, 1), (1, 2))
    >>> _pvc_corner((3, 1, 2), (1, 3))
    ((3, 1), (1, 3, 2))
    """
    if not set(a) & set(b):
        return b, a
    if len(a) < len(b) and a[-1] in b:
        k = b.index(a[-1])
        if b[k : k + len(a)] == a[::-1]:
            return b[:k] + a + b[k + len(a) :], a[::-1]
    if len(b) < len(a) and b[-1] in a:
        k = a.index(b[-1])
        if a[k : k + len(b)] == b[::-1]:
            return b[::-1], a[:k] + b + a[k + len(b) :]
    return None


def _pvc_reduce(letters: list) -> list:
    """The stuck word of a word in the s_A (as the subsets A), empty exactly
    when the word is trivial in PvC_n.  Each letter is pushed right through
    corners and cancelled if it meets its inverse; a push that sticks is
    dropped.  As hatD_n has one vertex and is non-positively curved, the
    innermost pair of edges dual to one hyperplane always cancels so, and a
    word with no such pair is a geodesic (Sageev).  O(L^3), with no bound.
    """
    word = list(letters)
    p = 0
    while p < len(word):
        x, moved = word[p], []
        for y in word[p + 1 :]:
            if y == x[::-1]:
                word[p : p + len(moved) + 2] = moved
                p = 0
                break
            corner = _pvc_corner(x, y)
            if corner is None:
                p += 1
                break
            moved.append(corner[0])
            x = corner[1]
        else:
            p += 1
    return word


@functools.cache
def _kernel_table(n: int):
    """The index of each ordered pair (i, j) of [n], the pairs, and the
    non-zero entries (t, A_st) of each pair's row of the Cartan matrix of
    K_n: 2 on the diagonal, 0 for disjoint pairs (m = 2), -1 for a chain
    (i, j), (j, l) with l != i (m = 3), and -2 for (j, i) or a shared first
    or last entry (m = inf)."""
    pairs = _cyclic_pairs(n)
    ix = {p: k for k, p in enumerate(pairs)}
    rows = []
    for (i, j) in pairs:
        row = [(ix[i, j], 2), (ix[j, i], -2)]
        for l in set(range(1, n + 1)) - {i, j}:
            row += [(ix[j, l], -1), (ix[l, i], -1), (ix[i, l], -2), (ix[l, j], -2)]
        rows.append(row)
    return ix, pairs, rows


def _vs_reduce(word: Word, n: int):
    """(u, reduced) for a vS word: u the shadow of its `b` copy, and reduced a
    reduced word in ordered pairs of its part w in the kernel K_n of the map
    to that shadow; the word is trivial iff both are.

    K_n is the Coxeter group on the x_ij of `_kernel_table`, by
    Reidemeister-Schreier from the relators of virtual_sym.  Read at the `b`
    shadow u of the prefix, a_k is x_(u(k), u(k+1)), and x_s reflects f by
    f_t -= f_s A_st.  f starts at (1, ..., 1) in the fundamental chamber of
    the contragredient Tits representation, whose chambers K_n permutes
    simply transitively (Humphreys 5.13): w is trivial iff f comes back, and
    reflecting at negative coordinates spells w^-1 reduced from the left
    (Bjorner-Brenti 4.3).

    >>> _vs_reduce(parse_word("a[1] w(2 1 3) a[1] w(2 1 3)"), 3)[1]
    ((1, 2), (2, 1))
    """
    index, pairs, rows = _kernel_table(n)
    f = [1] * len(pairs)

    def reflect(s: int):
        fs = f[s]
        for t, a in rows[s]:
            f[t] -= a * fs

    u = list(range(1, n + 1))  # the images of the `b` shadow
    for x in word:
        if x[0] == "a":
            for k in [x[1]] if isinstance(x[1], int) else _transposition_word(x[1].images):
                reflect(index[(u[k - 1], u[k])])
        elif x[0] in ("w", "b"):
            u = [u[v - 1] for v in eval_letter_sym(x, n).images]
        else:
            raise ValueError(f"letter {x!r} is not a vS letter")
    reduced = []
    while min(f) < 0:
        s = f.index(min(f))
        reflect(s)
        reduced.append(pairs[s])
    return Permutation(u), tuple(reversed(reduced))


# ---------------------------------------------------------------------------
# pure generators and the semidirect actions


def pure_generator(family: str, data, n: int, witness=None) -> Word:
    """The pure generators as words in the ambient virtual group.

    pure_virtual_sym: data = (i, j), word w sigma_k w_{k,k+1} w^{-1};
    pure_virtual_cactus: data = ordered subset A, word w s_{ij} w_{ij} w^{-1}.
    The default witness places the data at the left edge.
    """
    if family == "pure_virtual_sym":
        i, j = data
        if i == j:
            raise ValueError("need distinct indices")
        if witness is None:
            rest = [x for x in range(1, n + 1) if x not in (i, j)]
            w, k = Permutation(tuple([i, j] + rest)), 1
        else:
            w, k = witness
            if (w(k), w(k + 1)) != (i, j):
                raise ValueError("witness does not present the pair")
        t = Permutation.transposition(n, k, k + 1)
        return merge_permutation_letters((("w", w), ("a", t), ("w", t), ("w", w.inverse())))
    if family == "pure_virtual_cactus":
        a = tuple(data)
        if len(set(a)) != len(a) or len(a) < 2:
            raise ValueError("ordered subset needs >= 2 distinct entries")
        if witness is None:
            rest = [x for x in range(1, n + 1) if x not in a]
            w, i, j = Permutation(tuple(list(a) + rest)), 1, len(a)
        else:
            w, i, j = witness
            if tuple(w(i + t) for t in range(j - i + 1)) != a:
                raise ValueError("witness does not present the ordered subset")
        wij = interval_reversal(i, j, n)
        return merge_permutation_letters(
            (("w", w), ("s", i, j), ("w", wij), ("w", w.inverse()))
        )
    raise ValueError(f"unknown pure family {family!r}")


def semidirect_action(u: Permutation, family: str, data):
    """Relabelling action on pure generator indices: u . s_A = s_{u(A)} and
    u . sigma_ij = sigma_{u(i) u(j)}."""
    if family == "pure_virtual_sym":
        i, j = data
        return (u(i), u(j))
    if family == "pure_virtual_cactus":
        return tuple(u(x) for x in data)
    raise ValueError(f"unknown pure family {family!r}")


# ---------------------------------------------------------------------------
# word syntax and presentation dumps


def format_word(word: Word) -> str:
    """Render a word in the text syntax: s[1,3] w(2 3 1) r^2 s[A:1,4,2]."""
    out = []
    i = 0
    while i < len(word):
        x = word[i]
        if x[0] == "s":
            out.append(f"s[{x[1]},{x[2]}]")
        elif x[0] == "sA":
            out.append("s[A:" + ",".join(map(str, x[1])) + "]")
        elif x[0] == "sig":
            out.append(f"sig[{x[1]},{x[2]}]")
        elif x[0] in ("sigma", "b") or (x[0] == "a" and isinstance(x[1], int)):
            out.append(f"{x[0]}[{x[1]}]")
        elif x[0] in ("w", "a"):
            tag = x[0]
            out.append(f"{tag}(" + " ".join(map(str, x[1].images)) + ")")
        elif x[0] in ("r", "r-"):
            # one power per run of equal letters, so that r r^-1 is not
            # written r^0 and parsing gives the word back
            k = 1
            while i + 1 < len(word) and word[i + 1] == x:
                k += 1
                i += 1
            if x[0] == "r-":
                k = -k
            out.append("r" if k == 1 else f"r^{k}")
        else:
            raise ValueError(f"cannot format letter {x!r}")
        i += 1
    return " ".join(out)


_TOKEN_RE = re.compile(
    r"s\[A:[\d,]+\]|s\[\d+,\d+\]|sig\[\d+,\d+\]|[wa]\([\d ]+\)"
    r"|(?:sigma|a|b)\[\d+\]|r\^-?\d+|r\b"
)


def _word_tokens(text: str) -> list[str]:
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens).replace(" ", "") != text.replace(" ", ""):
        raise ValueError(f"cannot parse word {text!r}")
    return tokens


def parse_word(text: str) -> Word:
    """Parse the text word syntax back into letters."""
    out: list[Letter] = []
    for tok in _word_tokens(text):
        if tok.startswith("s[A:"):
            seq = tuple(int(v) for v in tok[4:-1].split(","))
            out.append(("sA", seq))
        elif tok.startswith("s["):
            i, j = (int(v) for v in tok[2:-1].split(","))
            out.append(("s", i, j))
        elif tok.startswith("sig["):
            i, j = (int(v) for v in tok[4:-1].split(","))
            out.append(("sig", i, j))
        elif tok.startswith(("w(", "a(")):
            images = tuple(int(v) for v in tok[2:-1].split())
            out.append((tok[0], Permutation(images)))
        elif tok.startswith(("sigma[", "a[", "b[")):
            tag, rest = tok.split("[")
            out.append((tag, int(rest[:-1])))
        elif tok == "r":
            out.append(("r",))
        elif tok.startswith("r^"):
            k = int(tok[2:])
            out.extend([("r",) if k > 0 else ("r-",)] * abs(k))
        else:
            raise ValueError(f"cannot parse token {tok!r}")
    return tuple(out)


# ---------------------------------------------------------------------------
# the diagram of groups


def generators_of(code: str, n: int) -> list[Letter]:
    if code == "C":
        return [("s", i, j) for (i, j) in _standard_pairs(n)]
    if code == "AC":
        return [("s", i, j) for (i, j) in _cyclic_pairs(n)]
    if code == "EAC":
        return [("s", i, j) for (i, j) in _cyclic_pairs(n)] + [("r",)]
    if code == "EAS":
        return [("sigma", k) for k in range(n)] + [("r",)]
    if code == "AS":
        return [("sigma", k) for k in range(n)]
    if code == "S":
        return [("sigma", k) for k in range(1, n)]
    if code == "vC":
        return [("s", i, j) for (i, j) in _standard_pairs(n)] + [
            ("b", k) for k in range(1, n)
        ]
    if code == "vS":
        return [("a", k) for k in range(1, n)] + [("b", k) for k in range(1, n)]
    raise ValueError(code)


def _project_solvable(src: str, dst: str, x, n: int):
    if (src, dst) == ("EAS", "S"):
        return x.to_symmetric()
    if (src, dst) == ("AS", "S"):
        return x.reduce_mod_n()
    if (src, dst) == ("S", "EAS"):
        return ExtAffinePermutation(AffinePermutation.from_permutation(x), 0)
    raise ValueError(f"no concrete projection {src} -> {dst}")


def _evaluate_path(word: Word, path: list[tuple[str, str]], n: int, tables: dict):
    """Map a word along a chain of diagram arrows.

    While the targets are presentations, the word is rewritten by generator
    substitution; at the first solvable target it is evaluated, and any
    remaining arrows must be concrete projections between solvable groups.
    `tables` maps each arrow to (hom, its generator-image table); it is read
    and filled, so callers evaluating many paths build each arrow once.
    """
    element = None
    for (src, dst) in path:
        if element is not None:
            element = _project_solvable(src, dst, element, n)
            continue
        if (src, dst) not in tables:
            h = hom((src, dst), n)
            tables[(src, dst)] = (h, lookup_table(h, h.images))
        h, table = tables[(src, dst)]
        if dst in SOLVABLE_TARGETS:
            acc = None
            for x in word:
                img = table.get(x)
                if img is None:
                    if x[0] not in ("w", "a", "b"):
                        raise KeyError(x)
                    img = evaluate_word(dst, (x,), n)
                acc = img if acc is None else acc * img
            element = acc if acc is not None else evaluate_word(dst, (), n)
        else:
            word = _substitute(h, table, word)
    if element is None:
        raise ValueError("path must end in a solvable group")
    return element


# routes from each source into S_n, and the two from C into EAS: a word follows
# presentation arrows by substitution, is evaluated at the first solvable group
# and then takes only the projections EAS->S, AS->S and S->EAS
DIAGRAM_PATHS_TO_S = {
    "C": [
        [("C", "S")],
        [("C", "EAC"), ("EAC", "S")],
        [("C", "EAC"), ("EAC", "vC"), ("vC", "S")],
        [("C", "EAC"), ("EAC", "EAS"), ("EAS", "S")],
        [("C", "EAC"), ("EAC", "vC"), ("vC", "vS"), ("vS", "S")],
    ],
    "AC": [
        [("AC", "S")],
        [("AC", "vC"), ("vC", "S")],
        [("AC", "AS"), ("AS", "S")],
        [("AC", "vC"), ("vC", "vS"), ("vS", "S")],
    ],
    "EAC": [
        [("EAC", "S")],
        [("EAC", "vC"), ("vC", "S")],
        [("EAC", "EAS"), ("EAS", "S")],
        [("EAC", "vC"), ("vC", "vS"), ("vS", "S")],
    ],
    "EAS": [[("EAS", "S")], [("EAS", "vS"), ("vS", "S")]],
    "vC": [[("vC", "S")], [("vC", "vS"), ("vS", "S")]],
    "S": [[("S", "S")], [("S", "EAS"), ("EAS", "S")]],
}

DIAGRAM_PATHS_TO_EAS = {
    "C": [
        [("C", "EAC"), ("EAC", "EAS")],
        [("C", "S"), ("S", "EAS")],
    ],
}


def diagram_report(n: int) -> list[tuple[str, Letter, bool]]:
    """Commutativity of the diagram of groups on all generators, judged by
    evaluation in the symmetric group (all six sources) and additionally in
    the extended affine symmetric group where two routes exist."""
    out = []
    tables: dict = {}
    for routes, label in ((DIAGRAM_PATHS_TO_S, ""), (DIAGRAM_PATHS_TO_EAS, "=>EAS")):
        for src, paths in routes.items():
            for g in generators_of(src, n):
                vals = [_evaluate_path((g,), path, n, tables) for path in paths]
                out.append((src + label, g, all(v == vals[0] for v in vals)))
    return out


# A separating quotient for witness checks: the symmetric group acting on the
# rank-one lattice spanned by ordered pairs with e_ji = -e_ij.


def _pair_vec_add(acc: dict, key: tuple[int, int], sign: int):
    a, b = key
    if a > b:
        a, b, sign = b, a, -sign
    acc[(a, b)] = acc.get((a, b), 0) + sign
    if acc[(a, b)] == 0:
        del acc[(a, b)]


def vs_lattice_image(word: Word, n: int):
    """Image in the semidirect product of S_n with the pair lattice.

    The sigma-copy generator at k maps to (transposition, e_{k,k+1}); the
    other copy acts by relabelling only.  This quotient separates the pure
    generators sigma_ij by their lattice coordinates.
    """
    u = Permutation.identity(n)
    vec: dict = {}
    for x in word:
        if x[0] in ("w", "b"):
            u = u * eval_letter_sym(x, n)
        elif x[0] in ("a", "s"):
            for k in _transposition_word(eval_letter_sym(x, n).images):
                _pair_vec_add(vec, (u(k), u(k + 1)), 1)
                u = u * Permutation.transposition(n, k, k + 1)
        else:
            raise ValueError(f"letter {x!r} not supported in the quotient")
    return u, tuple(sorted(vec.items()))
