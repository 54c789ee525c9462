"""Label-substitution systems for the tessellation spanning trees.

Each system is a D0L-style parallel rewriting system: every label has one
expansion rule and one terminal "read letter" emitted when a node is read
at the bottom level of a tree.  Four built-in families are provided:

* ``fibonacci()`` -- the black/white tree spanning pentagrid/heptagrid
  sectors (rules B -> BW, W -> BWW), which is ``polygonal(5)``;
* ``polygonal(p)`` -- the generalisation spanning the {p,4} and {p+2,3}
  tilings (W -> B W^(p-3), B -> B W^(p-4));
* ``dodecahedral()`` -- the four-label tree of the {5,3,4} grid;
* ``cell120()`` -- the eleven-label tree of the {5,3,3,4} grid.

Words are built by subtree: every node of a given label at a given height
above the bottom level spans the same word, so each (label, height) word is
concatenated once from its children's words and shared by all its copies.
Level counting uses exact big integers through the rule-count matrix, so
counts stay correct far beyond the sizes at which words can be expanded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping

Word = tuple[str, ...]


class GrammarError(ValueError):
    """Bad label, rule, or level argument."""


@dataclass(frozen=True, eq=False)
class SubstitutionSystem:
    """An alphabet of labels with one expansion rule per label.

    ``read_letters`` maps each label to the terminal token emitted when the
    node is read.  ``sided`` marks the planar families whose truncated
    sectors carry r/s side markers; ``canonical_sigmas`` lists the sector
    multiplicities of the tessellations the tree actually spans.
    """

    name: str
    labels: Word
    rules: Mapping[str, Word]
    read_letters: Mapping[str, str]
    canonical_sigmas: tuple[int, ...]
    sided: bool = True
    index: Mapping[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise GrammarError("duplicate labels")
        for label in self.labels:
            rule = self.rules.get(label)
            if not rule:
                raise GrammarError(f"label {label!r} lacks a nonempty rule")
            for child in rule:
                if child not in self.rules:
                    raise GrammarError(f"rule of {label!r} uses undeclared {child!r}")
            if label not in self.read_letters:
                raise GrammarError(f"label {label!r} lacks a read letter")
        if set(self.rules) != set(self.labels) or set(self.read_letters) != set(self.labels):
            raise GrammarError("rules/read letters must cover exactly the labels")
        object.__setattr__(self, "index", {x: i for i, x in enumerate(self.labels)})

    def check_label(self, label: str) -> str:
        if label not in self.index:
            raise GrammarError(f"unknown label {label!r} for system {self.name}")
        return label


def _subtree_parts(system: SubstitutionSystem, root: str, level: int,
                   leaf: Mapping[str, str]) -> list[Word]:
    """The words whose concatenation is level ``level`` below ``root``, one
    per child of the root (the root's own leaf at level 0), with every
    bottom node written as ``leaf[label]``.

    Height 0 holds each needed label's one-letter word; the height h+1
    word of a label is one concatenation of its children's height-h words.
    Only the labels reachable from the root at each depth are built, and
    each height's words are dropped once the next height is built.  The
    caller concatenates the parts, so the top word is copied once.
    """
    system.check_label(root)
    if level < 0:
        raise GrammarError("level must be >= 0")
    if level == 0:
        return [(leaf[root],)]
    rules = system.rules
    tiers = [set(rules[root])]
    for _ in range(level - 1):
        tiers.append({child for label in tiers[-1] for child in rules[label]})
    words = {label: (leaf[label],) for label in tiers.pop()}
    while tiers:
        words = {label: tuple(chain.from_iterable([words[c] for c in rules[label]]))
                 for label in tiers.pop()}
    return [words[child] for child in rules[root]]


def level_word(system: SubstitutionSystem, root: str, level: int) -> Word:
    """The word of node labels on tree level ``level`` below ``root``.

    Level 0 is the root itself; level n+1 is the letterwise rule expansion
    of level n.  The word is built by subtree (see the module docstring),
    and its tokens are the label objects of ``system.labels``.
    """
    labels = dict(zip(system.labels, system.labels))
    return tuple(chain.from_iterable(_subtree_parts(system, root, level, labels)))


def read_level_word(system: SubstitutionSystem, root: str, level: int) -> Word:
    """``read_word(system, level_word(system, root, level))``, built by
    subtree without the label word; its tokens are the objects of
    ``system.read_letters``."""
    return tuple(chain.from_iterable(
        _subtree_parts(system, root, level, system.read_letters)))


def read_word(system: SubstitutionSystem, labels) -> Word:
    """Letterwise application of the system's read letters."""
    reads = system.read_letters
    return tuple(reads[label] for label in labels)


def count_matrix(system: SubstitutionSystem) -> dict[str, dict[str, int]]:
    """``M[x][y]`` = occurrences of label y in the rule of x."""
    matrix = {}
    for label in system.labels:
        row = dict.fromkeys(system.labels, 0)
        for child in system.rules[label]:
            row[child] += 1
        matrix[label] = row
    return matrix


def level_counts(system: SubstitutionSystem, root: str, level: int) -> dict[str, int]:
    """Exact per-label counts on the given tree level (big integers).

    Computed by iterated vector-matrix products over the rule-count matrix;
    the total always equals ``len(level_word(...))`` where expansion is
    feasible.
    """
    system.check_label(root)
    if level < 0:
        raise GrammarError("level must be >= 0")
    matrix = count_matrix(system)
    counts = dict.fromkeys(system.labels, 0)
    counts[root] = 1
    for _ in range(level):
        nxt = dict.fromkeys(system.labels, 0)
        for label, n in counts.items():
            if n:
                for child, m in matrix[label].items():
                    nxt[child] += n * m
        counts = nxt
    return counts


def total_count(system: SubstitutionSystem, root: str, level: int) -> int:
    return sum(level_counts(system, root, level).values())


def format_word(tokens) -> str:
    """Contiguous characters for single-character alphabets, otherwise
    whitespace-separated tokens."""
    tokens = tuple(tokens)
    if all(len(t) == 1 for t in tokens):
        return "".join(tokens)
    return " ".join(tokens)


def parse_word(text: str) -> Word:
    """Inverse of :func:`format_word` (whitespace means token-separated).

    ``str.split`` splits at exactly the characters ``str.isspace`` names,
    so a text that splits into one part is one run of single characters.
    :func:`itpda.machine.accepts` and ``itpda run``, which know the
    alphabet, read such a text as one letter when it is not a run of
    one-character letters but is itself a letter: ``format_word`` writes
    the one-letter word ``("6a",)`` as ``"6a"``.
    """
    parts = text.split()
    if len(parts) == 1:
        return tuple(parts[0])
    return tuple(parts)


def fibonacci() -> SubstitutionSystem:
    """The pentagrid/heptagrid spanning tree: B -> BW, W -> BWW."""
    return polygonal(5)


def polygonal(p: int) -> SubstitutionSystem:
    """Spanning tree of the {p,4} and {p+2,3} tilings, p >= 5.

    Rules W -> B W^(p-3) and B -> B W^(p-4); at p = 5 this is the
    Fibonacci system, named ``"fibonacci"``.
    """
    if p < 5:
        raise GrammarError("polygonal systems need p >= 5")
    return SubstitutionSystem(
        name="fibonacci" if p == 5 else f"polygonal({p})",
        labels=("B", "W"),
        rules={"B": ("B",) + ("W",) * (p - 4), "W": ("B",) + ("W",) * (p - 3)},
        read_letters={"B": "b", "W": "w"},
        canonical_sigmas=(p, p + 2),
    )


def dodecahedral() -> SubstitutionSystem:
    """The {5,3,4} dodecagrid sector tree over labels O, H, C, T."""
    return SubstitutionSystem(
        name="dodecahedral",
        labels=("O", "H", "C", "T"),
        rules={
            "O": tuple("OOOOOCCCT"),
            "H": tuple("OOOOCCCT"),
            "C": tuple("OOOCCCT"),
            "T": tuple("OOHCCT"),
        },
        read_letters={"O": "o", "H": "h", "C": "c", "T": "t"},
        canonical_sigmas=(8,),
        sided=False,
    )


# Rule multiplicities of the 120-cell grid tree, row label -> occurrences
# per column, columns in label order.  Rule words use this column order;
# only the counts are externally fixed, the intra-rule order is a choice.
_CELL120_LABELS = ("9", "8", "7", "6a", "6b", "5", "4", "3", "2", "1", "0")
_CELL120_ROWS = {
    "9":  (6, 10, 21, 35, 3, 19, 14, 5, 1, 1, 1),
    "8":  (5, 10, 21, 35, 3, 19, 14, 5, 1, 1, 1),
    "7":  (4, 10, 21, 35, 3, 19, 14, 5, 1, 1, 1),
    "6a": (3, 11, 20, 35, 3, 19, 14, 5, 1, 1, 1),
    "6b": (2, 12, 20, 35, 3, 19, 14, 5, 1, 1, 1),
    "5":  (2, 11, 20, 35, 3, 19, 14, 5, 1, 1, 1),
    "4":  (2, 10, 20, 35, 3, 19, 14, 5, 1, 1, 1),
    "3":  (1, 11, 19, 35, 3, 19, 14, 5, 1, 1, 1),
    "2":  (1, 10, 19, 35, 3, 19, 14, 5, 1, 1, 1),
    "1":  (1, 10, 18, 35, 3, 19, 14, 5, 1, 1, 1),
    "0":  (1, 10, 18, 34, 3, 19, 14, 5, 1, 1, 1),
}


def cell120() -> SubstitutionSystem:
    """The {5,3,3,4} 120-cell grid sector tree (11 labels)."""
    rules = {}
    for label, row in _CELL120_ROWS.items():
        word = []
        for child, mult in zip(_CELL120_LABELS, row):
            word.extend([child] * mult)
        rules[label] = tuple(word)
    return SubstitutionSystem(
        name="cell120",
        labels=_CELL120_LABELS,
        rules=rules,
        read_letters={x: x.lower() for x in _CELL120_LABELS},
        canonical_sigmas=(16,),
        sided=False,
    )
