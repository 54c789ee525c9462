"""Contour words of balls and truncated sectors.

These are the ground-truth words the recognizer automata are verified
against.  A ball contour at tree level l is the level word read sigma
times, once per sector.  A truncated-sector contour in the planar (sided)
families is ``r s^l <level word> s^l``: the root marker, the left branch,
the bottom level, the right branch.  The 3D/4D families have no side
marking here, so their sector contours are the bare level words.

Both are built from the grammar's subtree words (``read_level_word``): the
level word is concatenated from the words of the root's children, and a
sided sector's markers join that one concatenation.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Literal, Optional, Sequence

from .grammar import (SubstitutionSystem, GrammarError, _subtree_parts,
                      read_level_word, total_count)

ROOT_MARK = "r"
SIDE_MARK = "s"

Word = tuple[str, ...]


@dataclass(frozen=True)
class ContourSpec:
    """Names one contour-word family: system + root + multiplicity + kind."""

    system: SubstitutionSystem
    root: str
    sigma: int = 1
    kind: Literal["ball", "sector"] = "ball"

    def __post_init__(self):
        self.system.check_label(self.root)
        if self.kind not in ("ball", "sector"):
            raise ValueError(f"unknown contour kind {self.kind!r}")
        if self.kind == "ball":
            if self.sigma < 1:
                raise ValueError("sector multiplicity must be >= 1")
            if self.sigma not in self.system.canonical_sigmas:
                warnings.warn(
                    f"sigma={self.sigma} is not a tessellation multiplicity "
                    f"of {self.system.name} {self.system.canonical_sigmas}; "
                    "proceeding experimentally", stacklevel=2)
        if self.system.sided:
            reads = set(self.system.read_letters.values())
            if reads & {ROOT_MARK, SIDE_MARK}:
                raise ValueError("read letters collide with contour markers")


def ball_contour(spec: ContourSpec, level: int) -> Word:
    """The level word of ``spec.root`` repeated once per sector."""
    if spec.kind != "ball":
        raise ValueError("ball_contour needs a ball spec")
    return read_level_word(spec.system, spec.root, level) * spec.sigma


def sector_contour(spec: ContourSpec, level: int) -> Word:
    """Contour of a truncated sector at tree level ``level`` >= 1.

    Sided systems: root marker, l side markers, the bottom level word, l
    side markers.  Unsided (3D/4D) systems: the bare level word.
    """
    if spec.kind != "sector":
        raise ValueError("sector_contour needs a sector spec")
    if level < 1:
        raise GrammarError("sector contours are defined for level >= 1")
    system = spec.system
    if not system.sided:
        return read_level_word(system, spec.root, level)
    sides = (SIDE_MARK,) * level
    bottom = _subtree_parts(system, spec.root, level, system.read_letters)
    return tuple(chain.from_iterable([(ROOT_MARK,), sides, *bottom, sides]))


def contour_word(spec: ContourSpec, level: int) -> Word:
    return ball_contour(spec, level) if spec.kind == "ball" else sector_contour(spec, level)


def contour_length(spec: ContourSpec, level: int) -> int:
    """Length of the contour word via matrix counts (no expansion)."""
    total = total_count(spec.system, spec.root, level)
    if spec.kind == "ball":
        return spec.sigma * total
    if level < 1:
        raise GrammarError("sector contours are defined for level >= 1")
    return total + (1 + 2 * level if spec.system.sided else 0)


def mutate(word: Sequence[str], seed: int, count: int,
           alphabet: Optional[Sequence[str]] = None) -> list[Word]:
    """``count`` seeded single-edit variants of ``word``, each != word.

    Edits are single-token substitutions, insertions, or deletions drawn
    from ``alphabet`` (default: the tokens of ``word``).  Deterministic for
    a fixed seed.
    """
    word = tuple(word)
    letters = tuple(alphabet) if alphabet else tuple(sorted(set(word)))
    if not letters:
        raise ValueError("cannot mutate without an alphabet")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        for _attempt in range(1000):
            ops = ["insert"] if not word else ["substitute", "insert", "delete"]
            op = rng.choice(ops)
            if op == "substitute":
                i = rng.randrange(len(word))
                c = rng.choice(letters)
                variant = word[:i] + (c,) + word[i + 1:]
            elif op == "insert":
                i = rng.randrange(len(word) + 1)
                c = rng.choice(letters)
                variant = word[:i] + (c,) + word[i:]
            else:
                i = rng.randrange(len(word))
                variant = word[:i] + word[i + 1:]
            if variant != word:
                out.append(variant)
                break
        else:  # pragma: no cover - only for degenerate alphabets
            raise ValueError("could not produce a distinct mutation")
    return out
