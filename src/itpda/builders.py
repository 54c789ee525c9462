"""Constructors for the 2-iterated recognizer automata.

Every builder follows the same shape: a guess phase that piles height
markers F onto the inner store of the start symbol Z, a commit step that
replaces Z with the tree roots (keeping the guessed height as their
flags), and per-label expansion rules that walk each tree depth first,
reading a terminal letter at every height-0 node.

Two variants exist.  ``CORRECTED`` (the default) increments the guessed
height by one F per loop, so every height is reachable and the automata
recognize their whole word families.  ``AS_PRINTED`` reproduces the
published transition tables verbatim for the Fibonacci-tree automata;
their FF guess loop skips even heights >= 2 (reachable heights are
0, 1, 3, 5, ...), which is demonstrably why the corrected variant exists.
The published truncated-sector table is also reproduced as-printed, even
though it dead-ends on its spine symbols; the corrected sector automaton
uses dedicated left/right side-counter symbols instead.
"""

from __future__ import annotations

from enum import Enum

from .grammar import SubstitutionSystem
from .machine import Automaton, Pop, Push, Transition

EPS = None


class Variant(str, Enum):
    CORRECTED = "corrected"
    AS_PRINTED = "as-printed"


def _t(state, letter, pattern, target, action) -> Transition:
    return Transition(state, letter, tuple(pattern), target, action)


def _reserved(labels, token: str) -> str:
    # Namespace builder-internal symbols away from user labels.
    while token in labels:
        token = "@" + token
    return token


def _require_fibonacci(system: SubstitutionSystem, variant: Variant, what: str):
    if variant is Variant.AS_PRINTED and system.name != "fibonacci":
        raise ValueError(f"the as-printed {what} exists only for the fibonacci system")


def fibonacci_automaton(variant: Variant = Variant.CORRECTED) -> Automaton:
    """2-iterated automaton recognizing { a^f : f a Fibonacci number }.

    The corrected variant accepts a^n exactly for n in 1, 2, 3, 5, 8, ...
    (f0 = f1 = 1).  The as-printed variant cannot guess height 2, so it
    rejects a^2 among others.
    """
    ff = ("F",) if variant is Variant.CORRECTED else ("F", "F")
    transitions = (
        _t("q0", EPS, ("Z",), "q0", Push(1, ("X2",))),
        _t("q0", EPS, ("Z",), "q0", Push(2, ("F",))),
        _t("q0", EPS, ("Z", "F"), "q0", Push(1, ("X2",))),
        _t("q0", EPS, ("Z", "F"), "q0", Push(2, ff)),
        _t("q0", EPS, ("X1", "F"), "q1", Pop(2)),
        _t("q0", EPS, ("X2", "F"), "q2", Pop(2)),
        _t("q0", "a", ("X1",), "q0", Pop(1)),
        _t("q0", "a", ("X2",), "q0", Pop(1)),
        _t("q1", EPS, ("X1", "F"), "q0", Push(1, ("X1", "X2"))),
        _t("q2", EPS, ("X2", "F"), "q0", Push(1, ("X1",))),
        _t("q1", EPS, ("X1",), "q0", Push(1, ("X1", "X2"))),
        _t("q2", EPS, ("X2",), "q0", Push(1, ("X1",))),
    )
    return Automaton(
        levels=2,
        states=("q0", "q1", "q2"),
        initial_state="q0",
        input_alphabet=("a",),
        store_alphabet=("Z", "X1", "X2", "F"),
        initial_symbol="Z",
        transitions=transitions,
        name=f"fibonacci ({variant.value})",
    )


def _tree_transitions(system: SubstitutionSystem, fsym: str):
    """Depth-first tree walk: expand labels with a height marker left,
    read their terminal letter at height 0."""
    out = []
    for label in system.labels:
        out.append(_t("q0", EPS, (label, fsym), "q1", Pop(2)))
        out.append(_t("q0", system.read_letters[label], (label,), "q0", Pop(1)))
    for label in system.labels:
        out.append(_t("q1", EPS, (label, fsym), "q0", Push(1, system.rules[label])))
        out.append(_t("q1", EPS, (label,), "q0", Push(1, system.rules[label])))
    return out


def ball_automaton(system: SubstitutionSystem, root: str, sigma: int,
                   variant: Variant = Variant.CORRECTED) -> Automaton:
    """Recognizer of the ball contours { (level word of root at l)^sigma }."""
    system.check_label(root)
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    _require_fibonacci(system, variant, "ball automaton")
    zsym = _reserved(system.labels, "Z")
    fsym = _reserved(system.labels, "F")
    ff = (fsym,) if variant is Variant.CORRECTED else (fsym, fsym)
    commit = Push(1, (root,) * sigma)
    transitions = [
        _t("q0", EPS, (zsym,), "q0", commit),
        _t("q0", EPS, (zsym,), "q0", Push(2, (fsym,))),
        _t("q0", EPS, (zsym, fsym), "q0", commit),
        _t("q0", EPS, (zsym, fsym), "q0", Push(2, ff)),
    ]
    transitions += _tree_transitions(system, fsym)
    letters = tuple(dict.fromkeys(system.read_letters[x] for x in system.labels))
    return Automaton(
        levels=2,
        states=("q0", "q1"),
        initial_state="q0",
        input_alphabet=letters,
        store_alphabet=(zsym,) + system.labels + (fsym,),
        initial_symbol=zsym,
        transitions=tuple(transitions),
        name=f"ball {system.name} root={root} sigma={sigma} ({variant.value})",
    )


def sector_automaton(system: SubstitutionSystem, root: str,
                     variant: Variant = Variant.CORRECTED) -> Automaton:
    """Recognizer of the truncated-sector contours at levels >= 1.

    Sided systems accept ``r s^l <level word> s^l``: a start symbol emits
    the root marker, then left/right side symbols count the guessed height
    down once on each flank of the usual tree walk.  Unsided systems
    accept the bare level words (single sector, no side marks).
    """
    system.check_label(root)
    if variant is Variant.AS_PRINTED:
        _require_fibonacci(system, variant, "sector automaton")
        return _sector_as_printed(root)
    zsym = _reserved(system.labels, "Z")
    fsym = _reserved(system.labels, "F")

    if not system.sided:
        # No side marking: the ball template restricted to one sector and
        # to guessed heights >= 1 (level-0 sectors are not in the family).
        ball = ball_automaton(system, root, 1)
        transitions = tuple(t for t in ball.transitions
                            if not (t.pattern == (zsym,) and isinstance(t.action, Push)
                                    and t.action.level == 1))
        return Automaton(
            levels=2, states=ball.states, initial_state=ball.initial_state,
            input_alphabet=ball.input_alphabet, store_alphabet=ball.store_alphabet,
            initial_symbol=zsym, transitions=transitions,
            name=f"sector {system.name} root={root} ({variant.value})",
        )

    ssym = _reserved(system.labels, "S")
    lsym = _reserved(system.labels, "L")
    xsym = _reserved(system.labels, "X")
    commit = Push(1, (ssym,))
    transitions = [
        _t("q0", EPS, (zsym,), "q0", commit),
        _t("q0", EPS, (zsym,), "q0", Push(2, (fsym,))),
        _t("q0", EPS, (zsym, fsym), "q0", commit),
        _t("q0", EPS, (zsym, fsym), "q0", Push(2, (fsym,))),
        # Root marker; expanding only with a height marker left excludes
        # the degenerate level-0 sector.
        _t("q0", "r", (ssym, fsym), "q1", Pop(2)),
        _t("q1", EPS, (ssym, fsym), "q0", Push(1, (lsym, root, xsym))),
        # Side counters: one s per remaining height marker, on both flanks.
        _t("q0", "s", (lsym, fsym), "q0", Pop(2)),
        _t("q0", EPS, (lsym,), "q0", Pop(1)),
        _t("q0", "s", (xsym, fsym), "q0", Pop(2)),
        _t("q0", EPS, (xsym,), "q0", Pop(1)),
    ]
    transitions += _tree_transitions(system, fsym)
    letters = ("r", "s") + tuple(
        dict.fromkeys(system.read_letters[x] for x in system.labels))
    return Automaton(
        levels=2,
        states=("q0", "q1"),
        initial_state="q0",
        input_alphabet=letters,
        store_alphabet=(zsym, ssym, lsym, xsym) + system.labels + (fsym,),
        initial_symbol=zsym,
        transitions=tuple(transitions),
        name=f"sector {system.name} root={root} ({variant.value})",
    )


def _sector_as_printed(root: str) -> Automaton:
    """The published truncated-white-sector table, verbatim (executable
    documentation; it does not recognize the sector family)."""
    if root != "W":
        raise ValueError("the published sector table is for the white root only")
    transitions = (
        _t("q0", EPS, ("Z",), "q0", Push(1, ("W_r",))),
        _t("q0", EPS, ("Z",), "q0", Push(2, ("F",))),
        _t("q0", EPS, ("Z", "F"), "q0", Push(1, ("W_r",))),
        _t("q0", EPS, ("Z", "F"), "q0", Push(2, ("F", "F"))),
        _t("q0", EPS, ("W", "F"), "q1", Pop(2)),
        _t("q0", EPS, ("B", "F"), "q1", Pop(2)),
        _t("q0", "r", ("W_r", "F"), "q1", Pop(2)),
        _t("q0", "r", ("W_r",), "q1", Pop(1)),
        _t("q0", EPS, ("W_b", "F"), "q1", Pop(2)),
        _t("q0", "s", ("B_b", "F"), "q1", Pop(2)),
        _t("q0", "b", ("B_b",), "q0", Pop(1)),
        _t("q0", "b", ("B",), "q0", Pop(1)),
        _t("q0", "w", ("W",), "q0", Pop(1)),
        _t("q0", "w", ("W_b",), "q0", Pop(1)),
        _t("q0", "s", ("X", "F"), "q0", Pop(1)),
        _t("q1", EPS, ("W_r", "F"), "q0", Push(1, ("B_b", "W", "W_r"))),
        _t("q1", EPS, ("W_b", "F"), "q0", Push(1, ("B", "W", "W_r", "X"))),
        _t("q1", EPS, ("W", "F"), "q0", Push(1, ("B", "W", "W"))),
        _t("q1", EPS, ("B_b", "F"), "q0", Push(1, ("B_b", "W"))),
        _t("q1", EPS, ("B", "F"), "q0", Push(1, ("B", "W"))),
    )
    return Automaton(
        levels=2,
        states=("q0", "q1"),
        initial_state="q0",
        input_alphabet=("r", "s", "b", "w"),
        store_alphabet=("Z", "B", "W", "B_b", "W_b", "W_r", "X", "F"),
        initial_symbol="Z",
        transitions=transitions,
        name="sector fibonacci root=W (as-printed)",
    )


def suggested_store_bound(system: SubstitutionSystem, sigma: int, level: int) -> int:
    """A store budget comfortably above the accepting run's high-water mark
    for contour words up to the given tree level.

    While the walk expands one sector down to depth ``level``, every
    ancestor keeps up to ``max_rule - 1`` pending siblings whose flags
    still hold their full height markers, so the high-water mark grows
    quadratically in the level, plus one flagged root per sector.
    """
    max_rule = max(len(rule) for rule in system.rules.values())
    pending = (max_rule - 1) * (level + 1) * (level + 2) // 2
    return sigma * (level + 1) + pending + 2 * level + 32


__all__ = [
    "Variant", "fibonacci_automaton", "ball_automaton", "sector_automaton",
    "suggested_store_bound",
]
