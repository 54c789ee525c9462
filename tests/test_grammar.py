"""Substitution systems: rule data, level words, and the exact counting
laws that anchor the tree combinatorics."""

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as hst

from itpda import grammar as gr
from itpda.contour import (ROOT_MARK, SIDE_MARK, ContourSpec, contour_word,
                           sector_contour)

DATA = pathlib.Path(__file__).parent / "data"


def reference_level_word(system, root, level):
    """Level by level, label by label: the expansion the subtree-built
    words must equal."""
    word = (root,)
    for _ in range(level):
        word = tuple(child for label in word for child in system.rules[label])
    return word


def fib_numbers(count):
    """f0 = f1 = 1."""
    f = [1, 1]
    while len(f) < count:
        f.append(f[-1] + f[-2])
    return f


# --- fixed words ------------------------------------------------------------

def test_fibonacci_level_word_2():
    fib = gr.fibonacci()
    lw = gr.level_word(fib, "W", 2)
    assert lw == tuple("BWBWWBWW")
    assert "".join(gr.read_word(fib, lw)) == "bwbwwbww"


def test_level_zero_is_root():
    for system, root in [(gr.fibonacci(), "B"), (gr.dodecahedral(), "T"),
                         (gr.cell120(), "6a")]:
        assert gr.level_word(system, root, 0) == (root,)


def test_dodecahedral_level_word_1():
    assert gr.level_word(gr.dodecahedral(), "O", 1) == tuple("OOOOOCCCT")


def test_dodecahedral_rule_T():
    assert gr.dodecahedral().rules["T"] == tuple("OOHCCT")


def test_bad_label_and_level():
    fib = gr.fibonacci()
    with pytest.raises(gr.GrammarError):
        gr.level_word(fib, "Q", 1)
    with pytest.raises(gr.GrammarError):
        gr.level_word(fib, "W", -1)


# --- builtin systems ----------------------------------------------------------

def test_polygonal_5_is_fibonacci():
    p5 = gr.polygonal(5)
    fib = gr.fibonacci()
    assert p5.rules == fib.rules == {"B": tuple("BW"), "W": tuple("BWW")}


def test_polygonal_below_5_rejected():
    with pytest.raises(gr.GrammarError):
        gr.polygonal(4)


def test_polygonal_rule_shape():
    p7 = gr.polygonal(7)
    assert p7.rules["W"] == tuple("BWWWW")
    assert p7.rules["B"] == tuple("BWWW")
    assert p7.canonical_sigmas == (7, 9)


def test_cell120_rule_word_order_and_row_0():
    c = gr.cell120()
    rule0 = c.rules["0"]
    assert rule0.count("9") == 1
    assert rule0[0] == "9"
    # column order: all 9s, then all 8s, ...
    assert rule0 == tuple(sorted(rule0, key=c.index.__getitem__))


def test_read_letters_lowercased_for_3d_4d():
    assert gr.read_word(gr.dodecahedral(), tuple("OHCT")) == tuple("ohct")
    c = gr.cell120()
    assert c.read_letters["6a"] == "6a"
    assert c.read_letters["9"] == "9"


# --- count matrix golden data ----------------------------------------------------

def test_dodecahedral_matrix_rows():
    m = gr.count_matrix(gr.dodecahedral())
    cols = ("O", "H", "C", "T")
    assert tuple(m["O"][c] for c in cols) == (5, 0, 3, 1)
    assert tuple(m["H"][c] for c in cols) == (4, 0, 3, 1)
    assert tuple(m["C"][c] for c in cols) == (3, 0, 3, 1)
    assert tuple(m["T"][c] for c in cols) == (2, 1, 2, 1)


def test_cell120_matrix_matches_golden_file():
    golden = json.loads((DATA / "cell120_matrix.json").read_text())
    c = gr.cell120()
    assert tuple(golden["labels"]) == c.labels
    m = gr.count_matrix(c)
    for label, row in golden["rows"].items():
        assert [m[label][col] for col in c.labels] == row


def test_count_matrix_consistent_with_rules():
    for system in (gr.fibonacci(), gr.polygonal(6), gr.polygonal(7),
                   gr.dodecahedral(), gr.cell120()):
        m = gr.count_matrix(system)
        for x in system.labels:
            for y in system.labels:
                assert m[x][y] == system.rules[x].count(y)


# --- counting laws -----------------------------------------------------------

def test_fibonacci_totals_small():
    fib = gr.fibonacci()
    assert [gr.total_count(fib, "W", l) for l in range(5)] == [1, 3, 8, 21, 55]


def test_fibonacci_count_law_to_50():
    fib = gr.fibonacci()
    f = fib_numbers(103)
    for l in range(51):
        assert gr.total_count(fib, "W", l) == f[2 * l + 1]
        assert gr.total_count(fib, "B", l) == f[2 * l]


def test_white_total_recurrence():
    fib = gr.fibonacci()
    u = [gr.total_count(fib, "W", l) for l in range(52)]
    for l in range(1, 51):
        assert u[l + 1] == 3 * u[l] - u[l - 1]


def test_dodecahedral_level2_total_72():
    assert gr.total_count(gr.dodecahedral(), "O", 2) == 72


def test_cell120_level1_total_116():
    assert gr.total_count(gr.cell120(), "9", 1) == 116


@pytest.mark.parametrize("system,max_level", [
    (gr.fibonacci(), 12), (gr.polygonal(6), 10), (gr.polygonal(7), 8),
    (gr.dodecahedral(), 6), (gr.cell120(), 2),
])
def test_counts_equal_expansion_lengths(system, max_level):
    for root in system.labels:
        for l in range(max_level + 1):
            assert (gr.total_count(system, root, l)
                    == len(gr.level_word(system, root, l)))


def test_cell120_root9_level3_count_equals_expansion():
    c = gr.cell120()
    total = gr.total_count(c, "9", 3)
    assert total == len(gr.level_word(c, "9", 3))


def test_cell120_counts_exceed_64_bits_eventually():
    assert gr.total_count(gr.cell120(), "9", 10) > 2 ** 64


# --- unfolding -----------------------------------------------------------------

_SYSTEMS = [gr.fibonacci(), gr.polygonal(6), gr.dodecahedral(), gr.cell120()]


def _clamp(system, root, level, cap=100_000):
    while level > 0 and gr.total_count(system, root, level) > cap:
        level -= 1
    return level


@settings(deadline=None, max_examples=40)
@given(hst.integers(0, 3), hst.data())
def test_one_step_unfolding(level, data):
    system = data.draw(hst.sampled_from(_SYSTEMS))
    root = data.draw(hst.sampled_from(system.labels))
    level = _clamp(system, root, level + 1) - 1
    word = gr.level_word(system, root, max(level, 0))
    unfolded = tuple(c for x in word for c in system.rules[x])
    assert unfolded == gr.level_word(system, root, max(level, 0) + 1)


@hst.composite
def systems(draw):
    """A random substitution system over the labels A, B and C with rules
    of one to three children and read letters a or b (as the drawn trees
    of tests/test_differential.py), a root and a level."""
    labels = ("A", "B", "C")
    label = hst.sampled_from(labels)
    system = gr.SubstitutionSystem(
        "drawn", labels,
        {x: tuple(draw(hst.lists(label, min_size=1, max_size=3)))
         for x in labels},
        {x: draw(hst.sampled_from(("a", "b"))) for x in labels}, (1,))
    return system, draw(label), draw(hst.integers(0, 6))


@settings(deadline=None, max_examples=200)
@given(systems())
def test_subtree_words_equal_reference_expansion(drawn):
    system, root, level = drawn
    reference = reference_level_word(system, root, level)
    labels = gr.level_word(system, root, level)
    reads = gr.read_level_word(system, root, level)
    assert labels == reference
    assert reads == gr.read_word(system, reference)
    assert len(labels) == len(reads) == gr.total_count(system, root, level)


# The levels the acceptance suite builds contour words at.
_ACCEPTANCE_CONTOURS = [
    (gr.fibonacci(), "W", 5, "ball", range(9)),
    (gr.fibonacci(), "W", 7, "ball", range(9)),
    (gr.fibonacci(), "W", 1, "sector", range(1, 6)),
    (gr.fibonacci(), "B", 1, "sector", range(1, 6)),
    (gr.polygonal(6), "W", 6, "ball", range(9)),
    (gr.polygonal(6), "W", 8, "ball", range(9)),
    (gr.polygonal(7), "W", 7, "ball", range(9)),
    (gr.polygonal(7), "W", 9, "ball", range(9)),
    (gr.dodecahedral(), "O", 8, "ball", range(6)),
    (gr.cell120(), "9", 16, "ball", (1, 2)),
    (gr.cell120(), "9", 1, "sector", (3,)),
]


@pytest.mark.parametrize("system,root,sigma,kind,levels", _ACCEPTANCE_CONTOURS)
def test_contour_words_equal_reference_expansion(system, root, sigma, kind,
                                                 levels):
    spec = ContourSpec(system, root, sigma=sigma, kind=kind)
    for level in levels:
        bottom = gr.read_word(system, reference_level_word(system, root, level))
        if kind == "ball":
            expected = bottom * sigma
        elif system.sided:
            sides = (SIDE_MARK,) * level
            expected = (ROOT_MARK,) + sides + bottom + sides
        else:
            expected = bottom
        assert contour_word(spec, level) == expected, level


def test_subtree_words_hold_the_systems_own_objects():
    # Equal strings built at run time are distinct objects, so only the
    # system's own objects pass an identity check.
    labels = tuple("".join(["L", str(i)]) for i in range(3))
    one, two, three = labels
    reads = {one: "".join("xy"), two: "".join("xy"), three: "".join("z")}
    assert reads[one] == reads[two] and reads[one] is not reads[two]
    system = gr.SubstitutionSystem(
        "fresh", labels,
        {one: (two, three, one), two: (three, three), three: (one, two)},
        reads, (1,))
    for level in range(5):
        word = gr.level_word(system, one, level)
        assert all(x is system.labels[system.index[x]] for x in word)
        read = gr.read_level_word(system, one, level)
        assert all(r is reads[x] for r, x in zip(read, word, strict=True))
    sector = sector_contour(ContourSpec(system, one, kind="sector"), 4)
    read = gr.read_level_word(system, one, 4)
    assert sector[5:-4] == read
    assert all(a is b for a, b in zip(sector[5:-4], read))


# --- serialization ---------------------------------------------------------------

def test_format_word_single_char_contiguous():
    assert gr.format_word(("b", "w", "b")) == "bwb"
    assert gr.parse_word("bwb") == ("b", "w", "b")


def test_format_word_multi_char_spaced():
    assert gr.format_word(("6a", "9")) == "6a 9"
    assert gr.parse_word("6a 9") == ("6a", "9")


def test_parse_word_empty():
    assert gr.parse_word("  \n") == ()


def test_parse_word_splits_at_every_whitespace_character():
    assert gr.parse_word("6a 9") == gr.parse_word("6a\x1c9") == ("6a", "9")
    assert gr.parse_word(" b\x1cw\n") == ("b", "w")
    assert gr.parse_word("\x1cbw \n") == ("b", "w")
    assert gr.parse_word("\x1c") == ()


def test_bad_system_definitions_rejected():
    with pytest.raises(gr.GrammarError):
        gr.SubstitutionSystem("x", ("A",), {"A": ()}, {"A": "a"}, (1,))
    with pytest.raises(gr.GrammarError):
        gr.SubstitutionSystem("x", ("A",), {"A": ("B",)}, {"A": "a"}, (1,))
    with pytest.raises(gr.GrammarError):
        gr.SubstitutionSystem("x", ("A", "A"), {"A": ("A",)}, {"A": "a"}, (1,))
