"""Contour words (the oracle language) and the seeded mutation helper."""

import warnings

import pytest
from hypothesis import given, settings, strategies as hst

from itpda import contour as ct
from itpda import grammar as gr
from itpda.contour import ContourSpec


def s(text):
    return tuple(text)


# --- paper-anchored strings ---------------------------------------------------

def test_white_sector_level2():
    spec = ContourSpec(gr.fibonacci(), "W", kind="sector")
    assert "".join(ct.sector_contour(spec, 2)) == "rssbwbwwbwwss"


def test_black_sector_level2():
    spec = ContourSpec(gr.fibonacci(), "B", kind="sector")
    assert "".join(ct.sector_contour(spec, 2)) == "rssbwbwwss"


def test_white_sector_level1():
    spec = ContourSpec(gr.fibonacci(), "W", kind="sector")
    assert "".join(ct.sector_contour(spec, 1)) == "rsbwws"


@pytest.mark.parametrize("sigma", [5, 7])
def test_ball_is_sector_word_power(sigma):
    spec = ContourSpec(gr.fibonacci(), "W", sigma=sigma, kind="ball")
    assert "".join(ct.ball_contour(spec, 2)) == "bwbwwbww" * sigma


def test_ball_level0():
    spec = ContourSpec(gr.fibonacci(), "W", sigma=5, kind="ball")
    assert "".join(ct.ball_contour(spec, 0)) == "wwwww"


def test_unsided_sector_is_bare_level_word():
    spec = ContourSpec(gr.dodecahedral(), "O", kind="sector")
    assert "".join(ct.sector_contour(spec, 1)) == "oooooccct"


def test_sector_level0_is_domain_error():
    spec = ContourSpec(gr.fibonacci(), "W", kind="sector")
    with pytest.raises(gr.GrammarError):
        ct.sector_contour(spec, 0)


# --- lengths and shape ----------------------------------------------------------

@pytest.mark.parametrize("system,root,sigma,kind", [
    (gr.fibonacci(), "W", 5, "ball"),
    (gr.fibonacci(), "B", 7, "ball"),
    (gr.polygonal(6), "W", 6, "ball"),
    (gr.fibonacci(), "W", 1, "sector"),
    (gr.dodecahedral(), "O", 8, "ball"),
    (gr.cell120(), "9", 1, "sector"),
])
def test_contour_length_matches_word(system, root, sigma, kind):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = ContourSpec(system, root, sigma=sigma, kind=kind)
    start = 0 if kind == "ball" else 1
    for level in range(start, start + 3):
        assert ct.contour_length(spec, level) == len(ct.contour_word(spec, level))


def test_sector_length_formula_at_paper_string():
    spec = ContourSpec(gr.fibonacci(), "W", kind="sector")
    assert ct.contour_length(spec, 2) == 1 + 4 + 8 == len("rssbwbwwbwwss")


def test_lengths_strictly_increase():
    for system, root, sigma, kind, start in [
        (gr.fibonacci(), "W", 5, "ball", 0),
        (gr.fibonacci(), "B", 1, "sector", 1),
        (gr.dodecahedral(), "O", 8, "ball", 0),
        (gr.cell120(), "9", 1, "sector", 1),
    ]:
        spec = ContourSpec(system, root, sigma=sigma, kind=kind)
        lengths = [ct.contour_length(spec, l) for l in range(start, start + 8)]
        assert lengths == sorted(set(lengths))


@settings(deadline=None, max_examples=25)
@given(hst.integers(0, 4), hst.sampled_from([5, 7]))
def test_ball_periodicity(level, sigma):
    spec = ContourSpec(gr.fibonacci(), "W", sigma=sigma, kind="ball")
    word = ct.ball_contour(spec, level)
    period = len(word) // sigma
    assert word == word[:period] * sigma


def test_noncanonical_sigma_warns():
    with pytest.warns(UserWarning):
        ContourSpec(gr.fibonacci(), "W", sigma=4, kind="ball")


def test_bad_spec_rejected():
    with pytest.raises(gr.GrammarError):
        ContourSpec(gr.fibonacci(), "Q", kind="ball")
    with pytest.raises(ValueError):
        ContourSpec(gr.fibonacci(), "W", sigma=0, kind="ball")
    with pytest.raises(ValueError):
        ContourSpec(gr.fibonacci(), "W", kind="spiral")


# --- mutation ----------------------------------------------------------------------

def test_mutate_deterministic():
    word = s("rssbwbwwbwwss")
    assert ct.mutate(word, 7, 10) == ct.mutate(word, 7, 10)
    assert ct.mutate(word, 7, 10) != ct.mutate(word, 8, 10)


@given(hst.integers(0, 2 ** 31), hst.integers(1, 20))
def test_mutate_single_edit_and_distinct(seed, count):
    word = s("bwbwwbww")
    for variant in ct.mutate(word, seed, count, alphabet=("b", "w", "r", "s")):
        assert variant != word
        assert abs(len(variant) - len(word)) <= 1
        if len(variant) == len(word):
            assert sum(a != b for a, b in zip(variant, word)) == 1


def test_mutate_needs_alphabet():
    with pytest.raises(ValueError):
        ct.mutate((), 0, 1)
