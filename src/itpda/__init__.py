"""Iterated pushdown recognizers for substitution-tree contour words.

Layers, bottom to top: :mod:`itpda.store` (nested pushdown stores),
:mod:`itpda.machine` (automata + bounded acceptance search),
:mod:`itpda.grammar` (substitution systems and level counting),
:mod:`itpda.contour` (ball/sector contour words and mutations),
:mod:`itpda.builders` (the concrete recognizer constructions),
:mod:`itpda.cli` (command-line surface).
"""

from .builders import (Variant, ball_automaton, fibonacci_automaton,
                       sector_automaton, suggested_store_bound)
from .contour import (ContourSpec, ball_contour, contour_length, contour_word,
                      mutate, sector_contour)
from .grammar import (GrammarError, SubstitutionSystem, cell120, dodecahedral,
                      fibonacci, format_word, level_counts, level_word,
                      parse_word, polygonal, read_level_word, read_word,
                      total_count)
from .machine import (ACCEPTED, INCONCLUSIVE, REJECTED, Automaton,
                      Configuration, Pop, Push, SearchBounds, Transition,
                      Verdict, accepts, default_bounds, enumerate_language,
                      parse_automaton, reachable, render_automaton, step)
from .store import Store, StoreError, empty, from_pairs, node, parse, pop
from .store import push as push_store
from .store import render, single, topsym, total_size

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
