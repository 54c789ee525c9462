"""The witness check that the search tests share."""

from itpda import machine as mc


def assert_witness(automaton, word, trace, start, goal=None):
    """``trace`` runs from ``start`` to ``goal``, or, with no goal, to
    acceptance (the input read and the store empty), and each entry steps
    to the next under :func:`itpda.machine.step`.  The word is encoded
    once, so the check takes time linear in the trace."""
    coded = mc._Coded(mc._encode(automaton, word))
    assert trace[0][0] == start
    last, tid = trace[-1]
    assert tid is None
    if goal is None:
        assert last.position == len(coded) and last.store.size == 0
    else:
        assert last == goal
    for (cfg, tid), (nxt, _) in zip(trace, trace[1:]):
        assert (nxt, tid) in mc.step(automaton, cfg, coded)
