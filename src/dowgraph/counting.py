"""The counting programme: how many Hamiltonian sets a word's assembly graph has.

Counting runs a frontier dynamic programme over the edges, whose cost is set
by the cut width of the word (how many letters are open at once), not by
F(2n+1).  It reads one letter at a time and gives each letter a slot as it
reads it; its state is a mate array, in which each open letter's slot names
the open letter at the other end of its path, or itself.  Each step depends
only on the prefix read, so a batch shares the steps of common prefixes.

The programme reads the letters of a word and nothing else, so this module
needs neither the graph layer nor the enumeration, and ``dowgraph count``
and ``dowgraph.count_words`` load neither.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import _require_int
from .words import Dow

__all__ = ["fibonacci", "count_words"]

# the counting programme's state before the first letter (see _read)
_START = ({(): [1, 0]}, {}, (), None)


def fibonacci(k: int) -> int:
    """F_k with F_0 = 0 and F_1 = 1.

    >>> [fibonacci(k) for k in range(8)]
    [0, 1, 1, 2, 3, 5, 8, 13]
    """
    _require_int("k", k, 0)
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def count_words(words: Iterable[Dow]) -> list[int]:
    """The Hamiltonian-set counts of the words' assembly graphs, in order.

    A frontier dynamic programme over the edges e_1..e_(2n-1), left to
    right, one letter at a time (see :func:`_read`).  Its state is a mate
    array over the slots of the open letters, ``m[s]`` being the slot of
    the open letter at the other end of the path that ends at ``s``, or
    ``s`` itself, mapped to the counts of selections that left the last
    edge out and that took it.  An edge x -> y may be taken when the
    previous one was not, it is no loop, and ``m[x] != y``, so the
    selections counted are exactly the masks without adjacent ones whose
    edges induce disjoint paths.  The number of states is set by how many
    letters are open at once, not by F_(2n+1); the bound F_(2n+1) - 1 is
    never reached because the alternating mask always closes a cycle.

    The last letter always closes its letter, so the programme reads every
    letter but the last and then reads the count off the last edge's
    decision, with no final state (see :func:`_total`).

    A state depends only on the prefix read, so the words share the states
    of common prefixes: the programme stacks the state after each position
    that the next word shares, pops back to it, and reads only the rest.
    Sorted words share the most; any order gives the same counts.

    >>> from dowgraph import parse
    >>> count_words([parse("11"), parse("1122"), parse("1212"), parse("11")])
    [1, 2, 4, 1]
    """
    letters = [word.letters for word in words]
    counts: list[int] = []
    # stack[k] is the state after w[0..k] while the next word shares w[0..k]
    stack: list[tuple] = []
    for i, w in enumerate(letters):
        share = _common_prefix(w, letters[i + 1]) if i + 1 < len(letters) else 0
        state = stack[-1] if stack else _START
        for k in range(len(stack), len(w) - 1):
            state = _read(state, w[k])
            if k < share:
                stack.append(state)
        counts.append(_total(state, w[-1]))
        del stack[share:]
    return counts


def _common_prefix(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    for k, (a, b) in enumerate(zip(u, v)):
        if a != b:
            return k
    return min(len(u), len(v))


def _total(state: tuple, c: int) -> int:
    """The count of a word whose last letter ``c`` follows ``state``.

    ``c`` closes its letter, so only the last edge, from the slot ``x`` of
    the letter before to the slot ``y`` of ``c``, is left to decide, and
    :func:`_step` would only relabel the mate arrays after it.  All of a
    mate array's ``free + taken`` selections may leave the edge out, and
    its ``free`` ones, which left the edge before out, may also take it, as
    in :func:`_step`, unless it is a loop or closes a cycle.

    A shorter word that prefixes the word before it in a batch comes with the
    state after its whole self; its last edge then reads as the loop from
    ``c`` to itself, refused, and the count is the state's sum, as it is.
    """
    states, slot_of, _, (_, x, _) = state
    y = slot_of[c]
    return sum([free + taken + free if x != y != p[x] else free + taken
                for p, (free, taken) in states.items()])


def _read(state: tuple, c: int) -> tuple:
    """The state after one more letter ``c``; ``state`` is left as it was.

    A state holds the mate arrays with their counts, the slot of each
    letter that holds one, the freed slots (last freed last), and the last
    letter read with its slot and whether it closed there.  A new letter
    takes the slot freed last, or else a new one, which lengthens every
    mate array; then the edge from the last letter to ``c`` is decided, and
    the last letter frees its slot if it closed there.  So a prefix's slots
    depend on the prefix alone, and the tangled cord never needs a fourth:

    >>> from functools import reduce
    >>> from dowgraph import tangled_cord
    >>> len(next(iter(reduce(_read, tangled_cord(2000).letters, _START)[0])))
    3
    """
    states, slot_of, freed, last = state
    closes = c in slot_of
    if not closes:
        if not freed:  # make a slot; a new slot reads as itself
            freed = (len(slot_of),)
            states = {p + freed: n for p, n in states.items()}
        slot_of, freed = {**slot_of, c: freed[-1]}, freed[:-1]
    y = slot_of[c]
    if last:
        b, x, x_closes = last
        states = _step(states, x, x_closes, y)
        if x_closes:
            slot_of, freed = slot_of.copy(), freed + (x,)
            del slot_of[b]
    return states, slot_of, freed, (c, y, closes)


def _step(states: dict, x: int, x_closes: bool, y: int) -> dict:
    """Decide the edge from slot ``x`` to slot ``y``, then free ``x`` if its letter closes.

    Each mate array maps to ``[free, taken]``, the selections that left the
    last edge out and those that took it.  The new map is a plain dict, and
    a mate array met for the first time enters it as ``[n, 0]`` or
    ``[0, n]``: the step runs once per letter and state, and a
    ``defaultdict`` factory would cost a call per new entry.
    """
    nxt: dict[tuple[int, ...], list[int]] = {}
    for p, (free, taken) in states.items():
        q = list(p)
        if x_closes:
            q[q[x]], q[x] = q[x], x
        q = tuple(q)
        counts = nxt.get(q)
        if counts is None:
            nxt[q] = [free + taken, 0]
        else:
            counts[0] += free + taken
        # refuse a loop and a cycle (y is x's mate); the joined path's ends become mates
        if free and x != y != p[x]:
            q = list(p)
            q[x], q[y], q[p[x]], q[p[y]] = x, y, p[y], p[x]
            if x_closes:
                q[q[x]], q[x] = q[x], x
            q = tuple(q)
            counts = nxt.get(q)
            if counts is None:
                nxt[q] = [0, free]
            else:
                counts[1] += free
    return nxt
