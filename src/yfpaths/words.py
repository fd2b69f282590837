"""Words over the alphabet {1, 2}: the vertices of the Young-Fibonacci graph.

A word is graded by its digit sum (its *rank*); the empty word has rank 0.
Rank-n words are in bijection with compositions of n into parts 1 and 2, so
level n contains F_{n+1} words (Fibonacci numbers with F_0 = 0, F_1 = 1).

The covering structure is encoded by :func:`tuples_below`, on plain digit
tuples, which :func:`predecessors` (neighbours one rank down) and
:func:`successors` (one rank up) wrap.  Two suffix helpers support the
exact counting formulas built on top: :func:`common_suffix_len`, and
:func:`suffix_split`, one right-to-left scan on a digit tuple from which
``functions.f_base`` takes its split.

:class:`Word` is a hand-written ``__slots__`` class, so importing it costs
no ``inspect`` (with its ``ast``, ``dis`` and ``tokenize``), which a
generated class would import and a ``yf`` point query has no use for; its
value methods come from :class:`FrozenValue`, which ``trajectories.Trajectory``
shares.
"""

from __future__ import annotations

EMPTY_WORD_TEXTS = ("e", "eps")
_DIGIT_BYTES = bytes.maketrans(b"12", b"\1\2")  # the text's digits as byte values


class FrozenValue:
    """An immutable value held in one tuple slot, the only name in the
    subclass's ``__slots__``: it compares and hashes by that tuple, is never
    equal to another type, and pickle and copy rebuild it through
    ``__init__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _value(self) -> tuple:
        return getattr(self, self.__slots__[0])

    def __reduce__(self):
        # the default sets the slot through __setattr__, which refuses
        return self.__class__, (self._value(),)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())


class Word(FrozenValue):
    """Immutable digit string over {1, 2}; ``digits[0]`` is the leftmost digit.

    Words compare and hash by their digits, never equal to another type.
    """

    __slots__ = ("digits",)

    def __init__(self, digits: tuple[int, ...] | bytes = ()) -> None:
        try:
            # integers 0..255 only, read as plain ints (True as 1): a float,
            # a str, or an int in place of the sequence fails
            ints = bytes(digits)
            valid = len(ints) == len(digits) and not ints.strip(b"\1\2")
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise ValueError(f"word digits must be 1 or 2, got {digits!r}")
        object.__setattr__(self, "digits", tuple(ints))  # a new tuple of plain ints

    @property
    def rank(self) -> int:
        """Digit sum; the grading of the vertex."""
        return sum(self.digits)

    @property
    def digit_count(self) -> int:
        return len(self.digits)

    @property
    def twos(self) -> int:
        return self.digits.count(2)

    def __str__(self) -> str:
        return "".join(map(str, self.digits)) if self.digits else EMPTY_WORD_TEXTS[0]

    def __repr__(self) -> str:
        return f"Word({self})"


EPSILON = Word()


def parse_word(text: str) -> Word:
    """Parse the CLI text form: a string of '1'/'2', or "e"/"eps" for the empty word."""
    if text in EMPTY_WORD_TEXTS:
        return EPSILON
    if not text:
        raise ValueError('empty word must be written "e"')
    if not set(text) <= {"1", "2"}:
        raise ValueError(f"invalid word {text!r}: digits must be 1 or 2")
    return Word(text.encode().translate(_DIGIT_BYTES))


def tuples_below(digits: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The digit tuples one rank below ``digits``, ordered.

    Each of the 2s before the first 1 in turn becomes a 1; finally, if a 1
    occurs at all, the first 1 is deleted.  The tuples one rank above
    ``digits`` are those below ``(2,) + digits``.  Nothing is checked: valid
    digits step to valid digits, so the oracle's walks build no words.
    """
    first = digits.index(1) if 1 in digits else len(digits)
    out = [digits[:k] + (1,) + digits[k + 1:] for k in range(first)]
    if first < len(digits):
        out.append(digits[:first] + digits[first + 1:])
    return out


def predecessors(w: Word) -> list[Word]:
    """Neighbours one rank down, ordered; the empty word has none."""
    return [Word(t) for t in tuples_below(w.digits)]


def successors(w: Word) -> list[Word]:
    """Neighbours one rank up, ordered; always one more of them than predecessors."""
    return [Word(t) for t in tuples_below((2,) + w.digits)]


def common_suffix_len(x: Word, y: Word) -> int:
    """Number of digits (not digit sum) in the longest common suffix."""
    n = 0
    for a, b in zip(reversed(x.digits), reversed(y.digits)):
        if a != b:
            break
        n += 1
    return n


def suffix_split(digits: tuple[int, ...], a: int) -> tuple[int, int]:
    """(i, s): ``digits[i:]`` is the shortest suffix whose digit sum s reaches
    ``a``, for 0 <= a <= the digit sum.  s is a, or a + 1 when a 2 straddles a
    (``digits[i]`` is that 2)."""
    i, s = len(digits), 0
    while s < a:
        i -= 1
        s += digits[i]
    return i, s


def level(n: int) -> list[Word]:
    """All words of rank ``n`` in lexicographic order of their digit strings."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    # level k is 1 before each word of level k - 1, then 2 before each word
    # of level k - 2; start from levels -1 (empty) and 0, the digits kept
    # as bytes, which join cheaper than tuples
    below: list[bytes] = []
    here = [b""]
    for _ in range(n):
        below, here = here, [b"\1" + t for t in here] + [b"\2" + t for t in below]
    return [Word(t) for t in here]
