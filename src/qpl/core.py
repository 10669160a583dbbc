"""Overpartition values, text format, conjugation, and excludant statistics.

An overpartition is a non-increasing sequence of positive parts in which,
for each part size, one occurrence may be overlined.  Two conventions exist
for which occurrence carries the overline: the last one within its block of
equal sizes, or the first one.  Storage here is convention-independent
(size -> multiplicity plus an overline flag); the convention tag only
controls where the overline is written and how positional class tests read
part indices.
"""

from __future__ import annotations

from enum import Enum


class Convention(str, Enum):
    """Which occurrence of a repeated size carries the overline."""

    LAST = "last"
    FIRST = "first"


class _Record:
    """Base of the immutable records.  A subclass names its constructor
    arguments in ``_fields``, lists them and any value derived from them in
    ``__slots__``, and sets every slot in ``__init__`` with
    ``object.__setattr__``, one call per field: a shared loop costs twice as
    much per record.  Equality, hash and repr read ``_fields``."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return type(self), self._values()


class Overpartition:
    """Immutable overpartition.

    ``entries`` is a tuple of ``(size, multiplicity, overlined)`` with sizes
    strictly decreasing, multiplicities >= 1.  The empty overpartition (no
    entries) is valid and has weight 0.
    """

    __slots__ = ("entries", "convention")

    def __init__(self, entries=(), convention: Convention = Convention.LAST):
        convention = Convention(convention)
        norm = []
        prev = None
        for size, mult, overlined in entries:
            if type(size) is not int or type(mult) is not int:
                raise ValueError(f"size and multiplicity must be ints, got {size!r}, {mult!r}")
            if type(overlined) is not bool:
                raise ValueError(f"overline flag must be a bool, got {overlined!r}")
            if size <= 0:
                raise ValueError(f"part size must be positive, got {size}")
            if mult <= 0:
                raise ValueError(f"multiplicity must be positive, got {mult}")
            if prev is not None and size >= prev:
                raise ValueError("entry sizes must be strictly decreasing")
            prev = size
            norm.append((size, mult, overlined))
        object.__setattr__(self, "entries", tuple(norm))
        object.__setattr__(self, "convention", convention)

    def __setattr__(self, name, value):
        raise AttributeError("Overpartition is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Overpartition)
            and self.entries == other.entries
            and self.convention == other.convention
        )

    def __hash__(self):
        return hash((self.entries, self.convention))

    def __repr__(self):
        return f"Overpartition.parse({self.text()!r}, {self.convention.value!r})"

    # -- basic measures -------------------------------------------------

    @property
    def weight(self) -> int:
        return sum(s * m for s, m, _ in self.entries)

    @property
    def num_parts(self) -> int:
        return sum(m for _, m, _ in self.entries)

    @property
    def overlined_count(self) -> int:
        return sum(1 for _, _, o in self.entries if o)

    @property
    def largest_size(self) -> int:
        """Size of the largest part, 0 if empty."""
        return self.entries[0][0] if self.entries else 0

    def sizes(self):
        """Distinct part sizes, descending."""
        return tuple(s for s, _, _ in self.entries)

    def multiplicity(self, size: int) -> int:
        """Total number of parts of the given size, overlined or not."""
        if type(size) is not int:  # bool is an int subclass
            raise ValueError(f"size must be an int, got {size!r}")
        for s, m, _ in self.entries:
            if s == size:
                return m
        return 0

    def has_overlined(self, size: int) -> bool:
        if type(size) is not int:  # bool is an int subclass
            raise ValueError(f"size must be an int, got {size!r}")
        for s, _, o in self.entries:
            if s == size:
                return o
        return False

    def parts(self):
        """Written part sequence as ``(size, overlined)`` pairs.

        Sizes are non-increasing; within a block of equal sizes the overlined
        part (if any) sits last under ``Convention.LAST`` and first under
        ``Convention.FIRST``.
        """
        first = self.convention is Convention.FIRST
        out = []
        for size, mult, overlined in self.entries:
            out += ((size, False),) * mult
            if overlined:
                out[-mult if first else -1] = (size, True)
        return tuple(out)

    # -- text format -----------------------------------------------------

    def text(self) -> str:
        """Canonical text: comma-separated sizes, ``~`` suffix on overlines."""
        return ",".join(
            f"{size}~" if overlined else str(size) for size, overlined in self.parts()
        )

    @classmethod
    def parse(cls, text: str, convention: Convention = Convention.LAST) -> "Overpartition":
        """Parse comma-separated sizes in non-increasing order.

        Sizes are written in ASCII digits without a leading zero.  A
        trailing ``~`` marks the overlined occurrence of that size; at most
        one per size.  The empty string is the empty overpartition.
        """
        if text == "":
            return cls((), convention)
        pairs = []
        for token in text.split(","):
            overlined = token.endswith("~")
            if overlined:
                token = token[:-1]
            if not (token.isascii() and token.isdigit()) or token.startswith("0"):
                raise ValueError(f"bad part token {token!r}")
            pairs.append((int(token), overlined))
        return cls.from_written(pairs, convention)

    @classmethod
    def from_written(cls, pairs, convention: Convention = Convention.LAST) -> "Overpartition":
        """Build from written ``(size, overlined)`` parts, largest first.

        Sizes must be positive ints and non-increasing, and overline flags
        bools; equal adjacent sizes merge into one entry, of which at most
        one part may be overlined.
        """
        if not isinstance(convention, Convention):  # hot callers pass a member
            convention = Convention(convention)
        entries = []
        prev = float("inf")
        for size, overlined in pairs:
            if type(size) is not int or type(overlined) is not bool:
                raise ValueError(
                    f"written part must be (int, bool), got ({size!r}, {overlined!r})"
                )
            if size == prev:
                _, mult, over = entries[-1]
                if over and overlined:
                    raise ValueError(f"size {size} overlined twice")
                entries[-1] = (size, mult + 1, over or overlined)
            elif 0 < size < prev:
                entries.append((size, 1, overlined))
                prev = size
            elif size <= 0:
                raise ValueError(f"part size must be positive, got {size}")
            else:
                raise ValueError("part sizes must be non-increasing")
        return cls._make(tuple(entries), convention)


def _make_overpartition(entries, convention, new=object.__new__, cls=Overpartition,
                       set_entries=Overpartition.__dict__["entries"].__set__,
                       set_convention=Overpartition.__dict__["convention"].__set__):
    """Internal fast constructor; callers guarantee canonical entries.

    Every stream calls it once per object, so it is one frame: the slot
    descriptors set the two fields directly, at about half the cost of
    ``object.__setattr__``, and every name it calls is bound as a default
    argument instead of looked up."""
    self = new(cls)
    set_entries(self, entries)
    set_convention(self, convention)
    return self


Overpartition._make = staticmethod(_make_overpartition)


class Partition:
    """Plain partition: non-increasing tuple of positive parts."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(parts)
        if not set(map(type, parts)) <= {int}:
            raise ValueError(f"parts must be ints, got {parts!r}")
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError("parts must be non-increasing")
        if parts and parts[-1] <= 0:
            raise ValueError("parts must be positive")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)!r})"

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        """Transpose: the i-th conjugate part counts parts >= i."""
        if not self.parts:
            return Partition(())
        out = []
        for i in range(1, self.parts[0] + 1):
            out.append(sum(1 for p in self.parts if p >= i))
        return Partition(out)


def _not_an_overpartition(name: str, value) -> ValueError:
    """The error for an argument that has no attributes of an
    ``Overpartition``: each caller reads one inside a ``try``, free when it
    succeeds, and raises this from None."""
    return ValueError(f"{name} must be an Overpartition, got {value!r}")


def conjugate(pi: Overpartition) -> Overpartition:
    """Conjugate of a last-occurrence overpartition.

    The conjugate has, for each written position t of ``pi``, parts of size t
    with multiplicity ``|pi_t| - |pi_{t+1}|`` (the last difference being
    ``|pi_last|``), and that size is overlined exactly when the part at
    position t is overlined.  Weight and overline count are preserved.
    """
    try:
        convention = pi.convention
    except AttributeError:
        raise _not_an_overpartition("pi", pi) from None
    if convention is not Convention.LAST:
        raise ValueError("conjugation requires the last-occurrence convention")
    written = pi.parts()
    ell = len(written)
    entries = []
    # Walk positions from the bottom so conjugate sizes come out descending.
    for t in range(ell, 0, -1):
        size_t = written[t - 1][0]
        size_next = written[t][0] if t < ell else 0
        mult = size_t - size_next
        if mult > 0:
            entries.append((t, mult, written[t - 1][1]))
    return Overpartition._make(tuple(entries), Convention.LAST)


def min_excludant_size(pi: Overpartition, r: int) -> int:
    """Smallest t >= 1 such that no part of ``pi`` has size in [t, t+r-1]."""
    if type(r) is not int or r < 1:  # bool is an int subclass
        raise ValueError(f"r must be an int >= 1, got {r!r}")
    try:
        entries = pi.entries
    except AttributeError:
        raise _not_an_overpartition("pi", pi) from None
    t = 1  # the least size not yet excluded
    for size, _, _ in reversed(entries):  # ascending sizes
        if size - t >= r:  # sizes t .. size-1 are absent
            return t
        t = size + 1
    return t


def max_excludant_size(pi: Overpartition, r: int) -> int:
    """Largest t with r <= t < largest size and no part sizes in [t-r+1, t].

    Returns 0 when no such t exists (in particular for the empty
    overpartition).
    """
    if type(r) is not int or r < 1:  # bool is an int subclass
        raise ValueError(f"r must be an int >= 1, got {r!r}")
    # Scan the gaps between adjacent sizes from the top, the last one
    # reaching down to 0: the first gap with r or more sizes absent holds
    # the answer, one below its upper size.  O(distinct sizes).
    try:
        entries = pi.entries
    except AttributeError:
        raise _not_an_overpartition("pi", pi) from None
    above = 0  # no gap above the largest size
    for below, _, _ in entries:
        if above - below > r:
            return above - 1
        above = below
    return above - 1 if above > r else 0


def largest_repeating_size(pi: Overpartition, r: int) -> int:
    """Largest size occurring at least r+1 times; 0 counts by convention."""
    if type(r) is not int or r < 1:  # bool is an int subclass
        raise ValueError(f"r must be an int >= 1, got {r!r}")
    try:
        entries = pi.entries
    except AttributeError:
        raise _not_an_overpartition("pi", pi) from None
    for size, mult, _ in entries:
        if mult >= r + 1:
            return size
    return 0


def smallest_positive_repeating_size(pi: Overpartition, r: int):
    """Least size occurring at least r+1 times, or None when there is none."""
    if type(r) is not int or r < 1:  # bool is an int subclass
        raise ValueError(f"r must be an int >= 1, got {r!r}")
    try:
        entries = pi.entries
    except AttributeError:
        raise _not_an_overpartition("pi", pi) from None
    best = None
    for size, mult, _ in entries:
        if mult >= r + 1:
            best = size
    return best


def count_parts_above(pi: Overpartition, t: int, inclusive: bool = False) -> int:
    """Number of parts of size > t (or >= t with ``inclusive``)."""
    if type(t) is not int:
        raise ValueError(f"t must be an int, got {t!r}")
    if type(inclusive) is not bool:
        raise ValueError(f"inclusive must be a bool, got {inclusive!r}")
    try:
        entries = pi.entries
    except AttributeError:
        raise _not_an_overpartition("pi", pi) from None
    if inclusive:
        return sum(m for s, m, _ in entries if s >= t)
    return sum(m for s, m, _ in entries if s > t)
