"""Slotted bases: values equal, hashed and optionally ordered as their field tuple, and records."""


class Value:
    """An immutable value whose fields are the ``__slots__`` of its class.

    ``_key`` holds the field tuple, in ``__slots__`` order, which is also the
    constructor's argument order.  A value equals only a value of its own
    class with an equal key, never a bare tuple, and hashes as its key.  A
    subclass's ``__init__`` validates, then sets each field and ``_key``
    once with ``object.__setattr__``: ``==`` and ``hash`` read the stored
    key, and a loop over the slots would cost every construction more.
    ``_hash`` is for a subclass whose key is dear to hash: it may keep
    ``hash(_key)`` there (see ``braidalg.words.WeldedWord``).
    """

    __slots__ = ("_key", "_hash")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, self._key)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)


class OrderedValue(Value):
    """A value ordered as its field tuple, against values of its own class only."""

    __slots__ = ()

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key < other._key

    def __le__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key <= other._key

    def __gt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key > other._key

    def __ge__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key >= other._key


class Record:
    """A result set from one positional value per field of ``__slots__``, in that order.

    Keyword arguments are refused.  Records compare by identity unless their class defines ``__eq__``.
    """

    __slots__ = ()

    def __init__(self, *fields):
        slots = self.__slots__
        if len(fields) != len(slots):
            raise TypeError(f"{type(self).__name__} takes the {len(slots)} fields {slots}, got {len(fields)}")
        for name, value in zip(slots, fields):
            setattr(self, name, value)
