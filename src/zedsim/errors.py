"""The simulator's one exception type, and :func:`checked`, which makes a
named-tuple record run its own ``check()`` however it is built."""


class ZedSimError(ValueError):
    """Every fault the simulator raises; the message names the input. It is a
    ``ValueError``, so ``load_trace`` adds ``path:line:`` to a row's fault."""


def checked(cls):
    """Make every new record of the named tuple ``cls`` run ``cls.check()``: from
    the constructor, from ``_make``, and so from ``_replace``, which calls it."""
    new = cls.__new__

    def __new__(klass, *args, **kwargs):
        record = new(klass, *args, **kwargs)
        record.check()
        return record

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda klass, fields: klass(*fields))
    return cls
