"""Exception types shared across the simulator, and :func:`checked`, which makes
a named-tuple record run its own ``check()`` however it is built."""


class ZedSimError(Exception):
    """Base class for all simulator errors."""


class DomainError(ZedSimError, ValueError):
    """An argument lies outside its physically meaningful range."""


class ConfigError(ZedSimError, ValueError):
    """A configuration value or combination violates an invariant."""


class TraceError(ZedSimError, ValueError):
    """A trace or harvest file failed to parse or validate."""


class SimulationFault(ZedSimError):
    """Load was requested while the supply outputs were disabled."""


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
