"""Shared bases for the package: the exception base and the immutable-record base."""


class GkmError(Exception):
    """Base class for every error raised by this package."""


class Frozen:
    """Base of the records that are not tuples: setting or deleting an attribute raises ``AttributeError``.

    A subclass's ``__init__`` sets its fields past this guard.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
