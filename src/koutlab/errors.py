"""Shared exception types, and the one reader of the numbers a caller passes in."""

import numpy as np


class ParameterError(ValueError):
    """A caller-supplied parameter violates a documented precondition."""


def _number(value, kind, what):
    """value as kind (int or float); a ParameterError names what otherwise.

    A bool is refused: true and false are not counts or probabilities.
    An int must equal the value it is read from, so 2.5 is never
    truncated; an integer string such as an environment variable's reads
    as its number."""
    try:
        number = None if isinstance(value, (bool, np.bool_)) else kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or (kind is int and not isinstance(value, str) and number != value):
        raise ParameterError(f"{what} must be {'an integer' if kind is int else 'a number'}, "
                             f"got {value!r}")
    return number


def _ints(**named):
    """Each keyword's value read as an int (_number), in order."""
    return [_number(value, int, name) for name, value in named.items()]
