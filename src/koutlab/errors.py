"""Shared exception types, and the one reader of each kind of input a caller passes in."""

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


def _seeds(**named):
    """Each keyword's value read as a seed or stream coordinate: the one home of >= 0."""
    values = _ints(**named)
    for name, value in zip(named, values):
        if value < 0:
            raise ParameterError(f"{name} must be a non-negative integer, got {value}")
    return values


def _trial_count(trials):
    """A trial count read and checked: the one home of 1 <= trials <= 2**32."""
    trials = _number(trials, int, "trials")
    if not 1 <= trials <= 1 << 32:
        raise ParameterError(f"trials must be between 1 and 2**32, got {trials}")
    return trials


def _generator(rng):
    """rng, a numpy Generator (such as trial_stream's); a ParameterError names rng otherwise."""
    if not isinstance(rng, np.random.Generator):
        raise ParameterError(f"rng must be a numpy.random.Generator, got {rng!r}")
    return rng


def _items(value, what):
    """value's items as a tuple; a ParameterError names what if value is a str or bytes
    (one value, not a list) or is not iterable."""
    if not isinstance(value, (str, bytes)):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise ParameterError(f"{what} must be a list, got {value!r}")
