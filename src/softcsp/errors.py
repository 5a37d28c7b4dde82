"""Exception hierarchy shared by all softcsp modules, and input-file reading.

Input problems (bad files, bad flags, carrier mismatches) derive from
:class:`InputError`; they map to exit status 1 on the command line.
:class:`NonConvergenceError` is the one "internal" failure mode (exit
status 2): a fixpoint iteration that hit its cap.

Input files are read here too, so that every problem with one is an
:class:`InputError` naming the file and, where there is one, the element.
:class:`Frozen` is the base of the package's immutable classes.
"""

import json


class Frozen:
    """Base of the package's immutable classes: their fields are their
    ``__slots__``, set once by the constructor through :meth:`_init`.

    Assignment and deletion raise :class:`AttributeError`.  Equality, hash
    and repr go by the public fields (not starting with ``_``) in slot
    order, and instances of different classes are never equal.  ``copy``
    and ``pickle`` restore the fields.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Each field's slot setter, in slot order: calling one skips the
        # attribute lookup of ``object.__setattr__``.
        cls._setters = tuple(getattr(cls, name).__set__
                             for name in cls.__slots__)

    def _init(self, *values) -> None:
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot change field {name!r}")

    __delattr__ = __setattr__

    def _public(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__
                if name[0] != "_"}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._public() == other._public()

    def __hash__(self):
        return hash(tuple(self._public().values()))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}"
                          for name, value in self._public().items())
        return f"{type(self).__name__}({shown})"


class SoftcspError(Exception):
    """Base class for every error raised by this package."""


class InputError(SoftcspError):
    """Invalid user-supplied data: files, flags, or problem definitions."""


class InstanceMismatchError(InputError):
    """Semiring values from different instances were mixed, or a raw value
    is outside the instance's carrier."""


class UnknownInstanceError(InputError):
    """A semiring catalog lookup used a key that does not exist."""


class IncompleteTableError(InputError):
    """A constraint table has missing or extra rows for its support."""


class UnboundNameError(InputError):
    """A constraint was evaluated under an assignment missing a support name."""


class InvalidPermutationError(InputError):
    """A name mapping is not a bijection on its kernel."""


class DegenerateFusionError(InputError):
    """A fusion constraint was requested for a name with itself."""


class EmptyUniverseError(InputError):
    """A program with variables was grounded over an empty constant set."""


class ParseError(InputError):
    """A text input could not be parsed.  Carries the offending line."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FunctionSymbolError(ParseError):
    """A program term uses a function symbol; only constants and variables
    are supported."""


class FormatError(InputError):
    """An input file violates its format or schema."""


class UnknownNodeError(InputError):
    """A query referenced a node that is not part of the road network."""


class ModeMismatchError(InputError):
    """Two frontiers with different dominance modes were combined."""


class NonConvergenceError(SoftcspError):
    """Fixpoint iteration did not stabilise within the iteration cap.

    ``previous`` and ``last`` hold the final two interpretations so the
    caller can inspect where the iteration was still moving.
    """

    def __init__(self, message, previous=None, last=None):
        self.previous = previous
        self.last = last
        super().__init__(message)


def load_text(path, build):
    """``build`` applied to an input file's UTF-8 text; errors name the
    path."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text "
                         f"(byte {exc.start}: {exc.reason})") from exc
    try:
        return build(text)
    except (RecursionError, InputError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_json(path, build):
    """``build`` applied to an input file's JSON; errors name the path."""
    return load_text(path, lambda text: build(_decode(text)))


def _decode(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        # A JSONDecodeError, or an integer longer than the interpreter's
        # limit on integer digits.
        raise FormatError(str(exc)) from exc


def fields(entry, where: str, keys):
    """The values of ``keys`` in the JSON object ``where``, in order."""
    if not isinstance(entry, dict):
        raise FormatError(f"{where} must be an object")
    missing = [k for k in keys if k not in entry]
    if missing:
        raise FormatError(f"{where} is missing {missing!r}")
    return [entry[k] for k in keys]
