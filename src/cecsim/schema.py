"""Field checks shared by every document read from outside.

Scenario, topology and detector-config files, scenario checks and relay
command envelopes all go through these helpers, so a field of the wrong
shape is refused the same way everywhere: a FieldError whose message names
the field.  Nothing is coerced: an integer is never a bool or a float, a
flag is a JSON boolean, and text is a string.  The package's one file
reader and its one artifact opener live here too.
"""

import functools
import json
import os

# Deepest nesting of lists and objects an input file may use.  Real
# documents need about six levels; far deeper ones overflow the recursion
# limit wherever a value is copied, printed or encoded.
MAX_NESTING = 32


class FieldError(ValueError):
    """A field of an outside document is missing or has the wrong shape."""


def raises(error: type):
    """Decorator: a FieldError leaving the function leaves as `error`, with
    its message, so each entry point raises only its own error type."""

    def decorate(fn):
        @functools.wraps(fn)
        def checked(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except FieldError as exc:
                raise exc if isinstance(exc, error) else error(str(exc)) from None
        return checked
    return decorate


def integer(value, name: str, low: int | None = 0, high: int | None = None) -> int:
    """An int, never a bool, within low..high; None leaves that end open."""
    if type(value) is not int or low is not None and value < low or (
        high is not None and value > high
    ):
        bounds = "" if low is None else " from %d" % low
        bounds += "" if high is None else " to %d" % high
        raise FieldError("%s must be an integer%s, got %r" % (name, bounds, value))
    return value


def flag(value, name: str) -> bool:
    if type(value) is not bool:
        raise FieldError("%s must be true or false, got %r" % (name, value))
    return value


def text(value, name: str, choices=None) -> str:
    """A non-empty string; with `choices`, one of them."""
    if type(value) is not str or not value:
        raise FieldError("%s must be a non-empty string, got %r" % (name, value))
    if choices is not None and value not in choices:
        raise FieldError("unknown %s %r" % (name, value))
    return value


def obj(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise FieldError("%s must be an object, got %r" % (name, value))
    return value


def keyed(value, name: str, known) -> dict:
    """An object whose keys are all in `known`; the first other key is named."""
    for key in obj(value, name):
        if key not in known:
            raise FieldError("unknown %s key %r" % (name, key))
    return value


def objects(value, name: str) -> list:
    if not isinstance(value, list) or not all(isinstance(item, dict) for item in value):
        raise FieldError("%s must be a list of objects" % name)
    return value


def nesting(value) -> int:
    """How deep lists and objects nest in a JSON value, found without recursion."""
    deepest, stack = 0, [(value, 0)]
    while stack:
        value, depth = stack.pop()
        if isinstance(value, dict):
            value = value.values()
        elif not isinstance(value, list):
            continue
        deepest = max(deepest, depth + 1)
        stack.extend((item, depth + 1) for item in value)
    return deepest


def read_json_file(path: str, what: str):
    """A JSON file's document.  An unreadable file, text that is not JSON
    and nesting too deep to handle all raise FieldError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise FieldError("%s file %s is not readable JSON: %s" % (what, path, exc)) from None
    if nesting(document) > MAX_NESTING:
        raise FieldError("%s file %s nests deeper than %d levels" % (what, path, MAX_NESTING))
    return document


# A new file's write buffer, twice the usual 8 KiB: a 500-node trace is
# megabytes, since each line names every observer, and every write call
# costs a system call.  Artifacts are written as they are rendered, so a
# larger buffer would hold more of a log in memory at once.
_WRITE_BUFFER = 1 << 14


def new_file(out_dir: str, name: str, binary: bool = False):
    """Open `out_dir/name` as a new file, UTF-8 text unless `binary`.  What
    was at that name (a file, a symlink, a hard link) is unlinked first,
    never truncated or written through, and the create is exclusive: a name
    that reappears in between raises FileExistsError."""
    path = os.path.join(out_dir, name)
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    if binary:
        return open(path, "xb", buffering=_WRITE_BUFFER)
    return open(path, "x", encoding="utf-8", buffering=_WRITE_BUFFER)
