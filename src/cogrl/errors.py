"""Exception hierarchy shared across the package.

The CLI maps each subclass to a distinct exit code, so raise the most
specific class that applies. ``read_lines`` is the one place text input
files are decoded, so undecodable bytes end in ``InputError`` everywhere.
"""


class CogrlError(Exception):
    """Base class for every error raised by this package."""


class InputError(CogrlError):
    """Malformed or inconsistent input data (files, logs, matrices)."""


class ConfigurationError(CogrlError):
    """Invalid architecture, vocabulary, or run configuration."""


class DimensionError(CogrlError):
    """Array shapes incompatible with a layer or operation."""


class NumericError(CogrlError):
    """Non-finite values encountered during network evaluation."""


class FitError(CogrlError):
    """Likelihood optimization failed to produce a usable iterate."""


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; undecodable bytes raise InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None
    # only newlines end a line: str.splitlines would also break a row at a
    # form feed, U+2028 or another Unicode line boundary inside a cell
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines
