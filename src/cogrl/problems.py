"""Tutor problem instances shared by loaders, architectures and simulators."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import InputError

# A blank is the first run of three or more underscores.
BLANK_RE = re.compile(r"_{3,}")


@dataclass(frozen=True)
class ClozeContent:
    """Fill-in-the-blank question text split around its single blank."""

    text: str
    prefix: str
    suffix: str


def split_blank(text: str) -> ClozeContent:
    """Split question text around its blank marker.

    Raises InputError unless the text contains exactly one run of three or
    more underscores.
    """
    if not text.strip():
        raise InputError("empty question text")
    matches = list(BLANK_RE.finditer(text))
    if len(matches) != 1:
        raise InputError(
            f"question must contain exactly one blank (>= 3 underscores), "
            f"found {len(matches)}: {text!r}")
    m = matches[0]
    return ClozeContent(text=text, prefix=text[:m.start()], suffix=text[m.end():])


@dataclass
class ProblemInstance:
    """One tutor problem: image or cloze content plus its correct answer.

    ``content`` is either a (channels, H, W) float array with values in
    [0, 1] or a ClozeContent; ``answer`` indexes the dataset's ordered
    answer-label list.
    """

    item_id: str
    content: object
    answer: int


@dataclass
class DatasetBundle:
    """Problems plus the optional side artifacts a dataset carries."""

    problems: list[ProblemInstance]
    answer_labels: list[str]
    extras: dict = field(default_factory=dict)