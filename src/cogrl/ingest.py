"""Dataset loading and synthetic surrogate domains.

Loaders read the on-disk formats (transactions TSV, image manifest plus
PGM/PPM files, cloze TSV, item-to-KC map TSV) with line-level diagnostics
and no partial loads. The generators build seeded synthetic domains with
ground truth attached: a visual domain of jittered block templates, a cloze
domain whose answers follow feature-expressible rules (optionally plus one
rule the six article features cannot express), and transaction logs sampled
from known Additive Factors Model parameters for recovery testing.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from itertools import chain, starmap

import numpy as np

from .afm import (
    AFMParams,
    LogColumns,
    TransactionLog,
    afm_logits,
    opportunity_pairs,
)
from .apprentice import ARTICLE_FEATURE_NAMES, TOKEN_RE, article_human_features
from .cogmodel import QMatrix
from .errors import BINARY, InputError, read_binary, read_table, write_lines
from .neuralcore.layers import sigmoid
from .problems import DatasetBundle, ProblemInstance, split_blank


# ---------------------------------------------------------------------------
# transactions TSV

TRANSACTIONS_HEADER = ["student_id", "item_id", "outcome", "order"]


# an order cell: the exact text of an ASCII decimal integer, optionally
# negative
_ORDER = re.compile(r"-?[0-9]+")


def load_transactions(path) -> TransactionLog:
    """Read and validate a transactions TSV.

    The log rules (outcome 0 or 1, an order within int64, positive and
    strictly increasing per student) are ``TransactionLog``'s; a broken one
    names its line.
    """
    rows, line_numbers = [], []
    for ln, (student, item, outcome, order) in read_table(
            path, TRANSACTIONS_HEADER)[1]:
        if not student or not item:
            raise InputError(
                f"{path}: line {ln}: student_id and item_id must be non-empty")
        if not _ORDER.fullmatch(order):
            raise InputError(
                f"{path}: line {ln}: order must be a decimal integer within "
                f"int64, got {order!r}")
        # an outcome other than the exact text 0 or 1 stays text, which the
        # log's outcome rule rejects
        rows.append((student, item, BINARY.get(outcome, outcome), int(order)))
        line_numbers.append(ln)
    return TransactionLog(rows,
                          where=lambda i: f"{path}: line {line_numbers[i]}")


def write_transactions(path, log: TransactionLog) -> None:
    write_lines(path, chain(["\t".join(TRANSACTIONS_HEADER)],
                            starmap("{}\t{}\t{}\t{}".format, log.records())))


# ---------------------------------------------------------------------------
# images: PGM (P5) and PPM (P6)


def write_image(path, image: np.ndarray) -> None:
    """Write a (1, H, W) array as binary PGM or (3, H, W) as binary PPM.

    Values in [0, 1] are quantized to 8 bits.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[0] not in (1, 3):
        raise InputError(f"image must be (1|3, H, W), got {image.shape}")
    c, h, w = image.shape
    data = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    magic = b"P5" if c == 1 else b"P6"
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + f"{w} {h}\n255\n".encode("ascii"))
        # interleave channels pixel-wise for PPM
        fh.write(np.moveaxis(data, 0, 2).tobytes())


def read_image(path) -> np.ndarray:
    """Read a binary PGM/PPM into a (channels, H, W) float array in [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def next_token():
        nonlocal pos
        while pos < len(blob):
            if blob[pos:pos + 1].isspace():
                pos += 1
            elif blob[pos:pos + 1] == b"#":
                while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise InputError(f"{path}: truncated header")
        return blob[start:pos]

    magic = next_token()
    if magic not in (b"P5", b"P6"):
        raise InputError(f"{path}: unsupported format {magic!r} (need P5/P6)")
    channels = 1 if magic == b"P5" else 3
    try:
        w = int(next_token())
        h = int(next_token())
        maxval = int(next_token())
    except ValueError:
        raise InputError(f"{path}: malformed header") from None
    if w < 1 or h < 1:
        raise InputError(f"{path}: width and height must be positive, "
                         f"got {w}x{h}")
    if maxval < 1 or maxval > 255:
        raise InputError(f"{path}: unsupported maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    expected = w * h * channels
    raster = blob[pos:pos + expected]
    if len(raster) != expected:
        raise InputError(f"{path}: expected {expected} raster bytes, "
                         f"got {len(raster)}")
    arr = np.frombuffer(raster, dtype=np.uint8).reshape(h, w, channels)
    if arr.max() > maxval:
        raise InputError(f"{path}: raster byte {arr.max()} above maxval {maxval}")
    return np.moveaxis(arr, 2, 0).astype(np.float64) / maxval


MANIFEST_HEADER = ["item_id", "image", "answer"]


def load_images(manifest_path) -> DatasetBundle:
    """Load an image manifest TSV; paths are relative to the manifest."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    problems: list[ProblemInstance] = []
    answer_labels: list[str] = []
    shape = None
    for ln, (item, rel, answer) in _item_rows(manifest_path, MANIFEST_HEADER):
        image = read_image(os.path.join(base, rel))
        if shape is None:
            shape = image.shape
        elif image.shape[0] != shape[0]:
            raise InputError(
                f"{manifest_path}: line {ln}: mixed channel counts "
                f"({image.shape[0]} vs {shape[0]})")
        elif image.shape != shape:
            raise InputError(
                f"{manifest_path}: line {ln}: mixed image sizes "
                f"({image.shape} vs {shape})")
        if answer not in answer_labels:
            answer_labels.append(answer)
        problems.append(ProblemInstance(
            item_id=item, content=image, answer=answer_labels.index(answer)))
    if not problems:
        raise InputError(f"{manifest_path}: no image rows")
    return DatasetBundle(problems=problems, answer_labels=answer_labels)


def _item_rows(path, header):
    """The rows of a problem table: every cell non-empty, item ids unique."""
    seen = set()
    for ln, fields in read_table(path, header)[1]:
        if not all(fields):
            raise InputError(
                f"{path}: line {ln}: expected {len(header)} non-empty columns")
        if fields[0] in seen:
            raise InputError(
                f"{path}: line {ln}: duplicate item_id {fields[0]!r}")
        seen.add(fields[0])
        yield ln, fields


# ---------------------------------------------------------------------------
# cloze TSV

CLOZE_HEADER = ["item_id", "text", "answer"]


def load_cloze(path) -> DatasetBundle:
    """Load a cloze TSV; each text carries exactly one >=3-underscore blank."""
    problems: list[ProblemInstance] = []
    answer_labels: list[str] = []
    for ln, (item, text, answer) in _item_rows(path, CLOZE_HEADER):
        try:
            content = split_blank(text)
        except InputError as exc:
            raise InputError(f"{path}: line {ln}: {exc}") from None
        if answer not in answer_labels:
            answer_labels.append(answer)
        problems.append(ProblemInstance(
            item_id=item, content=content, answer=answer_labels.index(answer)))
    if not problems:
        raise InputError(f"{path}: no question rows")
    return DatasetBundle(problems=problems, answer_labels=answer_labels)


def write_cloze(path, bundle: DatasetBundle) -> None:
    write_lines(path, chain(
        ["\t".join(CLOZE_HEADER)],
        (f"{p.item_id}\t{p.content.text}\t{bundle.answer_labels[p.answer]}"
         for p in bundle.problems)))


# ---------------------------------------------------------------------------
# binary feature TSV (apprentice inputs)


def write_features(path, features: dict[str, dict[str, int]],
                   feature_names: list[str]) -> None:
    write_lines(path, chain(
        ["item_id\t" + "\t".join(feature_names)],
        (item + "\t" + "\t".join(str(int(features[item][n]))
                                  for n in feature_names)
         for item in features)))


def read_features(path) -> dict[str, dict[str, int]]:
    names, rows = read_table(path)
    return {fields[0]: dict(zip(names[1:], read_binary(path, ln, fields[1:])))
            for ln, fields in rows}


# ---------------------------------------------------------------------------
# synthetic visual domain


@dataclass
class VisualSynthSpec:
    templates: int = 4
    images_per_template: int = 10
    image_shape: tuple[int, int, int] = (1, 20, 20)
    jitter: int = 1
    noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.templates < 2:
            raise InputError("need at least 2 templates")
        if self.images_per_template < 1:
            raise InputError("need at least 1 image per template")
        c, h, w = self.image_shape
        if c not in (1, 3) or h < 4 or w < 4:
            raise InputError("image_shape must be (1|3, H>=4, W>=4)")
        # written so that NaN fails the check
        if not (self.jitter >= 0 and math.isfinite(self.noise)
                and self.noise >= 0):
            raise InputError("jitter and noise must be finite and non-negative")


def _template_block(spec: VisualSynthSpec, t: int) -> tuple[int, int, int, int]:
    """Block (r0, r1, c0, c1) for template t on a sqrt grid, inset so the
    maximum jitter cannot push it out of frame."""
    _, h, w = spec.image_shape
    g = math.ceil(math.sqrt(spec.templates))
    cell_h, cell_w = h // g, w // g
    margin = spec.jitter
    r0 = (t // g) * cell_h + margin
    c0 = (t % g) * cell_w + margin
    r1 = (t // g + 1) * cell_h - margin
    c1 = (t % g + 1) * cell_w - margin
    if r1 - r0 < 2 or c1 - c0 < 2:
        raise InputError(
            f"jitter {spec.jitter} pushes template blocks out of frame for "
            f"{h}x{w} images with {spec.templates} templates")
    return r0, r1, c0, c1


def synth_visual(spec: VisualSynthSpec) -> DatasetBundle:
    """Jittered block-template images with a ground-truth Q-matrix.

    Template t is a fixed solid block in its own grid cell; instances
    translate the block by seeded jitter and add pixel noise. Templates are
    split between two answer classes (t mod 2). extras carries the oracle
    Q-matrix (one template KC per item) and the template assignment.
    """
    rng = np.random.default_rng(spec.seed)
    c, h, w = spec.image_shape
    problems: list[ProblemInstance] = []
    template_of: dict[str, int] = {}
    for t in range(spec.templates):
        r0, r1, c0, c1 = _template_block(spec, t)
        for j in range(spec.images_per_template):
            dy = int(rng.integers(-spec.jitter, spec.jitter + 1))
            dx = int(rng.integers(-spec.jitter, spec.jitter + 1))
            image = np.zeros((c, h, w))
            image[:, r0 + dy:r1 + dy, c0 + dx:c1 + dx] = 1.0
            if spec.noise > 0:
                image = np.clip(
                    image + rng.uniform(-spec.noise, spec.noise, size=(c, h, w)),
                    0.0, 1.0)
            item = f"v{t:02d}_{j:02d}"
            problems.append(ProblemInstance(
                item_id=item, content=image, answer=t % 2))
            template_of[item] = t
    answer_labels = ["c0", "c1"]
    item_ids = [p.item_id for p in problems]
    cells = np.eye(spec.templates, dtype=np.int64)[
        [template_of[item] for item in item_ids]]
    oracle = QMatrix(item_ids, [f"template_{t}" for t in range(spec.templates)],
                     cells)
    return DatasetBundle(
        problems=problems, answer_labels=answer_labels,
        extras={"oracle_q": oracle, "template_of": template_of})


def write_image_dataset(out_dir, bundle: DatasetBundle) -> str:
    """Write PGM/PPM files plus manifest TSV; returns the manifest path."""
    images_dir = os.path.join(out_dir, "images")
    os.makedirs(images_dir, exist_ok=True)
    manifest = os.path.join(out_dir, "manifest.tsv")

    def rows():
        yield "\t".join(MANIFEST_HEADER)
        for p in bundle.problems:
            ext = "pgm" if p.content.shape[0] == 1 else "ppm"
            rel = os.path.join("images", f"{p.item_id}.{ext}")
            write_image(os.path.join(out_dir, rel), p.content)
            yield f"{p.item_id}\t{rel}\t{bundle.answer_labels[p.answer]}"

    write_lines(manifest, rows())
    return manifest


# ---------------------------------------------------------------------------
# synthetic cloze domain


@dataclass
class ClozeSynthSpec:
    questions: int = 70
    include_hidden_rule: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.questions < 8:
            raise InputError("need at least 8 questions")


FULL_FEATURE_NAMES = ARTICLE_FEATURE_NAMES + ["next_word_vowel_sound"]

_VOWEL_NOUNS = ["apple", "orange", "umbrella", "engine", "anchor", "olive",
                "insect", "oven", "eagle"]
_CONS_NOUNS = ["book", "table", "garden", "river", "window", "bottle",
               "candle", "pillow", "wagon", "ladder"]
_HIDDEN_NOUNS = ["hour", "heir", "honor", "heirloom"]  # vowel sound, no vowel letter
_ORDINALS = ["first", "second", "third", "fourth", "fifth", "sixth"]
_PLURAL_NOUNS = ["chickens", "flowers", "papers", "stones", "berries", "melons"]

_SHARED_TEMPLATES = [
    "I saw ___ {n} near the door.",
    "She bought ___ {n} yesterday.",
    "He drew ___ {n} on the wall.",
    "It took ___ {n} to finish.",
    "We found ___ {n} by the gate.",
]

# rule name -> (answer, templates, word list); weights set relative counts
_CLOZE_RULES = {
    "rule_a_consonant": ("a", _SHARED_TEMPLATES, _CONS_NOUNS, 6),
    "rule_an_vowel": ("an", _SHARED_TEMPLATES, _VOWEL_NOUNS, 5),
    "rule_the_ordinal": ("the", [
        "He won ___ {n} prize of the season.",
        "She finished ___ {n} lap today.",
        "They missed ___ {n} bus this morning.",
    ], _ORDINALS, 5),
    "rule_the_that": ("the", [
        "She likes ___ {n} that we bought.",
        "He visited ___ {n} where we met.",
    ], _CONS_NOUNS, 4),
    "rule_the_mentioned": ("the", [
        "My {n} broke so ___ {n} needs repair.",
        "This {n} is old because ___ {n} arrived early.",
    ], _CONS_NOUNS, 4),
    "rule_the_clause": ("the", [
        "When we visit grandma, we bring ___ {n} along.",
        "He tried hard but ___ {n} stayed shut.",
    ], _CONS_NOUNS, 4),
    "rule_the_plural": ("the", [
        "She fed ___ {n} at dawn.",
        "He stacked ___ {n} in neat rows.",
    ], _PLURAL_NOUNS, 4),
    "rule_an_hidden": ("an", _SHARED_TEMPLATES, _HIDDEN_NOUNS, 3),
}


def synth_cloze(spec: ClozeSynthSpec) -> DatasetBundle:
    """Rule-governed article-selection questions with ground truth attached.

    Every question's answer follows its rule, and for every rule except
    ``rule_an_hidden`` the six article features determine the answer. The
    hidden rule uses vowel-sound words spelled without a vowel, so its
    questions collide with consonant-rule questions on all six features
    while disagreeing on the answer. extras carries the oracle rule
    Q-matrix, the rule assignment, and both feature tables (the six human
    features, and those plus ``next_word_vowel_sound`` which restores full
    information).
    """
    rng = np.random.default_rng(spec.seed)
    rules = dict(_CLOZE_RULES)
    if not spec.include_hidden_rule:
        del rules["rule_an_hidden"]
    total_weight = sum(w for _, _, _, w in rules.values())
    counts = {name: max(2, int(round(spec.questions * w / total_weight)))
              for name, (_, _, _, w) in rules.items()}

    texts: list[tuple[str, str, str]] = []  # (rule, text, answer)
    for name, (answer, templates, words, _) in rules.items():
        combos = [(t, w) for t in templates for w in words]
        order = rng.permutation(len(combos))
        for k in range(counts[name]):
            template, word = combos[order[k % len(combos)]]
            texts.append((name, template.replace("{n}", word), answer))
    shuffle = rng.permutation(len(texts))
    texts = [texts[i] for i in shuffle]

    answer_labels = ["a", "an", "the"]
    problems: list[ProblemInstance] = []
    rule_of: dict[str, str] = {}
    human_features: dict[str, dict[str, int]] = {}
    full_features: dict[str, dict[str, int]] = {}
    vowel_sound_words = set(_VOWEL_NOUNS) | set(_HIDDEN_NOUNS)
    for i, (rule, text, answer) in enumerate(texts):
        item = f"q{i:03d}"
        content = split_blank(text)
        problems.append(ProblemInstance(
            item_id=item, content=content,
            answer=answer_labels.index(answer)))
        rule_of[item] = rule
        feats = article_human_features(content)
        human_features[item] = feats
        post_tokens = TOKEN_RE.findall(content.suffix.lower())
        next_word = post_tokens[0] if post_tokens else ""
        full_features[item] = dict(feats)
        full_features[item]["next_word_vowel_sound"] = int(
            next_word in vowel_sound_words or feats["next_word_starts_with_vowel"])

    _check_rule_consistency(problems, answer_labels, human_features,
                            full_features, rule_of)

    item_ids = [p.item_id for p in problems]
    kc_names = sorted(rules)
    cells = np.eye(len(kc_names), dtype=np.int64)[
        [kc_names.index(rule_of[item]) for item in item_ids]]
    oracle = QMatrix(item_ids, kc_names, cells)
    return DatasetBundle(
        problems=problems, answer_labels=answer_labels,
        extras={"oracle_q": oracle, "rule_of_item": rule_of,
                "features_human": human_features,
                "features_full": full_features})


def _check_rule_consistency(problems, answer_labels, human, full, rule_of):
    """Reject a rule set whose answers contradict the feature tables.

    Human-feature collisions across differing answers are allowed only when
    one side is the hidden rule; the full-information features must be
    contradiction free.
    """
    by_vec: dict[tuple, set] = {}
    for p in problems:
        vec = tuple(human[p.item_id][n] for n in ARTICLE_FEATURE_NAMES)
        by_vec.setdefault(vec, set()).add((p.answer, rule_of[p.item_id]))
    for vec, group in by_vec.items():
        answers = {a for a, _ in group}
        if len(answers) > 1 and not any(r == "rule_an_hidden" for _, r in group):
            raise InputError(
                f"contradictory rule set: feature vector {vec} maps to "
                f"answers {sorted(answer_labels[a] for a in answers)}")
    by_full: dict[tuple, set] = {}
    for p in problems:
        vec = tuple(full[p.item_id][n] for n in FULL_FEATURE_NAMES)
        by_full.setdefault(vec, set()).add(p.answer)
    for vec, answers in by_full.items():
        if len(answers) > 1:
            raise InputError(
                f"contradictory rule set under full features: {vec}")


# ---------------------------------------------------------------------------
# synthetic AFM logs


@dataclass
class AfmLogSynthSpec:
    students: int = 100
    items: int = 60
    kcs: int = 5
    transactions_per_student: int | None = None
    theta_sd: float = 1.0
    beta_range: tuple[float, float] = (-1.0, 1.0)
    gamma_range: tuple[float, float] = (0.0, 0.3)
    seed: int = 0
    q: QMatrix | None = None

    def __post_init__(self):
        if min(self.students, self.items, self.kcs) < 1 or (
                self.transactions_per_student is not None
                and self.transactions_per_student < 1):
            raise InputError("counts must be at least 1")
        # written so that NaN fails every check
        if not (math.isfinite(self.theta_sd) and self.theta_sd >= 0):
            raise InputError("theta_sd must be finite and non-negative")
        for name, (low, high), floor, rule in (
                ("beta_range", self.beta_range, -math.inf, "low <= high"),
                ("gamma_range", self.gamma_range, 0.0, "0 <= low <= high")):
            if not (floor <= low <= high and math.isfinite(high - low)):
                raise InputError(f"{name} must be finite with {rule}, got "
                                 f"{(low, high)}")


def synth_afm_log(spec: AfmLogSynthSpec):
    """Sample a transaction log from known AFM parameters.

    Returns (TransactionLog, QMatrix, AFMParams). Without an explicit
    Q-matrix, each item gets one round-robin KC plus a second random KC
    half the time. Every student works a seeded shuffle of the items (or
    the first transactions_per_student of it), and outcomes are Bernoulli
    draws from the model probability given the opportunity counts, each
    student's items and uniforms drawn in turn.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.q is not None:
        q = spec.q
    else:
        item_ids = [f"i{i:03d}" for i in range(spec.items)]
        kc_names = [f"kc{j}" for j in range(spec.kcs)]
        cells = np.zeros((spec.items, spec.kcs), dtype=np.int64)
        for i in range(spec.items):
            cells[i, i % spec.kcs] = 1
            if spec.kcs > 1 and rng.uniform() < 0.5:
                extra = int(rng.integers(spec.kcs - 1))
                if extra >= i % spec.kcs:
                    extra += 1
                cells[i, extra] = 1
        q = QMatrix(item_ids, kc_names, cells)

    students = [f"s{i:03d}" for i in range(spec.students)]
    theta = rng.normal(0.0, spec.theta_sd, size=spec.students)
    beta = rng.uniform(*spec.beta_range, size=q.n_kcs)
    gamma = rng.uniform(*spec.gamma_range, size=q.n_kcs)

    per_student = min(spec.transactions_per_student or q.n_items, q.n_items)
    item, uniform = map(np.concatenate, zip(*[
        (rng.permutation(q.n_items)[:per_student],
         rng.uniform(size=per_student)) for _ in students]))
    student = np.repeat(np.arange(spec.students), per_student)
    cols = LogColumns(students, q.item_ids, student, item, None, None)
    eta = afm_logits(theta[student], beta, gamma, opportunity_pairs(cols, q))
    outcome = uniform < sigmoid(eta)
    rows = zip(map(students.__getitem__, student.tolist()),
               map(q.item_ids.__getitem__, item.tolist()),
               outcome.astype(np.int64).tolist(),
               np.tile(np.arange(1, per_student + 1), spec.students).tolist())
    true_params = AFMParams(*(dict(zip(names, v.tolist())) for names, v in (
        (students, theta), (q.kc_names, beta), (q.kc_names, gamma))))
    return TransactionLog(rows), q, true_params
