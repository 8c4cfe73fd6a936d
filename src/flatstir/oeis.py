"""OEIS b-file ingestion and sequence cross-checks.

A b-file is the standard two-column text format: one ``index value``
pair per line, ``#`` comment lines and blank lines ignored, indices
strictly increasing.  Comparisons run over the overlap between the
b-file's index range and the range where the local generator is
defined; the mapping from b-file index to generator argument is
declared per generator in ``GENERATORS`` rather than assumed.

Fixture b-files for the four sequences below are bundled under
``flatstir/data`` so the cross-checks run offline; see
``scripts/fetch_bfiles.py`` for refreshing them from oeis.org.
"""

from __future__ import annotations

from functools import partial
from importlib import resources
from typing import Callable

from .errors import DECIMAL_RE, BFileFormatError, FrozenRecord, Record, check_digits
from .formulas import dowling, flat2_recurrence, flatm_recurrence


class OeisSequence(FrozenRecord):
    id: str
    terms: tuple[tuple[int, int], ...]  # (index, value), indices strictly increasing

    @property
    def first_index(self) -> int:
        return self.terms[0][0]

    @property
    def last_index(self) -> int:
        return self.terms[-1][0]


class GeneratorSpec(FrozenRecord):
    """Local counterpart of one OEIS sequence.

    ``local_term`` maps a b-file index to the locally computed value.
    """

    sequence_id: str
    description: str
    local_term: Callable[[int], int]


GENERATORS: dict[str, GeneratorSpec] = {
    "dowling": GeneratorSpec(
        "A007405",
        "type B partition counts (= flattened doubled words, order shifted by one)",
        lambda i: dowling(i),
    ),
    "flat2": GeneratorSpec(
        "A050488",
        "flattened doubled words with exactly two runs, order i+1",
        lambda i: flat2_recurrence(i + 1),
    ),
    "mstirling3": GeneratorSpec(
        "A355164",
        "flattened 3-fold words of order i",
        lambda i: flatm_recurrence(i, 3),
    ),
    "mstirling4": GeneratorSpec(
        "A355167",
        "flattened 4-fold words of order i",
        lambda i: flatm_recurrence(i, 4),
    ),
}


def parse_bfile(text: str, sequence_id: str = "") -> OeisSequence:
    """Parse b-file text; malformed lines raise BFileFormatError with the line number."""
    terms: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise BFileFormatError(
                f"expected 'index value', found {len(fields)} fields", line_no
            )
        for name, field in zip(("index", "value"), fields):
            if not DECIMAL_RE.fullmatch(field):
                raise BFileFormatError(f"non-integer field in {line!r}", line_no)
            check_digits(field, name, partial(BFileFormatError, line_number=line_no))
        index, value = int(fields[0]), int(fields[1])
        if terms and index <= terms[-1][0]:
            raise BFileFormatError(
                f"index {index} does not increase past {terms[-1][0]}", line_no
            )
        terms.append((index, value))
    if not terms:
        raise BFileFormatError("no data lines found")
    return OeisSequence(sequence_id, tuple(terms))


def read_bfile(path: str, sequence_id: str = "") -> OeisSequence:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise BFileFormatError(f"{path} is not UTF-8 text ({exc.reason})") from None
    return parse_bfile(text, sequence_id)


def bundled_bfile_text(sequence_id: str) -> str:
    """Text of the bundled fixture b-file, e.g. for 'A007405'."""
    name = f"b{sequence_id.lstrip('A')}.txt"
    return (resources.files("flatstir") / "data" / name).read_text(encoding="utf-8")


class SequenceComparison(Record):
    generator: str
    sequence_id: str
    checked: int
    first_index: int
    last_index: int
    first_mismatch: tuple[int, int, int] | None  # (index, bfile value, local value)

    @property
    def passed(self) -> bool:
        return self.first_mismatch is None and self.checked > 0


def compare_sequence(
    sequence: OeisSequence, generator: str, max_terms: int | None = None
) -> SequenceComparison:
    """Compare the b-file terms against the local generator over their overlap,
    which starts at index 0: every generator is defined from there up."""
    spec = GENERATORS[generator]
    terms = [(index, value) for index, value in sequence.terms if index >= 0]
    if not terms:
        raise BFileFormatError("no index of 0 or more (every generator starts at index 0)")
    checked = 0
    first = last = 0
    mismatch = None
    for index, value in terms:
        if max_terms is not None and checked >= max_terms:
            break
        local = spec.local_term(index)
        if not checked:
            first = index
        last = index
        checked += 1
        if local != value:
            mismatch = (index, value, local)
            break
    return SequenceComparison(generator, spec.sequence_id, checked, first, last, mismatch)
