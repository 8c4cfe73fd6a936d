"""The value types: exact repr, equality, hashing, immutability, copying and start-up cost.

They are slotted ``Record`` classes (``errors.py``); these tests pin the
behaviour they share with the dataclasses they replaced.
"""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from flatstir.errors import NotCanonicalError, NotStirlingError
from flatstir.oeis import GENERATORS, OeisSequence, compare_sequence
from flatstir.tables import CountTable, flat_k_table
from flatstir.typeb import Diagnostic, SignedBlock, TypeBPartition, parse_partition
from flatstir.verify import CaseResult, VerificationReport
from flatstir.words import StirlingStats, StirlingWord, count_stirling_stats, run_decomposition

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _report():
    report = VerificationReport("demo")
    report.add("one", 1, 1)
    return report


def _frozen():
    sequence = OeisSequence("A007405", ((0, 1), (1, 2)))
    word = StirlingWord((1, 2, 2, 1))
    return [
        SignedBlock((4,), (3,)),
        parse_partition("0 1 2 | -4 3"),
        Diagnostic("block-order", "blocks must be sorted by minimal positive element"),
        word,
        run_decomposition(word),
        sequence,
        GENERATORS["dowling"],
    ]


def _mutable():
    sequence = OeisSequence("A007405", ((0, 1), (1, 2)))
    return [
        count_stirling_stats(3),
        flat_k_table(2, mode="formula"),
        _report(),
        CaseResult("one", "1", "2"),
        compare_sequence(sequence, "dowling"),
    ]


@pytest.mark.parametrize(
    "value, text",
    [
        (SignedBlock((4,), (3,)), "SignedBlock(negatives=(4,), positives=(3,))"),
        (
            parse_partition("0 1 2 | -4 3"),
            "TypeBPartition(n=4, zero_block=(0, 1, 2), "
            "blocks=(SignedBlock(negatives=(4,), positives=(3,)),))",
        ),
        (Diagnostic("block-order", "x"), "Diagnostic(code='block-order', message='x')"),
        (StirlingWord((1, 2, 2, 1)), "StirlingWord(letters=(1, 2, 2, 1), multiplicity=2)"),
        (
            count_stirling_stats(3),
            "StirlingStats(order=3, multiplicity=2, total=15, flat_total=6, "
            "flat_by_runs={2: 5, 1: 1}, visited=14)",
        ),
        (
            _report(),
            "VerificationReport(suite='demo', cases=[CaseResult(description='one', "
            "expected='1', actual='1')], elapsed_seconds=0.0, budget_hit=False)",
        ),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, str) else "",
)
def test_repr_text_is_pinned(value, text):
    assert repr(value) == text


def test_fields_are_positional_or_keyword_with_their_defaults():
    assert StirlingWord(letters=[1, 1]) == StirlingWord((1, 1), 2)
    assert Diagnostic(code="c", message="m") == Diagnostic("c", message="m")
    assert Diagnostic("c", message="m") == Diagnostic("c", "m")
    assert StirlingStats(order=2, multiplicity=3) == StirlingStats(2, 3, 0, 0, {}, 0)
    assert VerificationReport("s") == VerificationReport("s", [], 0.0, False)
    assert CountTable().entries == {} and CountTable().entries is not CountTable().entries
    for bad in [("c",), ("c", "m", "x")]:
        with pytest.raises(TypeError, match="code, message"):
            Diagnostic(*bad)
    for kwargs in [{"code": "c", "message": "m"}, {"message": "m", "other": 1}]:
        with pytest.raises(TypeError, match="code, message"):
            Diagnostic("c", **kwargs)


def test_a_frozen_value_hashes_as_its_field_tuple():
    for p in [parse_partition("0 1 2 | -4 3"), parse_partition("0 | 1 | -3 2")]:
        assert hash(p) == hash((p.n, p.zero_block, p.blocks))
    word = StirlingWord((1, 2, 2, 1))
    assert hash(word) == hash((word.letters, word.multiplicity))
    block = SignedBlock((4,), (3,))
    assert hash(block) == hash((block.negatives, block.positives))


def test_equal_fields_in_another_class_are_not_equal():
    class OtherBlock(SignedBlock):
        pass

    block, other = SignedBlock((4,), (3,)), OtherBlock((4,), (3,))
    assert block.__eq__(other) is NotImplemented
    assert block != other and other != block
    assert block != ((4,), (3,)) and Diagnostic("a", "b") != CaseResult("a", "b", "b")
    assert repr(other).endswith(".OtherBlock(negatives=(4,), positives=(3,))")


@pytest.mark.parametrize("value", _frozen(), ids=lambda v: type(v).__name__)
def test_a_frozen_value_refuses_assignment_and_deletion(value):
    before = repr(value)
    for name in type(value)._fields:
        with pytest.raises(AttributeError, match=name):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=name):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", _mutable(), ids=lambda v: type(v).__name__)
def test_a_mutable_value_takes_assignment_and_is_unhashable(value):
    name = type(value)._fields[0]
    setattr(value, name, "changed")
    assert getattr(value, name) == "changed"
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize(
    "value", [v for v in _frozen() + _mutable() if type(v).__name__ != "GeneratorSpec"],
    ids=lambda v: type(v).__name__,
)
def test_pickle_and_deepcopy_keep_value_hash_and_repr(value):
    """``GeneratorSpec`` holds lambdas, which do not pickle."""
    copies = [pickle.loads(pickle.dumps(value, proto)) for proto in (0, pickle.HIGHEST_PROTOCOL)]
    for twin in copies + [copy.deepcopy(value), copy.copy(value)]:
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
        if type(value).__hash__ is not None:
            assert hash(twin) == hash(value)


def test_an_unpickled_partition_or_word_is_validated_again():
    bad_partition = TypeBPartition._trusted(2, (0,), (SignedBlock((1,), (2,)),))
    with pytest.raises(NotCanonicalError, match="min negative magnitude 1"):
        pickle.loads(pickle.dumps(bad_partition))
    bad_word = StirlingWord._trusted((2, 1, 1, 2), 2)
    with pytest.raises(NotStirlingError):
        copy.deepcopy(bad_word)


def test_start_up_does_not_import_dataclasses():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, flatstir.cli; assert 'dataclasses' not in sys.modules, 'dataclasses'"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
