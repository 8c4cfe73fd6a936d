"""Canonical type B partitions: validation, expansion, generation, text grammar."""

from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from flatstir.errors import PartitionSyntaxError, NotCanonicalError, NotTypeBError
from flatstir.formulas import dowling
from flatstir.reference import PAIRS_ORDER4
from flatstir.typeb import (
    SignedBlock,
    TypeBPartition,
    block_pair_count,
    canonicalize,
    expand,
    format_partition,
    generate_typeb,
    parse_partition,
    validate_canonical,
)

B1 = [{-4, 3}, {1, -2, 0, -1, 2}, {-3, 4}]
B2 = [{3, -4, 2}, {1}, {-1}, {-2, 4, -3}, {0}]
B10 = [
    {0},
    {1},
    {-1},
    {2, 7, -8},
    {-2, -7, 8},
    {3, 5, 6, -9, -10},
    {-3, -5, -6, 9, 10},
    {4},
    {-4},
]


class TestValidation:
    def test_valid_example(self):
        ok, diags = validate_canonical(parse_partition("0 1 2 | -4 3"))
        assert ok and not diags

    def test_negatives_only_block(self):
        with pytest.raises(NotCanonicalError) as err:
            TypeBPartition(4, (0, 1, 2), (SignedBlock((3, 4), ()),))
        assert "empty-positives" in {d.code for d in err.value.diagnostics}

    def test_block_order_violation(self):
        # reordering of the 10-element example's blocks must be rejected
        with pytest.raises(NotCanonicalError) as err:
            TypeBPartition(
                8,
                (0,),
                (
                    SignedBlock((8,), (2, 7)),
                    SignedBlock((), (1,)),
                    SignedBlock((), (3, 4, 5, 6)),
                ),
            )
        assert "block-order" in {d.code for d in err.value.diagnostics}

    # one candidate (n, zero-block, blocks) per documented diagnostic code
    DOCUMENTED = {
        "zero-block-missing-zero": (1, (1,), (SignedBlock((), (0,)),)),
        "zero-block-negative": (1, (0, -1), ()),
        "zero-block-order": (2, (0, 2, 1), ()),
        "bad-magnitude": (1, (0,), (SignedBlock((), (0, 1)),)),
        "empty-positives": (1, (0,), (SignedBlock((1,), ()),)),
        "intra-block-order": (2, (0,), (SignedBlock((), (2, 1)),)),
        "negative-min-rule": (2, (0,), (SignedBlock((1,), (2,)),)),
        "block-order": (2, (0,), (SignedBlock((), (2,)), SignedBlock((), (1,)))),
        "duplicate-value": (1, (0, 1), (SignedBlock((), (1,)),)),
        "coverage-gap": (2, (0,), (SignedBlock((), (2,)),)),
    }

    def test_each_documented_class(self):
        for code, (n, zero_block, blocks) in self.DOCUMENTED.items():
            candidate = SimpleNamespace(n=n, zero_block=zero_block, blocks=blocks)
            ok, diags = validate_canonical(candidate)
            assert not ok, code
            assert code in {d.code for d in diags}, code

    @pytest.mark.parametrize("code", sorted(DOCUMENTED))
    def test_building_raises_the_diagnostics_of_each_documented_class(self, code):
        n, zero_block, blocks = self.DOCUMENTED[code]
        _, diags = validate_canonical(SimpleNamespace(n=n, zero_block=zero_block, blocks=blocks))
        with pytest.raises(NotCanonicalError) as err:
            TypeBPartition(n, zero_block, blocks)
        assert err.value.diagnostics == diags
        assert code in {d.code for d in diags}


class TestExpandAndCanonicalize:
    def test_canonicalize_pinned(self):
        assert format_partition(canonicalize(B1)) == "0 1 2 | -4 3"
        assert format_partition(canonicalize(B2)) == "0 | 1 | -4 2 3"
        assert format_partition(canonicalize(B10)) == "0 | 1 | -8 2 7 | -9 -10 3 5 6 | 4"
        assert format_partition(canonicalize([{0}])) == "0"

    def test_expand_pinned(self):
        fam = expand(parse_partition("0 1 2 | -4 3"))
        assert set(fam) == {
            frozenset({-2, -1, 0, 1, 2}),
            frozenset({-4, 3}),
            frozenset({4, -3}),
        }
        assert expand(parse_partition("0")) == [frozenset({0})]
        fam = expand(parse_partition("0 | 1 | -4 2 3"))
        assert set(fam) == {
            frozenset({0}),
            frozenset({1}),
            frozenset({-1}),
            frozenset({-4, 2, 3}),
            frozenset({4, -2, -3}),
        }

    def test_expand_rejects_non_canonical(self):
        with pytest.raises(NotCanonicalError):
            expand(TypeBPartition(1, (0,), (SignedBlock((1,), ()),)))

    def test_round_trip_exhaustive(self):
        for n in range(0, 6):
            for part in generate_typeb(n):
                assert canonicalize(expand(part)) == part

    def test_type_b_condition_errors(self):
        with pytest.raises(NotTypeBError, match="condition 2"):
            canonicalize([{0, 1}, {1, -1}, {-1}])
        with pytest.raises(NotTypeBError, match="condition 3"):
            canonicalize([{0}, {2}, {-2}])
        with pytest.raises(NotTypeBError, match="condition 4"):
            canonicalize([{0, 1, -1}, {2, -2}, {3}, {-3, 4}, {-4}])
        with pytest.raises(NotTypeBError, match="condition 5"):
            canonicalize([{0}, {1, -1}, {2, -2}])
        with pytest.raises(NotTypeBError, match="condition 1"):
            canonicalize([{0}, set()])


class TestGeneration:
    def test_counts_match_formula(self):
        for n in range(0, 7):
            assert sum(1 for _ in generate_typeb(n)) == dowling(n)

    def test_trivial_cases(self):
        assert [format_partition(p) for p in generate_typeb(0)] == ["0"]

    def test_node_set_order4(self):
        assert {format_partition(p) for p in generate_typeb(3)} == {p for p, _ in PAIRS_ORDER4}

    def test_all_generated_are_canonical(self):
        for n in range(0, 5):
            for part in generate_typeb(n):
                ok, diags = validate_canonical(part)
                assert ok, (format_partition(part), diags)

    def test_deterministic(self):
        assert [format_partition(p) for p in generate_typeb(4)] == [
            format_partition(p) for p in generate_typeb(4)
        ]

    def test_magnitude_coverage(self):
        for part in generate_typeb(4):
            mags = sorted(part.zero_block) + sorted(
                v for b in part.blocks for v in b.magnitudes
            )
            assert sorted(mags) == list(range(5))

    def test_oracle_full_family_enumeration(self):
        # independent route: enumerate every set partition of [-n, n] and keep
        # the type B ones, canonicalize, compare as sets
        from test_formulas import brute_set_partitions

        for n in (1, 2, 3):
            seen = set()
            for fam in brute_set_partitions(range(-n, n + 1)):
                blocks = [frozenset(b) for b in fam]
                block_set = set(blocks)
                if any(frozenset(-v for v in b) not in block_set for b in blocks):
                    continue
                if sum(1 for b in blocks if b == frozenset(-v for v in b)) != 1:
                    continue
                seen.add(format_partition(canonicalize(blocks)))
            assert seen == {format_partition(p) for p in generate_typeb(n)}


class TestPartitionText:
    def test_parse_pinned(self):
        part = parse_partition("0 | 1 | -8 2 7 | -9 -10 3 5 6 | 4")
        assert part.n == 10
        assert part.zero_block == (0,)
        assert part.blocks[2] == SignedBlock((9, 10), (3, 5, 6))
        assert block_pair_count(part) == 4

    def test_block_pair_count_pinned(self):
        assert block_pair_count(canonicalize(B1)) == 1
        assert block_pair_count(canonicalize(B2)) == 2
        assert block_pair_count(parse_partition("0")) == 0

    def test_round_trip_exhaustive(self):
        for n in range(0, 6):
            for part in generate_typeb(n):
                assert parse_partition(format_partition(part)) == part

    def test_whitespace_flexible_on_input(self):
        assert parse_partition("0 1 2|-4 3") == parse_partition("0 1 2  |  -4 3")

    def test_canonical_violation_is_distinct_from_syntax(self):
        with pytest.raises(NotCanonicalError) as err:
            parse_partition("0 | 2 -1")
        assert {d.code for d in err.value.diagnostics} >= {"intra-block-order"}

    @pytest.mark.parametrize(
        "bad", ["", "0 | | 1", "0 | 1a", "0 | -0", "0 | 007", "| 0", "0 |"]
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(PartitionSyntaxError):
            parse_partition(bad)


@st.composite
def random_canonical_partitions(draw):
    """Canonical partitions built directly: support, growth string, signs."""
    n = draw(st.integers(min_value=0, max_value=8))
    values = list(range(1, n + 1))
    support = sorted(draw(st.sets(st.sampled_from(values)))) if values else []
    rest = [v for v in values if v not in support]
    labels = []
    mx = -1
    for _ in rest:
        lab = draw(st.integers(min_value=0, max_value=mx + 1))
        labels.append(lab)
        mx = max(mx, lab)
    members: dict[int, list[int]] = {}
    for v, lab in zip(rest, labels):
        members.setdefault(lab, []).append(v)
    blocks = []
    for lab in sorted(members, key=lambda lb: members[lb][0]):
        block = members[lab]
        negs = sorted(v for v in block[1:] if draw(st.booleans()))
        poss = [v for v in block if v not in negs]
        blocks.append(SignedBlock(tuple(negs), tuple(poss)))
    blocks.sort(key=lambda b: b.positives[0])
    return TypeBPartition(n, (0, *support), tuple(blocks))


@given(random_canonical_partitions())
def test_random_canonical_round_trips(part):
    ok, diags = validate_canonical(part)
    assert ok, diags
    assert parse_partition(format_partition(part)) == part
    assert canonicalize(expand(part)) == part
