"""Independent oracles and seeded inputs for the benchmark.

Nothing here calls into flatstir's enumerators, codecs or formulas: the
expected CLI bytes are rendered from the frozen reference tables, the
word image and run count of a partition are re-encoded from their
definitions, Dowling numbers come from the exponential-generating-function
recurrence rather than the double sum, and run-count distributions come
from a block-statistic recurrence rather than the conjectured formulas.
"""

from __future__ import annotations

import random
from math import comb


# ------------------------------------------------------------ CSV tables


def table1_csv(table1: dict, n_max: int) -> str:
    """Expected ``flatstir table --max-n n_max`` stdout, from a reference table.

    One run-count column per run count that occurs at some n <= n_max.
    """
    k_max = max(k for n in range(1, n_max + 1) for k in table1[n][2])
    lines = ["n,|Q_n|,|flat|," + ",".join(f"k={k}" for k in range(1, k_max + 1))]
    for n in range(1, n_max + 1):
        total, flat, by_runs = table1[n]
        cells = [n, total, flat] + [by_runs.get(k, 0) for k in range(1, k_max + 1)]
        lines.append(",".join(map(str, cells)))
    return "\n".join(lines) + "\n"


def table2_csv(table2: dict, n_max: int, m_max: int) -> str:
    """Expected ``flatstir table --mstirling`` stdout, from a reference table."""
    lines = ["n," + ",".join(f"m={m}" for m in range(2, m_max + 1))]
    for n in range(1, n_max + 1):
        lines.append(",".join(map(str, [n] + [table2[n, m] for m in range(2, m_max + 1)])))
    return "\n".join(lines) + "\n"


def word_count(n: int, m: int) -> int:
    """|Q_n^m|: the block of m copies of v goes into one of (v-1)*m + 1 gaps."""
    count = 1
    for v in range(1, n + 1):
        count *= (v - 1) * m + 1
    return count


# ------------------------------------------------ partitions and words


def partition_text(zero_block, blocks) -> str:
    """Canonical text of a partition given as zero-block and (negatives, positives) pairs."""
    return _blocks_text(_signed_blocks(zero_block, blocks))


def _wrapped(values) -> list[int]:
    ordered = sorted(v + 1 for v in values)
    return [ordered[0]] + [x for v in ordered[1:] for x in (v, v)] + [ordered[0]]


def image_letters(zero_block, blocks) -> tuple[int, ...]:
    """Word image of a canonical partition, re-encoded from the correspondence's definition."""
    letters = _wrapped(zero_block)
    for negatives, positives in blocks:
        letters += [x for v in sorted(negatives) for x in (v + 1, v + 1)]
        letters += _wrapped(positives)
    return tuple(letters)


def run_count(letters) -> int:
    return 1 + sum(1 for a, b in zip(letters, letters[1:]) if a > b)


def is_flat(letters) -> bool:
    lead = prev = letters[0]
    for x in letters[1:]:
        if x < prev:
            if x < lead:
                return False
            lead = x
        prev = x
    return True


# ------------------------------------------------------------- formulas


def dowling_numbers(n_max: int) -> list[int]:
    """D_0..D_n_max from the EGF e^x * exp((e^(2x) - 1) / 2).

    Differentiating gives D_{n+1} = D_n + sum_k C(n, k) 2^k D_{n-k}.
    """
    d = [1]
    for n in range(n_max):
        d.append(d[n] + sum(comb(n, k) * 2**k * d[n - k] for k in range(n + 1)))
    return d


def run_distributions(n_max: int, max_k: int) -> dict[int, dict[int, int]]:
    """n -> {runs: count} for runs <= max_k over flattened doubled words of order n <= n_max.

    Through the correspondence with canonical partitions of [-(n-1), n-1],
    runs = 1 + [zero-block holds more than 0] + sum over the other blocks
    of [block has a negative] + [block has >= 2 positives].  A block of
    size s whose minimum is positive has C(s-1, p-1) sign patterns with p
    positives, so with polynomials in x marking runs,
    B(M) = sum_s C(M-1, s-1) w_s B(M-s) and order n has
    x * sum_i C(n-1, i) x^[i>0] B(n-1-i), truncated at degree max_k.
    """
    size = max_k + 1
    weights = [None]
    for s in range(1, n_max):
        w = [0] * size
        for p in range(1, s + 1):
            degree = (s > p) + (p >= 2)
            if degree < size:
                w[degree] += comb(s - 1, p - 1)
        weights.append(w)
    rows = [[1] + [0] * max_k]
    for big_m in range(1, n_max):
        acc = [0] * size
        for s in range(1, big_m + 1):
            c = comb(big_m - 1, s - 1)
            w, b = weights[s], rows[big_m - s]
            for i in range(size):
                if w[i]:
                    for j in range(size - i):
                        acc[i + j] += c * w[i] * b[j]
        rows.append(acc)
    out = {}
    for n in range(1, n_max + 1):
        t = n - 1
        total = [0] * size
        for i in range(t + 1):
            shift = 1 + (i > 0)
            for d in range(size - shift):
                total[d + shift] += comb(t, i) * rows[t - i][d]
        out[n] = {k: total[k] for k in range(1, size) if total[k]}
    return out


# ------------------------------------------------------ seeded corruption

# kind -> (which text it corrupts, exception class name the program must raise)
MUTATIONS = {
    "swap": ("partition", "NotCanonicalError"),
    "flip_sign": ("partition", "NotCanonicalError"),
    "bad_partition_token": ("partition", "PartitionSyntaxError"),
    "drop_letter": ("word", "NotStirlingError"),
    "bad_word_token": ("word", "WordSyntaxError"),
    "not_flattened": ("word", "NotFlattenedError"),
}

_BAD_PARTITION_TOKENS = ("x", "1.5", "+3", "00", "-0", "2a")
_BAD_WORD_TOKENS = ("0", "x", "-1", "01", "1.0")


def _signed_blocks(zero_block, blocks) -> list[list[int]]:
    return [list(zero_block)] + [[-v for v in ng] + list(ps) for ng, ps in blocks]


def _blocks_text(signed: list[list[int]]) -> str:
    return " | ".join(" ".join(map(str, b)) for b in signed)


def corrupt(kind: str, zero_block, blocks, rng: random.Random) -> str:
    """Text of a corrupted input derived from one canonical partition."""
    signed = _signed_blocks(zero_block, blocks)
    word = list(image_letters(zero_block, blocks))
    if kind == "swap":
        # swapping adjacent entries of a strictly ordered block, or two
        # blocks sorted by minimum, always breaks canonical order
        long_blocks = [b for b in signed if len(b) >= 2]
        if long_blocks:
            block = rng.choice(long_blocks)
            i = rng.randrange(len(block) - 1)
            block[i], block[i + 1] = block[i + 1], block[i]
        else:
            i = rng.randrange(1, len(signed) - 1)
            signed[i], signed[i + 1] = signed[i + 1], signed[i]
        return _blocks_text(signed)
    if kind == "flip_sign":
        spots = [(b, i) for b, block in enumerate(signed) for i, v in enumerate(block) if v]
        b, i = rng.choice(spots)
        signed[b][i] = -signed[b][i]
        return _blocks_text(signed)
    if kind == "bad_partition_token":
        spots = [(b, i) for b, block in enumerate(signed) for i in range(len(block))]
        b, i = rng.choice(spots)
        tokens = [[str(v) for v in block] for block in signed]
        tokens[b][i] = rng.choice(_BAD_PARTITION_TOKENS)
        return " | ".join(" ".join(block) for block in tokens)
    if kind == "drop_letter":
        del word[rng.randrange(len(word))]
        return " ".join(map(str, word))
    if kind == "bad_word_token":
        tokens = [str(v) for v in word]
        tokens[rng.randrange(len(tokens))] = rng.choice(_BAD_WORD_TOKENS)
        return " ".join(tokens)
    if kind == "not_flattened":
        return " ".join(map(str, random_unflattened_word(len(word) // 2, rng)))
    raise ValueError(f"unknown mutation {kind!r}")


def random_unflattened_word(order: int, rng: random.Random) -> list[int]:
    """A doubled Stirling word of the given order (>= 2) that is not flattened.

    Inserting the pair v v into a uniformly chosen gap for v = 1..order
    gives a uniform Stirling word; flattened draws are rejected.
    """
    while True:
        word: list[int] = []
        for v in range(1, order + 1):
            gap = rng.randrange(len(word) + 1)
            word[gap:gap] = [v, v]
        if not is_flat(word):
            return word
