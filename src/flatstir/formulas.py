"""Exact closed-form and recursive counting formulas.

All counts are plain Python ints (arbitrary precision), and every
function here is integer arithmetic: the m-fold series, the one formula
stated over the reals, is summed exactly by Dobinski's formula.  The
binomial sums (``flat3_conjecture``, ``run_distributions`` and the
m-fold recurrence) take each term's binomial coefficient, and power,
from the term before it: C(t, k) = C(t, k-1) * (t-k+1) / k, an exact
integer division.

``dowling`` and ``flatm_series`` are row sums of one triangle per m,
T(p+1, k) = (mk + m - 1) * T(p, k) + T(p, k-1) with T(0, 0) = 1: the
Whitney numbers of the Dowling lattice at m = 2, the r-Whitney numbers
with r = m - 1 in general (proofs in their docstrings).  Per m the
module keeps the triangle's row sums so far and its last row, and the
recurrence column b of ``flatm_counts``: O(n) integers each, living for
the whole process, so a sweep over n does each step once.
"""

import threading
from math import prod

_extending = threading.Lock()  # one caller at a time extends a column; reads need no lock
_triangles: dict[int, tuple[list[int], list[int]]] = {}  # m -> ([sum_k T(p, k), p <= a], T(a, .))
_recurrence: dict[int, list[int]] = {}  # m -> [b(0), b(1), ...] of ``flatm_counts``


def double_factorial(n: int) -> int:
    """(2n-1)!! = 1*3*5*...*(2n-1), the number of doubled Stirling words of order n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return prod(range(1, 2 * n, 2))


def stirling2(a: int, b: int) -> int:
    """Stirling number of the second kind: partitions of an a-set into b nonempty blocks.

    Convention: S(0, 0) = 1 (the empty partition) and S(a, 0) = 0 for a >= 1.
    Row a of the triangle of m = 1: there r = 0, and
    T(p+1, k) = k * T(p, k) + T(p, k-1) is the recurrence for S(p, k).
    """
    if a < 0 or b < 0:
        raise ValueError("arguments must be nonnegative")
    if b > a:
        return 0
    row = [1]
    for _ in range(a):
        row = _triangle_row(row, 1)
    return row[b]


def _triangle_row(row: list[int], m: int) -> list[int]:
    """Row p + 1 of the triangle of m from row p = [T(p, 0), ..., T(p, p)]."""
    r = m - 1
    return [r * row[0]] + [(m * k + r) * row[k] + row[k - 1] for k in range(1, len(row))] + [1]


def _row_sum(p: int, m: int) -> int:
    """sum_k T(p, k) of the triangle of m, from its process-wide row sums.

    Each call resumes from the last row stored, so every row is built once per m.
    """
    with _extending:
        sums, row = _triangles.setdefault(m, ([1], [1]))
        del sums[len(row):]  # a sum whose row an interrupted call did not store
        for _ in range(len(row), p + 1):
            row = _triangle_row(row, m)
            sums.append(sum(row))
            _triangles[m] = sums, row
        return sums[p]


def dowling(n: int) -> int:
    """Number of type B set partitions of [-n, n]: row sum n of the triangle at m = 2.

    Proof.  Let T(p, k) count the type B partitions of [-p, p] with k
    pairs {B, -B} of nonzero blocks, so T(0, 0) = 1.  Removing magnitude
    p + 1 from a partition of [-(p+1), p+1] leaves one of [-p, p], and
    p + 1 sat in the zero-block (1 way), in one of the k pairs with either
    sign (2k ways), or in a new pair {p+1}, {-(p+1)} (k - 1 pairs remain).
    Each step reverses, so T(p+1, k) = (2k + 1) * T(p, k) + T(p, k-1): the
    triangle of m = 2, whose row n sums to the count.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _row_sum(n, 2)


def flat2_recurrence(n: int) -> int:
    """Count of flattened doubled Stirling words of order n with exactly two runs.

    Evaluates a(k+1) = 2*a(k) + 2k - 1 with a(1) = 0.
    """
    if n < 1:
        raise ValueError("n must be positive")
    a = 0
    for k in range(1, n):
        a = 2 * a + 2 * k - 1
    return a


def flat2_closed(n: int) -> int:
    """Closed form 3*(2^n - 1) - 2n for the two-run count at order n+1.

    Equals ``flat2_recurrence(n + 1)`` for every n >= 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return 3 * (2**n - 1) - 2 * n


def max_runs(n: int) -> int:
    """Maximum run count attainable by a flattened doubled word of order n: ceil(2n/3)."""
    if n < 1:
        raise ValueError("n must be positive")
    return -(-2 * n // 3)


def flat3_conjecture(n: int) -> int:
    """Conjectured count of flattened doubled words of order n with exactly three runs.

    With t = n - 1 and g(s) = sum_{j=2}^{s} C(s, j) = 2^s - s - 1, the
    count is 2 * sum_{k=1}^{t} C(t, k) g(t-k) + 2 * sum_{k=2}^{t} C(t, k) g(t-k)
    + sum_{k=3}^{t} (2^(k-1) - 2) C(t, k).  Both of the first two sums
    carry the factor 2 (with the factor on the first sum only, the value
    at n = 5 comes out 64 instead of the verified 70).  The sums are
    unchanged; one walk over k evaluates all three, C(t, k) from C(t, k-1)
    and the powers of 2 as shifts, and the first two share their term.
    """
    if n < 1:
        raise ValueError("n must be positive")
    t = n - 1
    first = second = third = 0
    ways = 1  # C(t, k)
    for k in range(1, t + 1):
        ways = ways * (t - k + 1) // k
        term = ways * ((1 << (t - k)) - (t - k) - 1)
        first += term
        if k >= 2:
            second += term
        if k >= 3:
            third += ((1 << (k - 1)) - 2) * ways
    return 2 * first + 2 * second + third


def run_distributions(n_max: int) -> dict[int, dict[int, int]]:
    """Flattened doubled words of each order n <= n_max by run count k, nonzero counts only.

    The run count is a block statistic of the type B partition of
    [-(n-1), n-1] (``run_count_from_partition``).  A block of s magnitudes
    has C(s-1, p-1) sign patterns with p positives, so its run polynomial
    is w_1 = 1, w_s = 2x + (2^(s-1) - 2)x^2; by the exponential formula
    (Flajolet & Sedgewick, *Analytic Combinatorics* II.2) the blocks on M
    magnitudes sum to B(M) = sum_s C(M-1, s-1) w_s B(M-s), and the
    zero-block adds sum_i C(n-1, i) x^(1 + [i > 0]) B(n-1-i).  The table
    B(0..n_max-1) is built once and serves every order.  The sums are
    unchanged; each binomial comes from the one before it, each block
    size's two weights are multiplied by it once, and the zero constant
    term of w_s (s >= 2) is skipped.
    """
    if n_max < 1:
        raise ValueError("n must be positive")
    blocks = [[1]]  # blocks[M][d]: partitions of M magnitudes whose blocks add d runs
    for big_m in range(1, n_max):
        acc = blocks[big_m - 1] + [0]  # s = 1: a singleton adds no run
        ways = big_m - 1  # C(M-1, s-1) at s = 2
        for s in range(2, big_m + 1):
            one, two = 2 * ways, ((1 << (s - 1)) - 2) * ways
            for d, count in enumerate(blocks[big_m - s]):
                acc[d + 1] += one * count
                acc[d + 2] += two * count
            ways = ways * (big_m - s) // s
        blocks.append(acc)
    rows = {}
    for t in range(n_max):
        total = [0] + blocks[t] + [0]  # i = 0: the zero-block {0} adds one run
        ways = t  # C(t, i) at i = 1
        for i in range(1, t + 1):
            for d, count in enumerate(blocks[t - i], 2):
                total[d] += ways * count
            ways = ways * (t - i) // (i + 1)
        rows[t + 1] = {k: count for k, count in enumerate(total) if count}
    return rows


def run_distribution(n: int) -> dict[int, int]:
    """The run distribution of order n alone: the last row of ``run_distributions(n)``."""
    return run_distributions(n)[n]


def mstirling_count(n: int, m: int) -> int:
    """|Q_n^m| = prod_{i=0}^{n-1} (i*m + 1); reduces to (2n-1)!! at m = 2."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if m < 1:
        raise ValueError("m must be positive")
    return prod(i * m + 1 for i in range(n))


def flatm_counts(n_max: int, m: int) -> list[int]:
    """Counts of flattened m-Stirling words of orders 0..n_max, via the conjectured recurrence.

    The recurrence b(j) = (m-1)*b(j-1) + sum_{k=1}^{j} C(j-1,k-1) * m^(k-1) * b(j-k),
    b(0) = 1, produces the count for order j+1 (reading b(j) as the
    order-j count would give m at order 1 instead of the correct 1), so
    the count for order n >= 1 is b(n-1); the empty word gives 1 at
    n = 0.  At m = 2 this reproduces ``dowling(n - 1)``.  The sum is
    unchanged; its factor t_k = C(j-1, k-1) * m^(k-1) comes from the one
    before, t_(k+1) = t_k * m * (j-k) / k.  The column b
    lives for the whole process (module docstring) and each call only
    extends it, so every term is computed once per m; the list returned
    is a fresh copy.
    """
    return [1] + _recurrence_column(n_max, m)[:n_max]


def _recurrence_column(n_max: int, m: int) -> list[int]:
    """The process-wide column [b(0), b(1), ...] of ``flatm_counts``, extended to n_max terms."""
    if n_max < 0:
        raise ValueError("n must be nonnegative")
    if m < 2:
        raise ValueError("m must be at least 2")
    with _extending:
        b = _recurrence.setdefault(m, [1])
        for j in range(len(b), n_max):
            total = (m - 1) * b[j - 1]
            term = 1  # C(j-1, k-1) * m^(k-1) at k = 1
            for k in range(1, j + 1):
                total += term * b[j - k]
                term = term * (j - k) // k * m
            b.append(total)
    return b


def flatm_recurrence(n: int, m: int) -> int:
    """Count of flattened m-Stirling words of order n: the last term of ``flatm_counts(n, m)``."""
    b = _recurrence_column(n, m)
    return b[n - 1] if n else 1


def flatm_series(n: int, m: int) -> int:
    """Count of flattened m-Stirling words of order n, via the conjectured series.

    The series e^(-1/m) * sum_{k>=0} (mk + r)^p / (k! * m^k), with r = m - 1
    and p = n - 1 (p = 0 at n = 0), is row sum p of the triangle of m.

    Proof.  Dobinski: expanding (mk + r)^p binomially and using
    sum_k k^j x^k / k! = e^x * sum_i S(j, i) x^i at x = 1/m cancels the
    exponential and leaves sum_j C(p, j) * r^(p-j) * sum_i S(j, i) * m^(j-i).
    Swapping the sums gives sum_k T(p, k) with Mezo's explicit form
    T(p, k) = sum_j C(p, j) * r^(p-j) * m^(j-k) * S(j, k), whose exponential
    generating function in p, the product of e^(rz) and
    sum_j S(j, k) (mz)^j / (j! m^k), is F_k = e^(rz) * (e^(mz) - 1)^k / (m^k k!).
    With e^(mz) = (e^(mz) - 1) + 1, F_k' = (mk + r) * F_k + F_(k-1); read at
    z^p / p! that is T(p+1, k) = (mk + r) * T(p, k) + T(p, k-1), and F_k(0)
    gives T(0, k) = [k = 0]: the triangle of m.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if m < 2:
        raise ValueError("m must be at least 2")
    p = n - 1 if n >= 1 else 0
    return _row_sum(p, m)
