"""Exact enumeration, validation and mapping of flattened (m-)Stirling
permutations and type B set partitions, with a verification CLI."""

from .bijection import (
    generate_flattened_from_partitions,
    max_runs_witness,
    min_wrapped,
    partition_to_word,
    run_count_from_partition,
    shift_magnitudes,
    twice_each,
    word_to_partition,
)
from .errors import (
    PartitionSyntaxError,
    BFileFormatError,
    BudgetExceededError,
    CacheCoherenceError,
    DomainError,
    FlatstirError,
    NotCanonicalError,
    NotFlattenedError,
    NotStirlingError,
    NotTypeBError,
    SyntaxFormatError,
    TableFormatError,
    WordSyntaxError,
)
from .formulas import (
    double_factorial,
    dowling,
    flat2_closed,
    flat2_recurrence,
    flat3_conjecture,
    flatm_counts,
    flatm_recurrence,
    flatm_series,
    max_runs,
    mstirling_count,
    run_distribution,
    run_distributions,
    stirling2,
)
from .tables import (
    CountTable,
    flat_k_table,
    mstirling_table,
    table1_csv,
    table2_csv,
    table_from_json,
    table_to_json,
)
from .typeb import (
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
from .words import (
    DEFAULT_BUDGET,
    RunDecomposition,
    StirlingWord,
    count_stirling_stats,
    descent_count,
    format_word,
    generate_flattened_filter,
    generate_stirling,
    is_flattened,
    is_stirling,
    parse_word,
    run_decomposition,
)

__version__ = "0.1.0"
