"""Differencing algorithms and delta wire formats (the compression substrate)."""

from .builder import ScriptBuilder
from .correcting import correcting_delta
from .encode import (
    ALL_FORMATS,
    FLAG_HAS_REFERENCE,
    FLAG_HAS_VERSION_CRC,
    FLAG_SEGMENT_CRCS,
    FORMAT_INPLACE,
    FORMAT_INPLACE_FIXED,
    FORMAT_SEQUENTIAL,
    FORMAT_SEQUENTIAL_FIXED,
    MAGIC,
    MAGIC_V2,
    WIRE_V1,
    WIRE_V2,
    DeltaHeader,
    decode_delta,
    encode_delta,
    encoded_size,
    version_checksum,
)
from .greedy import greedy_delta
from .onepass import onepass_delta
from .stream import apply_delta_stream, iter_delta_commands, read_header
from .tichy import SuffixAutomaton, tichy_delta
from .rolling import (
    DEFAULT_SEED_LENGTH,
    FullSeedIndex,
    RollingHash,
    SeedTable,
    SparseSeedIndex,
    fast_paths_enabled,
    hash_seed,
    iter_seed_hashes,
    match_length,
    match_length_backward,
    match_length_backward_reference,
    match_length_reference,
    seed_fingerprints,
    seed_fingerprints_reference,
    sparse_index_reference,
    use_fast_paths,
)
from .varint import decode_varint, encode_varint, varint_size

#: Registry of differencing algorithms by name, used by benches and the CLI.
ALGORITHMS = {
    "greedy": greedy_delta,
    "onepass": onepass_delta,
    "correcting": correcting_delta,
    "tichy": tichy_delta,
}

__all__ = [
    "ALGORITHMS",
    "ALL_FORMATS",
    "FLAG_HAS_REFERENCE",
    "FLAG_HAS_VERSION_CRC",
    "FLAG_SEGMENT_CRCS",
    "MAGIC",
    "MAGIC_V2",
    "WIRE_V1",
    "WIRE_V2",
    "apply_delta_stream",
    "iter_delta_commands",
    "read_header",
    "DEFAULT_SEED_LENGTH",
    "DeltaHeader",
    "FORMAT_INPLACE",
    "FORMAT_INPLACE_FIXED",
    "FORMAT_SEQUENTIAL",
    "FORMAT_SEQUENTIAL_FIXED",
    "FullSeedIndex",
    "RollingHash",
    "ScriptBuilder",
    "SeedTable",
    "SparseSeedIndex",
    "SuffixAutomaton",
    "correcting_delta",
    "decode_delta",
    "decode_varint",
    "encode_delta",
    "encode_varint",
    "encoded_size",
    "greedy_delta",
    "fast_paths_enabled",
    "hash_seed",
    "iter_seed_hashes",
    "match_length",
    "match_length_backward",
    "match_length_backward_reference",
    "match_length_reference",
    "onepass_delta",
    "seed_fingerprints",
    "seed_fingerprints_reference",
    "sparse_index_reference",
    "use_fast_paths",
    "tichy_delta",
    "varint_size",
    "version_checksum",
]
