"""Compression metrics: the measurements behind Table 1.

The paper reports compression as the delta's size relative to the version
file ("compressed data, on average, to 15.3% its original size") and
decomposes the cost of in-place reconstructibility into:

* **encoding loss** — the same commands serialized with explicit write
  offsets (the in-place wire format) instead of implicit ones;
* **loss from cycles** — copy commands evicted to adds when breaking
  CRWI cycles, which depends on the cycle-breaking policy.

:func:`measure_pair` performs the full pipeline on one reference/version
pair — difference, encode both formats, convert under each policy,
encode again — and :func:`aggregate` folds the records into the Table 1
columns.  Percentages aggregate as *total delta bytes over total version
bytes*, matching a corpus-level compression figure rather than a mean of
per-file ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..core.commands import DeltaScript
from ..core.convert import ConversionReport, make_in_place
from ..delta import ALGORITHMS
from ..delta.encode import FORMAT_INPLACE, FORMAT_SEQUENTIAL, encoded_size


@dataclass
class PairMeasurement:
    """All sizes and reports for one reference/version pair."""

    name: str
    version_bytes: int
    reference_bytes: int
    #: Conventional delta, implicit write offsets (the paper's baseline).
    sequential_bytes: int
    #: Same commands, in-place codewords with explicit write offsets.
    offsets_bytes: int
    #: Converted delta size per policy name.
    in_place_bytes: Dict[str, int] = field(default_factory=dict)
    #: Conversion report per policy name.
    reports: Dict[str, ConversionReport] = field(default_factory=dict)
    #: Seconds to compute the delta itself (for the runtime-ratio bench).
    diff_seconds: float = 0.0

    def ratio(self, delta_bytes: int) -> float:
        """Compression ratio: delta size relative to the version size."""
        return delta_bytes / self.version_bytes if self.version_bytes else 1.0


def measure_pair(
    name: str,
    reference: bytes,
    version: bytes,
    *,
    algorithm: str = "correcting",
    policies: Sequence[str] = ("constant", "local-min"),
    script: Optional[DeltaScript] = None,
) -> PairMeasurement:
    """Run the full measurement pipeline on one pair.

    Pass ``script`` to reuse an already-computed delta (the benches time
    differencing separately).
    """
    import time

    if script is None:
        started = time.perf_counter()
        script = ALGORITHMS[algorithm](reference, version)
        diff_seconds = time.perf_counter() - started
    else:
        diff_seconds = 0.0

    measurement = PairMeasurement(
        name=name,
        version_bytes=len(version),
        reference_bytes=len(reference),
        sequential_bytes=encoded_size(script, FORMAT_SEQUENTIAL),
        offsets_bytes=encoded_size(script, FORMAT_INPLACE),
        diff_seconds=diff_seconds,
    )
    for policy in policies:
        result = make_in_place(script, reference, policy=policy)
        measurement.in_place_bytes[policy] = encoded_size(result.script, FORMAT_INPLACE)
        measurement.reports[policy] = result.report
    return measurement


@dataclass
class Table1Summary:
    """Aggregated corpus-level compression figures (the Table 1 columns).

    All percentages are of total version bytes, e.g.
    ``compression_sequential = 15.3`` means deltas totalled 15.3% of the
    version data they encode.
    """

    pairs: int
    version_bytes: int
    compression_sequential: float
    compression_offsets: float
    compression_in_place: Dict[str, float]
    encoding_loss: float
    cycle_loss: Dict[str, float]
    total_loss: Dict[str, float]

    def rows(self) -> List[List[str]]:
        """Render-ready rows mirroring the paper's Table 1 layout."""
        policies = sorted(self.compression_in_place)
        header = ["", "Δ no offsets", "Δ offsets"] + [
            "in-place (%s)" % p for p in policies
        ]
        fmt = lambda x: "%.1f%%" % x
        rows = [header]
        rows.append(
            ["Compression", fmt(self.compression_sequential),
             fmt(self.compression_offsets)]
            + [fmt(self.compression_in_place[p]) for p in policies]
        )
        rows.append(
            ["Encoding loss", "", fmt(self.encoding_loss)]
            + [fmt(self.encoding_loss) for _ in policies]
        )
        rows.append(
            ["Loss from cycles", "", ""] + [fmt(self.cycle_loss[p]) for p in policies]
        )
        rows.append(
            ["Total loss", "", fmt(self.encoding_loss)]
            + [fmt(self.total_loss[p]) for p in policies]
        )
        return rows


def aggregate(measurements: Iterable[PairMeasurement]) -> Table1Summary:
    """Fold per-pair measurements into corpus-level Table 1 figures."""
    records = list(measurements)
    if not records:
        raise ValueError("cannot aggregate an empty measurement set")
    version_total = sum(m.version_bytes for m in records)
    seq_total = sum(m.sequential_bytes for m in records)
    offsets_total = sum(m.offsets_bytes for m in records)
    policies = sorted(records[0].in_place_bytes)
    in_place_totals = {
        p: sum(m.in_place_bytes[p] for m in records) for p in policies
    }

    pct = lambda total: 100.0 * total / version_total
    compression_sequential = pct(seq_total)
    compression_offsets = pct(offsets_total)
    compression_in_place = {p: pct(t) for p, t in in_place_totals.items()}
    encoding_loss = compression_offsets - compression_sequential
    cycle_loss = {
        p: compression_in_place[p] - compression_offsets for p in policies
    }
    total_loss = {
        p: compression_in_place[p] - compression_sequential for p in policies
    }
    return Table1Summary(
        pairs=len(records),
        version_bytes=version_total,
        compression_sequential=compression_sequential,
        compression_offsets=compression_offsets,
        compression_in_place=compression_in_place,
        encoding_loss=encoding_loss,
        cycle_loss=cycle_loss,
        total_loss=total_loss,
    )


def compression_factor(measurement: PairMeasurement) -> float:
    """How many times smaller the conventional delta is than the version.

    The paper's "compress ... by a factor of 4 to 10" figure.
    """
    if measurement.sequential_bytes == 0:
        return float("inf")
    return measurement.version_bytes / measurement.sequential_bytes
