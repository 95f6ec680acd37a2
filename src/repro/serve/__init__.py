"""Network serving plane: the delta daemon and its pull client.

The paper's distribution scenario as a long-running service.  A
:class:`~repro.serve.daemon.DeltaServer` answers "I hold the version
with digest X, bring me up to date" over a CRC-framed TCP protocol
(:mod:`repro.serve.protocol`), encoding IPD2 in-place deltas through a
warm :class:`~repro.pipeline.DeltaPipeline` with request coalescing,
bounded-concurrency backpressure, per-request deadlines, and graceful
drain.  :func:`pull` is the device side: resumable download, full
verify-then-mutate integrity checking, and journaled in-place apply
that rides out power cuts.  :mod:`repro.serve.loadgen` drives fault
storms of concurrent simulated clients and enforces the
zero-silent-failure invariant.

The package exports the device side alone, the client and the frame
protocol, and loads no store, pipeline or daemon code: import the
daemon from :mod:`repro.serve.daemon`, the load generator from
:mod:`repro.serve.loadgen`.
"""

from .client import PullOutcome, PullState, pull, pull_async
from .protocol import (
    ERROR_CODES,
    MAX_PAYLOAD,
    decode_msg,
    encode_frame,
    encode_msg,
    parse_frame,
    read_frame,
    write_frame,
)

__all__ = [
    "ERROR_CODES",
    "MAX_PAYLOAD",
    "PullOutcome",
    "PullState",
    "decode_msg",
    "encode_frame",
    "encode_msg",
    "parse_frame",
    "pull",
    "pull_async",
    "read_frame",
    "write_frame",
]
