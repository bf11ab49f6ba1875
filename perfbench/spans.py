"""Span tracing installed from outside the package.

The tracer replaces public functions with wrappers that record one span
per call: id, parent id, operation id, name, start and end (monotonic
nanoseconds, comparable across processes on one host), whether it
returned, and an optional note computed from the arguments and result.
Modules import names by value (`from .crypto import seal_record`), so a
name is wrapped in the module where its caller looks it up.

Spans stay in memory and are written out as JSON lines when the run
ends. A span's self time is its duration minus the time covered by its
child spans; children run on the parent's thread, so they never overlap.
"""

from __future__ import annotations

import bisect
import inspect
import itertools
import json
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

from .common import Metric, quantile

Span = tuple  # (sid, parent, op, name, t0_ns, t1_ns, ok, note)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ops: list[tuple[int, str, int, int]] = []  # (op id, kind, t0_ns, t1_ns)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def op(self, kind: str):
        """Group the spans of one benchmark operation under one id."""
        op = next(self._ids)
        self._local.op = op
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            self.ops.append((op, kind, t0, perf_counter_ns()))
            self._local.op = 0

    def wrap(self, owner: object, attr: str, name: str, note=None) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrapper(raw.__func__, name, note))
        else:
            wrapped = self._wrapper(raw, name, note)
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, raw))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def _wrapper(self, fn, name: str, note):
        local, spans, ids = self._local, self.spans, self._ids

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            if stack:
                parent, op = stack[-1]
            else:
                # outside a benchmark operation (the server), a root span is its own operation
                parent, op = 0, (getattr(local, "op", 0) or sid)
            stack.append((sid, op))
            ok = False
            result = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                extra = note(args, result) if note is not None and ok else None
                spans.append((sid, parent, op, name, t0, t1, ok, extra))

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: Path) -> None:
        """Write the spans out, one JSON list per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path: Path) -> list[Span]:
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh]


# --- what each process wraps ---------------------------------------------------

def _search_note(args, result):
    return {"card": sum(result.buffer_cardinalities), "matches": len(result.matches)}


def _remove_note(args, result):
    store, req = args[0], args[1]
    if req.replacement is not None:
        return {"kind": "replace"}
    return {"kind": "withdraw" if req.handle not in store.table else "remove"}


def _sent_note(args, result):
    return {"bytes": 9 + len(args[2])}


def _received_note(args, result):
    return {"bytes": 9 + len(result[1])}


def install_client(tracer: Tracer) -> None:
    """Client-side layers of the loopback load generator."""
    from sbfsearch import crypto, filters, index, net

    for attr in ("register_user", "build_user_index", "keyword_positions", "build_removal_request"):
        tracer.wrap(index, attr, f"index.{attr}")
    tracer.wrap(index, "seal_record", "crypto.seal_record")
    tracer.wrap(crypto, "open_record", "crypto.open_record")
    tracer.wrap(filters.BitFilter, "compress", "filters.BitFilter.compress")
    tracer.wrap(net, "client_handshake", "net.client_handshake")
    tracer.wrap(net, "send_frame", "net.send_frame", _sent_note)
    tracer.wrap(net, "recv_frame", "net.recv_frame", _received_note)
    for attr in ("upload", "search_location", "search_conjunctive", "remove"):
        tracer.wrap(net.NetClient, attr, f"net.NetClient.{attr}")


def install_store(tracer: Tracer) -> None:
    """Server-side layers: the store and the filter codec it calls."""
    from sbfsearch import filters, net, store

    cls = store.StorageBloomFilter
    tracer.wrap(cls, "ingest", "store.ingest")
    tracer.wrap(cls, "search_positions", "store.search_positions", _search_note)
    tracer.wrap(cls, "search_filter", "store.search_filter")
    tracer.wrap(cls, "remove", "store.remove", _remove_note)
    tracer.wrap(cls, "save", "store.save")
    tracer.wrap(cls, "load", "store.load")
    tracer.wrap(filters.BitFilter, "decompress", "filters.BitFilter.decompress")
    tracer.wrap(net, "server_handshake", "net.server_handshake")


def install_sim(tracer: Tracer) -> None:
    from sbfsearch import kernels, sim

    tracer.wrap(sim, "overlap_estimate", "sim.overlap_estimate")
    tracer.wrap(sim, "max_occupancies", "sim.max_occupancies")
    tracer.wrap(kernels, "cover_hits", "kernels.cover_hits")
    tracer.wrap(kernels, "max_occupancy", "kernels.max_occupancy")


# --- per-layer metrics ---------------------------------------------------------

# (name, unit, better); every workload reports every one, 0 where it bypasses the layer
PER_LAYER = [
    ("crypto.open_record.ms", "ms", "lower"),
    ("crypto.opens_per_search", "count", "lower"),
    ("crypto.seal_record.ms", "ms", "lower"),
    ("crypto.prf_calls_per_upload", "count", "lower"),
    ("index.register_user.ms", "ms", "lower"),
    ("index.build_user_index.ms", "ms", "lower"),
    ("index.keyword_positions.ms", "ms", "lower"),
    ("index.build_removal_request.ms", "ms", "lower"),
    ("filters.BitFilter.compress.ms", "ms", "lower"),
    ("filters.BitFilter.decompress.ms", "ms", "lower"),
    ("net.handshake.ms", "ms", "lower"),
    ("net.round_trip.upload.ms", "ms", "lower"),
    ("net.round_trip.search_loc.ms", "ms", "lower"),
    ("net.round_trip.search_bf.ms", "ms", "lower"),
    ("net.round_trip.remove.ms", "ms", "lower"),
    ("net.bytes_per_op", "count", "lower"),
    ("store.ingest.us", "us", "lower"),
    ("store.search.us", "us", "lower"),
    ("store.remove.us", "us", "lower"),
    ("store.withdraw.us", "us", "lower"),
    ("store.save.s", "s", "lower"),
    ("store.load.s", "s", "lower"),
    ("store.entries_examined_per_match", "count", "lower"),
    ("store.max_occupancy_over_beta", "ratio", "lower"),
    ("store.snapshot_bytes_per_record", "count", "lower"),
    ("sim.overlap_estimate.s", "s", "lower"),
    ("sim.max_occupancies.s", "s", "lower"),
    ("kernels.cover_hits.s", "s", "lower"),
    ("kernels.max_occupancy.s", "s", "lower"),
    ("sim.draw_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]

_UNIT_SCALE = {"ms": 1e-6, "us": 1e-3, "s": 1e-9}  # from nanoseconds

# client round trip -> the server store span it contains
_ROUND_TRIPS = {
    "net.round_trip.upload.ms": ("net.NetClient.upload", "store.ingest"),
    "net.round_trip.search_loc.ms": ("net.NetClient.search_location", "store.search_positions"),
    "net.round_trip.search_bf.ms": ("net.NetClient.search_conjunctive", "store.search_filter"),
    "net.round_trip.remove.ms": ("net.NetClient.remove", "store.remove"),
}


def _p50(values: list[float], unit: str) -> Metric:
    if not values:
        return Metric(0.0, unit, 0)
    return Metric(quantile(sorted(values), 0.5) * _UNIT_SCALE[unit], unit, len(values))


def _durations(spans: list[Span], name: str, keep=lambda s: True) -> list[int]:
    return [s[5] - s[4] for s in spans if s[3] == name and s[6] and keep(s)]


def _round_trips(client: list[Span], server: list[Span], client_name: str, server_name: str) -> list[int]:
    """Client round-trip durations minus the server store span each one
    contains; monotonic clocks are shared by processes on one host."""
    inner = sorted((s[4], s[5]) for s in server if s[3] == server_name and s[1] == 0)
    starts = [t0 for t0, _ in inner]
    out = []
    for s in client:
        if s[3] != client_name or not s[6]:
            continue
        i = bisect.bisect_left(starts, s[4])
        if i < len(inner) and inner[i][1] <= s[5]:
            out.append((s[5] - s[4]) - (inner[i][1] - inner[i][0]))
    return out


def self_times(spans: list[Span]) -> dict[int, int]:
    child_time: dict[int, int] = {}
    for s in spans:
        if s[1]:
            child_time[s[1]] = child_time.get(s[1], 0) + (s[5] - s[4])
    return {s[0]: (s[5] - s[4]) - child_time.get(s[0], 0) for s in spans}


def self_time_line(label: str, spans: list[Span], n_ops: int) -> str:
    """Self time per layer, summed over the traced run, per operation."""
    selfs = self_times(spans)
    totals: dict[str, int] = {}
    for s in spans:
        layer = s[3].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0) + selfs[s[0]]
    per_op = (f"{layer} {ns / 1e6 / max(1, n_ops):.4f} ms" for layer, ns in sorted(totals.items()))
    return f"{label}: " + ", ".join(per_op)


def per_layer_metrics(client: list[Span], server: list[Span], ops: list[tuple], facts: dict) -> dict[str, Metric]:
    """Every PER_LAYER metric from the spans of the load generator
    (`client`) and of the process holding the store (`server`; the same
    list when the store runs in-process)."""
    units = {name: unit for name, unit, _ in PER_LAYER}
    out = {name: Metric(0.0, unit, 0) for name, unit, _ in PER_LAYER}
    simple = {
        "crypto.open_record.ms": (client, "crypto.open_record"),
        "crypto.seal_record.ms": (client, "crypto.seal_record"),
        "index.register_user.ms": (client, "index.register_user"),
        "index.build_user_index.ms": (client, "index.build_user_index"),
        "index.keyword_positions.ms": (client, "index.keyword_positions"),
        "index.build_removal_request.ms": (client, "index.build_removal_request"),
        "filters.BitFilter.compress.ms": (client, "filters.BitFilter.compress"),
        "filters.BitFilter.decompress.ms": (server, "filters.BitFilter.decompress"),
        "net.handshake.ms": (client, "net.client_handshake"),
        "store.search.us": (server, "store.search_positions"),
        "store.save.s": (server, "store.save"),
        "store.load.s": (server, "store.load"),
        "sim.overlap_estimate.s": (client, "sim.overlap_estimate"),
        "sim.max_occupancies.s": (client, "sim.max_occupancies"),
        "kernels.cover_hits.s": (client, "kernels.cover_hits"),
        "kernels.max_occupancy.s": (client, "kernels.max_occupancy"),
    }
    for name, (spans, span_name) in simple.items():
        out[name] = _p50(_durations(spans, span_name), units[name])
    # a replacement's ingest runs inside store.remove; count only top-level ingests
    out["store.ingest.us"] = _p50(_durations(server, "store.ingest", lambda s: s[1] == 0), "us")
    for kind in ("remove", "withdraw"):
        out[f"store.{kind}.us"] = _p50(
            _durations(server, "store.remove", lambda s, k=kind: (s[7] or {}).get("kind") == k), "us")
    for name, (client_name, server_name) in _ROUND_TRIPS.items():
        out[name] = _p50(_round_trips(client, server, client_name, server_name), "ms")

    kinds = {op[0]: op[1] for op in ops}
    searches = sum(1 for k in kinds.values() if k == "search")
    if searches:
        opens = sum(1 for s in client if s[3] == "crypto.open_record" and kinds.get(s[2]) == "search")
        out["crypto.opens_per_search"] = Metric(opens / searches, "count", searches)
    frame_bytes = sum((s[7] or {}).get("bytes", 0) for s in client if s[3] in ("net.send_frame", "net.recv_frame"))
    if frame_bytes and ops:
        out["net.bytes_per_op"] = Metric(frame_bytes / len(ops), "count", len(ops))
    examined = [s[7] for s in server if s[3] == "store.search_positions" and s[6]]
    matches = sum(n["matches"] for n in examined)
    if matches:
        out["store.entries_examined_per_match"] = Metric(
            sum(n["card"] for n in examined) / matches, "count", len(examined))
    sim_spans = [s for s in client if s[3].startswith("sim.")]
    if sim_spans:
        selfs = self_times(client)
        total = sum(s[5] - s[4] for s in sim_spans)
        out["sim.draw_share"] = Metric(sum(selfs[s[0]] for s in sim_spans) / total, "ratio", len(sim_spans))
    for name in ("crypto.prf_calls_per_upload", "store.max_occupancy_over_beta",
                 "store.snapshot_bytes_per_record", "trace.overhead_share"):
        if name in facts:
            value, samples = facts[name]
            out[name] = Metric(value, units[name], samples)
    return out
