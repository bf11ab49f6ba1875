"""store_churn: the store alone, write-heavy, on a larger store.

One zone at m=28854 with beta=BETA holds RECORDS records, four times the
loopback store. Packets and removal requests are built once before
set-up, so `index` and `crypto` stay off the timed path; set-up is
filling a fresh store from the packets, repeated and reported as a
median.

The timed phase repeats one fixed cycle of store calls. A cycle is a
shuffled interleaving (at most ACTIVE_UNITS at a time) of three kinds of
units, each of which leaves the store as it found it:

- W: withdraw a stored record, later re-ingest its packet;
- R: ingest a record that is not stored (it holds R_KEYWORDS keywords),
  remove them one by one until one is left, then withdraw what remains;
- P: remove one keyword of a stored record with a replacement upload,
  withdraw the replacement, withdraw the rest, re-ingest the original.

Single-keyword searches for (keyword, location) pairs of stored records
make up SEARCH_SHARE of the calls. Every seed's cycle has the same
number of calls of each kind, so seeds differ in data, not in mix. The timed phase is cut into WINDOWS
windows, each ending with one save and one load of the store.

Checks: every call's answer (buffers written, buffers pruned, matching
handles) equals a reference model's; after churn the table is the
model's live set, every buffer holds exactly the model's handles, and
no buffer exceeds beta; `load(save(store))` reproduces the table and
every buffer, in order.
"""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass
from pathlib import Path

from sbfsearch import filters, index, store

from . import spans
from .common import (
    WINDOWS, Context, Latencies, Metric, Outcome, SpeedGauge, cpu_now, gated_metrics, latency_metric, median,
    metric_lines, now, scaled_setup, setup_repeats, stream_digest,
)
from .population import OwnerSpec, Population, StoreModel

BETA = 200
RECORDS = 2400
UNITS = {"W": 10, "R": 20, "P": 10}
R_KEYWORDS = 4  # an R unit ingests, makes R_KEYWORDS - 1 removals, withdraws
SEARCH_SHARE = 0.7
ACTIVE_UNITS = 4


@dataclass
class Built:
    """A prebuilt record: its packet and the positions it uploads."""

    packet: index.UploadPacket
    positions: list[int]


def plan(pop: Population, quick: bool) -> tuple[list[OwnerSpec], dict[str, OwnerSpec], list[dict]]:
    """The stored records, the records R units bring in, and one cycle
    of calls on record names ("s<i>" stored, "r<i>" R-unit, "p<i>" a P
    unit's replacement)."""
    scale = 8 if quick else 1
    rng = pop.rng("churn")
    stored = [pop.draw_owner(rng) for _ in range(RECORDS // scale)]
    picked = rng.sample(range(len(stored)), (UNITS["W"] + UNITS["P"]) // scale)
    units: list[list[dict]] = []
    for i in picked[: UNITS["W"] // scale]:
        units.append([{"op": "withdraw", "rec": f"s{i}"}, {"op": "ingest", "rec": f"s{i}"}])
    for i in picked[UNITS["W"] // scale:]:
        kw = rng.choice(stored[i].keywords)
        units.append([{"op": "replace", "rec": f"s{i}", "kw": kw, "new": f"p{i}"},
                      {"op": "withdraw", "rec": f"p{i}"}, {"op": "withdraw", "rec": f"s{i}"},
                      {"op": "ingest", "rec": f"s{i}"}])
    brought: dict[str, OwnerSpec] = {}
    for i in range(UNITS["R"] // scale):
        spec = pop.draw_owner(rng, R_KEYWORDS)
        name = f"r{i}"
        brought[name] = spec
        order = rng.sample(spec.keywords, len(spec.keywords) - 1)
        units.append([{"op": "ingest", "rec": name},
                      *({"op": "remove", "rec": name, "kw": kw} for kw in order),
                      {"op": "withdraw", "rec": name}])
    rng.shuffle(units)

    # the same number of each kind of call in every seed's cycle
    steps = sum(len(u) for u in units)
    slots = [True] * round(steps * SEARCH_SHARE / (1 - SEARCH_SHARE)) + [False] * steps
    rng.shuffle(slots)
    cycle: list[dict] = []
    active: list[list[dict]] = []
    for search in slots:
        if search:
            s = rng.choice(stored)
            cycle.append({"op": "search", "kw": rng.choice(s.keywords), "loc": s.location})
            continue
        while units and len(active) < ACTIVE_UNITS:
            active.append(units.pop())
        unit = rng.choice(active)
        cycle.append(unit.pop(0))
        if not unit:
            active.remove(unit)
    return stored, brought, cycle


@dataclass
class Call:
    """One store call of the cycle, with the answer the model expects and
    what it does to the model."""

    op: str
    arg: object        # query positions, upload packet or removal request
    expected: object   # matching handles, or buffers written or pruned
    effects: tuple     # ("add" | "prune", handle, positions), ...


def apply(model: StoreModel, effects: tuple) -> None:
    for kind, handle, positions in effects:
        if kind == "add":
            model.add(handle, positions)
        else:
            model.prune(handle, positions)


class Churn:
    """Prebuilt inputs for one cycle and the calls that replay it."""

    def __init__(self, pop: Population, quick: bool):
        self.pop = pop
        self.params = pop.params
        self.stored, brought, self.cycle = plan(pop, quick)
        self.digest = stream_digest([*(s.as_json() for s in self.stored),
                                     *({k: v.as_json()} for k, v in sorted(brought.items())), *self.cycle])
        rng = pop.rng("churn-crypto")
        self.built: dict[str, Built] = {}
        owners: dict[str, tuple] = {}
        for name, spec in [*((f"s{i}", s) for i, s in enumerate(self.stored)), *brought.items()]:
            kr = pop.keyring(spec.keywords)
            idx = index.build_user_index(kr, pop.locations[spec.location], self.params, rng)
            packet = index.make_upload_packet(idx, pop.meta(spec, rng), pop.secrets.agent_public,
                                              pop.zone, self.params, rng)
            self.built[name] = Built(packet, idx.bf.positions())
            owners[name] = (kr, idx, spec)
        # walk the cycle once on the model: every request is built against the
        # state it will meet, and every answer is known before the timed phase
        model = self.start_model()
        self.calls: list[Call] = []
        agent: dict[int, index.UserKeyring] = {}
        for step in self.cycle:
            op = step["op"]
            if op == "search":
                kr = agent.setdefault(step["kw"], pop.keyring([step["kw"]]))
                query = index.keyword_positions(kr, pop.vocab[step["kw"]], pop.locations[step["loc"]], self.params)
                call = Call(op, query, frozenset(model.expected(query)), ())
            elif op == "ingest":
                b = self.built[step["rec"]]
                call = Call(op, b.packet, len(b.positions), (("add", b.packet.sealed.handle, b.positions),))
            else:
                handle = self.built[step["rec"]].packet.sealed.handle
                effects: tuple = ()
                if op == "withdraw":
                    rbf = filters.BitFilter(self.params.m)
                    rbf.insert(sorted(model.positions[handle]))
                    req = index.RemovalRequest(pop.zone, rbf, handle)
                else:
                    kr, idx, spec = owners[step["rec"]]
                    req = index.build_removal_request(idx, kr, pop.vocab[step["kw"]],
                                                      pop.locations[spec.location], handle, self.params, rng)
                    if op == "replace":
                        remaining = OwnerSpec(tuple(k for k in spec.keywords if k != step["kw"]), spec.location)
                        packet = index.make_upload_packet(idx, pop.meta(remaining, rng), pop.secrets.agent_public,
                                                          pop.zone, self.params, rng)
                        self.built[step["new"]] = Built(packet, idx.bf.positions())
                        req = index.RemovalRequest(pop.zone, req.rbf_prime, handle, packet)
                        effects = (("add", packet.sealed.handle, idx.bf.positions()),)
                pruned = req.rbf_prime.positions()
                call = Call(op, req, len(model.positions[handle].intersection(pruned)),
                            (("prune", handle, pruned), *effects))
            apply(model, call.effects)
            self.calls.append(call)
        if model.positions != self.start_model().positions:
            raise RuntimeError("the churn cycle does not return the store to its start")

    def start_model(self) -> StoreModel:
        model = StoreModel()
        for i in range(len(self.stored)):
            b = self.built[f"s{i}"]
            model.add(b.packet.sealed.handle, b.positions)
        return model

    def model_at(self, i: int) -> StoreModel:
        """The model after the first i calls."""
        model = self.start_model()
        for call in self.calls[: i % len(self.calls)]:
            apply(model, call.effects)
        return model

    def fill(self) -> store.StorageBloomFilter:
        zone_store = store.StorageBloomFilter(self.params, self.pop.zone)
        for i in range(len(self.stored)):
            zone_store.ingest(self.built[f"s{i}"].packet)
        return zone_store

    def replay(self, zone_store, start: int, seconds: float, lat: Latencies, gauge: SpeedGauge,
               tracer: spans.Tracer | None = None) -> tuple[int, float, float]:
        """Run the cycle from call `start` for `seconds`; returns the next
        call index and the start and end of the phase."""
        i = start
        t_start = now()
        deadline = t_start + seconds
        while now() < deadline:
            gauge.tick()
            call = self.calls[i % len(self.calls)]
            lat.attempted += 1
            i += 1
            try:
                if tracer is None:
                    seconds_taken, cpu, answer = self._timed(zone_store, call)
                else:
                    with tracer.op(call.op):
                        seconds_taken, cpu, answer = self._timed(zone_store, call)
            except store.StoreError as exc:
                lat.fail(call.op, f"{type(exc).__name__}: {exc}")
                continue
            lat.add(call.op, seconds_taken, cpu)
            if call.op == "search":
                answer = {rec.handle for rec in answer.matches}
            if answer != call.expected:
                lat.fail(call.op, "answer differs from the model")
            elif call.op == "withdraw" and call.arg.handle in zone_store.table:
                lat.fail(call.op, "withdrawn record still in the table")
        return i, t_start, now()

    @staticmethod
    def _timed(zone_store, call: Call):
        t0, c0 = now(), cpu_now()
        if call.op == "search":
            answer = zone_store.search_positions(call.arg)
        elif call.op == "ingest":
            answer = zone_store.ingest(call.arg)
        else:
            answer = zone_store.remove(call.arg)
        return now() - t0, cpu_now() - c0, answer


def call_rate(lat: Latencies) -> float:
    """Store calls per CPU second spent inside the store."""
    return len(lat.timeline) / lat.cpu()


def state_problems(zone_store, model: StoreModel, beta: int) -> list[str]:
    problems = []
    if set(zone_store.table) != set(model.positions):
        problems.append("table differs from the model's live set")
    for p, buf in enumerate(zone_store.buffers):
        if len(buf) > beta:
            problems.append(f"buffer {p} holds {len(buf)} > beta")
        if len(set(buf)) != len(buf) or set(buf) != model.holders.get(p, set()):
            problems.append(f"buffer {p} differs from the model")
        if len(problems) > 5:
            break
    return problems


def snapshot_problems(original, loaded) -> list[str]:
    problems = []
    if loaded.params != original.params or loaded.zone != original.zone:
        problems.append("snapshot changed the params or zone")
    if loaded.table != original.table:
        problems.append("snapshot changed the record table")
    if loaded.buffers != original.buffers:
        problems.append("snapshot changed a buffer")
    return problems


def run(ctx: Context) -> Outcome:
    pop = Population(ctx.seed, BETA)
    t0 = now()
    churn = Churn(pop, ctx.quick)
    inputs_s = now() - t0
    # keep the prebuilt inputs out of the collector's scans; the store is built after this
    gc.collect()
    gc.freeze()
    gauge = SpeedGauge()
    setups, zone_store = [], None

    def fill() -> float:
        nonlocal zone_store
        c0 = cpu_now()
        zone_store = churn.fill()
        return cpu_now() - c0

    for _ in range(setup_repeats(ctx.quick)):
        # each fill starts from the same state: the previous store freed and collected
        zone_store = None
        gc.collect()
        setups.append(scaled_setup(gauge, fill))

    lat, plain = Latencies(), Latencies()
    facts: dict[str, tuple[float, int]] = {}
    tracer = spans.Tracer() if ctx.trace else None
    share = ctx.seconds / WINDOWS / (2 if ctx.trace else 1)
    path = Path(ctx.scratch) / "churn.sbf"
    windows, saves, loads = [], [], []
    nxt = 0
    try:
        for _ in range(WINDOWS):
            if tracer is not None:
                # an untraced half precedes each traced half, so both see the same machine
                nxt, _, _ = churn.replay(zone_store, nxt, share, plain, gauge)
                spans.install_store(tracer)
            nxt, start, _ = churn.replay(zone_store, nxt, share, lat, gauge, tracer)
            t0, c0 = now(), cpu_now()
            zone_store.save(path)
            t1 = now()
            loaded = store.StorageBloomFilter.load(path)
            loads.append(now() - t1)
            saves.append(t1 - t0)
            windows.append((start, now(), 2, lat.cpu(start, t0) + cpu_now() - c0))
            if tracer is not None:
                tracer.restore()
        end_problems = state_problems(zone_store, churn.model_at(nxt), BETA) + snapshot_problems(zone_store, loaded)
        occupancy = max(len(buf) for buf in zone_store.buffers)
        snapshot_bytes = os.path.getsize(path)
    finally:
        if tracer is not None:
            tracer.restore()

    churn_ops = len(lat.timeline)
    busy_s = sum(s for _, _, s, _ in lat.timeline) + sum(saves) + sum(loads)
    if ctx.trace:
        facts["trace.overhead_share"] = (call_rate(plain) / call_rate(lat) - 1, churn_ops)
        lat.merge(plain)
    correct = lat.failed == 0 and not end_problems
    named = {
        "setup_s": Metric(median(setups), "s", len(setups)),
        "failed_share": Metric(lat.failed / max(1, lat.attempted), "ratio", lat.attempted),
        "ops_per_s": Metric((churn_ops + 2 * WINDOWS) / busy_s, "1/s", churn_ops),
        "search_p50_ms": latency_metric(lat.of("search"), 0.5),
        "search_p99_ms": latency_metric(lat.of("search"), 0.99),
        "upload_p50_ms": latency_metric(lat.of("ingest"), 0.5),
        "remove_p50_ms": latency_metric(lat.of("remove"), 0.5),
        "remove_p99_ms": latency_metric(lat.of("remove"), 0.99),
        "withdraw_p50_ms": latency_metric(lat.of("withdraw"), 0.5),
        "replace_p50_ms": latency_metric(lat.of("replace"), 0.5),
        "snapshot_save_s": Metric(median(saves), "s", len(saves)),
        "snapshot_load_s": Metric(median(loads), "s", len(loads)),
    }
    lines = [
        f"inputs: {len(churn.stored)} stored records, beta={BETA}, m={pop.params.m}, cycle of {len(churn.cycle)} "
        f"calls, built in {inputs_s:.2f} s; op-stream sha256 {churn.digest}",
        f"max occupancy after churn {occupancy} of beta {BETA}; snapshot {snapshot_bytes} bytes",
    ]
    if ctx.trace:
        facts["store.max_occupancy_over_beta"] = (occupancy / BETA, 1)
        facts["store.snapshot_bytes_per_record"] = (snapshot_bytes / len(zone_store.table), len(zone_store.table))
        metrics = spans.per_layer_metrics(tracer.spans, tracer.spans, tracer.ops, facts)
        lines += ["traced run (the second half of each window, snapshots included); per-layer metrics:"]
        lines += metric_lines(metrics)
        lines.append(spans.self_time_line("self time per op", tracer.spans, len(tracer.ops)))
    else:
        metrics, window_lines = gated_metrics(lat, windows, named["setup_s"], gauge)
        lines += metric_lines(named)
        lines += ["gated end-to-end metrics:"] + metric_lines(metrics) + window_lines
    lines += [f"check failure: {f}" for f in lat.failures + end_problems]
    return Outcome(correct, lat.attempted, lat.failed, metrics, lines)
