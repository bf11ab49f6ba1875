"""owner_agent_loopback: the user path end to end, read-heavy.

A NetServer runs in its own process over one zone at the paper's
parameters (beta=50). Set-up starts it and fills it with PRELOAD records
by real uploads over one owner connection. One load-generator process
(this one) then runs two closed-loop streams, so at most two
connections are busy at once:

- the agent holds one session and runs single-keyword `search_location`
  and 2-keyword `search_conjunctive` queries, opening every returned
  record;
- the owner opens a new connection per operation, as the CLI does, and
  runs register+build+seal+upload, keyword removal, removal with a
  replacement upload, and full withdrawal, which prunes every position
  the record still holds.

The mix is fixed, so it does not follow the streams' relative speed:
each stream replays blocks of AGENT_BLOCK and OWNER_BLOCK in an order
shuffled per block, and the agent runs AGENT_PER_OWNER operations per
owner operation (a stream that gets ahead waits for the other). The
proportions are assumptions, not measured traffic: see the README.

Queries are drawn from the preloaded records (record first, then one or
two of its keywords at its location), so most return records. An owner
block adds as many records (uploads, replacements) as it withdraws, so
the record count stays near PRELOAD.

Checks, for records no owner operation touched while the search ran:
the result is exactly the set of handles the model holds at every
queried position, it contains every live record holding the keyword(s)
at that location, and every returned record opens under the agent key
to the MetaInfo its owner sealed. Upload and removal answers must match
the model's position counts, and at the end the server's record count
and maximum occupancy must equal the model's.
"""

from __future__ import annotations

import dataclasses
import json
import os
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from sbfsearch import crypto, filters, index, net

from . import spans
from .common import (
    WINDOWS, Context, Latencies, Metric, Outcome, SpeedGauge, child_env, clock, elapsed, gated_metrics,
    latency_metric, median, metric_lines, now, scaled_setup, setup_repeats, stream_digest,
)
from .population import OwnerSpec, Population, StoreModel

BETA = 50
PRELOAD = 600
AGENT_BLOCK = ("search",) * 3 + ("search_and",)
OWNER_BLOCK = ("upload",) * 3 + ("remove",) * 2 + ("replace",) + ("withdraw",) * 4
AGENT_PER_OWNER = 4
DIGEST_AGENT_OPS = 5000
DIGEST_OWNER_OPS = 2000
SERVER_TIMEOUT_S = 60


# --- operation streams (model level: no package calls) ------------------------

def preload_specs(pop: Population, count: int) -> list[OwnerSpec]:
    rng = pop.rng("preload")
    return [pop.draw_owner(rng) for _ in range(count)]


def blocks(rng, block):
    """Endless kinds: copies of `block`, each shuffled."""
    while True:
        yield from rng.sample(block, len(block))


def agent_plan(pop: Population, specs: list[OwnerSpec]):
    rng = pop.rng("agent")
    multi = [s for s in specs if len(s.keywords) >= 2]
    for kind in blocks(rng, AGENT_BLOCK):
        if kind == "search_and":
            s = rng.choice(multi)
            yield {"op": "search_and", "kws": sorted(rng.sample(s.keywords, 2)), "loc": s.location}
        else:
            s = rng.choice(specs)
            yield {"op": "search", "kw": rng.choice(s.keywords), "loc": s.location}


def owner_plan(pop: Population, specs: list[OwnerSpec]):
    """Owner operations on record ids; ids below len(specs) are preloaded."""
    rng = pop.rng("owner")
    keywords = {rid: set(s.keywords) for rid, s in enumerate(specs)}
    managed = set(keywords)  # records whose owner still holds the index
    live = list(keywords)
    slot = {rid: i for i, rid in enumerate(live)}
    next_id = len(specs)

    def add(rid):
        slot[rid] = len(live)
        live.append(rid)

    def drop(rid):
        i = slot.pop(rid)
        last = live.pop()
        if last != rid:
            live[i] = last
            slot[last] = i

    for kind in blocks(rng, OWNER_BLOCK):
        n = len(live)
        if kind in ("remove", "replace"):
            for _ in range(1000):
                rid = live[rng.randrange(n)]
                if rid in managed and len(keywords[rid]) >= 2:
                    break
            else:
                raise RuntimeError("no record left whose owner can remove a keyword")
        if kind == "upload":
            spec = pop.draw_owner(rng)
            rid, next_id = next_id, next_id + 1
            keywords[rid] = set(spec.keywords)
            managed.add(rid)
            add(rid)
            yield {"op": "upload", "rid": rid, "kws": list(spec.keywords), "loc": spec.location}
        elif kind == "withdraw":
            rid = live[rng.randrange(n)]
            drop(rid)
            managed.discard(rid)
            yield {"op": "withdraw", "rid": rid}
        else:
            kw = rng.choice(sorted(keywords[rid]))
            keywords[rid].discard(kw)
            desc = {"op": kind, "rid": rid, "kw": kw}
            if kind == "replace":
                new, next_id = next_id, next_id + 1
                keywords[new] = set(keywords[rid])
                managed.discard(rid)
                managed.add(new)
                add(new)
                desc["new"] = new
            yield desc


def digest(pop: Population, specs: list[OwnerSpec]) -> str:
    return stream_digest([
        *(s.as_json() for s in specs),
        *islice(agent_plan(pop, specs), DIGEST_AGENT_OPS),
        *islice(owner_plan(pop, specs), DIGEST_OWNER_OPS),
    ])


# --- the server process -------------------------------------------------------

class ServerProcess:
    def __init__(self, ctx: Context, zone: bytes, tag: str):
        self.out = Path(ctx.scratch) / f"server-{tag}.json"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.server", "--zone", zone.hex(),
             "--out", str(self.out)],
            cwd=ctx.root, env=child_env(ctx.root), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self._buf = b""
        ready = self._read_line()
        if not ready.startswith("READY "):
            raise RuntimeError(f"server did not start: {ready!r}")
        self.port = int(ready.split()[1])

    def _read_line(self) -> str:
        fd = self.proc.stdout.fileno()
        deadline = now() + SERVER_TIMEOUT_S
        while b"\n" not in self._buf:
            remaining = deadline - now()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise RuntimeError("server did not answer in time")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError("server exited")
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return line.decode()

    def cpu(self) -> float:
        """CPU seconds the server process has used so far."""
        self.proc.stdin.write(b"cpu\n")
        self.proc.stdin.flush()
        answer = self._read_line()
        if not answer.startswith("CPU "):
            raise RuntimeError(f"server answered {answer!r} to 'cpu'")
        return float(answer.split()[1])

    def command(self, cmd: str, expect: str) -> None:
        self.proc.stdin.write(cmd.encode() + b"\n")
        self.proc.stdin.flush()
        answer = self._read_line()
        if answer != expect:
            raise RuntimeError(f"server answered {answer!r} to {cmd!r}")

    def stop(self) -> dict:
        """Shut the server down and return its final store statistics."""
        self.command("stop", "DONE")
        self.close()
        return json.loads(self.out.read_text())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


# --- the load generator -------------------------------------------------------

class Pacer:
    """Keeps the agent at AGENT_PER_OWNER operations per owner operation
    until the deadline: owner operation i starts once the agent has
    started AGENT_PER_OWNER * i, and the agent starts at most
    AGENT_PER_OWNER operations past the owner's last start."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.started = {"agent": 0, "owner": 0}
        self.cond = threading.Condition()

    def turn(self, stream: str) -> bool:
        """Wait until `stream` may start its next operation; False once
        the deadline has passed."""
        with self.cond:
            while now() < self.deadline:
                agent, owner = self.started["agent"], self.started["owner"]
                if (agent < AGENT_PER_OWNER * (owner + 1)) if stream == "agent" else (AGENT_PER_OWNER * owner <= agent):
                    self.started[stream] += 1
                    self.cond.notify_all()
                    return True
                self.cond.wait(self.deadline - now())
            return False


@dataclass
class Record:
    handle: bytes
    keywords: set[int]
    location: int
    mi: crypto.MetaInfo
    keyring: index.UserKeyring | None  # None once the owner moved to a replacement
    user_index: index.UserIndex | None


class Generator:
    """Both streams, the records they know and the model they check against."""

    def __init__(self, pop: Population, specs: list[OwnerSpec], port: int, gauge: SpeedGauge):
        self.pop = pop
        self.params = pop.params
        self.port = port
        self.specs = specs
        self.agent_ops = agent_plan(pop, specs)
        self.owner_ops = owner_plan(pop, specs)
        self.rng = pop.rng("owner-crypto")
        self.lock = threading.Lock()
        self.model = StoreModel()
        self.records: dict[int, Record] = {}
        self.pairs: dict[tuple[int, int], set[bytes]] = {}  # (keyword, location) -> live holders
        self.sealed: dict[bytes, crypto.MetaInfo] = {}
        self.busy: dict[bytes, int] = {}
        self.touched: list[bytes] = []  # handles, in the order owner operations finished
        self.tainted: set[bytes] = set()  # handles whose server state is unknown after a failure
        self.gauge = gauge

    # -- set-up --

    def preload(self) -> int:
        """Upload every preload record over one owner connection; returns
        the PRF calls the client side spent."""
        rng = self.pop.rng("preload-crypto")
        prf_before = crypto.prf_calls.count
        with net.NetClient("127.0.0.1", self.port, net.ROLE_OWNER) as client:
            for rid, spec in enumerate(self.specs):
                kr = self.pop.keyring(spec.keywords)
                idx = index.build_user_index(kr, self.pop.locations[spec.location], self.params, rng)
                mi = self.pop.meta(spec, rng)
                packet = index.make_upload_packet(idx, mi, self.pop.secrets.agent_public,
                                                  self.pop.zone, self.params, rng)
                written = client.upload(packet)
                positions = idx.bf.positions()
                if written != len(positions):
                    raise RuntimeError("preload upload wrote an unexpected number of buffers")
                self._add(rid, Record(packet.sealed.handle, set(spec.keywords), spec.location,
                                      mi, kr, idx), positions)
        return crypto.prf_calls.count - prf_before

    def _add(self, rid: int, rec: Record, positions) -> None:
        self.records[rid] = rec
        self.sealed[rec.handle] = rec.mi
        self.model.add(rec.handle, positions)
        for k in rec.keywords:
            self.pairs.setdefault((k, rec.location), set()).add(rec.handle)

    # -- streams --

    def run_streams(self, seconds: float, server: ServerProcess,
                    tracer: spans.Tracer | None = None) -> tuple[Latencies, list[tuple[float, float, int, float]]]:
        """Run both streams for `seconds`; returns their samples and
        WINDOWS windows (start, end, 0, CPU seconds): the CPU the streams'
        operations used on the client side plus what the server used."""
        agent, owner = Latencies(), Latencies()
        with net.NetClient("127.0.0.1", self.port, net.ROLE_AGENT) as session:
            t0 = now()
            deadline = t0 + seconds
            pacer = Pacer(deadline)
            threads = [
                threading.Thread(target=self._stream, args=(
                    agent, tracer, self.agent_ops, lambda d: self._agent_op(d, session), lambda: pacer.turn("agent"))),
                threading.Thread(target=self._stream, args=(
                    owner, tracer, self.owner_ops, self._owner_op, lambda: pacer.turn("owner"))),
            ]
            marks = [(t0, server.cpu())]
            for t in threads:
                t.start()
            for i in range(1, WINDOWS + 1):
                time.sleep(max(0.0, t0 + i * seconds / WINDOWS - now()))
                marks.append((now(), server.cpu()))
            for t in threads:
                t.join()
        agent.merge(owner)
        windows = [(a, b, 0, agent.cpu(a, b) + (cb - ca)) for (a, ca), (b, cb) in zip(marks, marks[1:])]
        return agent, windows

    def _stream(self, lat: Latencies, tracer, plan, execute, turn) -> None:
        while turn():
            self.gauge.tick()
            lat.attempted += 1
            try:
                desc = next(plan)
            except Exception as exc:  # a plan that cannot go on ends its stream, counted as a failure
                lat.fail("plan", f"{type(exc).__name__}: {exc}")
                return
            try:
                if tracer is None:
                    taken, problem = execute(desc)
                else:
                    with tracer.op(desc["op"]):
                        taken, problem = execute(desc)
            except (net.ServerError, net.WireError, crypto.CryptoError, index.SchemeError, OSError) as exc:
                lat.fail(desc["op"], f"{type(exc).__name__}: {exc}")
                continue
            except Exception as exc:  # keep the stream running; the failure is counted and reported
                lat.fail(desc["op"], f"unexpected {type(exc).__name__}: {exc}")
                continue
            lat.add(desc["op"], *taken)
            if problem:
                lat.fail(desc["op"], problem)

    def _agent_op(self, desc: dict, session: net.NetClient) -> tuple[float, str | None]:
        pop, params = self.pop, self.params
        location = pop.locations[desc["loc"]]
        keywords = [desc["kw"]] if desc["op"] == "search" else desc["kws"]
        with self.lock:
            mark = len(self.touched)
        start = clock()
        tokens = [pop.vocab[k] for k in keywords]
        kr = index.register_user(pop.secrets, tokens, pop.zone, params)
        if desc["op"] == "search":
            positions = index.keyword_positions(kr, tokens[0], location, params)
            records = session.search_location(pop.zone, positions)
        else:
            query = index.build_conjunctive_query(kr, tokens, location, params)
            records = session.search_conjunctive(pop.zone, query)
            positions = None
        opened = [crypto.open_record(pop.secrets.agent_private, rec, params.n_bits) for rec in records]
        taken = elapsed(start)
        if positions is None:
            positions = query.positions()

        got = {rec.handle for rec in records}
        with self.lock:
            unsure = set(self.touched[mark:]) | set(self.busy) | self.tainted
            exact = self.model.expected(positions) - unsure
            holders = set.intersection(*(self.pairs.get((k, desc["loc"]), set()) for k in keywords)) - unsure
            sealed = [self.sealed.get(rec.handle) for rec in records]
        if got - unsure != exact:
            return taken, f"result differs from the model by {len(got.symmetric_difference(exact) - unsure)} handles"
        if not holders <= got:
            return taken, f"{len(holders - got)} live holders missing"
        if any(mi != expected for mi, expected in zip(opened, sealed)):
            return taken, "a returned record did not open to the sealed MetaInfo"
        return taken, None

    def _begin(self, handles: list[bytes]) -> None:
        with self.lock:
            for h in handles:
                self.busy[h] = self.busy.get(h, 0) + 1

    def _finish(self, handles: list[bytes], failed: bool = False) -> None:
        """Release handles once the model holds their new state (or marks
        them tainted); the caller holds self.lock. A search that overlaps
        an owner operation thus always sees its handles as busy or
        touched, never as settled while the model is behind."""
        for h in handles:
            self.busy[h] -= 1
            if not self.busy[h]:
                del self.busy[h]
            self.touched.append(h)
            if failed:
                self.tainted.add(h)

    def _owner_op(self, desc: dict) -> tuple[float, str | None]:
        pop, params, rng = self.pop, self.params, self.rng
        kind = desc["op"]
        start = clock()
        if kind == "upload":
            spec = OwnerSpec(tuple(desc["kws"]), desc["loc"])
            kr = pop.keyring(spec.keywords)
            idx = index.build_user_index(kr, pop.locations[spec.location], params, rng)
            mi = pop.meta(spec, rng)
            packet = index.make_upload_packet(idx, mi, pop.secrets.agent_public, pop.zone, params, rng)
            rec = Record(packet.sealed.handle, set(spec.keywords), spec.location, mi, kr, idx)
            with self.lock:
                self.sealed[rec.handle] = mi
            answer = self._send([rec.handle], lambda c: c.upload(packet))
            taken = elapsed(start)
            positions = idx.bf.positions()
            with self.lock:
                self._add(desc["rid"], rec, positions)
                self._finish([rec.handle])
            return taken, None if answer == len(positions) else "upload wrote an unexpected buffer count"

        rec = self.records[desc["rid"]]
        if kind == "withdraw":
            with self.lock:
                live = sorted(self.model.positions[rec.handle])
            rbf = filters.BitFilter(params.m)
            rbf.insert(live)
            req = index.RemovalRequest(zone=pop.zone, rbf_prime=rbf, handle=rec.handle)
            answer = self._send([rec.handle], lambda c: c.remove(req))
            taken = elapsed(start)
            with self.lock:
                pruned = self.model.prune(rec.handle, live)
                for k in rec.keywords:
                    self.pairs[(k, rec.location)].discard(rec.handle)
                del self.records[desc["rid"]]
                self._finish([rec.handle])
            return taken, None if answer == pruned == len(live) else "withdrawal pruned an unexpected count"

        w = desc["kw"]
        req = index.build_removal_request(rec.user_index, rec.keyring, pop.vocab[w], pop.locations[rec.location],
                                          rec.handle, params, rng)
        handles = [rec.handle]
        if kind == "replace":
            spec = OwnerSpec(tuple(sorted(rec.keywords - {w})), rec.location)
            mi = pop.meta(spec, rng)
            packet = index.make_upload_packet(rec.user_index, mi, pop.secrets.agent_public, pop.zone, params, rng)
            req = dataclasses.replace(req, replacement=packet)
            new = Record(packet.sealed.handle, set(spec.keywords), rec.location, mi, rec.keyring, rec.user_index)
            handles.append(new.handle)
            with self.lock:
                self.sealed[new.handle] = mi
        answer = self._send(handles, lambda c: c.remove(req))
        taken = elapsed(start)
        with self.lock:
            pruned = self.model.prune(rec.handle, req.rbf_prime.positions())
            rec.keywords.discard(w)
            self.pairs[(w, rec.location)].discard(rec.handle)
            if kind == "replace":
                rec.keyring = rec.user_index = None
                self._add(desc["new"], new, new.user_index.bf.positions())
            self._finish(handles)
        return taken, None if answer == pruned else "removal pruned an unexpected count"

    def _send(self, handles: list[bytes], call):
        """Send one owner request on a new connection. On success the
        caller updates the model and releases the handles."""
        self._begin(handles)
        try:
            with net.NetClient("127.0.0.1", self.port, net.ROLE_OWNER) as client:
                return call(client)
        except BaseException:
            with self.lock:
                self._finish(handles, failed=True)
            raise


# --- the workload ---------------------------------------------------------------

def run(ctx: Context) -> Outcome:
    pop = Population(ctx.seed, BETA)
    preload = PRELOAD // 5 if ctx.quick else PRELOAD
    specs = preload_specs(pop, preload)
    stream_id = digest(pop, specs)
    gauge = SpeedGauge()
    setups: list[float] = []
    server: ServerProcess | None = None
    gen: Generator | None = None
    prf_calls = 0

    def start(tag: str) -> float:
        """Start a server and preload it; returns the set-up CPU: this
        process's, plus the fresh server's whole life so far."""
        nonlocal server, gen, prf_calls
        c0 = time.process_time()
        server = ServerProcess(ctx, pop.zone, tag)
        gen = Generator(pop, specs, server.port, gauge)
        prf_calls = gen.preload()
        return time.process_time() - c0 + server.cpu()

    try:
        for attempt in range(setup_repeats(ctx.quick)):
            if server is not None:
                server.stop()
            setups.append(scaled_setup(gauge, lambda: start(f"{attempt}")))

        facts: dict[str, tuple[float, int]] = {
            "crypto.prf_calls_per_upload": (prf_calls / len(specs), len(specs)),
        }
        tracer = None
        if ctx.trace:
            # untraced and traced quarters alternate, so both see the same machine
            tracer = spans.Tracer()
            lat, rates = Latencies(), {False: [], True: []}
            for on in (False, True, False, True):
                if on:
                    spans.install_client(tracer)
                    server.command("trace", "TRACING")
                try:
                    part, windows = gen.run_streams(ctx.seconds / 4, server, tracer if on else None)
                finally:
                    if on:
                        tracer.restore()
                        server.command("untrace", "UNTRACED")
                rates[on].append(len(part.timeline) / sum(w[3] for w in windows))
                lat.merge(part)
            facts["trace.overhead_share"] = (sum(rates[False]) / sum(rates[True]) - 1, len(tracer.ops))
        else:
            lat, windows = gen.run_streams(ctx.seconds, server)
        server_spans_path = server.out.with_suffix(".spans")
        stats = server.stop()
        server = None
    finally:
        if server is not None:
            server.close()

    end_problems = []
    if stats["records"] != len(gen.model.positions):
        end_problems.append(f"server holds {stats['records']} records, model {len(gen.model.positions)}")
    if stats["max_occupancy"] != gen.model.max_occupancy() or stats["max_occupancy"] > BETA:
        end_problems.append(f"max occupancy {stats['max_occupancy']} (model {gen.model.max_occupancy()}, beta {BETA})")
    correct = lat.failed == 0 and not end_problems

    named = {
        "setup_s": Metric(median(setups), "s", len(setups)),
        "failed_share": Metric(lat.failed / max(1, lat.attempted), "ratio", lat.attempted),
        "ops_per_s": Metric(len(lat.timeline) / (windows[-1][1] - windows[0][0]), "1/s", len(lat.timeline)),
        "search_p50_ms": latency_metric(lat.of("search"), 0.5),
        "search_p99_ms": latency_metric(lat.of("search"), 0.99),
        "search_and_p50_ms": latency_metric(lat.of("search_and"), 0.5),
        "upload_p50_ms": latency_metric(lat.of("upload"), 0.5),
        "upload_p99_ms": latency_metric(lat.of("upload"), 0.99),
        "remove_p50_ms": latency_metric(lat.of("remove"), 0.5),
        "remove_p99_ms": latency_metric(lat.of("remove"), 0.99),
        "withdraw_p50_ms": latency_metric(lat.of("withdraw"), 0.5),
        "replace_p50_ms": latency_metric(lat.of("replace"), 0.5),
    }
    lines = [
        f"inputs: {len(specs)} preloaded records, beta={BETA}, m={pop.params.m}, op-stream sha256 {stream_id}",
        f"agent block {AGENT_BLOCK}; owner block {OWNER_BLOCK}; {AGENT_PER_OWNER} agent operations per owner operation",
    ]
    if ctx.trace:
        client_spans = tracer.spans
        server_spans = spans.load_spans(server_spans_path)
        facts["store.max_occupancy_over_beta"] = (stats["max_occupancy"] / BETA, 1)
        metrics = spans.per_layer_metrics(client_spans, server_spans, tracer.ops, facts)
        lines += ["traced run (2nd and 4th quarters of the time); per-layer metrics:"]
        lines += metric_lines(metrics)
        lines.append(spans.self_time_line("self time per op, load generator", client_spans, len(tracer.ops)))
        lines.append(spans.self_time_line("self time per op, server", server_spans, len(tracer.ops)))
    else:
        metrics, window_lines = gated_metrics(lat, windows, named["setup_s"], gauge)
        lines += metric_lines(named)
        lines += ["gated end-to-end metrics:"] + metric_lines(metrics) + window_lines
        kinds = sorted({k for _, k, _, _ in lat.timeline})
        lines.append("client CPU per operation, p50 by kind: " + ", ".join(
            f"{k} {median([c for _, kk, _, c in lat.timeline if kk == k]) * 1e3:.3g} ms" for k in kinds))
    lines += [f"check failure: {f}" for f in lat.failures + end_problems]
    return Outcome(correct, lat.attempted, lat.failed, metrics, lines)
