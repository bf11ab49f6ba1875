"""Operator command line: key ceremonies, registration, index building,
client operations against a running server, the server itself, analysis
tables, and the simulation experiments.

`serve` keeps each zone store in memory and saves it to its snapshot
file on SIGINT or SIGTERM, naming each file it could not write; it
refuses a snapshot made under other params and makes a new zone's empty
store itself, and `snapshot` only inspects a file.

Bulky inputs travel in files; flags name the paths, and each input has
one source: a search opens records with the agent key held in the master
secrets file, and an upload goes to the zone its index was built for.
One search command serves one keyword or several: a record matches when
it holds every keyword. Free-text keywords, locations, and zone names
are canonicalized to n-bit tokens, so the same strings always address
the same buffers. The simulate-* subcommands take --seed and reproduce
bit-identically under it; the subcommands that make keys, blinding
elements or sealed records take no seed and draw from the OS. Each
command has one output form on stdout: lines, or CSV for simulate-*.
Exit codes: 0 success, 1 operational error, 2 usage.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

from . import analysis, files, net, sim
from .crypto import HANDLE_BYTES, CryptoError, MetaInfo, open_record, token_from_text
from .index import (
    build_conjunctive_query,
    build_removal_request,
    build_user_index,
    generate_master_secrets,
    make_upload_packet,
    register_user,
)
from .params import expected_distinct_positions, load_params_file, read_key_values
from .store import SNAPSHOT_MAGIC, StorageBloomFilter, StoreError


def _add_params_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--params", required=True, help="key=value parameter file")


def _host_port(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return host or "127.0.0.1", int(port)


def _tokens(csv: str, n_bits: int) -> list[bytes]:
    return [token_from_text(w.strip(), n_bits) for w in csv.split(",") if w.strip()]


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="sbfsearch", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("setup", help="generate vocabulary secrets and the agent key pair")
    _add_params_flags(p)
    p.add_argument("--vocab", required=True, help="text file, one keyword per line")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("register", help="derive a user keyring for a zone")
    _add_params_flags(p)
    p.add_argument("--master", required=True)
    p.add_argument("--keywords", required=True, help="comma-separated keywords")
    p.add_argument("--zone", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("build-index", help="build the padded filter triple for one location")
    _add_params_flags(p)
    p.add_argument("--keyring", required=True)
    p.add_argument("--location", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("upload", help="seal a meta record and upload it")
    _add_params_flags(p)
    p.add_argument("--index", required=True)
    p.add_argument("--mi", required=True, help="meta record text file")
    p.add_argument("--agent-pub", required=True)
    p.add_argument("--server", required=True, help="host:port")
    p.add_argument("--receipt", required=True, help="where to write the record handle")

    p = sub.add_parser("search", help="location-scoped search for records holding every keyword")
    _add_params_flags(p)
    p.add_argument("--master", required=True)
    p.add_argument("--keywords", required=True, help="comma-separated keywords")
    p.add_argument("--location", required=True)
    p.add_argument("--zone", required=True)
    p.add_argument("--server", required=True)

    p = sub.add_parser("remove", help="prune one keyword's buffers for an uploaded record")
    _add_params_flags(p)
    p.add_argument("--keyring", required=True)
    p.add_argument("--index", required=True, help="updated in place")
    p.add_argument("--keyword", required=True)
    p.add_argument("--location", required=True)
    p.add_argument("--receipt", required=True, help="receipt file from the upload")
    p.add_argument("--server", required=True)

    p = sub.add_parser("serve", help="run the storage server")
    _add_params_flags(p)
    p.add_argument("--listen", default="127.0.0.1:0", help="host:port (port 0 picks one)")
    p.add_argument("--store-dir", required=True, help="directory of zone snapshots (*.sbf)")
    p.add_argument("--zone", action="append", default=[], help="create an empty store for this zone name")

    p = sub.add_parser("analyze", help="print the derived quantities for a parameter set")
    _add_params_flags(p)
    p.add_argument("--t", type=int, default=1000, help="registered user count for the collision bound")

    p = sub.add_parser("simulate-overlap", help="blinding-overlap probability sweep")
    _add_params_flags(p)
    p.add_argument("--oe", required=True, help="comma-separated blinding element counts")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("simulate-overflow",
                       help="buffer overflow probability sweep, assuming users with disjoint "
                            "keywords (understates overflow when users share a keyword at "
                            "a sub-location)")
    _add_params_flags(p)
    p.add_argument("--t", type=int, help="user count (fixed) for a beta sweep")
    sweep = p.add_mutually_exclusive_group(required=True)
    sweep.add_argument("--betas", help="comma-separated buffer capacities to sweep")
    sweep.add_argument("--ts", help="comma-separated user counts to sweep at the params beta")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("simulate-accuracy", help="end-to-end recall/precision through the full stack")
    _add_params_flags(p)
    p.add_argument("--t", type=int, default=100, help="number of simulated users")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("snapshot", help="inspect a store snapshot")
    p.add_argument("--file", required=True)

    return top


# --- handlers ---------------------------------------------------------------

def _cmd_setup(args) -> int:
    params = load_params_file(args.params)
    words = [w.strip() for w in Path(args.vocab).read_text().splitlines() if w.strip()]
    vocab = [token_from_text(w, params.n_bits) for w in words]
    ms = generate_master_secrets(params, vocab)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files.save_master_secrets(ms, out / "master.keys")
    files.write_key_file(out / "agent.pub", ms.agent_public)
    print(f"vocabulary of {len(vocab)} keywords; material written to {out}")
    return 0


def _cmd_register(args) -> int:
    params = load_params_file(args.params)
    ms = files.load_master_secrets(args.master)
    kr = register_user(ms, _tokens(args.keywords, params.n_bits),
                       token_from_text(args.zone, params.n_bits), params)
    files.save_keyring(kr, args.out)
    print(f"keyring with {len(kr.keys)} keywords written to {args.out}")
    return 0


def _cmd_build_index(args) -> int:
    params = load_params_file(args.params)
    kr = files.load_keyring(args.keyring)
    idx = build_user_index(kr, token_from_text(args.location, params.n_bits), params)
    files.save_index(idx, args.out, params)
    print(f"index built: {idx.bf.popcount} positions marked, "
          f"{len(idx.obf_elements)} blinding elements held")
    return 0


def _read_mi_file(path: str, n_bits: int) -> MetaInfo:
    keys = ("pseudonym", "server-id", "memory-index", "attrs", "emergency")
    fields = {key: val for key, (_, val) in read_key_values(path, keys, CryptoError).items()}
    for req in ("pseudonym", "server-id", "memory-index"):
        if req not in fields:
            raise CryptoError(f"meta record file missing {req}")
    return MetaInfo(
        user_pseudonym=token_from_text(fields["pseudonym"], n_bits),
        health_attrs=tuple(_tokens(fields.get("attrs", ""), n_bits)),
        server_id=token_from_text(fields["server-id"], n_bits),
        memory_index=token_from_text(fields["memory-index"], n_bits),
        emergency_info=tuple(_tokens(fields.get("emergency", ""), n_bits)),
    )


def _cmd_upload(args) -> int:
    params = load_params_file(args.params)
    idx = files.load_index(args.index, params)
    mi = _read_mi_file(args.mi, params.n_bits)
    packet = make_upload_packet(idx, mi, files.read_key_file(args.agent_pub, 32), idx.zone, params)
    host, port = _host_port(args.server)
    with net.NetClient(host, port, net.ROLE_OWNER) as client:
        written = client.upload(packet)
    files.write_key_file(args.receipt, packet.sealed.handle)
    print(f"stored in {written} buffers; receipt written to {args.receipt}")
    return 0


def _print_records(records, agent_priv: bytes, n_bits: int) -> None:
    for rec in records:
        mi = open_record(agent_priv, rec, n_bits)
        keywords = ",".join(t.hex() for t in (*mi.health_attrs, *mi.emergency_info))
        print(f"pseudonym={mi.user_pseudonym.hex()} server={mi.server_id.hex()} "
              f"memory={mi.memory_index.hex()} keywords={keywords}")


def _cmd_search(args) -> int:
    params = load_params_file(args.params)
    ms = files.load_master_secrets(args.master)
    zone = token_from_text(args.zone, params.n_bits)
    keywords = _tokens(args.keywords, params.n_bits)
    kr = register_user(ms, keywords, zone, params)
    query = build_conjunctive_query(kr, keywords, token_from_text(args.location, params.n_bits), params)
    host, port = _host_port(args.server)
    with net.NetClient(host, port, net.ROLE_AGENT) as client:
        records = client.search_location(zone, query.positions())
    _print_records(records, ms.agent_private, params.n_bits)
    return 0


def _cmd_remove(args) -> int:
    params = load_params_file(args.params)
    kr = files.load_keyring(args.keyring)
    idx = files.load_index(args.index, params)
    handle = files.read_key_file(args.receipt, HANDLE_BYTES)
    req = build_removal_request(idx, kr, token_from_text(args.keyword, params.n_bits),
                                token_from_text(args.location, params.n_bits),
                                handle, params)
    host, port = _host_port(args.server)
    with net.NetClient(host, port, net.ROLE_OWNER) as client:
        pruned = client.remove(req)
    files.save_index(idx, args.index, params)
    print(f"pruned {pruned} buffers; index updated")
    return 0


def _cmd_serve(args) -> int:
    params = load_params_file(args.params)
    store_dir = Path(args.store_dir)
    store_dir.mkdir(parents=True, exist_ok=True)
    stores: dict[bytes, StorageBloomFilter] = {}
    sources: dict[bytes, Path] = {}
    for snap in sorted(store_dir.glob("*.sbf")):
        try:
            store = StorageBloomFilter.load(snap)
        except StoreError as exc:
            raise StoreError(f"{snap}: {exc}") from exc
        if store.params != params:
            raise StoreError(f"{snap} was made under other params than {args.params}")
        if store.zone in sources:
            raise StoreError(f"{sources[store.zone]} and {snap} hold the same zone {store.zone.hex()}")
        stores[store.zone], sources[store.zone] = store, snap
    for name in args.zone:
        zone = token_from_text(name, params.n_bits)
        stores.setdefault(zone, StorageBloomFilter(params, zone))
    host, port = _host_port(args.listen)
    server = net.NetServer(stores, host, port)
    # blocked before the loop thread starts, so it inherits the mask and only
    # sigwait takes a stop, which shutdown() lets land between requests
    stops = {signal.SIGINT, signal.SIGTERM}
    signal.pthread_sigmask(signal.SIG_BLOCK, stops)
    server.start()
    print(f"listening on {server.address[0]}:{server.address[1]} "
          f"({len(stores)} zone(s))", flush=True)
    signal.sigwait(stops)
    server.shutdown()
    # every save is tried; a loaded store goes back to its own file, so a restart finds one per zone
    failed = False
    for zone, store in stores.items():
        path = sources.get(zone, store_dir / f"{zone.hex()}.sbf")
        try:
            store.save(path)
        except OSError as exc:
            print(f"error: {type(exc).__name__}: {path}: {exc}", file=sys.stderr)
            failed = True
    if not failed:
        print("snapshots saved")
    return int(failed)


def _cmd_analyze(args) -> int:
    params = load_params_file(args.params)
    occupied = round(expected_distinct_positions(params.m, params.r, params.q))
    collision = analysis.blinding_collision_bound(args.t, occupied, params.r, params.l,
                                            params.gamma_count, params.m)
    rows = [
        ("m", params.m),
        ("expected_distinct", occupied),
        ("pr_overlap", analysis.prob_index_overlap(params.m, occupied, params.r)),
        ("pr_keyword_cover", analysis.prob_keyword_cover(params.m, occupied, params.r, params.q)),
        ("blinding_collision_bound", collision.bound),
        ("upload_bits_worst_case", analysis.upload_size_bits(params)),
        ("memory_model_mib", analysis.bytes_to_mib(analysis.provisioned_memory_bytes(params))),
    ]
    for name, v in rows:
        print(f"{name} = {v}")
    return 0


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _cmd_simulate_overlap(args) -> int:
    params = load_params_file(args.params)
    rows = sim.run_overlap_experiment(params, _int_list(args.oe), args.trials, args.seed)
    sys.stdout.write(sim.rows_to_csv(rows))
    return 0


def _cmd_simulate_overflow(args) -> int:
    params = load_params_file(args.params)
    if args.ts is not None:
        if args.t is not None:
            raise sim.SimError("a t sweep takes no --t")
        rows = sim.run_t_sweep(params, _int_list(args.ts), args.trials, args.seed)
    elif args.t is None:
        raise sim.SimError("a beta sweep needs --t")
    else:
        rows = sim.run_beta_sweep(params, args.t, _int_list(args.betas), args.trials, args.seed)
    sys.stdout.write(sim.rows_to_csv(rows))
    return 0


def _cmd_simulate_accuracy(args) -> int:
    params = load_params_file(args.params)
    report = sim.run_accuracy_experiment(params, args.t, args.seed)
    print(f"users = {report.users}")
    print(f"probes = {report.probes}")
    print(f"recall = {report.recall}")
    print(f"precision = {report.precision}")
    print(f"false_positives_blinding = {report.false_positives_blinding}")
    print(f"false_positives_hash = {report.false_positives_hash}")
    return 0


def _cmd_snapshot(args) -> int:
    store = StorageBloomFilter.load(args.file)
    size = Path(args.file).stat().st_size
    histogram = store.occupancy_histogram()
    entries = sum(occ * count for occ, count in histogram)
    occupied = sum(count for occ, count in histogram if occ > 0)
    print(f"format = {SNAPSHOT_MAGIC.decode('ascii')}")
    print(f"bytes = {size}")
    print(f"bytes_per_record = {size / len(store.table):.1f}" if store.table else "bytes_per_record = n/a")
    print(f"zone = {store.zone.hex()}")
    print(f"m = {store.params.m}")
    print(f"beta = {store.params.beta}")
    print(f"records = {len(store.table)}")
    print(f"entries = {entries}")
    print(f"occupied_buffers = {occupied}")
    print(f"model_mib = {analysis.bytes_to_mib(analysis.provisioned_memory_bytes(store.params))}")
    return 0


_HANDLERS = {
    "setup": _cmd_setup,
    "register": _cmd_register,
    "build-index": _cmd_build_index,
    "upload": _cmd_upload,
    "search": _cmd_search,
    "remove": _cmd_remove,
    "serve": _cmd_serve,
    "analyze": _cmd_analyze,
    "simulate-overlap": _cmd_simulate_overlap,
    "simulate-overflow": _cmd_simulate_overflow,
    "simulate-accuracy": _cmd_simulate_accuracy,
    "snapshot": _cmd_snapshot,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (CryptoError, StoreError, files.FileFormatError, net.WireError, net.ServerError, OSError,
            ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
