import contextlib
import dataclasses
import gc
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path
from random import Random

import pytest

import sbfsearch
from sbfsearch import net
from sbfsearch.analysis import result_size_bits, upload_size_bits
from sbfsearch.crypto import (SEAL_OVERHEAD_BYTES, SealedRecord, compress_positions, open_record, token_from_text,
                              unwrap_transport, wrap_transport)
from sbfsearch.filters import BitFilter
from sbfsearch.index import (
    RemovalRequest,
    UploadPacket,
    build_conjunctive_query,
    build_removal_request,
    keyword_positions,
    make_upload_packet,
)
from sbfsearch.params import derive_params
from sbfsearch.store import StorageBloomFilter, StoreError

from conftest import SystemFixture


@pytest.fixture
def server(system):
    srv = net.NetServer({system.zone: StorageBloomFilter(system.params, system.zone)})
    srv.start()
    yield srv
    srv.shutdown()


def _client(server, role=net.ROLE_OWNER):
    host, port = server.address
    return net.NetClient(host, port, role)


def _held(server):
    """The input buffer size of each connection the server holds."""
    while True:
        try:
            return [len(key.data.inbuf) for key in list(server._selector.get_map().values())
                    if isinstance(key.data, net._Connection)]
        except (RuntimeError, KeyError):  # the loop changed the map meanwhile
            pass


def _wait_for(server, done):
    deadline = time.monotonic() + 5
    while not done(_held(server)):
        assert time.monotonic() < deadline
        time.sleep(0.001)


# under each params set one request is the longest valid one: a REMOVE with a
# replacement, whose filters hold at most m of a record's q*r positions, or, at
# small tau and m, a SEARCH_LOC of q*r positions
LONGEST = {net.T_REMOVE: derive_params(l=20, r=10, gamma_count=1, q=15, beta=12, tau_bits=4096, n_bits=64,
                                       m_override=100),
           net.T_SEARCH_LOC: derive_params(l=20, r=10, gamma_count=1, q=15, beta=12, tau_bits=1024, n_bits=64,
                                           m_override=16)}


@pytest.fixture(params=list(LONGEST), ids=["remove", "search-loc"])
def longest(request):
    """A server under one of LONGEST's params sets, and the type of the
    longest request valid under it."""
    params = LONGEST[request.param]
    zone = bytes(params.n_bytes)
    srv = net.NetServer({zone: StorageBloomFilter(params, zone)})
    srv.start()
    yield srv, request.param
    srv.shutdown()


def _uploaded(system, server, keyword_ids=(0, 1), name="alice", seed=50):
    kr, idx = system.user(list(keyword_ids), seed=seed)
    packet = make_upload_packet(idx, system.meta(name), system.secrets.agent_public,
                                system.zone, system.params, Random(seed + 1))
    with _client(server) as c:
        written = c.upload(packet)
    return kr, idx, packet, written


def _run_child(script):
    """Run `script` in a fresh interpreter that imports the package under
    test; return the JSON object it prints."""
    src = str(Path(sbfsearch.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# an owner's and an agent's whole path in one process: the modules a client
# command or `serve` imports, an index saved and loaded, an upload, a
# conjunctive search and a removal against an in-process server
NETWORK_PATH_SCRIPT = r"""
import json, sys, tempfile
from pathlib import Path
from random import Random
from sbfsearch import cli, files, net, store
from sbfsearch.crypto import MetaInfo, token_from_text
from sbfsearch.index import (build_conjunctive_query, build_removal_request, build_user_index,
                             generate_master_secrets, keyword_positions, make_upload_packet, register_user)
from sbfsearch.params import derive_params

params = derive_params(l=20, r=4, gamma_count=2, q=6, beta=12, tau_bits=4096, n_bits=64)
tok = lambda text: token_from_text(text, params.n_bits)
vocab = [tok(f"kw{i}") for i in range(params.l)]
secrets = generate_master_secrets(params, vocab, Random(1))
zone, loc = tok("zone-a"), tok("loc-0")
kr = register_user(secrets, vocab[:3], zone, params)
with tempfile.TemporaryDirectory() as tmp:
    files.save_index(build_user_index(kr, loc, params, Random(90)), Path(tmp) / "do.index", params)
    idx = files.load_index(Path(tmp) / "do.index", params)
meta = MetaInfo(tok("alice"), (tok("alice-attr"),), tok("cs-1"), tok("alice-slot"), ())
packet = make_upload_packet(idx, meta, secrets.agent_public, zone, params, Random(91))
popcount = idx.bf.popcount  # the removal below changes the index
query = build_conjunctive_query(kr, [vocab[0], vocab[2]], loc, params)
req = build_removal_request(idx, kr, vocab[1], loc, packet.sealed.handle, params, Random(92))
server = net.NetServer({zone: store.StorageBloomFilter(params, zone)})
server.start()
try:
    with net.NetClient(*server.address, net.ROLE_OWNER) as c:
        written = c.upload(packet)
        found = packet.sealed.handle in {r.handle for r in c.search_conjunctive(zone, query)}
        pruned = c.remove(req)
        gone = not c.search_location(zone, keyword_positions(kr, vocab[1], loc, params))
finally:
    server.shutdown()
print(json.dumps({"written": written, "popcount": popcount, "found": found, "pruned": pruned,
                  "pruned_popcount": req.rbf_prime.popcount, "gone": gone, "numpy": "numpy" in sys.modules}))
"""


class TestHandshake:
    def test_round_trip_and_distinct_session_keys(self, server):
        with _client(server) as a, _client(server, net.ROLE_AGENT) as b:
            assert a._session.channel_key != b._session.channel_key

    def test_many_sessions_unique_keys(self, server):
        keys = set()
        for _ in range(50):
            with _client(server) as c:
                keys.add(c._session.channel_key)
        assert len(keys) == 50

    def test_tampered_transcript_aborts(self):
        # a middlebox runs a genuine handshake but flips one byte of the
        # server public key it forwards; the confirmation tag no longer
        # verifies and the client aborts
        from cryptography.hazmat.primitives.asymmetric.x25519 import (
            X25519PrivateKey,
            X25519PublicKey,
        )
        from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

        left, right = socket.socketpair()
        try:
            def middlebox():
                _, hello = net.recv_frame(right)
                eph = X25519PrivateKey.generate()
                pub = eph.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
                shared = eph.exchange(X25519PublicKey.from_public_bytes(hello[1:]))
                transcript = hello + pub + hello[:1]
                key = net._derive_channel_key(shared, transcript)
                tag = net._confirmation(key, transcript)
                corrupted = bytes([pub[0] ^ 1]) + pub[1:]
                net.send_frame(right, net.T_HELLO_ACK, corrupted + hello[:1] + tag)

            t = threading.Thread(target=middlebox)
            t.start()
            with pytest.raises(net.WireError):
                net.client_handshake(left, net.ROLE_OWNER)
            t.join()
        finally:
            left.close()
            right.close()


    def test_golden_channel_key_and_confirmation(self):
        # golden bytes: a change to the handshake's key schedule fails here
        shared, transcript = bytes(range(32)), bytes(range(65, 130))
        key = net._derive_channel_key(shared, transcript)
        assert key.hex() == "dace743cab535739644a2a789a730e56"
        assert net._confirmation(key, transcript).hex() == (
            "61d4693d7464285ace16f38669e3eebf2c4b2a7d6fdadfd09503f5fa47e2c567"
        )

    def test_failed_handshake_closes_client_socket(self, monkeypatch):
        # a peer answers HELLO with a 10-byte HELLO_ACK; the client raises
        # WireError and must not leave its socket for the collector to find
        listener = socket.create_server(("127.0.0.1", 0))

        def peer():
            conn, _ = listener.accept()
            with conn:
                net.recv_frame(conn)
                net.send_frame(conn, net.T_HELLO_ACK, bytes(10))
                conn.recv(1)  # returns once the client side is closed

        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        t = threading.Thread(target=peer, daemon=True)
        t.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", ResourceWarning)
                with pytest.raises(net.WireError, match="handshake rejected"):
                    net.NetClient(*listener.getsockname(), net.ROLE_OWNER)
                gc.collect()
        finally:
            t.join(timeout=5)
            listener.close()
        assert not t.is_alive()
        assert [u.exc_value for u in unraisable] == []


class TestOperations:
    def test_upload_then_search_round_trip(self, system, server):
        kr, idx, packet, written = _uploaded(system, server)
        assert written == idx.bf.popcount
        ps = keyword_positions(kr, system.vocab[0], system.locations[0], system.params)
        with _client(server, net.ROLE_AGENT) as c:
            records = c.search_location(system.zone, ps)
        assert packet.sealed.handle in {r.handle for r in records}
        mi = open_record(system.secrets.agent_private, records[0], system.params.n_bits)
        assert mi.user_pseudonym == token_from_text("alice", system.params.n_bits)

    def test_conjunctive_search(self, system, server):
        kr, idx, packet, _ = _uploaded(system, server, keyword_ids=(0, 1, 2))
        query = build_conjunctive_query(kr, [system.vocab[0], system.vocab[2]],
                                        system.locations[0], system.params)
        with _client(server, net.ROLE_AGENT) as c:
            records = c.search_conjunctive(system.zone, query)
        assert packet.sealed.handle in {r.handle for r in records}

    def test_remove_then_search_absent(self, system, server):
        kr, idx, packet, _ = _uploaded(system, server, keyword_ids=(0,), seed=60)
        loc = system.locations[0]
        req = build_removal_request(idx, kr, system.vocab[0], loc,
                                    packet.sealed.handle, system.params, Random(61))
        with _client(server) as c:
            pruned = c.remove(req)
        assert pruned > 0
        with _client(server, net.ROLE_AGENT) as c:
            assert not c.search_location(system.zone, keyword_positions(
                kr, system.vocab[0], loc, system.params))

    def test_no_m_length_array_on_client_or_server(self):
        """Building, uploading, querying and removing cost the positions
        they touch, and hold no numpy array at all: in a fresh process that
        imports the command line, the wire, the store and the files
        module, the client builds an index, saves and loads it, uploads,
        and an in-process server answers SEARCH_LOC and REMOVE, and numpy
        is never imported."""
        got = _run_child(NETWORK_PATH_SCRIPT)
        assert got["written"] == got["popcount"] and got["pruned"] == got["pruned_popcount"]
        assert got["found"] and got["gone"]
        assert not got["numpy"]

    def test_unknown_zone_error(self, system, server):
        with _client(server, net.ROLE_AGENT) as c:
            with pytest.raises(net.ServerError) as info:
                c.search_location(token_from_text("nowhere", 64), [0, 1])
        assert info.value.code == net.E_ZONE_UNKNOWN

    def test_overflow_reports_buffer_index(self, system):
        params = derive_params(l=20, r=4, gamma_count=2, q=6, beta=1, tau_bits=4096, n_bits=64)
        sys2 = SystemFixture(params, seed=62)
        srv = net.NetServer({sys2.zone: StorageBloomFilter(params, sys2.zone)})
        srv.start()
        try:
            packets = []
            for u in range(2):
                kr, idx = sys2.user([0], seed=63 + u)
                packets.append(make_upload_packet(idx, sys2.meta(f"u{u}"),
                                                  sys2.secrets.agent_public,
                                                  sys2.zone, params, Random(65 + u)))
            host, port = srv.address
            with net.NetClient(host, port, net.ROLE_OWNER) as c:
                c.upload(packets[0])
                with pytest.raises(net.ServerError) as info:
                    c.upload(packets[1])
            assert info.value.code == net.E_OVERFLOW
            assert "buffer" in info.value.message
        finally:
            srv.shutdown()

    def test_duplicate_upload_rejected(self, system, server):
        kr, idx, packet, _ = _uploaded(system, server, seed=66)
        with _client(server) as c:
            with pytest.raises(net.ServerError) as info:
                c.upload(packet)
        assert info.value.code == net.E_DUPLICATE_HANDLE

    def test_unknown_message_type_gets_error(self, system, server):
        host, port = server.address
        with net.NetClient(host, port, net.ROLE_OWNER) as c:
            net.send_frame(c._sock, 0x7F, wrap_transport(c._session.aead, bytes([7]) + b"payload"))
            rtype, payload = net.recv_frame(c._sock)
            assert rtype == net.T_ERROR

    def test_malformed_encrypted_body_gets_error(self, system, server):
        host, port = server.address
        with net.NetClient(host, port, net.ROLE_OWNER) as c:
            net.send_frame(c._sock, net.T_UPLOAD, b"\x00" * 40)
            rtype, _ = net.recv_frame(c._sock)
            assert rtype == net.T_ERROR


class TestWireSizes:
    def test_upload_within_predicted_bits(self, system, server):
        kr, idx, packet, _ = _uploaded(system, server, keyword_ids=tuple(range(6)), seed=70)
        assert len(packet.to_bytes()) * 8 <= upload_size_bits(system.params)

    def test_result_size_model_matches_wire(self, system, server):
        kr, idx, packet, _ = _uploaded(system, server, keyword_ids=(0,), seed=71)
        ps = keyword_positions(kr, system.vocab[0], system.locations[0], system.params)
        host, port = server.address
        with net.NetClient(host, port, net.ROLE_AGENT) as c:
            c._corr += 1
            body = system.zone + struct.pack(">H", len(ps)) + struct.pack(f">{len(ps)}I", *ps)
            net.send_frame(c._sock, net.T_SEARCH_LOC, wrap_transport(c._session.aead, bytes([c._corr]) + body))
            rtype, payload = net.recv_frame(c._sock)
            plain = unwrap_transport(c._session.aead, payload)
        measured_bits = (len(plain) - 1) * 8  # drop the correlation byte
        sealed_bits = 8 * (16 + len(packet.sealed.ciphertext))  # handle included on the wire
        assert measured_bits == result_size_bits(1, sealed_bits)


class TestRobustness:
    def test_counts_above_record_load_refused(self, system, server):
        """Every decoded filter or position list is bounded by a record's
        q*r positions; an all-ones upload or pruning filter and a search
        of q*r + 1 positions are refused undecoded, the store is unchanged
        and the session goes on."""
        kr, _, packet, _ = _uploaded(system, server, seed=68)
        store = server.stores[system.zone]
        table_before = dict(store.table)
        buffers_before = [list(b) for b in store.buffers]
        ones = BitFilter(system.params.m, range(system.params.m))
        flood = UploadPacket(zone=system.zone, compressed_bf=ones.compress(),
                             sealed=SealedRecord(handle=b"f" * 16, ciphertext=b"flood"))
        with _client(server) as c:
            for call in (lambda: c.upload(flood),
                         lambda: c.search_location(system.zone, list(range(system.params.max_positions + 1))),
                         lambda: c.remove(RemovalRequest(zone=system.zone, rbf_prime=ones,
                                                         handle=packet.sealed.handle))):
                with pytest.raises(net.ServerError) as info:
                    call()
                assert info.value.code == net.E_MALFORMED
                assert "exceeds bound" in info.value.message
            assert store.table == table_before
            assert [list(b) for b in store.buffers] == buffers_before
            ps = keyword_positions(kr, system.vocab[0], system.locations[0], system.params)
            assert packet.sealed.handle in {r.handle for r in c.search_location(system.zone, ps)}

    def test_agent_may_not_upload_or_remove(self, system, server):
        """An agent session's UPLOAD and REMOVE get E_BAD_REQUEST before
        the body is parsed (a garbage body gets the same answer); the store
        is unchanged and the session goes on to search."""
        kr, idx, packet, _ = _uploaded(system, server, seed=81)
        loc = system.locations[0]
        store = server.stores[system.zone]
        table_before = dict(store.table)
        buffers_before = [list(b) for b in store.buffers]
        _, other = system.user([1], seed=82)
        upload = make_upload_packet(other, system.meta("mallory"), system.secrets.agent_public,
                                    system.zone, system.params, Random(83))
        removal = build_removal_request(idx, kr, system.vocab[0], loc, packet.sealed.handle,
                                        system.params, Random(84))
        ps = keyword_positions(kr, system.vocab[0], loc, system.params)
        with _client(server, net.ROLE_AGENT) as c:
            for call in (lambda: c.upload(upload), lambda: c.remove(removal),
                         lambda: c._round_trip(net.T_UPLOAD, b"garbage", net.T_UPLOAD_ACK),
                         lambda: c._round_trip(net.T_REMOVE, b"garbage", net.T_REMOVE_ACK)):
                with pytest.raises(net.ServerError) as info:
                    call()
                assert info.value.code == net.E_BAD_REQUEST
            assert store.table == table_before
            assert [list(b) for b in store.buffers] == buffers_before
            assert packet.sealed.handle in {r.handle for r in c.search_location(system.zone, ps)}

    def test_oversize_sealed_record_refused(self, system, server):
        """An upload whose sealed record is longer than seal_record makes
        one at tau gets E_MALFORMED and leaves the store unchanged."""
        kr, _, packet, _ = _uploaded(system, server, seed=85)
        store = server.stores[system.zone]
        table_before = dict(store.table)
        buffers_before = [list(b) for b in store.buffers]
        _, idx = system.user([1], seed=86)
        honest = make_upload_packet(idx, system.meta("big"), system.secrets.agent_public,
                                    system.zone, system.params, Random(87))
        limit = SEAL_OVERHEAD_BYTES + system.params.tau_bits // 8
        bloated = UploadPacket(zone=system.zone, compressed_bf=honest.compressed_bf,
                               sealed=SealedRecord(honest.sealed.handle, bytes(limit + 1)))
        with _client(server) as c:
            with pytest.raises(net.ServerError) as info:
                c.upload(bloated)
            assert info.value.code == net.E_MALFORMED
            assert "exceeds tau bound" in info.value.message
            assert store.table == table_before
            assert [list(b) for b in store.buffers] == buffers_before
            assert c.upload(honest) == idx.bf.popcount

    def test_non_canonical_ephemeral_key_refused(self, system, server):
        """An upload whose sealed record has the top bit of its ephemeral
        key set, a second encoding of a record that X25519 would open,
        gets E_MALFORMED and leaves the store unchanged."""
        _uploaded(system, server, seed=88)
        store = server.stores[system.zone]
        table_before = dict(store.table)
        buffers_before = [list(b) for b in store.buffers]
        _, idx = system.user([1], seed=89)
        honest = make_upload_packet(idx, system.meta("twin"), system.secrets.agent_public,
                                    system.zone, system.params, Random(90))
        ct = bytearray(honest.sealed.ciphertext)
        ct[31] ^= 0x80
        twin = UploadPacket(zone=system.zone, compressed_bf=honest.compressed_bf,
                            sealed=SealedRecord(honest.sealed.handle, bytes(ct)))
        with _client(server) as c:
            with pytest.raises(net.ServerError) as info:
                c.upload(twin)
            assert info.value.code == net.E_MALFORMED
            assert "not canonical" in info.value.message
            assert store.table == table_before
            assert [list(b) for b in store.buffers] == buffers_before
            assert c.upload(honest) == idx.bf.popcount

    def test_filter_with_a_pad_bit_set_is_malformed(self):
        """A sparse filter has one encoding: the bits after its last
        position are zero. At m=28854 the filter of [1, 5, 9] ends in 3 pad
        bits; with the last one set, an UPLOAD and a REMOVE carrying it
        each get E_MALFORMED and leave the table and every buffer
        unchanged, and with it clear both are served."""
        params = derive_params(l=20, r=4, gamma_count=2, q=6, beta=12, tau_bits=4096, n_bits=64,
                               m_override=28854)
        sys2 = SystemFixture(params, seed=94)
        exact = compress_positions([1, 5, 9], params.m)
        padded = exact[:-1] + bytes([exact[-1] | 1])
        sealed = [make_upload_packet(sys2.user([0], seed=95 + u)[1], sys2.meta(f"u{u}"), sys2.secrets.agent_public,
                                     sys2.zone, params, Random(97 + u)).sealed for u in range(2)]
        store = StorageBloomFilter(params, sys2.zone)
        srv = net.NetServer({sys2.zone: store})
        srv.start()
        try:
            with net.NetClient(*srv.address, net.ROLE_OWNER) as c:
                assert c.upload(UploadPacket(sys2.zone, exact, sealed[0])) == 3
                table_before = dict(store.table)
                buffers_before = [list(b) for b in store.buffers]
                remove = sys2.zone + sealed[0].handle + struct.pack(">I", len(padded)) + padded + b"\x00"
                for call in (lambda: c.upload(UploadPacket(sys2.zone, padded, sealed[1])),
                             lambda: c._round_trip(net.T_REMOVE, remove, net.T_REMOVE_ACK)):
                    with pytest.raises(net.ServerError) as info:
                        call()
                    assert info.value.code == net.E_MALFORMED
                    assert "pad bits" in info.value.message
                    assert store.table == table_before
                    assert [list(b) for b in store.buffers] == buffers_before
                assert c.upload(UploadPacket(sys2.zone, exact, sealed[1])) == 3
                remove = remove.replace(padded, exact)
                assert net.NetClient._parse_count(c._round_trip(net.T_REMOVE, remove, net.T_REMOVE_ACK)) == 3
                assert list(store.table) == [sealed[1].handle]
        finally:
            srv.shutdown()

    def test_cut_bodies_and_bad_remove_flag_are_malformed(self, system, server):
        """Every proper prefix of a valid SEARCH_LOC and REMOVE body, each
        body plus one byte, and a REMOVE whose flag is neither 0 nor 1 get
        E_MALFORMED on one session; the store is unchanged and the session
        goes on."""
        kr, idx, packet, _ = _uploaded(system, server, seed=75)
        params, loc = system.params, system.locations[0]
        store = server.stores[system.zone]
        table_before = dict(store.table)
        buffers_before = [list(b) for b in store.buffers]
        ps = keyword_positions(kr, system.vocab[0], loc, params)
        _, new_idx = system.user([2], seed=76)
        replacement = make_upload_packet(new_idx, system.meta("bob"), system.secrets.agent_public,
                                         system.zone, params, Random(77))
        sparse = packet.compressed_bf  # withdraw the whole record
        head = system.zone + packet.sealed.handle + struct.pack(">I", len(sparse)) + sparse
        remove = head + b"\x01" + replacement.to_bytes()
        cases = [(net.T_SEARCH_LOC, system.zone + struct.pack(f">H{len(ps)}I", len(ps), *ps), net.T_RESULT),
                 (net.T_REMOVE, remove, net.T_REMOVE_ACK)]
        with _client(server) as c:
            bad = [(ftype, body[:k], expect) for ftype, body, expect in cases for k in range(len(body))]
            bad += [(ftype, body + b"\x00", expect) for ftype, body, expect in cases]
            bad.append((net.T_REMOVE, head + b"\x02" + replacement.to_bytes(), net.T_REMOVE_ACK))
            for ftype, body, expect in bad:
                with pytest.raises(net.ServerError) as info:
                    c._round_trip(ftype, body, expect)
                assert info.value.code == net.E_MALFORMED, (ftype, len(body))
            assert store.table == table_before
            assert [list(b) for b in store.buffers] == buffers_before
            for ftype, body, expect in cases:  # the whole bodies are valid
                c._round_trip(ftype, body, expect)
            assert replacement.sealed.handle in store.table and packet.sealed.handle not in store.table

    def test_type_0x04_is_an_unknown_message_type(self, system, server):
        """A frame of type 0x04, the retired SEARCH_BF, carrying the body
        that message took, gets E_MALFORMED "unknown message type 0x04";
        the store is unchanged and the session goes on."""
        kr, _, packet, _ = _uploaded(system, server, seed=93)
        store = server.stores[system.zone]
        table_before = dict(store.table)
        buffers_before = [list(b) for b in store.buffers]
        query = build_conjunctive_query(kr, [system.vocab[0], system.vocab[1]], system.locations[0], system.params)
        with _client(server, net.ROLE_AGENT) as c:
            with pytest.raises(net.ServerError) as info:
                c._round_trip(0x04, system.zone + query.compress(), net.T_RESULT)
            assert (info.value.code, info.value.message) == (net.E_MALFORMED, "unknown message type 0x04")
            assert store.table == table_before
            assert [list(b) for b in store.buffers] == buffers_before
            assert packet.sealed.handle in {r.handle for r in c.search_location(system.zone, query.positions())}

    def test_empty_location_search_gets_empty_result(self, system, server):
        """A SEARCH_LOC naming no position answers an empty RESULT, on an
        empty store and on a loaded one, and the session goes on."""
        with _client(server, net.ROLE_AGENT) as c:
            assert c.search_location(system.zone, []) == []
        kr, _, packet, _ = _uploaded(system, server, seed=78)
        ps = keyword_positions(kr, system.vocab[0], system.locations[0], system.params)
        with _client(server, net.ROLE_AGENT) as c:
            assert c.search_location(system.zone, []) == []
            assert packet.sealed.handle in {r.handle for r in c.search_location(system.zone, ps)}

    def test_garbage_frames_do_not_crash_server(self, system, server):
        host, port = server.address
        rng = Random(72)
        for _ in range(30):
            with socket.create_connection((host, port)) as s:
                s.sendall(rng.randbytes(rng.randrange(1, 200)))
        # server still answers a proper client
        _uploaded(system, server, seed=73)

    def test_oversize_frame_rejected(self, server):
        host, port = server.address
        with socket.create_connection((host, port)) as s:
            s.sendall(net.MAGIC + struct.pack(">BI", net.T_HELLO, net.MAX_PAYLOAD + 1))
            s.settimeout(2)
            assert s.recv(64) == b""  # connection dropped

    @pytest.mark.parametrize("ftype", [net.T_HELLO, net.T_UPLOAD], ids=["oversize-hello", "upload"])
    def test_a_frame_before_hello_is_refused_at_its_header(self, server, ftype):
        """A connection's first frame that is not a 33-byte HELLO, here one
        that announces the frame limit, is refused at its header: the
        server never buffers its body."""
        with socket.create_connection(server.address) as s:
            s.sendall(net.MAGIC + struct.pack(">BI", ftype, net.MAX_PAYLOAD))
            _wait_for(server, lambda sizes: sizes in ([], [9]))  # dropped, or the header read
            try:
                s.sendall(bytes(1 << 20))
            except OSError:  # reset by the server
                pass
            _wait_for(server, lambda sizes: sizes == [] or max(sizes) > 9)  # dropped, or the body buffered
            assert _held(server) == []

    def test_the_longest_valid_request_is_answered(self, longest, monkeypatch):
        """The server's request bound is the longest valid request under its
        params, which a real client reaches: a REMOVE whose replacement's
        sealed record is at tau and whose filters hold a record's load, or a
        SEARCH_LOC of q*r positions. Both are answered, the longer at
        exactly the bound, and the session goes on."""
        srv, kind = longest
        (zone,) = srv.stores
        p = srv.params
        load = BitFilter(p.m, range(min(p.m, p.max_positions)))
        sealed = SealedRecord(handle=b"r" * 16, ciphertext=bytes(SEAL_OVERHEAD_BYTES + p.tau_bits // 8))
        replacement = UploadPacket(zone=zone, compressed_bf=load.compress(), sealed=sealed)
        sent = {}  # payload length by frame type
        real_send = net.send_frame

        def send_frame(sock, ftype, payload):
            sent[ftype] = len(payload)
            real_send(sock, ftype, payload)

        with _client(srv) as c:
            monkeypatch.setattr(net, "send_frame", send_frame)
            for call in (lambda: c.remove(RemovalRequest(zone=zone, rbf_prime=load, handle=b"h" * 16,
                                                         replacement=replacement)),
                         lambda: c.search_location(zone, list(range(p.max_positions)))):
                with contextlib.suppress(net.ServerError):  # answered; it need not succeed
                    call()
            assert sorted(sent) == [net.T_SEARCH_LOC, net.T_REMOVE]
            assert max(sent.values()) == sent[kind] == srv.max_request
            assert min(sent.values()) < srv.max_request
            assert c.search_location(zone, []) == []

    def test_a_frame_over_the_request_bound_is_refused_at_its_header(self, longest):
        """After the handshake, a header announcing one byte more than the
        longest valid request closes the connection with at most the 9
        header bytes buffered."""
        srv, kind = longest
        with _client(srv) as c:
            c._sock.sendall(net.MAGIC + struct.pack(">BI", kind, srv.max_request + 1))
            _wait_for(srv, lambda sizes: sizes in ([], [9]))  # dropped, or the header read
            with contextlib.suppress(OSError):  # reset by the server
                c._sock.sendall(bytes(srv.max_request + 1))
            _wait_for(srv, lambda sizes: sizes != [9])  # dropped, or the body read
            assert _held(srv) == []

    def test_no_thread_per_connection(self, server):
        """The loop serves every connection on its own thread: the thread
        count is the same after 20 sessions in turn and while 20 are open."""
        before = threading.active_count()
        for _ in range(20):
            with _client(server):
                pass
        assert threading.active_count() == before
        clients = []
        try:
            for _ in range(20):
                clients.append(_client(server, net.ROLE_AGENT))  # each has finished its handshake
            assert threading.active_count() == before
        finally:
            for c in clients:
                c.close()

    def test_silent_and_stalled_peers_are_dropped(self, system, server):
        """A peer silent before HELLO and a session that stops mid-frame
        are dropped after the idle timeout; a session idle between frames
        is kept, and another session is answered meanwhile."""
        kr, _, packet, _ = _uploaded(system, server, seed=79)
        ps = keyword_positions(kr, system.vocab[0], system.locations[0], system.params)
        host, port = server.address
        start = time.monotonic()
        with socket.create_connection((host, port)) as silent, \
                socket.create_connection((host, port)) as stalled, _client(server, net.ROLE_AGENT) as c:
            net.client_handshake(stalled, net.ROLE_AGENT)
            stalled.sendall(net.MAGIC + bytes([net.T_SEARCH_LOC]))  # a header cut short
            for _ in range(5):
                assert packet.sealed.handle in {r.handle for r in c.search_location(system.zone, ps)}
            for peer in (silent, stalled):
                peer.settimeout(5)
                assert peer.recv(1) == b""  # dropped
            assert time.monotonic() - start >= net.IDLE_TIMEOUT_S
            # c sat idle between frames for the whole timeout and is still served
            assert packet.sealed.handle in {r.handle for r in c.search_location(system.zone, ps)}

    def test_pipelining_peer_does_not_stall_others(self, system, server):
        """A session that sends many requests and reads none of the replies
        fills its socket buffers, and more; the loop pauses it, not the
        others."""
        for u in range(10):  # each reply carries ten records, ~2 KB
            kr, _, packet, _ = _uploaded(system, server, keyword_ids=(0,), name=f"p{u}", seed=80 + 2 * u)
        ps = keyword_positions(kr, system.vocab[0], system.locations[0], system.params)
        host, port = server.address
        body = bytes([1]) + system.zone + struct.pack(f">H{len(ps)}I", len(ps), *ps)
        greedy = socket.socket()
        greedy.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        greedy.connect((host, port))
        with greedy, _client(server, net.ROLE_AGENT) as c:
            aead = net.client_handshake(greedy, net.ROLE_AGENT).aead
            envelopes = [wrap_transport(aead, body) for _ in range(3000)]
            frames = b"".join(net.MAGIC + struct.pack(">BI", net.T_SEARCH_LOC, len(e)) + e for e in envelopes)
            greedy.settimeout(5)

            def pipeline():
                try:
                    greedy.sendall(frames)
                except OSError:  # dropped once its replies stopped moving
                    pass

            sender = threading.Thread(target=pipeline, daemon=True)
            sender.start()
            c._sock.settimeout(5)  # a loop blocked on the greedy peer times this out
            for _ in range(20):
                assert packet.sealed.handle in {r.handle for r in c.search_location(system.zone, ps)}
            sender.join(timeout=10)
            assert not sender.is_alive()

    def test_accept_rests_when_descriptors_run_out(self):
        """A process at its descriptor limit with a connection pending
        cannot accept it, and the listener stays readable. The server rests
        the listener instead of spinning on it, and serves again once
        descriptors are free. The limit is lowered in a child process, to
        about 12 descriptors above the highest one it holds."""
        script = r"""
import json, logging, os, resource, socket, time
from sbfsearch import net
from sbfsearch.params import derive_params
from sbfsearch.store import StorageBloomFilter

failures = []

class Failures(logging.Handler):
    def emit(self, record):
        failures.append(record)

log = logging.getLogger("sbfsearch.net")
log.addHandler(Failures())
log.propagate = False

params = derive_params(l=20, r=4, gamma_count=2, q=6, beta=12, tau_bits=4096, n_bits=64)
zone = bytes(8)
server = net.NetServer({zone: StorageBloomFilter(params, zone)})
server.start()
_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (max(map(int, os.listdir("/dev/fd"))) + 12, hard))
held = []
try:
    while True:
        held.append(socket.socket())
except OSError:
    pass
held.pop().close()
pending = socket.create_connection(server.address)  # the last descriptor: the server has none
time.sleep(0.2)
cpu = time.process_time()
time.sleep(1.0)
cpu = time.process_time() - cpu
for sock in held:
    sock.close()
with net.NetClient(*server.address, net.ROLE_AGENT) as client:
    served = client.search_location(zone, [])
pending.close()
server.shutdown()
print(json.dumps({"held": len(held) + 1, "cpu_per_idle_s": cpu, "failures": len(failures),
                  "served": served == []}))
"""
        got = _run_child(script)
        assert got["held"] <= 16 and got["served"]
        assert got["failures"] >= 1  # accept did fail for want of a descriptor
        assert got["cpu_per_idle_s"] < 0.1

    def test_shutdown_closes_every_connection(self, system, server):
        """shutdown() returns once the loop has closed the listener and
        every connection, handshaken or not; a second call does nothing."""
        with _client(server, net.ROLE_AGENT) as c, socket.create_connection(server.address) as silent:
            assert c.search_location(system.zone, []) == []
            server.shutdown()
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(server.address).close()
            for sock in (c._sock, silent):
                sock.settimeout(5)
                assert sock.recv(1) == b""
        server.shutdown()

    def test_shutdown_before_start_or_twice_leaves_no_socket_open(self, system):
        for started in (False, True):
            srv = net.NetServer({system.zone: StorageBloomFilter(system.params, system.zone)})
            if started:
                srv.start()
            srv.shutdown()
            srv.shutdown()
            assert [sock.fileno() for sock in (srv._listener, srv._wake_r, srv._wake_w)] == [-1] * 3
            assert srv._loop_thread is None or not srv._loop_thread.is_alive()

    @pytest.mark.parametrize("case", ["no stores", "two params", "zone key", "short zone key"])
    def test_stores_it_cannot_serve_are_refused_before_a_socket_opens(self, system, monkeypatch, case):
        """A server serves one params set: no stores, stores under two
        params, or a store filed under another zone's key, a short one
        included, raises at construction, and every socket made by then
        is closed. A store of a zone that is not n_bytes long cannot be
        made (`test_store.py::TestIngest::test_zone_of_another_width_refused`)."""
        made = []

        def recording(make):
            def record(*args, **kwargs):
                made.append(make(*args, **kwargs))
                return made[-1]
            return record

        monkeypatch.setattr(socket, "create_server", recording(socket.create_server))
        monkeypatch.setattr(socket, "socketpair", recording(socket.socketpair))
        other = dataclasses.replace(system.params, beta=system.params.beta + 1)
        zone_b = token_from_text("zone-b", system.params.n_bits)
        stores = {"no stores": lambda: {},
                  "two params": lambda: {system.zone: StorageBloomFilter(system.params, system.zone),
                                         zone_b: StorageBloomFilter(other, zone_b)},
                  "zone key": lambda: {zone_b: StorageBloomFilter(system.params, system.zone)},
                  "short zone key": lambda: {system.zone[:-1]: StorageBloomFilter(system.params, system.zone)},
                  }[case]()
        with pytest.raises(StoreError):
            net.NetServer(stores)
        socks = [sock for item in made for sock in (item if isinstance(item, tuple) else (item,))]
        assert [sock.fileno() for sock in socks] == [-1] * len(socks)

    def test_concurrent_sessions(self, system, server):
        kr, idx, packet, _ = _uploaded(system, server, keyword_ids=(0,), seed=74)
        ps = keyword_positions(kr, system.vocab[0], system.locations[0], system.params)
        host, port = server.address
        errors = []

        def worker(worker_id):
            try:
                with net.NetClient(host, port, net.ROLE_AGENT) as c:
                    for _ in range(5):
                        records = c.search_location(system.zone, ps)
                        assert packet.sealed.handle in {r.handle for r in records}
            except Exception as exc:  # noqa: BLE001
                errors.append((worker_id, exc))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(20)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors


@pytest.fixture
def scripted_peer():
    """Start a peer that completes the handshake, then answers each request
    with the next of the given (type, body) frames; returns a client."""
    listener = socket.create_server(("127.0.0.1", 0))
    threads = []

    def start(replies):
        def serve():
            conn, _ = listener.accept()
            with conn:
                aead = net.server_handshake(conn).aead
                for rtype, body in replies:
                    _, payload = net.recv_frame(conn)
                    corr = unwrap_transport(aead, payload)[:1]
                    net.send_frame(conn, rtype, wrap_transport(aead, corr + body))

        threads.append(threading.Thread(target=serve, daemon=True))
        threads[-1].start()
        return net.NetClient(*listener.getsockname(), net.ROLE_OWNER)

    yield start
    for t in threads:
        t.join(timeout=5)
    listener.close()


class TestClientParsing:
    def test_malformed_replies_raise_wire_error(self, system, scripted_peer):
        """A cut or overlong RESULT, an ERROR shorter than its 2-byte code
        and an ACK that is not 4 bytes raise WireError, which the CLI
        reports; the session then reads a valid RESULT."""
        result = (struct.pack(">I", 2) + b"a" * 16 + struct.pack(">I", 3) + b"ct1"
                  + b"b" * 16 + struct.pack(">I", 0))
        bad = [(net.T_RESULT, result[:k]) for k in range(len(result))]
        bad += [(net.T_RESULT, result + b"\x00"), (net.T_ERROR, b""), (net.T_ERROR, b"\x00")]
        acks = [(net.T_UPLOAD_ACK, b"\x00" * 3), (net.T_UPLOAD_ACK, b"\x00" * 5)]
        upload = UploadPacket(zone=system.zone, compressed_bf=b"", sealed=SealedRecord(b"h" * 16, b""))
        with scripted_peer(bad + acks + [(net.T_RESULT, result)]) as c:
            for _ in bad:
                with pytest.raises(net.WireError):
                    c.search_location(system.zone, [0])
            for _ in acks:
                with pytest.raises(net.WireError):
                    c.upload(upload)
            assert c.search_location(system.zone, [0]) == [SealedRecord(b"a" * 16, b"ct1"),
                                                           SealedRecord(b"b" * 16, b"")]
