import gc
import socket
import struct
import sys
import threading
import time
import warnings
from random import Random

import numpy as np
import pytest

from sbfsearch import net
from sbfsearch.analysis import result_size_bits, upload_size_bits
from sbfsearch.crypto import (SEAL_OVERHEAD_BYTES, SealedRecord, TransportEnvelope, open_record, token_from_text,
                              unwrap_transport, wrap_transport)
from sbfsearch.filters import BitFilter
from sbfsearch.index import (
    RemovalRequest,
    UploadPacket,
    build_conjunctive_query,
    build_removal_request,
    build_user_index,
    keyword_positions,
    make_upload_packet,
    register_user,
)
from sbfsearch.params import derive_params
from sbfsearch.store import StorageBloomFilter

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


def _uploaded(system, server, keyword_ids=(0, 1), name="alice", seed=50):
    kr, idx = system.user(list(keyword_ids), seed=seed)
    packet = make_upload_packet(idx, system.meta(name), system.secrets.agent_public,
                                system.zone, system.params, Random(seed + 1))
    with _client(server) as c:
        written = c.upload(packet)
    return kr, idx, packet, written


class TestHandshake:
    def test_round_trip_and_distinct_session_keys(self, server):
        with _client(server) as a, _client(server, net.ROLE_AGENT) as b:
            assert a.channel_key != b.channel_key

    def test_many_sessions_unique_keys(self, server):
        keys = set()
        for _ in range(50):
            with _client(server) as c:
                keys.add(c.channel_key)
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
                    net.NetClient(*listener.getsockname())
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
            with net.NetClient(host, port) as c:
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
        with net.NetClient(host, port) as c:
            env = wrap_transport(c.channel_key, bytes([7]) + b"payload")
            net.send_frame(c._sock, 0x7F, env.to_bytes())
            rtype, payload = net.recv_frame(c._sock)
            assert rtype == net.T_ERROR

    def test_malformed_encrypted_body_gets_error(self, system, server):
        host, port = server.address
        with net.NetClient(host, port) as c:
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
            env = wrap_transport(c.channel_key, bytes([c._corr]) + body)
            net.send_frame(c._sock, net.T_SEARCH_LOC, env.to_bytes())
            rtype, payload = net.recv_frame(c._sock)
            from sbfsearch.crypto import TransportEnvelope, unwrap_transport
            plain = unwrap_transport(c.channel_key, TransportEnvelope.from_bytes(payload))
        measured_bits = (len(plain) - 1) * 8  # drop the correlation byte
        sealed_bits = packet.sealed.size_bits - 8 * 16 + 8 * 16  # handle included on the wire
        assert measured_bits == result_size_bits(1, sealed_bits)


class TestRobustness:
    def test_counts_above_record_load_refused(self, system, server):
        """Every decoded filter or position list is bounded by a record's
        q*r positions; an all-ones upload, query or pruning filter is
        refused undecoded, the store is unchanged and the session goes on."""
        kr, _, packet, _ = _uploaded(system, server, seed=68)
        store = server.stores[system.zone]
        table_before = dict(store.table)
        buffers_before = [list(b) for b in store.buffers]
        ones = BitFilter(system.params.m, np.ones(system.params.m, dtype=bool))
        flood = UploadPacket(zone=system.zone, compressed_bf=ones.compress(),
                             sealed=SealedRecord(handle=b"f" * 16, ciphertext=b"flood"))
        with _client(server) as c:
            for call in (lambda: c.upload(flood),
                         lambda: c.search_conjunctive(system.zone, ones),
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

    def test_cut_bodies_and_bad_remove_flag_are_malformed(self, system, server):
        """Every proper prefix of a valid SEARCH_LOC, SEARCH_BF and REMOVE
        body, each body plus one byte, and a REMOVE whose flag is neither 0
        nor 1 get E_MALFORMED on one session; the store is unchanged and
        the session goes on."""
        kr, idx, packet, _ = _uploaded(system, server, seed=75)
        params, loc = system.params, system.locations[0]
        store = server.stores[system.zone]
        table_before = dict(store.table)
        buffers_before = [list(b) for b in store.buffers]
        ps = keyword_positions(kr, system.vocab[0], loc, params)
        query = build_conjunctive_query(kr, [system.vocab[0], system.vocab[1]], loc, params)
        _, new_idx = system.user([2], seed=76)
        replacement = make_upload_packet(new_idx, system.meta("bob"), system.secrets.agent_public,
                                         system.zone, params, Random(77))
        sparse = packet.compressed_bf  # withdraw the whole record
        head = system.zone + packet.sealed.handle + struct.pack(">I", len(sparse)) + sparse
        remove = head + b"\x01" + replacement.to_bytes()
        cases = [(net.T_SEARCH_LOC, system.zone + struct.pack(f">H{len(ps)}I", len(ps), *ps), net.T_RESULT),
                 (net.T_SEARCH_BF, system.zone + query.compress(), net.T_RESULT),
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
            key = net.client_handshake(greedy, net.ROLE_AGENT).channel_key
            envelopes = [wrap_transport(key, body).to_bytes() for _ in range(3000)]
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
                key = net.server_handshake(conn).channel_key
                for rtype, body in replies:
                    _, payload = net.recv_frame(conn)
                    corr = unwrap_transport(key, TransportEnvelope.from_bytes(payload))[:1]
                    net.send_frame(conn, rtype, wrap_transport(key, corr + body).to_bytes())

        threads.append(threading.Thread(target=serve, daemon=True))
        threads[-1].start()
        return net.NetClient(*listener.getsockname())

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
