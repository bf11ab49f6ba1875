import socket
import struct
import threading
from random import Random

import pytest

from sbfsearch import net
from sbfsearch.analysis import result_size_bits, upload_size_bits
from sbfsearch.crypto import open_record, token_from_text, wrap_transport
from sbfsearch.index import (
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

    def test_finished_connection_threads_are_dropped(self, server):
        for _ in range(5):
            with _client(server):
                pass
        for t in list(server._threads):
            t.join(timeout=5)
        with _client(server):
            # the five finished threads went when this connection was accepted
            assert len(server._threads) <= 1
            assert all(t.is_alive() for t in server._threads)

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
