import argparse
import math
import os
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import sbfsearch
from sbfsearch import files, net
from sbfsearch.cli import build_parser, main
from sbfsearch.params import CONFIG_KEYS, derive_params, load_params_file
from sbfsearch.store import StorageBloomFilter

from test_store import _raw_packet


PARAMS_SMALL = "l=20\nr=4\ngamma=2\nq=6\nbeta=12\ntau_kbits=4\nn_bits=64\n"
PARAMS_REFERENCE = "l=100\nr=10\ngamma=1\nq=15\nbeta=35\ntau_kbits=5\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "sys.cfg").write_text(PARAMS_SMALL)
    vocab = "\n".join(f"kw{i}" for i in range(20))
    (tmp_path / "vocab.txt").write_text(vocab + "\n")
    (tmp_path / "mi.txt").write_text(
        "pseudonym=alice\nserver-id=cs-7\nmemory-index=slot-12\nattrs=kw0,kw1\nemergency=\n"
    )
    return tmp_path


def _server_env():
    """The environment for a server subprocess that imports the same
    sbfsearch as this test, installed or not."""
    src = str(Path(sbfsearch.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def _run(argv, capsys):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_reference_values(tmp_path, capsys):
    cfg = tmp_path / "ref.cfg"
    cfg.write_text(PARAMS_REFERENCE)
    code, out, _ = _run(["analyze", "--params", cfg], capsys)
    assert code == 0
    assert "m = 1443" in out
    assert "expected_distinct = 142" in out
    match = re.search(r"pr_overlap = ([0-9.]+)", out)
    assert match and abs(float(match.group(1)) - 0.915) < 0.01


def test_analyze_overlap_small_tail_is_exact(tmp_path, capsys):
    # gamma=20: m=28854, 150 occupied, and P(overlap >= 10) ~ 7e-9, a tail
    # that one minus the lower tail misses by about 1 % in floating point
    cfg = tmp_path / "g20.cfg"
    cfg.write_text("l=100\nr=10\ngamma=20\nq=15\nbeta=50\ntau_kbits=5\n")
    code, out, _ = _run(["analyze", "--params", cfg], capsys)
    assert code == 0
    assert "m = 28854" in out and "expected_distinct = 150" in out
    m, o, r = 28854, 150, 10
    lower = sum(math.comb(o, k) * math.comb(m - o, o - k) for k in range(r))
    exact = float(1 - Fraction(lower, math.comb(m, o)))
    match = re.search(r"pr_overlap = (\S+)", out)
    assert match and float(match.group(1)) == pytest.approx(exact, rel=1e-9, abs=0)


def test_analyze_csv_mode(tmp_path, capsys):
    cfg = tmp_path / "ref.cfg"
    cfg.write_text(PARAMS_REFERENCE)
    code, out, _ = _run(["analyze", "--params", cfg, "--format", "csv"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("m,expected_distinct,")
    assert row.startswith("1443,142,")


def test_setup_and_register(workdir, capsys):
    code, out, _ = _run(["setup", "--params", workdir / "sys.cfg", "--vocab", workdir / "vocab.txt",
                         "--out-dir", workdir / "keys"], capsys)
    assert code == 0
    assert (workdir / "keys" / "master.keys").exists()
    assert (workdir / "keys" / "agent.pub").exists()

    code, _, _ = _run(["register", "--params", workdir / "sys.cfg",
                       "--master", workdir / "keys" / "master.keys",
                       "--keywords", "kw0,kw1", "--zone", "downtown",
                       "--out", workdir / "do.keyring"], capsys)
    assert code == 0
    kr = files.load_keyring(workdir / "do.keyring")
    assert len(kr.keys) == 2

    # unknown keyword is an operational error, exit 1
    code, _, err = _run(["register", "--params", workdir / "sys.cfg",
                         "--master", workdir / "keys" / "master.keys",
                         "--keywords", "not-in-vocab", "--zone", "downtown",
                         "--out", workdir / "bad.keyring"], capsys)
    assert code == 1 and err.startswith("error:")


def test_secret_material_not_printed(workdir, capsys):
    _run(["setup", "--params", workdir / "sys.cfg", "--vocab", workdir / "vocab.txt",
          "--out-dir", workdir / "keys"], capsys)
    code, out, _ = _run(["register", "--params", workdir / "sys.cfg",
                         "--master", workdir / "keys" / "master.keys",
                         "--keywords", "kw0,kw1", "--zone", "downtown",
                         "--out", workdir / "do.keyring"], capsys)
    ms = files.load_master_secrets(workdir / "keys" / "master.keys")
    for secret in list(ms.keyword_secrets.values())[:3]:
        assert secret.hex() not in out
    assert ms.agent_private.hex() not in out


def test_commands_that_make_secrets_take_no_seed(workdir, capsys):
    """Keys, blinding elements, sealed records and removal swaps draw
    from the OS: a seed is a usage error, and two builds of one keyring
    at one location hold different blinding elements."""
    base = ["--params", workdir / "sys.cfg"]
    key_material = {
        "setup": ["--vocab", workdir / "vocab.txt", "--out-dir", workdir / "keys"],
        "build-index": ["--keyring", workdir / "do.keyring", "--location", "corner", "--out", workdir / "x.index"],
        "upload": ["--index", workdir / "x.index", "--mi", workdir / "mi.txt", "--agent-pub", workdir / "agent.pub",
                   "--zone", "z", "--server", "127.0.0.1:1", "--receipt", workdir / "receipt.txt"],
        "remove": ["--keyring", workdir / "do.keyring", "--index", workdir / "x.index", "--keyword", "kw0",
                   "--location", "corner", "--receipt", workdir / "receipt.txt", "--server", "127.0.0.1:1"],
    }
    for command, flags in key_material.items():
        code, out, err = _run([command, *base, *flags, "--seed", "1"], capsys)
        assert code == 2 and out == "" and "--seed" in err, command
    assert not (workdir / "keys").exists()

    _run(["setup", *base, *key_material["setup"]], capsys)
    _run(["register", *base, "--master", workdir / "keys" / "master.keys",
          "--keywords", "kw0", "--zone", "z", "--out", workdir / "do.keyring"], capsys)
    params = load_params_file(workdir / "sys.cfg")
    blinding = []
    for name in ("a.index", "b.index"):
        code, _, err = _run(["build-index", *base, "--keyring", workdir / "do.keyring",
                             "--location", "corner", "--out", workdir / name], capsys)
        assert code == 0, err
        blinding.append(files.load_index(workdir / name, params).obf_elements)
    assert len(blinding[0]) == 5 and blinding[0] != blinding[1]


def test_upload_refuses_a_meta_record_file_it_does_not_know(workdir, capsys, monkeypatch):
    """A misspelled key, a repeated key or a line without '=' in the meta
    record file is refused before any connection opens, and no receipt
    is written."""
    base = ["--params", workdir / "sys.cfg"]
    for argv in (["setup", *base, "--vocab", workdir / "vocab.txt", "--out-dir", workdir / "keys"],
                 ["register", *base, "--master", workdir / "keys" / "master.keys", "--keywords", "kw0",
                  "--zone", "downtown", "--out", workdir / "do.keyring"],
                 ["build-index", *base, "--keyring", workdir / "do.keyring", "--location", "corner",
                  "--out", workdir / "do.index"]):
        assert main([str(a) for a in argv]) == 0
    opened = []

    def connect(*args):
        opened.append(args)
        raise OSError("connection attempted")

    monkeypatch.setattr(net, "NetClient", connect)
    good = "pseudonym=alice\nserver-id=cs-7\nmemory-index=slot-12\n"
    for text, named in ((good + "atrs=diabetes,asthma\n", "atrs"),
                        (good + "pseudonym=bob\n", "pseudonym"),
                        (good + "emergency info: call 911\n", "emergency info")):
        (workdir / "bad-mi.txt").write_text(text)
        code, out, err = _run(["upload", *base, "--index", workdir / "do.index", "--mi", workdir / "bad-mi.txt",
                               "--agent-pub", workdir / "keys" / "agent.pub", "--zone", "downtown",
                               "--server", "127.0.0.1:1", "--receipt", workdir / "receipt.txt"], capsys)
        assert code == 1 and named in err and "CryptoError" in err, text
    assert not opened
    assert not (workdir / "receipt.txt").exists()


def test_snapshot_init_and_inspect(workdir, capsys):
    code, _, _ = _run(["snapshot", "init", "--file", workdir / "zone.sbf",
                       "--params", workdir / "sys.cfg", "--zone", "downtown"], capsys)
    assert code == 0
    code, out, _ = _run(["snapshot", "inspect", "--file", workdir / "zone.sbf"], capsys)
    assert code == 0
    assert "records = 0" in out and "m = 231" in out
    assert "format = SBFSTOR2" in out and "bytes_per_record = n/a" in out


def test_snapshot_init_creates_the_parent_directory(workdir, capsys):
    path = workdir / "new" / "dir" / "zone.sbf"
    code, _, err = _run(["snapshot", "init", "--file", path, "--params", workdir / "sys.cfg",
                         "--zone", "downtown"], capsys)
    assert code == 0, err
    assert StorageBloomFilter.load(path).params.m == 231
    assert [p.name for p in path.parent.iterdir()] == ["zone.sbf"]  # no temporary file left


def test_serve_refuses_two_snapshots_of_one_zone(workdir, capsys):
    stores = workdir / "stores"
    stores.mkdir()
    code, _, _ = _run(["snapshot", "init", "--file", stores / "a.sbf", "--params", workdir / "sys.cfg",
                       "--zone", "downtown"], capsys)
    assert code == 0
    (stores / "b.sbf").write_bytes((stores / "a.sbf").read_bytes())
    # a subprocess, so a server that starts anyway fails the test by its timeout
    done = subprocess.run([sys.executable, "-m", "sbfsearch", "serve", "--params", str(workdir / "sys.cfg"),
                           "--store-dir", str(stores), "--listen", "127.0.0.1:0"],
                          capture_output=True, text=True, env=_server_env(), timeout=30)
    assert done.returncode == 1 and "listening" not in done.stdout
    assert "StoreError" in done.stderr and "a.sbf" in done.stderr and "b.sbf" in done.stderr


def test_serve_names_the_snapshot_that_fails_to_load(workdir, capsys):
    """An SBFSTOR1 snapshot, a format no longer read, stops the server
    with an error that names that file and no other."""
    stores = workdir / "stores"
    stores.mkdir()
    code, _, _ = _run(["snapshot", "init", "--file", stores / "a.sbf", "--params", workdir / "sys.cfg",
                       "--zone", "downtown"], capsys)
    assert code == 0
    (stores / "old.sbf").write_bytes(b"SBFSTOR1" + (stores / "a.sbf").read_bytes()[8:])
    done = subprocess.run([sys.executable, "-m", "sbfsearch", "serve", "--params", str(workdir / "sys.cfg"),
                           "--store-dir", str(stores), "--listen", "127.0.0.1:0"],
                          capture_output=True, text=True, env=_server_env(), timeout=30)
    assert done.returncode == 1 and "listening" not in done.stdout
    assert "StoreError" in done.stderr and "old.sbf" in done.stderr and "a.sbf" not in done.stderr


def test_snapshot_inspect_prints_format_and_size(tmp_path, capsys):
    params = derive_params(l=20, r=4, gamma_count=2, q=6, beta=12, tau_bits=4096, n_bits=64)
    store = StorageBloomFilter(params, b"zone")
    for name, positions in (("d", [3, 7]), ("a", [0, 1, 2]), ("c", [5, 6, 200]), ("b", [3, 4, 5])):
        store.ingest(_raw_packet(b"zone", params.m, name, positions))
    path = tmp_path / "zone.sbf"
    store.save(path)
    code, out, _ = _run(["snapshot", "inspect", "--file", path], capsys)
    assert code == 0
    assert "format = SBFSTOR2" in out
    assert f"bytes = {path.stat().st_size}" in out
    assert f"bytes_per_record = {path.stat().st_size / 4:.1f}" in out and "records = 4" in out
    # handles are access-pattern data: inspect names none of them
    assert not any(h.hex() in out for h in store.table)


def test_simulate_overlap_csv(workdir, capsys):
    cfg = workdir / "fig.cfg"
    cfg.write_text("l=50\nr=6\ngamma=1\nq=20\nbeta=10\ntau_kbits=5\nm_override=432\n")
    code, out, _ = _run(["simulate-overlap", "--params", cfg, "--oe", "4,8",
                         "--trials", "500", "--seed", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sweep_name,sweep_value,trials,estimate,stderr,analytic,seed"
    assert len(lines) == 3


def test_simulate_overlap_refuses_more_lanes_than_positions(workdir):
    """m_override below r leaves no row r distinct positions to hold:
    the command must fail at once, not redraw for ever."""
    cfg = workdir / "fig.cfg"
    cfg.write_text("l=50\nr=6\ngamma=1\nq=20\nbeta=10\ntau_kbits=5\nm_override=4\n")
    src = str(Path(sbfsearch.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "sbfsearch", "simulate-overlap", "--params", str(cfg),
         "--oe", "3", "--trials", "10"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert "SimError" in proc.stderr and "r=6, m=4" in proc.stderr


def test_simulate_overlap_refuses_a_negative_count(workdir, capsys):
    cfg = workdir / "fig.cfg"
    cfg.write_text("l=50\nr=6\ngamma=1\nq=20\nbeta=10\ntau_kbits=5\nm_override=432\n")
    code, out, err = _run(["simulate-overlap", "--params", cfg, "--oe", "-1",
                           "--trials", "10"], capsys)
    assert code == 1 and out == ""
    assert "SimError: oe_count must be non-negative" in err


def test_simulate_overflow_out_file(workdir, capsys):
    out_path = workdir / "overflow.csv"
    code, _, _ = _run(["simulate-overflow", "--params", workdir / "sys.cfg",
                       "--t", "30", "--betas", "4,12", "--trials", "100",
                       "--seed", "4", "--out", out_path], capsys)
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 3
    code, _, err = _run(["simulate-overflow", "--params", workdir / "sys.cfg",
                         "--betas", "4"], capsys)
    assert code == 1 and "needs --t" in err
    code, _, err = _run(["simulate-overflow", "--params", workdir / "sys.cfg", "--t", "9",
                         "--ts", "100,300", "--trials", "10", "--out", workdir / "ts.csv"], capsys)
    assert code == 1 and "--t" in err
    assert not (workdir / "ts.csv").exists()


def test_simulate_overflow_sweeps_exactly_one_of_betas_and_ts(workdir, capsys):
    base = ["simulate-overflow", "--params", workdir / "sys.cfg", "--t", "30", "--trials", "10"]
    for sweep in ([], ["--betas", "4,12", "--ts", "10,20"]):
        code, out, err = _run([*base, *sweep], capsys)
        assert code == 2 and out == "", sweep
        assert "--betas" in err and "--ts" in err


def test_simulate_accuracy(workdir, capsys):
    code, out, _ = _run(["simulate-accuracy", "--params", workdir / "sys.cfg",
                         "--t", "15", "--seed", "5"], capsys)
    assert code == 0
    assert "recall = 1.0" in out


def test_usage_errors(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    assert main(["register"]) == 2  # missing required flags


def test_parameters_come_only_from_the_params_file(workdir, capsys):
    """Every party derives m and every position from one shared file, so
    no subcommand takes a flag that changes a parameter for one run."""
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    flags = {f"--{key.replace('_', '-')}" for key in CONFIG_KEYS}
    for name, sub in subcommands.items():
        assert not flags & {opt for action in sub._actions for opt in action.option_strings}, name
    code, out, err = _run(["analyze", "--params", workdir / "sys.cfg", "--gamma", "10"], capsys)
    assert code == 2 and out == "" and "--gamma" in err


class TestServeLoopback:
    @pytest.fixture
    def serve(self, workdir):
        """Set up keys and an owner index, then start `sbfsearch serve`
        with the given extra flags; returns the process and host:port."""
        for argv in (
            ["setup", "--params", workdir / "sys.cfg", "--vocab", workdir / "vocab.txt",
             "--out-dir", workdir / "keys"],
            ["register", "--params", workdir / "sys.cfg",
             "--master", workdir / "keys" / "master.keys",
             "--keywords", "kw0,kw1", "--zone", "downtown", "--out", workdir / "do.keyring"],
            ["build-index", "--params", workdir / "sys.cfg", "--keyring", workdir / "do.keyring",
             "--location", "corner", "--out", workdir / "do.index"],
        ):
            assert main([str(a) for a in argv]) == 0
        procs = []

        def start(*extra):
            proc = subprocess.Popen(
                [sys.executable, "-m", "sbfsearch", "serve", "--params", str(workdir / "sys.cfg"),
                 "--store-dir", str(workdir / "stores"), "--zone", "downtown",
                 "--listen", "127.0.0.1:0", *extra],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=_server_env(),
            )
            procs.append(proc)
            line = proc.stdout.readline()
            match = re.search(r"listening on ([0-9.]+):(\d+)", line)
            assert match, f"unexpected server banner: {line!r}"
            return proc, f"{match.group(1)}:{match.group(2)}"

        yield start
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    @pytest.fixture
    def served(self, workdir, serve):
        _, address = serve()
        return workdir, address

    def _upload(self, workdir, server, capsys):
        code, out, err = _run(["upload", "--params", workdir / "sys.cfg", "--index", workdir / "do.index",
                               "--mi", workdir / "mi.txt",
                               "--agent-pub", workdir / "keys" / "agent.pub",
                               "--zone", "downtown", "--server", server,
                               "--receipt", workdir / "receipt.txt"], capsys)
        assert code == 0, err

    def test_save_on_shutdown_keeps_the_upload(self, workdir, serve, capsys):
        """SIGTERM stops the server after the request in hand; with
        --save-on-shutdown it writes a snapshot that holds the upload."""
        proc, server = serve("--save-on-shutdown")
        self._upload(workdir, server, capsys)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
        assert "snapshots saved" in proc.stdout.read()
        (snapshot,) = (workdir / "stores").glob("*.sbf")
        handle = bytes.fromhex((workdir / "receipt.txt").read_text().strip())
        assert handle in StorageBloomFilter.load(snapshot).table

    def test_upload_search_remove_cycle(self, served, capsys):
        workdir, server = served
        base = ["--params", workdir / "sys.cfg"]
        self._upload(workdir, server, capsys)

        search_cmd = ["search", *base, "--master", workdir / "keys" / "master.keys",
                      "--keyword", "kw0", "--location", "corner", "--zone", "downtown",
                      "--agent-priv", workdir / "keys" / "agent.key", "--server", server]
        code, out, err = _run(search_cmd, capsys)
        assert code == 0, err
        assert "pseudonym=" in out

        code, out, err = _run(["search-and", *base, "--master", workdir / "keys" / "master.keys",
                               "--keywords", "kw0,kw1", "--location", "corner",
                               "--zone", "downtown",
                               "--agent-priv", workdir / "keys" / "agent.key",
                               "--server", server], capsys)
        assert code == 0, err
        assert "pseudonym=" in out

        code, out, err = _run(["remove", *base, "--keyring", workdir / "do.keyring",
                               "--index", workdir / "do.index", "--keyword", "kw0",
                               "--location", "corner", "--receipt", workdir / "receipt.txt",
                               "--server", server], capsys)
        assert code == 0, err

        code, out, err = _run(search_cmd, capsys)
        assert code == 0, err
        assert "pseudonym=" not in out
        assert (workdir / "do.index").read_bytes()[:8] == files.INDEX_MAGIC
