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
from sbfsearch import files
from sbfsearch.cli import main
from sbfsearch.store import StorageBloomFilter


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
                         "--out-dir", workdir / "keys", "--seed", "1"], capsys)
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
          "--out-dir", workdir / "keys", "--seed", "1"], capsys)
    code, out, _ = _run(["register", "--params", workdir / "sys.cfg",
                         "--master", workdir / "keys" / "master.keys",
                         "--keywords", "kw0,kw1", "--zone", "downtown",
                         "--out", workdir / "do.keyring"], capsys)
    ms = files.load_master_secrets(workdir / "keys" / "master.keys")
    for secret in list(ms.keyword_secrets.values())[:3]:
        assert secret.hex() not in out
    assert ms.agent_private.hex() not in out


def test_build_index_seed_reproducible(workdir, capsys):
    _run(["setup", "--params", workdir / "sys.cfg", "--vocab", workdir / "vocab.txt",
          "--out-dir", workdir / "keys", "--seed", "2"], capsys)
    _run(["register", "--params", workdir / "sys.cfg",
          "--master", workdir / "keys" / "master.keys",
          "--keywords", "kw0", "--zone", "z", "--out", workdir / "do.keyring"], capsys)
    for name in ("a.index", "b.index"):
        code, _, _ = _run(["build-index", "--params", workdir / "sys.cfg",
                           "--keyring", workdir / "do.keyring", "--location", "corner",
                           "--seed", "9", "--out", workdir / name], capsys)
        assert code == 0
    assert (workdir / "a.index").read_bytes() == (workdir / "b.index").read_bytes()


def test_snapshot_init_and_inspect(workdir, capsys):
    code, _, _ = _run(["snapshot", "init", "--file", workdir / "zone.sbf",
                       "--params", workdir / "sys.cfg", "--zone", "downtown"], capsys)
    assert code == 0
    code, out, _ = _run(["snapshot", "inspect", "--file", workdir / "zone.sbf"], capsys)
    assert code == 0
    assert "records = 0" in out and "m = 231" in out


def test_simulate_overlap_csv(workdir, capsys):
    cfg = workdir / "fig.cfg"
    cfg.write_text("l=50\nr=6\ngamma=1\nq=20\nbeta=10\ntau_kbits=5\nm_override=432\n")
    code, out, _ = _run(["simulate-overlap", "--params", cfg, "--oe", "4,8",
                         "--trials", "500", "--seed", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sweep_name,sweep_value,trials,estimate,stderr,analytic,seed"
    assert len(lines) == 3


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


def test_simulate_accuracy(workdir, capsys):
    code, out, _ = _run(["simulate-accuracy", "--params", workdir / "sys.cfg",
                         "--t", "15", "--seed", "5"], capsys)
    assert code == 0
    assert "recall = 1.0" in out


def test_usage_errors(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    assert main(["register"]) == 2  # missing required flags


class TestServeLoopback:
    @pytest.fixture
    def serve(self, workdir):
        """Set up keys and an owner index, then start `sbfsearch serve`
        with the given extra flags; returns the process and host:port."""
        for argv in (
            ["setup", "--params", workdir / "sys.cfg", "--vocab", workdir / "vocab.txt",
             "--out-dir", workdir / "keys", "--seed", "11"],
            ["register", "--params", workdir / "sys.cfg",
             "--master", workdir / "keys" / "master.keys",
             "--keywords", "kw0,kw1", "--zone", "downtown", "--out", workdir / "do.keyring"],
            ["build-index", "--params", workdir / "sys.cfg", "--keyring", workdir / "do.keyring",
             "--location", "corner", "--seed", "12", "--out", workdir / "do.index"],
        ):
            assert main([str(a) for a in argv]) == 0
        # the server imports the same sbfsearch as this test, installed or not
        src = str(Path(sbfsearch.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        procs = []

        def start(*extra):
            proc = subprocess.Popen(
                [sys.executable, "-m", "sbfsearch", "serve", "--params", str(workdir / "sys.cfg"),
                 "--store-dir", str(workdir / "stores"), "--zone", "downtown",
                 "--listen", "127.0.0.1:0", *extra],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
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
                               "--receipt", workdir / "receipt.txt", "--seed", "13"], capsys)
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
                               "--server", server, "--seed", "14"], capsys)
        assert code == 0, err

        code, out, err = _run(search_cmd, capsys)
        assert code == 0, err
        assert "pseudonym=" not in out
