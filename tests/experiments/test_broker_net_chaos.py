"""The networked chaos drill: kill -9 the broker *server* mid-sweep.

Two HTTP workers (real processes) serve a sweep through a real broker
server (a real ``python -m repro.experiments serve`` subprocess).  The
server is SIGKILL'd mid-run and restarted on the same port over the
same queue directory.  The workers ride out the outage inside their
grace window and the sweep completes with zero quarantined tasks and
results byte-identical to the same sweep run over a filesystem broker.
"""

import hashlib
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import time

from repro.experiments.broker import Broker, worker_loop
from repro.experiments.broker_net import HTTPBroker


def _nap_square(task):
    value, seconds = task
    time.sleep(seconds)
    return value * value


def _net_worker(url):
    worker_loop(url, poll_interval=0.05)


def _spawn_server(directory, port=0):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", "serve",
         str(directory), "--port", str(port)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": "src",
             "PYTHONUNBUFFERED": "1"},
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
    )
    line = proc.stdout.readline()
    match = re.search(r"(http://[\d.]+:\d+)", line)
    assert match, f"serve never announced a URL: {line!r}"
    return proc, match.group(1)


def test_chaos_kill_server_mid_sweep_byte_identical(tmp_path):
    qdir = tmp_path / "q"
    server, url = _spawn_server(qdir)
    procs = []
    try:
        tasks = [(i, 0.2) for i in range(10)]
        client = HTTPBroker(url, timeout=2.0, retries=2, cooldown=0.2)
        sweep = client.enqueue(_nap_square, tasks)

        procs = [
            multiprocessing.Process(target=_net_worker, args=(url,))
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()

        # Let the sweep get properly underway, then murder the server.
        local = Broker(qdir)  # reads queue.db directly, server or not
        deadline = time.time() + 30.0
        while local.counts(sweep)["done"] < 2:
            assert time.time() < deadline, "sweep never got underway"
            time.sleep(0.05)
        os.kill(server.pid, signal.SIGKILL)
        server.wait(timeout=10.0)
        time.sleep(1.0)  # workers are now polling through the outage
        assert not local.settled(sweep), "outage happened after the end"

        # Restart on the same port over the same queue directory.
        port = int(url.rsplit(":", 1)[1])
        server, url2 = _spawn_server(qdir, port=port)
        assert url2 == url

        for proc in procs:
            proc.join(timeout=60.0)
            assert not proc.is_alive(), "worker never drained the sweep"
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=10.0)
        if server.poll() is None:
            server.kill()
        server.wait(timeout=10.0)

    local = Broker(qdir)
    assert local.settled(sweep)
    assert local.quarantined(sweep) == []
    expected = {i: v * v for i, (v, _nap) in enumerate(tasks)}
    assert local.replay(sweep) == expected

    # Byte-identical to the filesystem backend: same sweep id, same
    # recorded digests, digest == the serial pickle of the value.
    fs = Broker(tmp_path / "fsq")
    fs_sweep = fs.enqueue(_nap_square, tasks)
    assert fs_sweep == sweep
    while True:
        lease = fs.claim("serial")
        if lease is None:
            break
        fn, task = lease.load()
        fs.complete(lease, fn(task))
    assert fs.result_digests(fs_sweep) == local.result_digests(sweep)
    for value, nap in tasks:
        want = hashlib.sha256(
            pickle.dumps(value * value, protocol=pickle.HIGHEST_PROTOCOL)
        ).hexdigest()
        assert local.result_digests(sweep)[repr((value, nap))] == want
