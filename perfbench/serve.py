"""Drives a real `gbis serve` process from outside: launch, readiness,
a closed-loop client, teardown, and peak memory."""

import atexit
import json
import math
import os
import signal
import socket
import statistics
import subprocess
import time


def dumps(obj):
    return json.dumps(obj, separators=(",", ":")) + "\n"


def tail_stat(samples):
    """The highest percentile up to p99 with at least 10 samples beyond
    it (nearest rank). Returns (value, percentile, samples_beyond)."""
    xs = sorted(samples)
    n = len(xs)
    for q in range(99, 49, -1):
        k = math.ceil(q / 100 * n)
        if n - k >= 10:
            return xs[k - 1], q, n - k
    return statistics.median(xs), 50, n // 2


_live = set()  # servers not yet stopped; reaped at exit on any error path


@atexit.register
def _stop_all():
    for srv in list(_live):
        srv.stop()


class Server:
    """One `gbis serve` process listening on a Unix socket (and TCP when
    asked). The working directory holds the socket, so its path stays
    short wherever the checkout lives."""

    def __init__(self, binary, workdir, threads, extra=(), tcp=False, tag="s"):
        self.workdir = workdir
        self.ready = os.path.join(workdir, f"{tag}.ready")
        self.sock = f"{tag}.sock"
        for p in (self.ready, os.path.join(workdir, self.sock)):
            if os.path.exists(p):
                os.unlink(p)
        args = [binary, "--threads", str(threads), "serve",
                "--listen-unix", self.sock, "--ready-file", f"{tag}.ready"]
        if tcp:
            args += ["--listen", "127.0.0.1:0"]
        args += list(extra)
        self.log = open(os.path.join(workdir, f"{tag}.log"), "ab")
        self.proc = subprocess.Popen(args, cwd=workdir, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=self.log)
        _live.add(self)
        self.tcp = None
        deadline = time.monotonic() + 20
        while not os.path.exists(self.ready):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("gbis serve did not come up; see " + self.log.name)
            time.sleep(0.0005)
        with open(self.ready) as f:
            for line in f:
                kind, _, where = line.strip().partition(" ")
                if kind == "tcp":
                    host, _, port = where.rpartition(":")
                    self.tcp = (host, int(port))

    def connect(self, transport="unix"):
        if transport == "unix":
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.connect(os.path.join(self.workdir, self.sock))
        else:
            s = socket.create_connection(self.tcp)
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return Conn(s)

    def vm_hwm_mib(self):
        """Peak resident memory so far (VmHWM), in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        return 0.0

    def stop(self):
        """SIGTERM (graceful drain), then reap; SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        _live.discard(self)
        return self.proc.returncode


class Conn:
    """Newline-framed request/response stream over one socket."""

    def __init__(self, sock):
        self.sock = sock
        self.buf = b""
        self.sent_bytes = 0
        self.recv_bytes = 0

    def send(self, line):
        data = line.encode() if isinstance(line, str) else line
        self.sock.sendall(data)
        self.sent_bytes += len(data)

    def recv_line(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.recv_bytes += len(chunk)
            self.buf += chunk
        resp, _, self.buf = self.buf.partition(b"\n")
        return resp

    def call(self, line):
        """Closed loop: one request, wait for its response line. Returns
        (response_bytes, seconds from first byte out to last byte in)."""
        t0 = time.perf_counter()
        self.send(line)
        resp = self.recv_line()
        return resp, time.perf_counter() - t0

    def close(self):
        self.sock.close()
