#!/usr/bin/env python3
"""Service smoke driver: start robustqp_server, fire a batch of mixed
requests at it over the TCP line protocol (clean, parameterized, erroneous,
and chaos-spec'd), assert every one reaches the documented terminal shape,
then shut the server down cleanly. Each chaos line is answered once alone
first; under concurrent load it must get the same payload again.

Usage:
    python3 tools/service_smoke.py [--binary build/tools/robustqp_server]
                                   [--requests 100] [--clients 4]

Exit code 0 iff every assertion holds and the server exits 0.
"""

import argparse
import re
import socket
import subprocess
import sys
import threading


# Chaos lines with distinct specs and seeds, simulated and engine-backed.
# Each is first answered alone on one connection; the concurrent phase
# must then answer it with the same payload, whatever runs beside it.
CHAOS = [
    "SUBMIT query=2D_Q91 mode=sb points=8 threads=1 faults=*:p=0.05 seed=7",
    "SUBMIT query=2D_Q91 mode=ab points=8 threads=1 qa=0.04,0.1 "
    "faults=oracle.cost_model:p=0.3,kind=corrupt;exec.spill.run:p=0.2 seed=8",
    "SUBMIT query=3D_Q15 mode=pb points=6 threads=1 faults=exec.*:p=0.1 "
    "seed=12",
    "SUBMIT query=2D_Q91 mode=sb points=8 threads=1 use_engine=1 "
    "faults=exec.*:p=0.05 seed=3",
    "SUBMIT query=2D_Q91 mode=pb points=8 threads=1 use_engine=1 "
    "faults=exec.scan.read:p=0.3;exec.hashjoin.build:p=0.2,kind=spike "
    "seed=21",
    "SUBMIT query=2D_Q91 mode=ab points=8 threads=2 use_engine=1 "
    "faults=exec.batch.pipeline:p=0.5;exec.*:p=0.1 seed=44",
]

# Reply fields that are payload (the determinism contract), not timing or
# cache state.
PAYLOAD_FIELDS = ("algo", "completed", "cost", "opt", "subopt", "execs",
                  "contour", "retries")


def build_requests(n):
    """A deterministic mixed stream: half clean, a quarter chaos (CHAOS),
    a quarter error cases.

    Returns (line, expected) pairs where expected is "OK", "CHAOS" (OK with
    the payload of the line's serial answer), or "ERR:<code>" for requests
    whose stable error number is part of the contract.
    """
    clean = [
        ("SUBMIT query=2D_Q91 mode=sb points=8 threads=1", "OK"),
        ("SUBMIT query=2D_Q91 mode=pb points=8 threads=1 qa=0.04,0.1", "OK"),
        ("SUBMIT query=2D_Q91 mode=ab points=8 threads=1 qa=0.2,0.3", "OK"),
        ("SUBMIT query=2D_Q91 mode=native points=8 threads=1", "OK"),
        ("SUBMIT query=3D_Q15 mode=sb points=6 threads=1", "OK"),
        ("SUBMIT query=2D_Q91 mode=sb points=8 threads=1 use_engine=1", "OK"),
    ]
    errors = [
        ("SUBMIT query=9D_NOPE mode=sb", "ERR:3"),           # NotFound
        ("SUBMIT query=2D_Q91 mode=sb points=8 qa=0.5", "ERR:2"),  # arity
        ("SUBMIT query=2D_Q91 mode=sb points=8 qa=0.5,2.5", "ERR:4"),  # range
        ("SUBMIT query=2D_Q91 mode=sb points=8 budget=0.001", "ERR:7"),
        ("SUBMIT color=blue", "ERR:2"),                      # protocol error
        ("SUBMIT query=2D_Q91 mode=sb faults=bogus", "ERR:2"),  # bad spec
    ]
    out = []
    for i in range(n):
        # Interleave: every 4th request is an error case, every other one
        # a chaos line.
        if i % 4 == 3:
            out.append(errors[(i // 4) % len(errors)])
        elif i % 4 == 1:
            out.append((CHAOS[(i // 4) % len(CHAOS)], "CHAOS"))
        else:
            out.append(clean[(i // 2) % len(clean)])
    return out


def payload(reply):
    """The PAYLOAD_FIELDS of an OK line, as strings."""
    fields = dict(tok.split("=", 1) for tok in reply.split()[1:] if "=" in tok)
    return {name: fields.get(name) for name in PAYLOAD_FIELDS}


def serial_chaos_answers(port, failures):
    """Sends each CHAOS line once, alone, on one connection; returns the
    payload of each answer."""
    answers = {}
    client = LineClient(port)
    for line in CHAOS:
        reply = client.round_trip(line)
        if not reply.startswith("OK ") or "completed=1" not in reply:
            failures.append(f"serial {line!r} -> {reply!r} (wanted OK)")
        answers[line] = payload(reply)
    client.close()
    if all(a["retries"] == "0" for a in answers.values()):
        failures.append("no serial chaos answer retried a fault")
    return answers


def field(reply, name):
    """Extracts an integer `name=<n>` field from an OK/STATS line."""
    match = re.search(rf"\b{name}=(-?\d+)\b", reply)
    if not match:
        raise RuntimeError(f"no field {name!r} in {reply!r}")
    return int(match.group(1))


def drive_feedback(port, failures):
    """Repeated-SUBMIT closed-loop sequence on one connection: the same
    feedback-enabled query warms up after min_observations completions, a
    shifted q_a trips the drift monitor, and STATS accounts for all of it
    (including the drift-driven context invalidation)."""
    base = ("SUBMIT query=2D_Q91 mode=sb points=8 threads=1 "
            "feedback=1 qa=0.2,0.2")
    shifted = ("SUBMIT query=2D_Q91 mode=sb points=8 threads=1 "
               "feedback=1 qa=0.0005,0.001")
    try:
        client = LineClient(port)
        # Two cold runs seed the store (min_observations); the third is
        # served warm from the calibration.
        for i in range(2):
            reply = client.round_trip(base)
            if not reply.startswith("OK "):
                failures.append(f"feedback seed {i} -> {reply!r}")
                return
            if field(reply, "fb_hit") != 0 or field(reply, "warm") != 0:
                failures.append(f"feedback seed {i} unexpectedly warm: "
                                f"{reply!r}")
        reply = client.round_trip(base)
        if not reply.startswith("OK ") or field(reply, "warm") != 1 \
                or field(reply, "warm_done") != 1:
            failures.append(f"repeat not warm-started: {reply!r}")
        # The drifted regime: same query, selectivities orders of
        # magnitude away -> CUSUM fires on the run's observation.
        reply = client.round_trip(shifted)
        if not reply.startswith("OK ") or field(reply, "drift") != 1:
            failures.append(f"shifted qa did not report drift: {reply!r}")
        stats = client.round_trip("STATS")
        checks = [
            ("feedback_misses", 2),   # the two seeding runs
            ("feedback_hits", 2),     # the warm run and the drift run
            ("warm_starts", 1),
            ("warm_completions", 1),
            ("drift_events", 1),
            ("invalidations", 1),     # drift evicted the cached contexts
        ]
        for name, at_least in checks:
            if field(stats, name) < at_least:
                failures.append(
                    f"STATS {name}={field(stats, name)} < {at_least}: "
                    f"{stats!r}")
        client.close()
    except Exception as exc:  # noqa: BLE001 - report, don't crash the driver
        failures.append(f"feedback client error: {exc}")


class LineClient:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.buf = b""

    def round_trip(self, line):
        self.sock.sendall(line.encode() + b"\n")
        while b"\n" not in self.buf:
            chunk = self.sock.recv(4096)
            if not chunk:
                raise RuntimeError("server closed connection")
            self.buf += chunk
        reply, self.buf = self.buf.split(b"\n", 1)
        return reply.decode()

    def close(self):
        self.sock.close()


def drive_client(port, requests, serial, failures):
    try:
        client = LineClient(port)
        if client.round_trip("PING") != "PONG":
            failures.append("PING did not answer PONG")
        for line, expected in requests:
            reply = client.round_trip(line)
            if expected == "CHAOS":
                if not reply.startswith("OK ") or payload(reply) != serial[line]:
                    failures.append(f"{line!r} -> {reply!r} (wanted the "
                                    f"serial payload {serial[line]})")
            elif expected == "OK":
                if not reply.startswith("OK "):
                    failures.append(f"{line!r} -> {reply!r} (wanted OK)")
                elif "completed=1" not in reply:
                    failures.append(f"{line!r} -> {reply!r} (not completed)")
            else:
                code = expected.split(":")[1]
                if not reply.startswith(f"ERR code={code} "):
                    failures.append(f"{line!r} -> {reply!r} (wanted {expected})")
        client.round_trip("STATS")
        client.close()
    except Exception as exc:  # noqa: BLE001 - report, don't crash the driver
        failures.append(f"client error: {exc}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", default="build/tools/robustqp_server")
    parser.add_argument("--requests", type=int, default=100)
    parser.add_argument("--clients", type=int, default=4)
    args = parser.parse_args()

    server = subprocess.Popen(
        [args.binary, "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        line = server.stdout.readline()
        match = re.match(r"listening on port (\d+)", line)
        if not match:
            print(f"FAIL: unexpected server banner: {line!r}")
            server.kill()
            return 1
        port = int(match.group(1))

        failures = []
        serial = serial_chaos_answers(port, failures)
        requests = build_requests(args.requests)
        per_client = [requests[i::args.clients] for i in range(args.clients)]
        threads = [
            threading.Thread(target=drive_client,
                             args=(port, chunk, serial, failures))
            for chunk in per_client
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # The closed-loop feedback sequence (repeated SUBMITs on one
        # connection: seed -> warm-start -> drift) after the mixed storm,
        # so its counter assertions see exactly its own requests.
        drive_feedback(port, failures)

        # Clean shutdown via the protocol; the server must exit 0.
        shutdown = LineClient(port)
        if shutdown.round_trip("SHUTDOWN") != "BYE":
            failures.append("SHUTDOWN did not answer BYE")
        shutdown.close()
        rc = server.wait(timeout=60)
        if rc != 0:
            failures.append(f"server exited {rc}, wanted 0")

        if failures:
            print(f"FAIL: {len(failures)} problem(s)")
            for f in failures[:20]:
                print(f"  {f}")
            return 1
        print(
            f"PASS: {len(requests)} requests over {args.clients} clients, "
            "all terminal statuses as expected, clean shutdown"
        )
        return 0
    finally:
        if server.poll() is None:
            server.kill()


if __name__ == "__main__":
    sys.exit(main())
