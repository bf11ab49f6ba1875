"""Server launcher for the loopback workload: one NetServer over one empty
zone store (beta as in the loopback workload), in its own process.

    python3 -m perfbench.server --zone <hex> --out <json path>

It prints `READY <port>` once listening, then reads commands on stdin:
`trace` installs the span wrappers around the store layers and answers
`TRACING`; `untrace` removes them, keeping the spans, and answers
`UNTRACED`; `cpu` answers `CPU <seconds>`, the CPU time the process has
used; `stop` (or end of input) shuts the server down, writes the
store's record count and maximum buffer occupancy to --out (and the
spans beside it, when tracing) and prints `DONE`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from sbfsearch import net, store

from .loopback import BETA
from .population import zone_params
from .spans import Tracer, install_store


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--zone", required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    params = zone_params(BETA)
    zone = bytes.fromhex(args.zone)
    zone_store = store.StorageBloomFilter(params, zone)
    server = net.NetServer({zone: zone_store})
    server.start()
    print(f"READY {server.address[1]}", flush=True)
    tracer: Tracer | None = None
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace":
                tracer = tracer or Tracer()
                install_store(tracer)
                print("TRACING", flush=True)
            elif command == "cpu":
                print(f"CPU {time.process_time()!r}", flush=True)
            elif command == "untrace" and tracer is not None:
                tracer.restore()
                print("UNTRACED", flush=True)
            elif command == "stop":
                break
    finally:
        server.shutdown()
    if tracer is not None:
        tracer.restore()
        tracer.dump(args.out.with_suffix(".spans"))
    occupancy = max(n for n, _ in zone_store.occupancy_histogram())
    args.out.write_text(json.dumps({"max_occupancy": occupancy, "records": len(zone_store.table)}))
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
