"""``python -m repro.service`` — run a detection server.

Prints one JSON "ready" line on stdout once listening::

    {"ready": true, "port": 41234, "unix": null}

A launcher reads the port from that line; the ``shards`` admin op
names each shard's pid.  The server runs until SIGINT/SIGTERM or a
client sends ``{"op": "shutdown"}``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

from repro.service.server import DetectionService, ServiceConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="multi-tenant async deadlock-detection service")
    parser.add_argument("--host", default="127.0.0.1",
                        help="TCP bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default 0 = ephemeral)")
    parser.add_argument("--unix", default=None, metavar="PATH",
                        help="also listen on a Unix socket at PATH")
    parser.add_argument("--shards", type=int, default=2,
                        help="worker shard count (default 2)")
    parser.add_argument("--tick-ms", type=float, default=0.0,
                        help="batching window in milliseconds from the "
                             "first queued op (default 0: the next "
                             "event-loop iteration)")
    parser.add_argument("--max-tenants", type=int, default=4096,
                        help="admission-control tenant cap")
    parser.add_argument("--max-pending", type=int, default=4096,
                        help="bounded-queue global op cap")
    parser.add_argument("--no-processes", action="store_true",
                        help="run shards in-process (no workers)")
    return parser


async def _serve(args: argparse.Namespace) -> int:
    config = ServiceConfig(
        shards=args.shards,
        use_processes=not args.no_processes,
        tick_interval=args.tick_ms / 1000.0,
        max_tenants=args.max_tenants,
        max_pending=args.max_pending,
    )
    service = DetectionService(config)
    await service.start(host=args.host, port=args.port,
                        unix_path=args.unix)
    # Handlers go in before the ready line, so a signal sent as soon as
    # it is read still drains.  A wire `shutdown` also ends in stop().
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(
            signum, lambda: asyncio.ensure_future(service.stop()))
    print(json.dumps({
        "ready": True,
        "port": service.tcp_port,
        "unix": args.unix,
    }), flush=True)
    await service.stopped.wait()
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 130


if __name__ == "__main__":
    sys.exit(main())
