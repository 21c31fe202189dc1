"""The serve-ops reference server: a stand-in with the shape of
``repro serve`` that calls no program code.

    python3 -m perfbench.echo

It listens on an ephemeral localhost port, prints the same kind of
banner as ``repro serve`` and answers every ``POST`` with a small JSON
reply after a fixed amount of work split like the real server's: body
parsing and reply encoding on the event loop, a fixed pure-Python
computation on a worker thread.  Its replies carry no meaning; what the
benchmark uses is how long the same client takes to get them, in the
same window as the real server's requests.  SIGTERM stops it with
status 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from concurrent.futures import ThreadPoolExecutor

#: Iterations of :func:`burn` per request (about 1 ms of CPU on the
#: 2-vCPU VM the README's figures come from).
BURN = 2000
#: Timer wait before the work, as the real server's batcher lingers.
LINGER_S = 0.002
_WORDS = [f"{i:x}" for i in range(256)]


def burn(seed: int) -> int:
    """Fixed interpreter work: integer, dict and string operations."""
    acc = seed & 0x7FFFFFFF
    table: dict = {}
    for _ in range(BURN):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        key = _WORDS[acc & 255]
        table[key] = table.get(key, 0) + (acc >> 7)
    return acc ^ len(table)


async def handle(reader, writer, pool) -> None:
    loop = asyncio.get_running_loop()
    try:
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            start = head.index(b"Content-Length:") + 15
            length = int(head[start:head.index(b"\r\n", start)])
            doc = json.loads(await reader.readexactly(length))
            await asyncio.sleep(LINGER_S)
            value = await loop.run_in_executor(pool, burn, len(doc))
            body = json.dumps({"bits": hex(value), "flags": 0},
                              separators=(",", ":")).encode()
            writer.write(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body)
            await writer.drain()
    finally:
        writer.close()


async def main() -> None:
    pool = ThreadPoolExecutor(max_workers=1)
    server = await asyncio.start_server(
        lambda r, w: handle(r, w, pool), "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    print(f"listening on http://{host}:{port}", flush=True)
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    async with server:
        await stop.wait()
    pool.shutdown(wait=True)
    print("draining", file=sys.stderr, flush=True)


if __name__ == "__main__":
    asyncio.run(main())
