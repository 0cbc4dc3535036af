"""Run the asyncio HTTP front end on a background thread for tests.

``with AsyncServerThread(service) as running:`` binds
:class:`~repro.service.aserver.AsyncMatchServer` around ``service`` on
an ephemeral port and exposes its base URL as ``running.url``.  Leaving
the block stops the listener the way SIGTERM does: the service drains
(bounded at ten seconds) and shuts down.
"""

from __future__ import annotations

import asyncio
import threading

from repro.service.aserver import AsyncMatchServer


class AsyncServerThread:
    """Run the asyncio front-end on a background thread for tests."""

    def __init__(self, service):
        self.service = service
        self.url = None
        self._ready = threading.Event()
        self._loop = None
        self._stopping = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        server = AsyncMatchServer(self.service, port=0)
        await server.start()
        self.url = server.url
        self._ready.set()
        await self._stopping.wait()
        await server.stop(drain_timeout=10)

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10), "async server never came up"
        return self

    def __exit__(self, *exc_info):
        self._loop.call_soon_threadsafe(self._stopping.set)
        self._thread.join(15)
