"""Event loops for the serving tests: the default one, and one whose
clock reads 10^4 s ahead, so code that mixes the loop's clock with
``time.monotonic()`` shows it."""

import asyncio


class AheadLoop(asyncio.SelectorEventLoop):
    """An event loop whose clock reads 10^4 s ahead of time.monotonic()."""

    def time(self):
        return super().time() + 1e4


#: Parametrize a test's ``loop_factory`` over both loops.
LOOP_FACTORIES = {"default-loop": asyncio.new_event_loop, "ahead-loop": AheadLoop}


def run_on(loop_factory, coro):
    """Run ``coro`` to completion on a fresh loop from ``loop_factory``."""
    loop = loop_factory()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()
