"""Fakes the test files share, each defined here once.

The loopback server polls for shutdown every ``POLL_INTERVAL`` seconds, not
at ``serve_forever``'s default of 0.5 s: ``socketserver``'s ``shutdown()``
waits out the poll it is in, so at the default every test that serves
would spend about half a second on its teardown.
"""

import contextlib
import dataclasses
import io
import threading
import tracemalloc

from chainpebble.owf import Owf
from chainpebble.protocol import IdentificationServer

POLL_INTERVAL = 0.01


def counting(owf):
    """The same function, and a one-item list that counts its calls."""
    calls = [0]

    def fn(v):
        calls[0] += 1
        return owf.fn(v)

    return Owf(owf.name, owf.width, fn), calls


def widening(owf, after=0):
    """The same width on paper, but after ``after`` calls fn returns one byte too many."""
    calls = [0]

    def fn(v):
        calls[0] += 1
        out = owf.fn(v)
        return out + b"\x00" if calls[0] > after else out

    return Owf(owf.name, owf.width, fn)


def with_kernel(owf, kernel):
    """owf with its kernel replaced (None: the Python countdown)."""
    owf = dataclasses.replace(owf)
    object.__setattr__(owf, "_kernel", kernel)
    return owf


def peak_bytes(run):
    """tracemalloc's peak, in bytes, over one call of run()."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def serving(owf):
    """An IdentificationServer on 127.0.0.1 at a port the system picks, served
    on a daemon thread; shut down and closed on exit."""
    server = IdentificationServer(owf, "127.0.0.1", 0)
    threading.Thread(target=server.serve_forever, args=(POLL_INTERVAL,), daemon=True).start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


class Discard(io.TextIOBase):
    """A text sink that keeps nothing."""

    def write(self, text):
        return len(text)
