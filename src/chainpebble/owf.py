"""Pluggable length-preserving one-way functions.

Every chain element is a fixed-width byte string, and every one-way function
maps such strings to strings of the same width.  Three built-ins are
registered:

- ``md5``: the 16-byte MD5 digest of a 16-byte input, the classic demo choice
  (no practical attacks on its one-wayness are known).  It is computed with
  CPython's built-in ``_md5`` module, which for one 16-byte block costs about
  half of ``hashlib.md5`` (OpenSSL sets up a fresh context per call); an
  interpreter built without ``_md5`` falls back to ``hashlib.md5``.  Both give
  the same digest, so chains and saved states do not depend on which is used;
- ``davies-meyer-aes128``: f(x) = AES-128 encryption of the all-zero block
  under key x, one-way under standard block-cipher assumptions;
- ``testmix64``: an 8-byte non-cryptographic mixing permutation, for fast
  exhaustive tests -- pebbling correctness does not depend on one-wayness.

Width rule: every ``Owf.fn`` is width-exact.  A built-in's output width is
fixed by construction (an md5 digest and an AES block are 16 bytes,
``testmix64`` packs 8), so its function runs unwrapped; any other function,
including a built-in's under another width, is wrapped when its ``Owf`` is
built in a check that raises WidthError on an output of another width.
Callers therefore check only the inputs they take from outside and call
``owf.fn`` unchecked on the values it returned.

Long md5 runs in C: the built-in ``md5`` handle also carries a kernel that
computes MD5^n(v) inside libcrypto in one ``ctypes`` call, through
``EVP_BytesToKey`` (which defines its first output block as HASH^count of
the data; with no salt and a 16-octet key, no IV, that is exactly MD5^n)
and the digest ``EVP_MD_fetch`` returns (OpenSSL 3).  The library is the
one CPython's own ``_hashlib`` links, reached through that module's file:
no library is searched for by name and no process is started.  A call
costs about 2-3 us on top of its hashes, so ``pebbler._fill`` hands a run
to the kernel only when it is at least ``KERNEL_MIN`` = 32 hashes long
(break-even is about 20).  That covers a set-up's whole slots, 2^(k-1)
down to 32 hashes, and no optimal, speed-2 or speed-1 round: their budgets
are at most ceil(k/2) <= 15 at any order the engines take (k <= 30,
``schedule.MAX_K``, which every engine checks before it hashes), so
round streams, hash counts and timings are those of the Python countdown.
``iterate`` stays the plain countdown.  The kernel is loaded and
self-tested against ``_md5_block`` once, at import, which adds about
4 ms to ``import chainpebble`` (2-vCPU x86-64 host).  No ``_hashlib``
or ``ctypes``, a missing symbol (as in OpenSSL 1.1, which has no
``EVP_MD_fetch``), no MD5 digest (as under FIPS) or a mismatch leaves no
kernel, and every run is the Python countdown, with identical values.
``ctypes`` releases the GIL for the call and each call makes its own
output buffer, so the kernel is re-entrant.  A handle over any other
function, a metered or wrapped md5 included, carries no kernel.

A chain value is ``bytes`` of exactly the function's width.  Two methods
own that rule, for the two forms a value takes from outside:
``Owf.as_value`` for a buffer and ``Owf.from_hex`` for text; their
docstrings state it, and every other module takes values through them.
Handles are immutable and safe to share; evaluation is pure and re-entrant.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

try:
    from _md5 import md5 as _md5
except ImportError:  # interpreter built without CPython's own MD5
    from hashlib import md5 as _md5


class WidthError(ValueError):
    """Input width does not match the one-way function's width."""


class UnknownOwfError(ValueError):
    """Requested a one-way function that is not registered."""


@dataclass(frozen=True)
class Owf:
    """A named, length-preserving one-way function.

    ``fn`` is width-exact: unless it is a built-in's function at that
    built-in's width, construction replaces it by a wrapper that raises
    WidthError on an output of another width.  ``_kernel(v, n)``, set only
    for md5's function at width 16 when the libcrypto kernel loaded, is
    fn applied n times; it is not an argument and takes no part in equality.
    """

    name: str
    width: int
    fn: Callable[[bytes], bytes] = field(repr=False)
    _kernel: Optional[Callable[[bytes, int], bytes]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        name, width, fn = self.name, self.width, self.fn
        if (fn, width) in _EXACT:
            if fn is _md5_block:
                object.__setattr__(self, "_kernel", _MD5_KERNEL)
            return

        def checked(v: bytes) -> bytes:
            out = fn(v)
            if len(out) != width:
                raise WidthError(f"{name} returned {len(out)} bytes, expected {width}")
            return out

        object.__setattr__(self, "fn", checked)

    def as_value(self, v) -> bytes:
        """v as a chain value: ``bytes`` of exactly ``width`` octets.

        A ``bytes`` v comes back as is; any other buffer is copied, so a
        caller's ``bytearray`` may change later.  An ``int`` or ``str``
        raises ``TypeError`` rather than become zero bytes or be hashed as
        text, and any other width raises ``WidthError``.  The engines take
        their seed, and the verifier its anchor and each candidate it
        accepts, through it.
        """
        v = v if type(v) is bytes else bytes(memoryview(v))
        if len(v) != self.width:
            raise WidthError(f"{self.name} expects {self.width} bytes, got {len(v)}")
        return v

    def from_hex(self, text: str) -> Optional[bytes]:
        """The chain value that text spells, or None if it spells none.

        Text spells a value when it is exactly 2 x ``width`` lowercase hex
        digits, ``0123456789abcdef``, two to an octet and no prefix, which
        is how values serialize (``v.hex()``).  Nothing else is accepted:
        no upper case, no whitespace (which ``bytes.fromhex`` would skip),
        no other width.  The wire's values and the CLI's ``--seed`` are
        parsed through it.
        """
        # strip leaves nothing exactly when every character is a hex digit
        if len(text) != 2 * self.width or text.strip("0123456789abcdef"):
            return None
        return bytes.fromhex(text)


def evaluate(owf: Owf, v: bytes) -> bytes:
    """Apply the one-way function once; width in equals width out."""
    if len(v) != owf.width:
        raise WidthError(f"{owf.name} expects {owf.width} bytes, got {len(v)}")
    return owf.fn(v)


def iterate(owf: Owf, v: bytes, m: int) -> bytes:
    """Apply the one-way function m times; iterate(owf, v, 0) is v itself."""
    if m < 0:
        raise ValueError("iteration count must be >= 0")
    if m:
        v = evaluate(owf, v)  # the one input check; fn keeps the width after it
        fn = owf.fn
        for _ in range(m - 1):
            v = fn(v)
    return v


def _md5_block(x: bytes) -> bytes:
    return _md5(x).digest()


# Shortest run handed to a kernel: above the ~20-hash break-even of its
# ~2 us call, and above ceil(30/2) = 15, the largest budget an optimal round
# spends at any order the engines take (k <= schedule.MAX_K = 30), so no such
# round reaches a kernel.
KERNEL_MIN = 32


def _load_md5_kernel() -> Optional[Callable[[bytes, int], bytes]]:
    """One libcrypto call computing MD5^count(v), 1 <= count < 2^31 (a C
    int; ``_fill`` passes at most 2^(k-1) <= 2^29, since every engine
    takes only k <= ``schedule.MAX_K``), through ``EVP_BytesToKey``;
    None if it cannot be loaded or disagrees with ``_md5_block``."""
    try:
        import _hashlib
        import ctypes

        # symbols resolve through _hashlib's own libcrypto
        lib = ctypes.CDLL(_hashlib.__file__)
        ptr, text, c_int = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int
        lib.EVP_aes_128_ecb.argtypes = []
        lib.EVP_aes_128_ecb.restype = ptr
        bytes_to_key = lib.EVP_BytesToKey
        bytes_to_key.argtypes = [ptr, ptr, text, text, c_int, c_int, text, text]
        bytes_to_key.restype = c_int
        lib.EVP_MD_fetch.argtypes = [ptr, text, text]
        lib.EVP_MD_fetch.restype = ptr
        md = lib.EVP_MD_fetch(None, b"MD5", None)
        cipher = lib.EVP_aes_128_ecb()
    except (ImportError, OSError, AttributeError):
        return None
    if not md or not cipher:
        return None
    # the array type is built here and kept: built in a call, ctypes may
    # build it anew, some 3 KiB, for a later one
    block = ctypes.c_char * 16

    def run(v: bytes, count: int) -> bytes:
        out = block()  # one per call, so concurrent calls share nothing
        v = bytes(v)  # a seed may be any bytes-like value, as for _md5
        # the data length is the value's own, so the call never reads past it
        if bytes_to_key(cipher, md, None, v, len(v), count, out, None) != 16:
            raise RuntimeError("EVP_BytesToKey failed")
        return out.raw

    v = expect = bytes(16)
    for count in (1, 2, KERNEL_MIN + 1):
        for _ in range(count):
            expect = _md5_block(expect)
        try:
            if run(v, count) != expect:
                return None
        except RuntimeError:
            return None
        v = expect
    return run


_MD5_KERNEL = _load_md5_kernel()


def _davies_meyer_aes128(x: bytes) -> bytes:
    enc = Cipher(algorithms.AES(x), modes.ECB()).encryptor()
    return enc.update(b"\x00" * 16) + enc.finalize()


_MASK64 = (1 << 64) - 1


def _testmix64(x: bytes) -> bytes:
    # splitmix64 step: every stage is invertible, so this is a bijection;
    # the additive constant keeps the all-zero block from being a fixed point
    z = (int.from_bytes(x, "big") + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z.to_bytes(8, "big")


# Each built-in function with the output width it has by construction; a
# tuple, not a set, so that an unhashable custom fn is still accepted.
_EXACT = ((_md5_block, 16), (_davies_meyer_aes128, 16), (_testmix64, 8))

_BUILTINS = {
    "md5": Owf("md5", 16, _md5_block),
    "davies-meyer-aes128": Owf("davies-meyer-aes128", 16, _davies_meyer_aes128),
    "testmix64": Owf("testmix64", 8, _testmix64),
}

OWF_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> Owf:
    """Look up a built-in one-way function by name."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise UnknownOwfError(
            f"unknown one-way function {name!r}; choose from {', '.join(OWF_NAMES)}"
        ) from None
