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
  under key x (FIPS-197), one-way under standard block-cipher assumptions.
  It runs in libcrypto (below), with a fresh cipher context a call, about
  3 us a hash; a key of any width but 16 octets raises WidthError before
  the call;
- ``testmix64``: an 8-byte non-cryptographic mixing permutation, for fast
  exhaustive tests -- pebbling correctness does not depend on one-wayness.

Width rule: every ``Owf.fn`` is width-exact.  A built-in's output width is
fixed by construction (an md5 digest and an AES block are 16 bytes,
``testmix64`` packs 8), so its function runs unwrapped; any other function,
including a built-in's under another width, is wrapped when its ``Owf`` is
built in a check that raises WidthError on an output of another width.
Callers therefore check only the inputs they take from outside and call
``owf.fn`` unchecked on the values it returned.

Both cryptographic built-ins reach OpenSSL the same way: the library is
the one CPython's own ``_hashlib`` links, opened once through that
module's file with ``ctypes`` (no library is searched for by name and no
process is started), its symbols declared in one table, and the
``EVP_aes_128_ecb()`` cipher fetched once for both.  Davies-Meyer makes,
keys, uses and frees an ``EVP_CIPHER_CTX`` in each call; nothing is kept
per thread, since that saves about 0.6 us a hash and would need a free at
thread exit.  Every return code is checked, and a failed call raises
rather than return an unfilled buffer.

Long md5 runs in C: the built-in ``md5`` handle also carries a kernel that
computes MD5^n(v) inside libcrypto in one ``ctypes`` call, through
``EVP_BytesToKey`` (which defines its first output block as HASH^count of
the data; with no salt and a 16-octet key, no IV, that is exactly MD5^n)
and the digest ``EVP_MD_fetch`` returns (OpenSSL 3).  A call
costs about 2-3 us on top of its hashes, so ``pebbler._fill`` hands a run
to the kernel only when it is at least ``KERNEL_MIN`` = 32 hashes long
(break-even is about 20).  That covers a set-up's whole slots, 2^(k-1)
down to 32 hashes, and no optimal, speed-2 or speed-1 round, as the
comment on ``KERNEL_MIN`` states, so their round streams, hash counts and
timings are those of the Python countdown.
``iterate`` stays the plain countdown.  ``ctypes`` releases the GIL for
a call and each call makes its own output buffer (and Davies-Meyer its
own context), so both are re-entrant.  A handle over any other
function, a metered or wrapped md5 included, carries no kernel, with one
exception: ``checks.POSITION``, the position function the order-30 check
runs on, whose kernel (v, n) to v + n mod 2^64 ``checks`` sets where it
defines it.  A handle made over that one's function carries none either.

Each is self-tested once, at import: the kernel against ``_md5_block``,
Davies-Meyer against FIPS-197's zero-key answer and one pinned vector.
Loading the library and both self-tests take about 5 ms of
``import chainpebble`` (2-vCPU x86-64 host), and the package imports
no third-party module.  Each loads from its own symbols.  No MD5 digest
(OpenSSL 1.1 has no ``EVP_MD_fetch``; FIPS mode has no MD5) or a
mismatch leaves no kernel, and every md5 run is the Python countdown,
with identical values.  A missing AES symbol or a failed self-test
leaves Davies-Meyer unavailable rather than wrong: ``builtin`` then
raises ValueError for it.  Without ``_hashlib`` or ``ctypes`` neither
loads; md5 and ``testmix64`` run as ever.

A chain value is ``bytes`` of exactly the function's width.  Two methods
own that rule, for the two forms a value takes from outside:
``Owf.as_value`` for a buffer and ``Owf.from_hex`` for text; their
docstrings state it, and every other module takes values through them.
Handles are immutable and safe to share; evaluation is pure and re-entrant.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

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
    for md5's function at width 16 when the libcrypto kernel loaded (and
    on ``checks.POSITION``, by ``checks``), is fn applied n times; it is
    not an argument and takes no part in equality.
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
    """Apply the one-way function once to ``owf.as_value(v)``, which raises
    WidthError on any other width; width in equals width out."""
    return owf.fn(owf.as_value(v))


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
# ~2 us call.  A round fills each sub-pebbler apart, by at most its budget,
# so a round reaches the kernel only if one order-j sub-pebbler spends 32
# hashes or more in it.  At every j <= schedule.MAX_K = 30, the most one
# spends is:
#   optimal  floor(j/2) + 1, its last set-up budget (16 at j = 30);
#   speed-2  2;
#   speed-1  1;
#   rushing  2^j - 1, in its last set-up round: 32 or more from j = 6.
# So only rushing rounds reach the kernel, besides a set-up run as one fill
# (its whole slots, 2^(k-1) down to 32 hashes).  A round's total is larger,
# up to k - 1 for speed-1 and speed-2 (checks.BOUNDS), but split among its
# sub-pebblers.
KERNEL_MIN = 32


def _load_libcrypto():
    """The libcrypto that CPython's ``_hashlib`` links, opened once for both
    built-ins that call it, as (ctypes, lib, cipher): every symbol of the
    table below that lib has is declared, and cipher is
    ``EVP_aes_128_ecb()``.  None without ``_hashlib``, ``ctypes`` or that
    cipher; a missing symbol raises AttributeError where it is used."""
    try:
        import _hashlib
        import ctypes

        # symbols resolve through _hashlib's own libcrypto
        lib = ctypes.CDLL(_hashlib.__file__)
    except (ImportError, OSError):
        return None
    ptr, text, c_int = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int
    for name, restype, *argtypes in (
            ("EVP_aes_128_ecb", ptr),
            ("EVP_MD_fetch", ptr, ptr, text, text),
            ("EVP_BytesToKey", c_int, ptr, ptr, text, text, c_int, c_int, text, text),
            ("EVP_CIPHER_CTX_new", ptr),
            ("EVP_CIPHER_CTX_free", None, ptr),
            ("EVP_EncryptInit_ex", c_int, ptr, ptr, ptr, text, text),
            ("EVP_EncryptUpdate", c_int, ptr, text, ctypes.POINTER(c_int), text, c_int)):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes, fn.restype = argtypes, restype
    cipher = hasattr(lib, "EVP_aes_128_ecb") and lib.EVP_aes_128_ecb()
    return (ctypes, lib, cipher) if cipher else None


def _load_md5_kernel(ctypes, lib, cipher) -> Optional[Callable[[bytes, int], bytes]]:
    """One libcrypto call computing MD5^count(v), 1 <= count < 2^31 (a C
    int; ``_fill`` passes at most 2^(k-1) <= 2^29, since every engine
    takes only k <= ``schedule.MAX_K``), through ``EVP_BytesToKey``;
    None if it cannot be loaded or disagrees with ``_md5_block``."""
    # OpenSSL 1.1 has no EVP_MD_fetch, and under FIPS there is no MD5
    md = hasattr(lib, "EVP_MD_fetch") and lib.EVP_MD_fetch(None, b"MD5", None)
    bytes_to_key = getattr(lib, "EVP_BytesToKey", None)
    if not (md and bytes_to_key):
        return None
    # the array type is built here and kept: built in a call, ctypes may
    # build it anew, some 3 KiB, for a later one
    block = ctypes.c_char * 16

    def run(v: bytes, count: int) -> bytes:
        out = block()  # one per call, so concurrent calls share nothing
        # v is bytes, as every slot is (ctypes refuses a bytearray or str for
        # the data), and its own length is passed, so nothing is read past it
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


def _load_davies_meyer(ctypes, lib, cipher) -> Optional[Callable[[bytes], bytes]]:
    """f(x) = AES-128 of the all-zero block under key x, in libcrypto with
    a fresh cipher context a call; None if it cannot be loaded or fails
    its known answers."""
    block, c_int, byref, zero = ctypes.c_char * 16, ctypes.c_int, ctypes.byref, bytes(16)

    def davies_meyer_aes128(x: bytes) -> bytes:
        x = x if type(x) is bytes else bytes(memoryview(x))
        # checked before the call, which reads 16 octets of key and would
        # run AES-192 or AES-256 on no other width
        if len(x) != 16:
            raise WidthError(f"davies-meyer-aes128 expects 16 bytes, got {len(x)}")
        out, outl = block(), c_int()  # one per call, so concurrent calls share nothing
        ctx = lib.EVP_CIPHER_CTX_new()
        try:
            if not (ctx and lib.EVP_EncryptInit_ex(ctx, cipher, None, x, None) == 1
                    and lib.EVP_EncryptUpdate(ctx, out, byref(outl), zero, 16) == 1
                    and outl.value == 16):
                raise RuntimeError("AES-128 encryption failed in libcrypto")
        finally:
            lib.EVP_CIPHER_CTX_free(ctx)  # frees nothing when the context is NULL
        return out.raw

    # the zero key's answer is FIPS-197's; the other was pinned through the
    # cryptography package, which computed this function before
    try:
        ok = all(davies_meyer_aes128(x).hex() == y for x, y in (
            (bytes(16), "66e94bd4ef8a2c3b884cfa59ca342b2e"),
            (bytes(range(16)), "c6a13b37878f5b826f4f8162a1c8d879")))
    except (AttributeError, RuntimeError):  # a symbol lib lacks, or a failed call
        return None
    return davies_meyer_aes128 if ok else None


_LIBCRYPTO = _load_libcrypto()
_MD5_KERNEL = _LIBCRYPTO and _load_md5_kernel(*_LIBCRYPTO)
_DAVIES_MEYER = _LIBCRYPTO and _load_davies_meyer(*_LIBCRYPTO)


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
_EXACT = ((_md5_block, 16), (_DAVIES_MEYER, 16), (_testmix64, 8))

# None for a built-in that did not load
_BUILTINS = {
    "md5": Owf("md5", 16, _md5_block),
    "davies-meyer-aes128": _DAVIES_MEYER and Owf("davies-meyer-aes128", 16, _DAVIES_MEYER),
    "testmix64": Owf("testmix64", 8, _testmix64),
}

OWF_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> Owf:
    """Look up a built-in one-way function by name.

    Raises UnknownOwfError for a name that is not registered, and
    ValueError for ``davies-meyer-aes128`` when libcrypto's AES-128 could
    not be loaded.
    """
    if name not in _BUILTINS:
        raise UnknownOwfError(
            f"unknown one-way function {name!r}; choose from {', '.join(OWF_NAMES)}")
    if _BUILTINS[name] is None:
        raise ValueError(f"{name} is unavailable: libcrypto's AES-128 could not be loaded "
                         "through _hashlib")
    return _BUILTINS[name]
