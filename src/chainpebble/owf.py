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

Values serialize as lowercase hex, two characters per octet, no prefix.
Handles are immutable and safe to share; evaluation is pure and re-entrant.
"""

from dataclasses import dataclass, field
from typing import Callable

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
    WidthError on an output of another width.
    """

    name: str
    width: int
    fn: Callable[[bytes], bytes] = field(repr=False)

    def __post_init__(self):
        name, width, fn = self.name, self.width, self.fn
        if (fn, width) in _EXACT:
            return

        def checked(v: bytes) -> bytes:
            out = fn(v)
            if len(out) != width:
                raise WidthError(f"{name} returned {len(out)} bytes, expected {width}")
            return out

        object.__setattr__(self, "fn", checked)


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
