"""One-way function handles: builtins, iteration, and width discipline.

The md5 builtin is checked against an independent compact MD5 written from
the public algorithm description, and Davies-Meyer against an independent
compact AES-128 written from FIPS-197, so the package's own hashing paths
never vouch for themselves.
"""

import dataclasses
import hashlib
import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from chainpebble import owf
from chainpebble.checks import POSITION
from chainpebble.owf import (
    OWF_NAMES,
    Owf,
    UnknownOwfError,
    WidthError,
    builtin,
    evaluate,
    iterate,
)
from harness import counting, widening

# -- independent MD5 oracle ---------------------------------------------------

_S = ([7, 12, 17, 22] * 4) + ([5, 9, 14, 20] * 4) + ([4, 11, 16, 23] * 4) + ([6, 10, 15, 21] * 4)
_K = [int(abs(math.sin(i + 1)) * 2**32) & 0xFFFFFFFF for i in range(64)]


def _rotl(x, n):
    return ((x << n) | (x >> (32 - n))) & 0xFFFFFFFF


def ref_md5(msg: bytes) -> bytes:
    """Compact MD5, independent of hashlib."""
    length = (8 * len(msg)) & 0xFFFFFFFFFFFFFFFF
    msg = msg + b"\x80" + b"\x00" * ((55 - len(msg)) % 64) + length.to_bytes(8, "little")
    state = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476]
    for off in range(0, len(msg), 64):
        words = [int.from_bytes(msg[off + 4 * w: off + 4 * w + 4], "little") for w in range(16)]
        a, b, c, d = state
        for i in range(64):
            if i < 16:
                f, g = (b & c) | (~b & d), i
            elif i < 32:
                f, g = (d & b) | (~d & c), (5 * i + 1) % 16
            elif i < 48:
                f, g = b ^ c ^ d, (3 * i + 5) % 16
            else:
                f, g = c ^ (b | ~d), (7 * i) % 16
            f = (f + a + _K[i] + words[g]) & 0xFFFFFFFF
            a, d, c, b = d, c, b, (b + _rotl(f, _S[i])) & 0xFFFFFFFF
        state = [(s + v) & 0xFFFFFFFF for s, v in zip(state, (a, b, c, d))]
    return b"".join(x.to_bytes(4, "little") for x in state)


# -- independent AES-128 oracle (FIPS-197) --------------------------------------


def _xtime(a):
    """a times x in GF(2^8), modulo x^8 + x^4 + x^3 + x + 1."""
    return ((a << 1) ^ 0x11B) if a & 0x80 else a << 1


def _gmul(a, b):
    p = 0
    while b:
        if b & 1:
            p ^= a
        a, b = _xtime(a), b >> 1
    return p


def _make_sbox():
    # FIPS-197 5.1.1: the multiplicative inverse (0 for 0), then the affine
    # map b ^ rotl(b, 1) ^ rotl(b, 2) ^ rotl(b, 3) ^ rotl(b, 4) ^ 0x63
    powers = [1]
    for _ in range(254):
        powers.append(_gmul(powers[-1], 3))  # 3 generates the nonzero field
    log = {v: i for i, v in enumerate(powers)}
    box = []
    for a in range(256):
        b = powers[-log[a] % 255] if a else 0
        rot = [(b << n | b >> (8 - n)) & 0xFF for n in range(5)]
        box.append(rot[0] ^ rot[1] ^ rot[2] ^ rot[3] ^ rot[4] ^ 0x63)
    return box


_SBOX = _make_sbox()


def ref_aes128(key: bytes, block: bytes) -> bytes:
    """AES-128 encryption of one block; byte i of the state is row i % 4 of
    column i // 4, as FIPS-197 3.4 maps the input."""
    keys, rcon = [list(key)], 1
    for _ in range(10):  # 5.2: each round key from the previous one
        prev = keys[-1]
        t = [_SBOX[b] for b in prev[13:16] + prev[12:13]]
        t[0] ^= rcon
        rcon = _xtime(rcon)
        words = []
        for w in range(4):
            t = [a ^ b for a, b in zip(prev[4 * w:4 * w + 4], t)]
            words += t
        keys.append(words)
    s = [a ^ b for a, b in zip(block, keys[0])]
    for rnd in range(1, 11):
        s = [_SBOX[b] for b in s]
        s = [s[r + 4 * ((c + r) % 4)] for c in range(4) for r in range(4)]  # ShiftRows
        if rnd < 10:  # MixColumns, every round but the last
            mixed = []
            for c in range(4):
                a = s[4 * c:4 * c + 4]
                mixed += [_gmul(a[r], 2) ^ _gmul(a[(r + 1) % 4], 3) ^ a[(r + 2) % 4] ^ a[(r + 3) % 4]
                          for r in range(4)]
            s = mixed
        s = [a ^ b for a, b in zip(s, keys[rnd])]
    return bytes(s)


@pytest.mark.parametrize("key, plain, cipher", [
    ("2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734",
     "3925841d02dc09fbdc118597196a0b32"),  # FIPS-197 Appendix B
    ("000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),  # FIPS-197 Appendix C.1
], ids=["appendix-b", "appendix-c1"])
def test_aes_oracle_matches_fips_197(key, plain, cipher):
    assert ref_aes128(bytes.fromhex(key), bytes.fromhex(plain)).hex() == cipher


# frozen via ref_md5: md5 of the 16-byte digest of the empty string
EMPTY_DIGEST = bytes.fromhex("d41d8cd98f00b204e9800998ecf8427e")
EMPTY_DIGEST_NEXT = bytes.fromhex("59adb24ef3cdbe0297f05b395827453f")

# published AES-128 known answer: zero key, zero block
AES_ZERO_VECTOR = bytes.fromhex("66e94bd4ef8a2c3b884cfa59ca342b2e")


def test_md5_matches_independent_oracle():
    md5 = builtin("md5")
    assert evaluate(md5, EMPTY_DIGEST) == ref_md5(EMPTY_DIGEST) == EMPTY_DIGEST_NEXT
    v = EMPTY_DIGEST
    for _ in range(5):
        assert evaluate(md5, v) == ref_md5(v)
        v = ref_md5(v)


def test_md5_agrees_with_hashlib():
    md5 = builtin("md5")
    rng = random.Random(5)
    for _ in range(4000):
        x = rng.randbytes(16)
        assert md5.fn(x) == hashlib.md5(x).digest()


def test_md5_falls_back_to_hashlib_without_builtin_module():
    # an interpreter built without _md5: the package must still import and
    # md5 must come from hashlib with the same digests
    probe = (
        "import sys\n"
        "sys.modules['_md5'] = None\n"
        "import hashlib, random\n"
        "import chainpebble\n"
        "from chainpebble import owf\n"
        "rng = random.Random(5)\n"
        "xs = [rng.randbytes(16) for _ in range(500)]\n"
        "md5 = owf.builtin('md5')\n"
        "print(owf._md5 is hashlib.md5, all(md5.fn(x) == hashlib.md5(x).digest() for x in xs),\n"
        "      all(len(md5.fn(x)) == md5.width == 16 for x in xs))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True", "True"]


def test_md5_width_and_hex_convention():
    md5 = builtin("md5")
    assert md5.width == 16
    out = evaluate(md5, EMPTY_DIGEST)
    assert len(out) == 16
    assert out.hex() == out.hex().lower() and len(out.hex()) == 32


def test_davies_meyer_zero_vector():
    dm = builtin("davies-meyer-aes128")
    assert dm.width == 16
    assert evaluate(dm, bytes(16)) == AES_ZERO_VECTOR


@given(st.binary(min_size=16, max_size=16))
def test_davies_meyer_is_aes_of_the_zero_block(key):
    assert builtin("davies-meyer-aes128").fn(key) == ref_aes128(key, bytes(16))


def test_testmix64_declared_width():
    assert builtin("testmix64").width == 8


def test_testmix64_bijective_on_sample():
    mix = builtin("testmix64")
    seen = set()
    for i in range(1 << 16):
        seen.add(mix.fn(i.to_bytes(8, "big")))
    assert len(seen) == 1 << 16


@pytest.mark.parametrize("name", OWF_NAMES)
def test_determinism_and_length_preservation(name):
    fn = builtin(name)
    v = bytes(range(fn.width))
    assert evaluate(fn, v) == evaluate(fn, v)
    assert len(evaluate(fn, v)) == fn.width


def test_width_mismatch_rejected():
    with pytest.raises(WidthError):
        evaluate(builtin("md5"), b"short")
    with pytest.raises(WidthError):
        evaluate(builtin("testmix64"), bytes(16))


@pytest.mark.parametrize("name", OWF_NAMES)
@given(data=st.data())
def test_builtin_fn_returns_exactly_its_width(name, data):
    # the engines call fn unchecked on the premise that built-ins keep width
    owf = builtin(name)
    v = data.draw(st.binary(min_size=owf.width, max_size=owf.width))
    assert len(owf.fn(v)) == owf.width


def _widen(v):
    return hashlib.md5(v).digest() + b"\x00"


def test_custom_fn_output_width_checked_on_direct_call():
    with pytest.raises(WidthError, match="returned 17 bytes, expected 16"):
        Owf("wide", 16, _widen).fn(bytes(16))


def test_replacing_builtin_fn_is_checked():
    with pytest.raises(WidthError):
        dataclasses.replace(builtin("md5"), fn=_widen).fn(bytes(16))


def test_owf_built_from_custom_fn_is_checked():
    # the inner check is of width 16 and passes; the outer one, of 8, fails
    inner = Owf("custom", 16, lambda v: hashlib.md5(v).digest())
    with pytest.raises(WidthError, match="returned 16 bytes, expected 8"):
        Owf("outer", 8, inner.fn).fn(bytes(16))
    wide = Owf("wide", 16, _widen)
    with pytest.raises(WidthError):
        Owf("again", 16, wide.fn).fn(bytes(16))


def test_builtin_fn_under_another_width_is_checked():
    md5 = builtin("md5")
    assert Owf("md5", 16, md5.fn).fn is md5.fn  # no wrapper at the declared width
    with pytest.raises(WidthError):
        Owf("md5", 8, md5.fn).fn(bytes(8))


def test_iterate_checks_input_width():
    with pytest.raises(WidthError):
        iterate(builtin("md5"), b"short", 3)
    assert iterate(builtin("md5"), b"short", 0) == b"short"


def test_unknown_name_rejected():
    with pytest.raises(UnknownOwfError):
        builtin("sha999")


def test_iterate_identity_and_small_chain():
    md5 = builtin("md5")
    assert iterate(md5, EMPTY_DIGEST, 0) == EMPTY_DIGEST
    # four applications walk the chain endpoints in order
    xs = [EMPTY_DIGEST]
    for _ in range(4):
        xs.append(ref_md5(xs[-1]))
    assert [iterate(md5, EMPTY_DIGEST, i) for i in range(5)] == xs
    with pytest.raises(ValueError):
        iterate(md5, EMPTY_DIGEST, -1)


@given(st.binary(min_size=8, max_size=8), st.integers(0, 6), st.integers(0, 6))
def test_iterate_composes(v, a, b):
    mix = builtin("testmix64")
    assert iterate(mix, v, a + b) == iterate(mix, iterate(mix, v, a), b)


@given(st.binary(min_size=8, max_size=8))
def test_iterate_preserves_width(v):
    mix = builtin("testmix64")
    assert len(iterate(mix, v, 3)) == 8


# -- the value boundary: as_value and from_hex ---------------------------------


@pytest.mark.parametrize("name", OWF_NAMES)
def test_as_value_takes_values_of_the_width_only(name):
    owf = builtin(name)
    v = bytes(range(owf.width))
    assert owf.as_value(v) is v
    for kind in (bytearray, memoryview):
        copy = owf.as_value(kind(v))
        assert copy == v and type(copy) is bytes
    for bad in (owf.width, v.hex()):  # never zero bytes, never hashed as text
        with pytest.raises(TypeError):
            owf.as_value(bad)
    for wrong in (v[:-1], v + b"\x00", b""):
        with pytest.raises(WidthError, match=f"{name} expects {owf.width} bytes"):
            owf.as_value(wrong)


def test_from_hex_reads_exactly_lowercase_hex_of_the_width():
    mix = builtin("testmix64")
    assert mix.from_hex("0123456789abcdef") == bytes.fromhex("0123456789abcdef")
    for text in ("0123456789ABCDEF", "0123456789abcdeF", "01 23 45 67 89 ab cd ef",
                 "0123456789abcd  ", " 0123456789abcde", "0123456789abcd\t\n",
                 "0123456789abcdeg", "0x0123456789abcd", "0123456789abcd\u0663\u0663",
                 "0123456789abcdef00", "0123456789abcd", ""):
        assert mix.from_hex(text) is None, text


HEX_LIKE = "0123456789abcdefABCDEF \t\n\x0bxg\u0663"


@pytest.mark.parametrize("name", OWF_NAMES)
@given(data=st.data())
def test_from_hex_round_trips_and_accepts_only_its_spelling(name, data):
    owf = builtin(name)
    v = data.draw(st.binary(min_size=owf.width, max_size=owf.width))
    assert owf.from_hex(v.hex()) == v
    n = 2 * owf.width
    text = data.draw(st.one_of(
        st.text(HEX_LIKE, min_size=n - 2, max_size=n + 2),
        st.text("0123456789abcdef", min_size=n, max_size=n),
        st.builds(lambda t, i, c: t[:i] + c + t[i + 1:],
                  st.just(v.hex()), st.integers(0, n - 1), st.sampled_from(HEX_LIKE))))
    b = owf.from_hex(text)
    if b is not None:
        assert len(b) == owf.width and type(b) is bytes and b.hex() == text


# -- the libcrypto md5 kernel --------------------------------------------------

KERNEL = builtin("md5")._kernel
needs_kernel = pytest.mark.skipif(KERNEL is None, reason="the libcrypto md5 kernel did not load")


def _hashlib_chain(v: bytes, n: int) -> bytes:
    for _ in range(n):
        v = hashlib.md5(v).digest()
    return v


def _ref_chain(v: bytes, n: int) -> bytes:
    for _ in range(n):
        v = ref_md5(v)
    return v


@needs_kernel
@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 4096])
def test_md5_kernel_known_answers(n):
    expect = _ref_chain(EMPTY_DIGEST, n) if n < 64 else _hashlib_chain(EMPTY_DIGEST, n)
    assert KERNEL(EMPTY_DIGEST, n) == expect


def test_max_k_fits_the_kernel_count_and_the_save_counter():
    # at k = MAX_K, _fill's largest set-up share, 2^(k-1), fits the C int
    # count of EVP_BytesToKey, and save's round counter, up to 2^(k+1),
    # its four octets
    from chainpebble.schedule import MAX_K

    assert 1 << (MAX_K - 1) < 1 << 31
    assert 2 << MAX_K < 1 << 32


@pytest.mark.parametrize("kind", [bytearray, memoryview])
def test_md5_set_up_takes_any_bytes_like_seed(kind):
    from chainpebble import Prover

    expect = _hashlib_chain(EMPTY_DIGEST, 1 << 8)
    for engine in ("auto", "framework"):
        assert Prover(builtin("md5"), 8, kind(EMPTY_DIGEST), engine).endpoint == expect


def test_md5_kernel_only_on_the_builtin_function():
    md5 = builtin("md5")
    assert Owf("md5", 16, md5.fn)._kernel is KERNEL
    assert Owf("md5", 16, lambda v: md5.fn(v))._kernel is None
    assert dataclasses.replace(md5, fn=_widen)._kernel is None
    assert builtin("testmix64")._kernel is None
    assert builtin("davies-meyer-aes128")._kernel is None
    assert "kernel" not in repr(md5)


@pytest.mark.parametrize("v,n", [(0, 1), (0, 31), (0, 32), (0, 1000), ((1 << 64) - 3, 5)])
def test_position_fake_kernel_is_the_countdown(v, n):
    # checks.POSITION's kernel, the one besides md5's; metered or wrapped, none
    v = v.to_bytes(8, "big")
    assert POSITION._kernel(v, n) == iterate(POSITION, v, n)
    assert counting(POSITION)[0]._kernel is None and widening(POSITION)._kernel is None


def _probe(code: str) -> list:
    """Lines a fresh interpreter prints running code with the package importable."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@needs_kernel
def test_md5_kernel_loads_without_starting_a_process():
    # the library is _hashlib's own, so no lookup by name (ldconfig) runs
    lines = _probe(
        "import subprocess\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('started a process')\n"
        "subprocess.Popen.__init__ = refuse\n"
        "from chainpebble import owf\n"
        "print(owf._MD5_KERNEL is not None)\n"
    )
    assert lines == ["True"]


@pytest.mark.parametrize("module", ["ctypes", "_hashlib"])
def test_md5_without_the_kernel_runs_in_python_with_identical_chains(module):
    # no ctypes or no _hashlib, hence no kernel: the package still imports
    # and every chain, from both engines' set-ups, is the same
    lines = _probe(
        "import sys\n"
        f"sys.modules[{module!r}] = None\n"
        "import chainpebble\n"
        "from chainpebble import owf, Prover\n"
        "md5 = owf.builtin('md5')\n"
        "seed = bytes(range(16))\n"
        "print(md5._kernel is None, owf._MD5_KERNEL is None)\n"
        "for engine in ('auto', 'framework'):\n"
        "    p = Prover(md5, 10, seed, engine=engine)\n"
        "    print(p.endpoint.hex(), b''.join(p.next_value() for _ in range(1024)).hex())\n"
    )
    assert lines[0].split() == ["True", "True"]
    md5 = builtin("md5")
    seed = bytes(range(16))
    from chainpebble import Prover

    assert Prover(md5, 10, seed).endpoint == _hashlib_chain(seed, 1024)
    for line, engine in zip(lines[1:], ("auto", "framework"), strict=True):
        p = Prover(md5, 10, seed, engine=engine)
        values = b"".join(p.next_value() for _ in range(1024))
        assert line.split() == [p.endpoint.hex(), values.hex()]
    assert len(lines) == 3


def test_md5_provers_built_in_threads_agree():
    # more threads than cores, switching often: the kernel releases the GIL
    # mid-call, so concurrent set-ups overlap inside it
    from chainpebble import Prover

    md5 = builtin("md5")
    seed = bytes(range(16))
    expect = _hashlib_chain(seed, 1 << 12)
    start = threading.Barrier(8, timeout=60)
    endpoints = [None] * 8

    def build(i):
        start.wait()
        endpoints[i] = [Prover(md5, 12, seed).endpoint for _ in range(4)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert endpoints == [[expect] * 4] * 8


# -- Davies-Meyer through libcrypto ---------------------------------------------

DM = builtin("davies-meyer-aes128")


def test_davies_meyer_pinned_outputs_without_cryptography():
    # pinned when the cryptography package computed this function: chains
    # and saved states must not change now that it is gone
    lines = _probe(
        "import contextlib, hashlib, io, sys\n"
        "sys.modules['cryptography'] = None\n"
        "from chainpebble import Prover, builtin, cli, evaluate, iterate\n"
        "dm = builtin('davies-meyer-aes128')\n"
        "print(evaluate(dm, bytes(16)).hex(), evaluate(dm, bytes(range(16))).hex(),\n"
        "      evaluate(dm, b'\\xff' * 16).hex(), iterate(dm, bytes(16), 1000).hex())\n"
        "print(*(Prover(dm, 8, cli.default_seed(dm), e).endpoint.hex() for e in ('auto', 'framework')))\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    status = cli.main(['reverse', '--owf', 'davies-meyer-aes128', '--k', '10'])\n"
        "print(status, hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
    )
    assert [line.split() for line in lines] == [
        ["66e94bd4ef8a2c3b884cfa59ca342b2e", "c6a13b37878f5b826f4f8162a1c8d879",
         "a1f6258c877d5fcd8964484538bfc92c", "bd6b0c2cfa60b742e8fc8595a146739a"],
        ["b5a057b2c38ebeb099348701e9660b29"] * 2,
        ["0", "fa115ac3ca9b1234fb314a70818b6333df7016d8ff238830296efac945626908"],
    ]


@pytest.mark.parametrize("width", [0, 8, 15, 17, 24, 32])
def test_davies_meyer_takes_16_octet_keys_only(width):
    # a short key would be read past its end, and 24 or 32 octets would
    # select AES-192 or AES-256
    for call in (DM.fn, lambda v: evaluate(DM, v)):
        with pytest.raises(WidthError, match="expects 16 bytes"):
            call(bytes(width))


@pytest.mark.parametrize("kind", [bytearray, memoryview])
def test_davies_meyer_takes_any_bytes_like_key(kind):
    key = bytes(range(16))
    assert DM.fn(kind(key)) == DM.fn(key)


def test_davies_meyer_chains_in_threads_agree():
    # more threads than cores, switching often: each call releases the GIL
    # inside libcrypto, so concurrent calls overlap there
    seeds = [bytes([i]) * 16 for i in range(8)]

    def chain(v):
        out = []
        for _ in range(2000):
            v = DM.fn(v)
            out.append(v)
        return out

    expect = [chain(v) for v in seeds]
    start = threading.Barrier(8, timeout=60)
    got = [None] * 8

    def run(i):
        start.wait()
        got[i] = chain(seeds[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expect


class _Lib:
    """The loaded libcrypto less the symbols in missing, with each symbol in
    fail returning that result, counting cipher contexts made and freed."""

    def __init__(self, missing=(), fail=None):
        self.missing, self.fail, self.made, self.freed = missing, fail or {}, 0, 0

    def __getattr__(self, name):
        if name in self.missing:
            raise AttributeError(name)
        if name in self.fail:
            return lambda *args: self.fail[name]
        fn = getattr(owf._LIBCRYPTO[1], name)
        if name == "EVP_CIPHER_CTX_new":
            self.made += 1
        if name == "EVP_CIPHER_CTX_free":
            self.freed += 1
        return fn


@pytest.mark.skipif(owf._LIBCRYPTO is None, reason="libcrypto did not load")
def test_each_builtin_loads_from_its_own_symbols():
    # no EVP_MD_fetch (OpenSSL 1.1) or no MD5 digest (FIPS): no md5 kernel,
    # and Davies-Meyer still loads; no AES symbol: no Davies-Meyer, and the
    # kernel still loads
    ctypes, _, cipher = owf._LIBCRYPTO
    for lib in (_Lib(missing={"EVP_MD_fetch"}), _Lib(fail={"EVP_MD_fetch": None})):
        assert owf._load_md5_kernel(ctypes, lib, cipher) is None
        assert owf._load_davies_meyer(ctypes, lib, cipher)(bytes(16)) == AES_ZERO_VECTOR
    for name in ("EVP_CIPHER_CTX_new", "EVP_EncryptInit_ex", "EVP_EncryptUpdate"):
        lib = _Lib(missing={name})
        assert owf._load_davies_meyer(ctypes, lib, cipher) is None
        assert owf._load_md5_kernel(ctypes, lib, cipher)(EMPTY_DIGEST, 1) == EMPTY_DIGEST_NEXT


@pytest.mark.skipif(owf._LIBCRYPTO is None, reason="libcrypto did not load")
@pytest.mark.parametrize("fail", [{"EVP_CIPHER_CTX_new": None}, {"EVP_EncryptInit_ex": 0},
                                  {"EVP_EncryptUpdate": 0}],
                         ids=["no-context", "init", "update"])
def test_davies_meyer_fails_its_self_test_on_any_failed_call_and_frees(fail):
    # a failed call raises rather than return an unfilled buffer, so the
    # import-time self-test stops at its first call and leaves the function
    # unloaded; that call frees its context, or the NULL it got
    ctypes, _, cipher = owf._LIBCRYPTO
    lib = _Lib(fail=fail)
    assert owf._load_davies_meyer(ctypes, lib, cipher) is None
    assert (lib.made, lib.freed) == ("EVP_CIPHER_CTX_new" not in fail, 1)


def test_without_hashlib_davies_meyer_is_a_clear_error():
    # no libcrypto: the package imports, md5 and testmix64 run, and
    # Davies-Meyer is refused by name, through the API and the CLI alike
    lines = _probe(
        "import contextlib, io, sys\n"
        "sys.modules['_hashlib'] = None\n"
        "from chainpebble import builtin, cli, evaluate\n"
        "print(evaluate(builtin('md5'), bytes(16)).hex(), evaluate(builtin('testmix64'), bytes(8)).hex())\n"
        "try:\n"
        "    builtin('davies-meyer-aes128')\n"
        "except ValueError as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "for argv in (['reverse', '--k', '2'], ['serve', '--port', '0']):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        status = cli.main(argv + ['--owf', 'davies-meyer-aes128'])\n"
        "    print(status, repr(out.getvalue()), repr(err.getvalue()))\n"
    )
    assert lines[0].split() == [builtin("md5").fn(bytes(16)).hex(),
                                builtin("testmix64").fn(bytes(8)).hex()]
    assert lines[1] == ("ValueError davies-meyer-aes128 is unavailable: libcrypto's AES-128 "
                        "could not be loaded through _hashlib")
    error = repr(f"error: {lines[1].removeprefix('ValueError ')}\n")
    assert lines[2:] == [f"2 '' {error}"] * 2
