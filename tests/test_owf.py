"""One-way function handles: builtins, iteration, and width discipline.

The md5 builtin is checked against an independent compact MD5 written from
the public algorithm description, so the package's own hashing path never
vouches for itself.
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

from chainpebble.owf import (
    OWF_NAMES,
    Owf,
    UnknownOwfError,
    WidthError,
    builtin,
    evaluate,
    iterate,
)

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
