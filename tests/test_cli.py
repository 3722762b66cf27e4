"""Command-line surface: output formats, self-checks, and the loopback demo."""

import gc
import json
import socket
import sys
from dataclasses import replace
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from chainpebble import checks, cli, inplace, pebbler, schedule
from chainpebble.owf import builtin
from chainpebble.pebbler import reverse_oracle
from harness import Discard, peak_bytes, serving

MIX = builtin("testmix64")


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out


def test_schedule_prints_comma_separated(capsys):
    status, out = run_cli(capsys, "schedule", "--family", "optimal", "--k", "4")
    assert status == 0
    assert out.strip() == "0,0,0,0,0,0,0,2,2,1,1,2,2,2,3"


def test_console_script_is_cli_main(capsys):
    # the chainpebble command that pyproject.toml declares, loaded as an
    # installer's entry point would be
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and up
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"chainpebble": "chainpebble.cli:main"}
    main = EntryPoint("chainpebble", scripts["chainpebble"], "console_scripts").load()
    assert main is cli.main
    assert main(["schedule", "--k", "2"]) == 0
    assert capsys.readouterr().out == "0,1,2\n"


def test_trace_csv(capsys):
    status, out = run_cli(capsys, "trace", "--family", "speed2", "--k", "4",
                          "--owf", "testmix64")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "round,hashes,storage,output"
    assert len(lines) == 32
    round21 = lines[21].split(",")
    assert round21[0] == "21" and round21[1] == "3"


def test_trace_jsonl(capsys):
    status, out = run_cli(capsys, "trace", "--family", "optimal", "--k", "2",
                          "--owf", "testmix64", "--format", "jsonl")
    assert status == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 7
    assert rows[0] == {"round": 1, "hashes": 0, "storage": 1, "output": None}
    assert rows[3]["output"] is not None


def test_reverse_matches_oracle(capsys):
    seed = bytes.fromhex("00000000000000ff")
    status, out = run_cli(capsys, "reverse", "--family", "rushing", "--k", "2",
                          "--owf", "testmix64", "--seed", seed.hex())
    assert status == 0
    assert out.split() == [v.hex() for v in reverse_oracle(MIX, 2, seed)]


@pytest.mark.parametrize("k", [0, 1, 4])
def test_reverse_identical_across_families_and_steppers(capsys, k):
    # speed2 and optimal run in place from k = 1, every other case on the framework
    streams = set()
    for family in schedule.FAMILIES:
        status, out = run_cli(capsys, "reverse", "--family", family, "--k", str(k))
        assert status == 0
        streams.add(out)
    assert len(streams) == 1
    md5 = builtin("md5")
    seed = cli.default_seed(md5)
    lines = streams.pop().split()
    assert lines == [v.hex() for v in reverse_oracle(md5, k, seed)]


def _count_calls(monkeypatch, cls, name):
    calls = [0]
    method = getattr(cls, name)

    def counted(self):
        calls[0] += 1
        return method(self)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_reverse_steps_only_the_reversal_rounds(capsys, monkeypatch):
    # set-up runs as one fill; the engine steps just the 2^k rounds that emit
    want = [v.hex() for v in reverse_oracle(MIX, 9, cli.default_seed(MIX))]
    stepped = _count_calls(monkeypatch, inplace.STEPPERS["optimal"], "step")
    status, out = run_cli(capsys, "reverse", "--k", "9", "--owf", "testmix64")
    assert status == 0
    assert stepped[0] == 1 << 9
    assert out.split() == want
    rounds = _count_calls(monkeypatch, pebbler.Pebbler, "_round")
    steps = _count_calls(monkeypatch, pebbler.Pebbler, "step")
    status, out = run_cli(capsys, "reverse", "--k", "9", "--owf", "testmix64",
                          "--family", "rushing")
    assert status == 0
    assert rounds[0] == 1 << 9 and steps[0] == 0
    assert out.split() == want


def test_bad_seed_is_usage_error(capsys):
    status = cli.main(["reverse", "--k", "2", "--seed", "zz"])
    assert status == 2
    status = cli.main(["reverse", "--k", "2", "--seed", "00"])
    assert status == 2


@pytest.mark.parametrize("owf, seed", [
    ("testmix64", "0123456789ABCDEF"),
    ("testmix64", "01 23 45 67 89 ab cd ef"),
    ("testmix64", "0123456789abcd  "),
    ("md5", "D41D8CD98F00B204E9800998ECF8427E"),
    ("md5", "d41d8cd98f00b204 e9800998ecf8427e"),
], ids=["upper", "spaced", "short-padded", "md5-upper", "md5-spaced"])
def test_seed_other_than_lowercase_hex_of_the_width_is_one_error_line(capsys, owf, seed):
    assert cli.main(["reverse", "--k", "2", "--owf", owf, "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["schedule", "--k", "\u0663"],
    ["schedule", "--k", "+3"],
    ["schedule", "--k", "3_0"],
    ["schedule", "--k", " 3"],
    ["schedule", "--k", "-0"],
    ["verify", "--k-max", "\u0663"],
    ["serve", "--port", "4_040"],
    ["serve", "--port", "+4040"],
    ["client", "--rounds", "3_0"],
    ["client", "--rounds", "-1"],
    ["client", "--rounds", "+3"],
    ["client", "--rounds", str((2 << 30) + 1)],
    ["client", "--tamper", "\u0663"],
    ["client", "--tamper", "-1"],
], ids=["arabic-indic", "plus", "underscore", "space", "minus-zero", "k-max", "port-underscore",
        "port-plus", "rounds-underscore", "rounds-minus", "rounds-plus", "rounds-over",
        "tamper-arabic-indic", "tamper-minus"])
def test_cli_integers_are_ascii_digits_only(argv):
    with pytest.raises(SystemExit) as err:
        cli.build_parser().parse_args(argv)
    assert err.value.code == 2


def test_cli_integers_in_ascii_digits_parse():
    parse = cli.build_parser().parse_args
    assert parse(["schedule", "--k", "30"]).k == 30
    assert parse(["schedule", "--k", "03"]).k == 3
    assert parse(["verify", "--k-max", "20"]).k_max == 20
    assert parse(["serve", "--port", "0"]).port == 0
    assert parse(["client", "--rounds", "0"]).rounds == 0
    assert parse(["client", "--rounds", str(2 << 30), "--tamper", "5"]).tamper == 5


def test_k_guard():
    with pytest.raises(SystemExit) as err:
        cli.main(["schedule", "--k", "31"])
    assert err.value.code == 2


def test_verify_k_max_above_20_is_usage_error():
    # verify's schedule checks list 2^k budgets per family, so it stops at 20
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--k-max", "21"])
    assert err.value.code == 2


def _cli_peak(monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", Discard())
    gc.collect()  # earlier parsers' reference cycles, freed at a random point otherwise

    def run():
        assert cli.main(argv) == 0

    return peak_bytes(run)


@pytest.mark.parametrize("command", ["schedule", "trace"])
def test_schedule_and_trace_print_as_they_go(monkeypatch, command):
    # no list of 2^k budgets or 2^(k+1) rows is held before the first byte
    # (at k=14 those take about 1 and 5 MiB): the peak grows only by the
    # trace's O(k) frontier, under a hundred bytes an order
    _cli_peak(monkeypatch, [command, "--k", "8"])  # first-call allocations
    small = _cli_peak(monkeypatch, [command, "--k", "8"])
    large = _cli_peak(monkeypatch, [command, "--k", "14"])
    assert large - small < 4 * 1024, (small, large)


def test_unknown_flags_are_usage_errors():
    with pytest.raises(SystemExit) as err:
        cli.main(["schedule", "--family", "fibonacci"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["trace", "--format", "plain"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["serve", "client"])
@pytest.mark.parametrize("port", ["70000", "-1"])
def test_port_out_of_range_is_usage_error(command, port):
    with pytest.raises(SystemExit) as err:
        cli.main([command, "--port", port])
    assert err.value.code == 2


def test_verify_passes(capsys):
    status, out = run_cli(capsys, "verify", "--k-max", "6")
    assert status == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all(line.startswith("ok   ") for line in lines)


def test_verify_detects_injected_fault(capsys, monkeypatch):
    good = schedule.make_schedule

    def corrupted(family, k):
        t = good(family, k)
        if family == "optimal" and k == 5:
            t = t[:-1] + [t[-1] + 1]  # off-by-one in the last budget
        return t

    monkeypatch.setattr(schedule, "make_schedule", corrupted)
    status, out = run_cli(capsys, "verify", "--k-max", "6")
    assert status == 1
    assert "FAIL schedule-sums (optimal k=5)" in out.splitlines()


def _corrupt(good, where, change):
    """good, with change applied to its result whenever where(*args) holds."""
    return lambda *args: change(good(*args)) if where(*args) else good(*args)


def _always(*args):
    return True


def _bump_last(seq):
    return seq[:-1] + [seq[-1] + 1]


def _one_off_above_16(frontier):
    """_frontier with each live sub-pebbler's counter above order 16 one too high."""
    def faulty(k, r, remaining):
        rem, c = frontier(k, r, remaining), (2 << k) - r
        for i in range(17, k + 1):
            rem[i] += c >> i & 1
        return rem
    return faulty


def _flip_next_output(state):
    state.z[0] = bytes([state.z[0][0] ^ 1]) + state.z[0][1:]
    return state


# per check of the verify suite: (object, attribute, fault made from the original)
FAULTS = {
    "schedule-sums": (schedule, "make_schedule", lambda good: _corrupt(
        good, lambda family, k: family == "speed1" and k == 3, _bump_last)),
    "closed-form-fixtures": (schedule, "make_schedule", lambda good: _corrupt(
        good, lambda family, k: k == 4, _bump_last)),
    "recursive-vs-explicit-rounding": (schedule, "parity_round", lambda good: (
        lambda halves, k: [d // 2 for d in halves])),  # floors instead
    "key-equation": (schedule, "work_sequence_half", lambda good: _corrupt(
        good, lambda k: k == 4, _bump_last)),
    "work-bounds": (schedule, "work_sequence", lambda good: _corrupt(
        good, lambda family, k: family == "optimal", _bump_last)),
    "oracle-reversal": (pebbler, "run_outputs", lambda good: _corrupt(
        good, lambda owf, family, k, seed: family == "speed1" and k == 5, lambda out: out[:-1])),
    "storage-bounds": (pebbler.Pebbler, "storage", lambda good: (
        lambda self: good(self) + (self.r == 1 << self.k))),  # off by one
    "inplace-speed2-equivalence": (inplace.InPlaceSpeed2, "step", lambda good: _corrupt(
        good, lambda self: self.r == (2 << self.k) - 1, lambda res: (res[0], res[1] + 1))),
    "inplace-optimal-equivalence": (inplace, "restore", lambda good: _corrupt(
        good, _always, _flip_next_output)),
    "counter-decoding": (inplace, "decode_states", lambda good: _corrupt(
        good, _always, lambda found: [replace(d, phase=inplace.HASHING) for d in found])),
    "inplace-scale": (inplace, "_frontier", _one_off_above_16),  # unseen at k <= 16
}


@pytest.mark.parametrize("name", [name for name, _ in checks.suite(MIX, b"", 0)])
def test_each_check_catches_its_fault(name, monkeypatch):
    # a check that cannot fail would pass both verify and the acceptance tests
    check = dict(checks.suite(MIX, cli.default_seed(MIX), 6))[name]
    check()
    obj, attr, fault = FAULTS[name]
    monkeypatch.setattr(obj, attr, fault(getattr(obj, attr)))
    with pytest.raises(checks.CheckFailed, match=r"k=\d"):
        check()


def _raise_peak(w):
    i = w.index(max(w))
    return w[:i] + [w[i] + 1] + w[i + 1:]


def test_work_bounds_checks_rushing_exactly(monkeypatch):
    # one hash over rushing's 2^(k-1) - 1 stays above the ceil(k/2) floor
    monkeypatch.setattr(schedule, "work_sequence", _corrupt(
        schedule.work_sequence, lambda family, k: family == "rushing", _raise_peak))
    with pytest.raises(checks.CheckFailed, match="rushing k=1 "):
        checks.work_bounds(range(1, 7))


def test_storage_bounds_checks_rushing_exactly(monkeypatch):
    # rushing holds k values in round 2^k + 1, neither endpoint; k + 2 is over its peak
    good = pebbler.Pebbler.storage
    monkeypatch.setattr(pebbler.Pebbler, "storage", lambda self: good(self) + 2 * (
        self.family == "rushing" and self.r == (1 << self.k) + 1))
    with pytest.raises(checks.CheckFailed, match="rushing k=1 round 3: 3 values"):
        checks.storage_bounds(MIX, cli.default_seed(MIX), range(1, 7))


@pytest.mark.parametrize("change", [
    pytest.param(lambda t: [t[0] - 1, *t[1:-1], t[-1] + 1], id="negative-budget"),
    pytest.param(lambda t: t + [0], id="extra-round"),
])
def test_schedule_sums_checks_length_and_sign(change, monkeypatch):
    monkeypatch.setattr(schedule, "make_schedule", _corrupt(
        schedule.make_schedule, lambda family, k: family == "speed2" and k == 3, change))
    assert sum(schedule.make_schedule("speed2", 3)) == 7  # the sum alone passes
    with pytest.raises(checks.CheckFailed, match="speed2 k=3"):
        checks.schedule_sums(range(21))


def test_serve_and_client_loopback(capsys):
    with serving(builtin("md5")) as server:
        port = server.server_address[1]
        status, out = run_cli(capsys, "client", "--host", "127.0.0.1",
                              "--port", str(port), "--k", "4", "--rounds", "16")
        assert status == 0
        assert "round 16: OK 16" in out
        status, out = run_cli(capsys, "client", "--host", "127.0.0.1",
                              "--port", str(port), "--k", "3", "--rounds", "8",
                              "--tamper", "5")
        assert status == 0
        assert "round 5: FAIL" in out and "round 8: OK 7" in out


def test_serve_on_a_port_in_use_is_one_error_line(capsys):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        status = cli.main(["serve", "--host", "127.0.0.1", "--port", str(port)])
    err = capsys.readouterr().err
    assert status == 1
    assert err.startswith(f"error: cannot listen on 127.0.0.1:{port}: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_serve_on_an_unresolvable_host_is_one_error_line(capsys, monkeypatch):
    # the resolver's failure is raised in place of a lookup, which would
    # leave the machine
    def unresolvable(owf, host, port):
        raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

    monkeypatch.setattr(cli.protocol, "IdentificationServer", unresolvable)
    status = cli.main(["serve", "--host", "not a host", "--port", "4040"])
    err = capsys.readouterr().err
    assert status == 1
    assert err == (f"error: cannot listen on not a host:4040: [Errno {socket.EAI_NONAME}] "
                   "Name or service not known\n")
