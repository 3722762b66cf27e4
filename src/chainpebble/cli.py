"""Command-line front end: schedules, traces, chain reversal, self-checks, demo protocol.

Subcommands:

- ``schedule``  print the set-up budgets of one family as comma-separated integers
- ``trace``     print a full per-round run (round, hashes, storage, output) as CSV or JSONL;
                both print as they go, holding no list of budgets or rows
- ``reverse``   stream the 2^k chain elements as hex lines, newest first, through
                ``protocol.Prover``: in place when the family has a stepper, on the
                framework pebbler otherwise
- ``verify``    run the ``checks`` suite up to ``--k-max`` (at most 20), printing
                ``ok`` or ``FAIL`` per property and, for a failure, its
                counterexample (family, k and round)
- ``serve``     accept identification sessions on a TCP port; exit 1 with one
                ``error:`` line when it cannot listen there (port in use,
                unresolvable host)
- ``client``    register against a server and run identification rounds; exit 0
                when every reply is the one an honest exchange gets, 1 at the
                first other reply, at a lost connection, or at a round past the
                chain's last, which prints the engine's own "exhausted" error

``--seed`` is exactly 2 x width lowercase hex digits, as ``Owf.from_hex``
reads them.  The default seed is the md5 digest of the empty string for the
md5 function, and the function applied to the all-zero block otherwise, so
default streams are reproducible.  Integer options are ASCII digits, as
``protocol.read_digits`` reads them.  Exit codes: 0 ok, 1 failure, 2 usage
error (such as a seed of another form, an out-of-range or non-ASCII
integer option, or ``--owf davies-meyer-aes128`` where libcrypto's AES-128
did not load).
"""

import argparse
import hashlib
import sys
from itertools import islice

from . import checks, owf, pebbler, protocol, schedule
from .inplace import MAX_K

# verify's schedule checks list 2^k budgets per family: about 6 s and
# 70 MiB at k=20, each order doubling both
VERIFY_K_MAX = 20
# twice the longest chain's releases: room for all of them and a tampered round
ROUNDS_MAX = 2 << MAX_K


def default_seed(fn: owf.Owf) -> bytes:
    if fn.name == "md5":
        return hashlib.md5(b"").digest()
    return owf.evaluate(fn, bytes(fn.width))


def _builtin(name: str) -> owf.Owf:
    try:
        return owf.builtin(name)
    except ValueError as exc:  # a built-in that did not load, such as Davies-Meyer
        raise SystemExit(f"error: {exc}") from None


def _resolve(args) -> tuple[owf.Owf, bytes]:
    fn = _builtin(args.owf)
    if not args.seed:
        return fn, default_seed(fn)
    seed = fn.from_hex(args.seed)
    if seed is None:
        raise SystemExit(f"error: seed must be exactly {2 * fn.width} lowercase hex digits "
                         f"for {fn.name}, got {args.seed!r}")
    return fn, seed


def cmd_schedule(args) -> int:
    budgets = map(str, schedule.budgets(args.family, args.k))
    sep = ""
    while batch := ",".join(islice(budgets, 64)):  # no list of all 2^k - 1
        sys.stdout.write(sep + batch)
        sep = ","
    print()
    return 0


def cmd_trace(args) -> int:
    fn, seed = _resolve(args)
    rows = pebbler.iter_trace(fn, args.family, args.k, seed)  # written as they come
    render = pebbler.trace_jsonl_lines if args.format == "jsonl" else pebbler.trace_csv_lines
    for line in render(rows):
        print(line)
    return 0


def cmd_reverse(args) -> int:
    fn, seed = _resolve(args)
    prover = protocol.Prover(fn, args.k, seed, family=args.family)
    for _ in range(1 << args.k):
        print(prover.next_value().hex())
    return 0


def cmd_verify(args) -> int:
    fn = owf.builtin("testmix64")
    failed = 0
    for name, check in checks.suite(fn, default_seed(fn), args.k_max):
        try:
            check()
        except Exception as exc:  # a crash is a failed property, not a crashed CLI
            print(f"FAIL {name} ({exc})")
            failed += 1
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


def cmd_serve(args) -> int:
    fn = _builtin(args.owf)
    try:
        server = protocol.IdentificationServer(fn, args.host, args.port)
    except OSError as exc:  # port in use or privileged, host unresolvable or not local
        print(f"error: cannot listen on {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    host, port = server.server_address[:2]
    print(f"listening on {host}:{port} owf={fn.name}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_client(args) -> int:
    fn, seed = _resolve(args)
    return protocol.run_client(
        fn, args.k, seed, args.host, args.port, args.rounds, tamper=args.tamper
    )


def upto(name: str, top: int):
    """An argparse type for an integer in 0..top, read as ``REGISTER``'s
    order is, named in its "invalid <name> value" error."""
    def parse(text: str) -> int:
        number = protocol.read_digits(text, top)
        if number is None:
            raise argparse.ArgumentTypeError(f"must be ASCII digits in 0..{top}")
        return number
    parse.__name__ = name
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainpebble",
        description="Reverse one-way hash chains with binary pebbling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p):
        p.add_argument("--family", choices=schedule.FAMILIES, default="optimal")

    def add_address(p):
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=upto("port", 65535), default=4040, help="TCP port, 0..65535")

    def add_k(p):
        p.add_argument("--k", type=upto("order", MAX_K), default=4, help=f"chain order, 0..{MAX_K}")

    def add_owf_seed(p):
        p.add_argument("--owf", choices=owf.OWF_NAMES, default="md5")
        p.add_argument("--seed", default="",
                       help="seed as exactly 2 x width lowercase hex digits "
                            "(default: derived from the owf)")

    p = sub.add_parser("schedule", help="print set-up budgets")
    add_family(p)
    add_k(p)
    p.set_defaults(run=cmd_schedule)

    p = sub.add_parser("trace", help="print a per-round trace")
    add_family(p)
    add_k(p)
    add_owf_seed(p)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.set_defaults(run=cmd_trace)

    p = sub.add_parser("reverse", help="stream the reversed chain as hex lines")
    add_family(p)
    add_k(p)
    add_owf_seed(p)
    p.set_defaults(run=cmd_reverse)

    p = sub.add_parser("verify", help="run the self-check suite")
    p.add_argument("--k-max", type=upto("order", VERIFY_K_MAX), default=8, dest="k_max",
                   help=f"largest order checked, 0..{VERIFY_K_MAX}")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("serve", help="run the identification server")
    add_address(p)
    p.add_argument("--owf", choices=owf.OWF_NAMES, default="md5")
    p.set_defaults(run=cmd_serve)

    p = sub.add_parser("client", help="run identification rounds against a server")
    add_address(p)
    add_k(p)
    add_owf_seed(p)
    p.add_argument("--rounds", type=upto("rounds", ROUNDS_MAX), default=1,
                   help=f"rounds to run, 0..{ROUNDS_MAX}")
    p.add_argument("--tamper", type=upto("round", ROUNDS_MAX), default=None, metavar="ROUND",
                   help="flip one bit in this round's value before sending")
    p.set_defaults(run=cmd_client)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
