"""Command-line front end: schedules, traces, chain reversal, self-checks, demo protocol.

Subcommands:

- ``schedule``  print the set-up budgets of one family as comma-separated integers
- ``trace``     print a full per-round run (round, hashes, storage, output) as CSV or JSONL
- ``reverse``   stream the 2^k chain elements as hex lines, newest first
- ``verify``    run the cross-checks (oracle equivalence, schedule sums, the exact
                half-integer identities, in-place equivalence) and report per property
- ``serve``     accept identification sessions on a TCP port
- ``client``    register against a server and run identification rounds

The default seed is the md5 digest of the empty string for the md5 function,
and the function applied to the all-zero block otherwise, so default streams
are reproducible.  Exit codes: 0 ok, 1 failure, 2 usage error.
"""

import argparse
import hashlib
import sys

from . import inplace, owf, pebbler, protocol, schedule

MAX_K = 30  # memory/time guard


def default_seed(fn: owf.Owf) -> bytes:
    if fn.name == "md5":
        return hashlib.md5(b"").digest()
    return owf.evaluate(fn, bytes(fn.width))


def _resolve(args) -> tuple[owf.Owf, bytes]:
    fn = owf.builtin(args.owf)
    if args.seed:
        try:
            seed = bytes.fromhex(args.seed)
        except ValueError:
            raise SystemExit(f"error: seed is not valid hex: {args.seed!r}")
        if len(seed) != fn.width:
            raise SystemExit(f"error: seed must be {fn.width} bytes for {fn.name}")
    else:
        seed = default_seed(fn)
    return fn, seed


def cmd_schedule(args) -> int:
    print(",".join(str(t) for t in schedule.make_schedule(args.family, args.k)))
    return 0


def cmd_trace(args) -> int:
    fn, seed = _resolve(args)
    rows = pebbler.run_trace(fn, args.family, args.k, seed)
    render = pebbler.trace_jsonl_lines if args.format == "jsonl" else pebbler.trace_csv_lines
    for line in render(rows):
        print(line)
    return 0


def cmd_reverse(args) -> int:
    fn, seed = _resolve(args)
    if args.inplace:
        if args.k < 1:
            raise SystemExit("error: --inplace needs k >= 1")
        if args.family == "speed2":
            state = inplace.InPlaceSpeed2(fn, args.k, seed)
        elif args.family == "optimal":
            state = inplace.InPlaceOptimal(fn, args.k, seed)
        else:
            raise SystemExit("error: --inplace supports the speed2 and optimal families")
        for _ in range(1 << args.k):
            value, _ = state.step()
            print(value.hex())
        return 0
    p = pebbler.Pebbler(fn, args.family, args.k, seed)
    p.finish_setup()  # set-up rounds emit nothing: one fill
    for _ in range(1 << args.k):
        print(p.step().output.hex())
    return 0


def _check_schedule_sums(k_max):
    return all(
        sum(schedule.make_schedule(fam, k)) == (1 << k) - 1
        for fam in schedule.FAMILIES
        for k in range(k_max + 1)
    )


def _check_closed_form(k_max):
    fixtures = {
        0: [],
        1: [1],
        2: [0, 1, 2],
        3: [0, 0, 0, 2, 1, 2, 2],
        4: [0, 0, 0, 0, 0, 0, 0, 2, 2, 1, 1, 2, 2, 2, 3],
    }
    return all(
        schedule.make_schedule("optimal", k) == t
        for k, t in fixtures.items()
        if k <= k_max
    )


def _check_rounding(k_max):
    for k in range(2, k_max + 1):
        halves = schedule.unrounded_optimal(k)  # recursive == explicit, asserted inside
        if schedule.parity_round(halves, k) != schedule.make_schedule("optimal", k):
            return False
    return True


def _check_key_equation(k_max):
    return all(schedule.key_equation_holds(k) for k in range(2, k_max + 1))


def _check_work_bounds(k_max):
    for k in range(1, k_max + 1):
        if max(schedule.work_sequence("speed1", k), default=0) != max(k - 1, 0):
            return False
        if max(schedule.work_sequence("speed2", k), default=0) != max(k - 1, 0):
            return False
        if k >= 2:
            want = (k + 1) // 2
            if max(schedule.work_sequence("optimal", k)) != want:
                return False
            if any(
                max(schedule.work_sequence(fam, k)) < want for fam in schedule.FAMILIES
            ):
                return False
    return True


def _check_oracle_reversal(k_max, fn, seed):
    for k in range(min(k_max, 12) + 1):
        want = pebbler.reverse_oracle(fn, k, seed)
        for fam in schedule.FAMILIES:
            if pebbler.run_outputs(fn, fam, k, seed) != want:
                return False
    return True


def _check_storage(k_max, fn, seed):
    for k in range(1, min(k_max, 10) + 1):
        for fam in schedule.FAMILIES:
            rows = pebbler.run_trace(fn, fam, k, seed)
            if rows[0].storage != 1 or rows[(1 << k) - 1].storage != k + 1:
                return False
            top = max(row.storage for row in rows)
            if fam == "speed1" and top != max(k + 1, 2 * k - 2):
                return False
            if fam in ("speed2", "optimal") and top != k + 1:
                return False
    return True


def _inplace_stream(state, n):
    return [state.step() for _ in range(n)]


def _framework_stream(fn, fam, k, seed):
    p = pebbler.Pebbler(fn, fam, k, seed)
    p.finish_setup()
    out = []
    for _ in range(1 << k):
        res = p.step()
        out.append((res.output, res.hashes))
    return out


def _check_inplace(k_max, fn, seed, variant):
    cls = inplace.InPlaceSpeed2 if variant == "speed2" else inplace.InPlaceOptimal
    for k in range(1, min(k_max, 10) + 1):
        want = _framework_stream(fn, variant, k, seed)
        if _inplace_stream(cls(fn, k, seed), 1 << k) != want:
            return False
    return True


def _check_counter_decoding(k_max, fn, seed):
    for k in range(1, min(k_max, 8) + 1):
        p = pebbler.Pebbler(fn, "optimal", k, seed)
        for _ in range(1 << k):
            p.step()
        for r in range((1 << k) + 1, 1 << (k + 1)):
            c = (1 << (k + 1)) - r
            live = p.live_pebblers()
            decoded = inplace.decode_states(k, c)
            if [d.index for d in decoded] != [i for i, _ in live]:
                return False
            for d, (i, rho) in zip(decoded, live):
                if d.local_counter != (1 << (i + 1)) - rho:
                    return False
            for i, doubled in inplace.segment_budgets(k, c):
                rho = (1 << (i + 1)) - c % (1 << (i + 1))
                halves = [2] if i == 1 else schedule.unrounded_optimal(i)
                if doubled != halves[rho - 1]:
                    return False
            p.step()
    return True


def cmd_verify(args) -> int:
    fn = owf.builtin("testmix64")
    seed = default_seed(fn)
    checks = [
        ("schedule-sums", lambda: _check_schedule_sums(args.k_max)),
        ("closed-form-fixtures", lambda: _check_closed_form(args.k_max)),
        ("recursive-vs-explicit-rounding", lambda: _check_rounding(args.k_max)),
        ("key-equation", lambda: _check_key_equation(max(args.k_max, 2))),
        ("work-bounds", lambda: _check_work_bounds(args.k_max)),
        ("oracle-reversal", lambda: _check_oracle_reversal(args.k_max, fn, seed)),
        ("storage-bounds", lambda: _check_storage(args.k_max, fn, seed)),
        ("inplace-speed2-equivalence", lambda: _check_inplace(args.k_max, fn, seed, "speed2")),
        ("inplace-optimal-equivalence", lambda: _check_inplace(args.k_max, fn, seed, "optimal")),
        ("counter-decoding", lambda: _check_counter_decoding(args.k_max, fn, seed)),
    ]
    failed = 0
    for name, run in checks:
        try:
            ok = run()
        except Exception as exc:  # a crash is a failed property, not a crashed CLI
            print(f"FAIL {name} ({exc})")
            failed += 1
            continue
        print(("ok   " if ok else "FAIL ") + name)
        failed += 0 if ok else 1
    return 1 if failed else 0


def cmd_serve(args) -> int:
    fn = owf.builtin(args.owf)
    server = protocol.IdentificationServer(fn, args.host, args.port)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainpebble",
        description="Reverse one-way hash chains with binary pebbling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p):
        p.add_argument("--family", choices=schedule.FAMILIES, default="optimal")

    def add_k(p):
        p.add_argument("--k", type=int, default=4, help=f"chain order, 0..{MAX_K}")

    def add_owf_seed(p):
        p.add_argument("--owf", choices=owf.OWF_NAMES, default="md5")
        p.add_argument("--seed", default="",
                       help="seed as lowercase hex (default: derived from the owf)")

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
    p.add_argument("--inplace", action="store_true",
                   help="use the in-place stepper (speed2 or optimal family)")
    p.set_defaults(run=cmd_reverse)

    p = sub.add_parser("verify", help="run the self-check suite")
    p.add_argument("--k-max", type=int, default=8, dest="k_max")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("serve", help="run the identification server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=4040)
    p.add_argument("--owf", choices=owf.OWF_NAMES, default="md5")
    p.set_defaults(run=cmd_serve)

    p = sub.add_parser("client", help="run identification rounds against a server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=4040)
    add_k(p)
    add_owf_seed(p)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--tamper", type=int, default=None, metavar="ROUND",
                   help="flip one bit in this round's value before sending")
    p.set_defaults(run=cmd_client)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    k = getattr(args, "k", None)
    if k is not None and not 0 <= k <= MAX_K:
        parser.error(f"--k must be in 0..{MAX_K}")
    k_max = getattr(args, "k_max", None)
    if k_max is not None and not 0 <= k_max <= MAX_K:
        parser.error(f"--k-max must be in 0..{MAX_K}")
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
