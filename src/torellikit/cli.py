"""Command line interface: run verification suites, dump relation
catalogs, and check reduction certificates.

Exit codes: 0 on success, 1 when any check fails, 2 on usage or parse
errors; a usage error is one line on stderr.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import certificates, lpres, suites


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one stderr line, without the usage block.
    A dash and a digit begin a value, so ``--seed -0x1`` is seed -1 (argparse
    alone reads ``-0x1`` as an option)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _parse_seed(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed {text!r} is not an integer (hex 0x5EED or decimal)"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="torellikit",
        description="Exact verification of free-group automorphism identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", required=True, choices=suites.suite_names())
    verify.add_argument("--n", type=int, default=None)
    verify.add_argument("--k", type=int, default=None)
    verify.add_argument("--samples", type=int, default=None)
    verify.add_argument("--seed", type=_parse_seed, default=None,
                        help="hex (0x5EED) or decimal")
    verify.add_argument("--format", choices=("json", "text"), default="json")
    verify.add_argument("--report", default=None, help="write the report here")

    catalog = sub.add_parser("catalog", help="dump a relation catalog")
    catalog.add_argument("--dump", required=True,
                         choices=sorted(lpres._CATALOGS))
    catalog.add_argument("--n", type=int, required=True)
    catalog.add_argument("--k", type=int, default=1)

    certify = sub.add_parser("certify", help="check a reduction certificate")
    certify.add_argument("--file", required=True)
    certify.add_argument("--depth", type=int, default=1,
                         help="substitution depth for relator recognition "
                         f"(0 to {certificates.MAX_DEPTH})")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.command == "verify":
        try:
            report = suites.run_suite(
                args.suite, n=args.n, k=args.k, samples=args.samples,
                seed=args.seed,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        text = report.to_json() if args.format == "json" else report.to_text()
        if args.report:
            try:
                with open(args.report, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        print(text)
        return 0 if report.passed else 1

    if args.command == "catalog":
        try:
            for inst in lpres.relation_catalog(args.dump, args.n, args.k):
                print(inst.describe())
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    if args.command == "certify":
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                cert = certificates.parse_certificate(fh.read())
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (UnicodeDecodeError, certificates.CertificateError) as exc:
            print(f"error: {args.file}: {exc}", file=sys.stderr)
            return 2
        try:
            report = certificates.replay_certificate(cert, path=args.file,
                                                     depth=args.depth)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report.summary())
        return 0 if report.ok else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
