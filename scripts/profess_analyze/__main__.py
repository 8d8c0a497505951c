"""CLI: python3 scripts/profess_analyze [paths...] [--sarif OUT].

Exit status: 0 clean, 1 findings, 2 usage errors.
"""

import argparse
import os
import sys

if __package__ in (None, ""):
    # Executed as `python3 scripts/profess_analyze` -- make the
    # package importable, then re-enter through it.
    sys.path.insert(0, os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    import profess_analyze  # noqa: F401
    __package__ = "profess_analyze"

from . import __version__                       # noqa: E402
from . import engine, sarif                     # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="profess_analyze",
        description="ProFess determinism and include analyzer")
    ap.add_argument("paths", nargs="*",
                    help="files or directories (default: src tests "
                         "bench examples)")
    ap.add_argument("--sarif", metavar="OUT",
                    help="also write findings as SARIF 2.1.0")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule catalog and exit")
    ap.add_argument("--repo", default=None,
                    help="repo root (default: auto-detect from "
                         "this script's location)")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in engine.ALL_RULES:
            print("%-18s %s" % (rule.name, rule.description))
        return 0

    repo = args.repo or os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))

    findings = engine.analyze(repo, paths=args.paths or None)
    for f in findings:
        print(f.render())

    if args.sarif:
        sarif.write(args.sarif, findings, engine.ALL_RULES,
                    __version__)

    if findings:
        print("profess_analyze: %d finding(s)" % len(findings),
              file=sys.stderr)
        return 1
    print("profess_analyze: clean (%d file(s), %d rule(s))"
          % (len(engine.source_files(repo, args.paths or None)),
             len(engine.ALL_RULES)), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
