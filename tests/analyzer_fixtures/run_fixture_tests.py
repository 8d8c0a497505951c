#!/usr/bin/env python3
"""Golden tests for scripts/profess_analyze.

Every fixture in this directory is analyzed as its own single-file
program under the path declared by its `// fixture-path:` header.
The findings must match the fixture's markers *exactly*:

  * each `// BAD[rule]` line and `// EXPECT[rule@N]` marker must be
    reported (100% caught);
  * nothing else may be reported (zero false positives -- the
    `*_clean.*` twins carry no markers and must stay silent).

The driver also asserts that the bad fixtures jointly cover every
finding kind the analyzer can emit, and that every rule in
engine.ALL_RULES is one of those kinds, so a new rule cannot land
without a fixture.

Runs standalone (`python3 run_fixture_tests.py`) and as the ctest
`AnalyzerFixtures` entry.  Exit 0 on success, 1 on any mismatch.
"""

import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(REPO, "scripts"))

from profess_analyze import engine  # noqa: E402
from profess_analyze.cppmodel import TU  # noqa: E402
from profess_analyze.rules_base import Context  # noqa: E402

#: Every finding kind the analyzer can emit: each rule emits its
#: own name.  Each must be hit by at least one bad fixture.
FINDING_KINDS = {
    "rng", "include-hygiene", "include-order", "det-unordered-iter",
}

PATH_RE = re.compile(r"//\s*fixture-path:\s*(\S+)")
BAD_RE = re.compile(r"//\s*BAD\[([a-z-]+)\]")
EXPECT_RE = re.compile(r"//\s*EXPECT\[([a-z-]+)@(\d+)\]")


def parse_fixture(fname):
    """@return (declared_path, text, expected) where expected is a
    sorted list of (rule, line)."""
    with open(os.path.join(HERE, fname), encoding="utf-8") as f:
        text = f.read()
    m = PATH_RE.search(text.splitlines()[0])
    if m is None:
        raise SystemExit("%s: missing '// fixture-path:' header"
                         % fname)
    expected = []
    for lineno, line in enumerate(text.splitlines(), 1):
        for bm in BAD_RE.finditer(line):
            expected.append((bm.group(1), lineno))
        for em in EXPECT_RE.finditer(line):
            expected.append((em.group(1), int(em.group(2))))
    return m.group(1), text, sorted(expected)


def analyze_one(declared_path, text):
    """Run all rules over one fixture as an isolated program."""
    tu = TU(declared_path, text)
    ctx = Context(REPO, {declared_path: tu})
    return engine.run_rules(ctx)


def main():
    fixtures = sorted(f for f in os.listdir(HERE)
                      if f.endswith((".cc", ".hh")))
    if not fixtures:
        print("no fixtures found in %s" % HERE)
        return 1

    failures = 0
    covered = set()
    for fname in fixtures:
        declared_path, text, expected = parse_fixture(fname)
        is_bad = "_bad." in fname
        if is_bad and not expected:
            print("FAIL %s: bad fixture declares no expected "
                  "findings" % fname)
            failures += 1
            continue
        if not is_bad and expected:
            print("FAIL %s: clean fixture carries violation markers"
                  % fname)
            failures += 1
            continue

        findings = analyze_one(declared_path, text)
        actual = sorted((f.rule, f.line) for f in findings)
        covered.update(r for r, _line in actual if is_bad)
        if actual == expected:
            print("ok   %s (%d finding(s))" % (fname, len(actual)))
            continue
        failures += 1
        print("FAIL %s (as %s)" % (fname, declared_path))
        missed = [e for e in expected if e not in actual]
        extra = [a for a in actual if a not in expected]
        for rule, line in missed:
            print("  missed: expected [%s] at line %d" % (rule, line))
        for f in findings:
            if (f.rule, f.line) in extra:
                print("  false positive: %s" % f.render())

    unlisted = {r.name for r in engine.ALL_RULES} - FINDING_KINDS
    if unlisted:
        failures += 1
        print("FAIL coverage: rules missing from FINDING_KINDS: %s"
              % ", ".join(sorted(unlisted)))

    missing_kinds = FINDING_KINDS - covered
    if missing_kinds:
        failures += 1
        print("FAIL coverage: no bad fixture triggers: %s"
              % ", ".join(sorted(missing_kinds)))

    # The default repo scan must never pick the fixtures up.
    leaked = [p for p in engine.source_files(REPO)
              if p.startswith("tests/analyzer_fixtures/")]
    if leaked:
        failures += 1
        print("FAIL exclusion: default scan picked up %s" % leaked)

    if failures:
        print("%d fixture failure(s)" % failures)
        return 1
    print("all %d fixtures pass; %d finding kinds covered"
          % (len(fixtures), len(FINDING_KINDS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
