"""Line rules absorbed from the old scripts/lint_profess.py.

rng, include-hygiene and include-order keep their names and
semantics, re-hosted on the analyzer's Finding machinery.
Statistic names need no rule: StatRegistry's registration
(common/telemetry.cc) panics on a malformed or duplicate name, and
hot-path heap use needs none either: tests/test_alloc.cc counts
the allocations of every built-in policy's run after warm-up.
"""

import os
import re

from .lexer import strip_comments
from .rules_base import Finding, Rule

RNG_HOME = "src/common/rng.hh"

BANNED_RNG_RE = re.compile(
    r"\b(?:s?rand)\s*\("
    r"|std::mt19937|std::minstd_rand|random_device"
    r"|default_random_engine")

GUARD_RE = re.compile(r"^#ifndef\s+(\w+)\s*$", re.M)
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+["<]([^">]+)[">]')


class RngRule(Rule):
    name = "rng"
    description = ("All randomness flows through common/rng.hh "
                   "(seeded PCG32)")

    def check_tu(self, tu, ctx):
        if tu.path == RNG_HOME:
            return
        code = strip_comments(tu.text)
        for lineno, line in enumerate(code.splitlines(), 1):
            m = BANNED_RNG_RE.search(line)
            if m:
                yield Finding(
                    self.name, tu.path, lineno,
                    "'%s' outside %s (use common/rng.hh)"
                    % (m.group(0).strip(), RNG_HOME))


class IncludeHygieneRule(Rule):
    name = "include-hygiene"
    description = ("Header guards, own-header-first, no '../' or "
                   "<bits/stdc++.h>")

    def check_tu(self, tu, ctx):
        raw = tu.text
        path = tu.path
        for lineno, line in enumerate(raw.splitlines(), 1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            target = m.group(1)
            if target.startswith("../"):
                yield Finding(self.name, path, lineno,
                              "relative '../' include")
            if target == "bits/stdc++.h":
                yield Finding(self.name, path, lineno,
                              "<bits/stdc++.h> is non-standard")

        if path.startswith("src/") and path.endswith(".hh"):
            rel = path[len("src/"):-len(".hh")]
            want = "PROFESS_" + rel.replace("/", "_").upper() + "_HH"
            m = GUARD_RE.search(raw)
            if not m:
                yield Finding(self.name, path, 1,
                              "missing header guard (expected %s)"
                              % want)
            elif m.group(1) != want:
                lineno = raw.count("\n", 0, m.start()) + 1
                yield Finding(self.name, path, lineno,
                              "header guard %s; expected %s"
                              % (m.group(1), want))

        if path.startswith("src/") and path.endswith(".cc"):
            own = path[len("src/"):-len(".cc")] + ".hh"
            if os.path.exists(os.path.join(ctx.repo, "src", own)):
                for lineno, line in enumerate(raw.splitlines(), 1):
                    m = INCLUDE_RE.match(line)
                    if not m:
                        continue
                    if m.group(1) != own:
                        yield Finding(
                            self.name, path, lineno,
                            "own header \"%s\" must be the first "
                            "include" % own)
                    break


class IncludeOrderRule(Rule):
    name = "include-order"
    description = ("Include blocks are sorted and do not mix "
                   "<angle> and \"quote\" styles")

    def check_tu(self, tu, ctx):
        raw = tu.text
        path = tu.path
        own = None
        if path.startswith("src/") and path.endswith(".cc"):
            candidate = path[len("src/"):-len(".cc")] + ".hh"
            if os.path.exists(os.path.join(ctx.repo, "src",
                                           candidate)):
                own = candidate

        blocks = []
        current = []
        for lineno, line in enumerate(raw.splitlines(), 1):
            m = INCLUDE_RE.match(line)
            if m:
                style = "<" if line.strip().endswith(">") else '"'
                current.append((lineno, style, m.group(1)))
            elif current:
                blocks.append(current)
                current = []
        if current:
            blocks.append(current)

        for block in blocks:
            if (own is not None and len(block) == 1
                    and block[0][2] == own):
                continue
            styles = {style for _, style, _ in block}
            if len(styles) > 1:
                yield Finding(self.name, path, block[0][0],
                              "include block mixes <angle> and "
                              "\"quote\" styles; split into "
                              "separate blocks")
            targets = [t for _, _, t in block]
            if targets != sorted(targets):
                for i in range(1, len(block)):
                    if block[i][2] < block[i - 1][2]:
                        lineno, _, target = block[i]
                        yield Finding(
                            self.name, path, lineno,
                            "'%s' breaks case-sensitive sort "
                            "order (after '%s')"
                            % (target, block[i - 1][2]))


RULES = [RngRule(), IncludeHygieneRule(), IncludeOrderRule()]
