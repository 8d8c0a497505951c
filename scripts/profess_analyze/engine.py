"""File walker, rule runner and waiver application."""

import os

from . import rules_determinism
from . import rules_hotpath
from . import rules_lint
from . import waivers as waivers_mod
from .cppmodel import TU
from .rules_base import Context

#: Directories scanned by default, relative to the repo root.
SOURCE_DIRS = ("src", "tests", "bench", "examples")

#: Intentionally-violating rule fixtures -- scanned only by the
#: fixture test driver, never by the default repo scan.
EXCLUDE_PREFIXES = ("tests/analyzer_fixtures/",)

ALL_RULES = (rules_lint.RULES + rules_determinism.RULES +
             rules_hotpath.RULES)


def source_files(repo, paths=None):
    """Repo-relative .hh/.cc paths to analyze, sorted."""
    if paths:
        out = []
        for p in paths:
            ap = os.path.join(repo, p)
            if os.path.isdir(ap):
                out += _walk_dir(repo, p)
            else:
                out.append(os.path.relpath(ap, repo))
        return sorted(set(out))
    files = []
    for d in SOURCE_DIRS:
        if os.path.isdir(os.path.join(repo, d)):
            files += _walk_dir(repo, d)
    return sorted(files)


def _walk_dir(repo, rel):
    files = []
    for dirpath, dirnames, filenames in os.walk(
            os.path.join(repo, rel)):
        dirnames.sort()
        for fname in sorted(filenames):
            if not fname.endswith((".hh", ".cc")):
                continue
            relpath = os.path.relpath(
                os.path.join(dirpath, fname), repo)
            relpath = relpath.replace(os.sep, "/")
            if relpath.startswith(EXCLUDE_PREFIXES):
                continue
            files.append(relpath)
    return files


def build_context(repo, files):
    tus = {}
    for rel in files:
        with open(os.path.join(repo, rel), encoding="utf-8",
                  errors="replace") as f:
            text = f.read()
        tus[rel] = TU(rel, text)
    return Context(repo, tus)


def run_rules(ctx, rules=None):
    """@return raw findings (before waivers), sorted by location."""
    rules = ALL_RULES if rules is None else rules
    findings = []
    for rel in sorted(ctx.tus):
        tu = ctx.tus[rel]
        for rule in rules:
            for f in rule.check_tu(tu, ctx):
                if not f.line_text:
                    f.line_text = ctx.line_text(tu, f.line)
                findings.append(f)
    for rule in rules:
        for f in rule.check_program(ctx):
            tu = ctx.tus.get(f.path)
            if tu is not None and not f.line_text:
                f.line_text = ctx.line_text(tu, f.line)
            findings.append(f)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings


class Result:
    def __init__(self, kept, waived, stale_waivers):
        self.kept = kept
        self.waived = waived
        self.stale_waivers = stale_waivers


def analyze(repo, paths=None, use_waivers=True, rules=None,
            today=None):
    """Full pipeline.  Raises waivers_mod.WaiverError on malformed
    or expired waivers."""
    files = source_files(repo, paths)
    ctx = build_context(repo, files)
    raw = run_rules(ctx, rules)
    if not use_waivers:
        return Result(raw, [], [])
    ws = waivers_mod.load(repo, today=today)
    kept, waived = waivers_mod.apply(ws, raw)
    # Only report staleness on full-repo scans: a path-restricted
    # run legitimately never reaches most waived files.
    stale_list = waivers_mod.stale(ws) if not paths else []
    return Result(kept, waived, stale_list)
