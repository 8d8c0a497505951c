"""File walker and rule runner."""

import os

from . import rules_determinism
from . import rules_lint
from .cppmodel import TU
from .rules_base import Context

#: Directories scanned by default, relative to the repo root.
SOURCE_DIRS = ("src", "tests", "bench", "examples")

#: Intentionally-violating rule fixtures -- scanned only by the
#: fixture test driver, never by the default repo scan.
EXCLUDE_PREFIXES = ("tests/analyzer_fixtures/",)

ALL_RULES = rules_lint.RULES + rules_determinism.RULES


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


def run_rules(ctx):
    """@return findings, sorted by location."""
    findings = []
    for rel in sorted(ctx.tus):
        for rule in ALL_RULES:
            findings += rule.check_tu(ctx.tus[rel], ctx)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings


def analyze(repo, paths=None):
    """Full pipeline: @return the findings over `paths` (default:
    SOURCE_DIRS)."""
    return run_rules(build_context(repo, source_files(repo, paths)))
