"""Determinism rule.

The repo-wide invariant: simulation output is bit-identical for any
--jobs N and across machines.  Within one build, DetSan's jobs-1 vs
jobs-8 journal (Differential.*, KernelDeterminism.* on the
-DPROFESS_DETSAN=ON build) enforces it at run time, so pointer keys,
wall-clock reads, mutable statics and shared float accumulation
need no static rule.  What no run of one build can show is hash
order: std::unordered_* iteration order is the standard library's
choice and may differ between toolchains, while every run DetSan
compares uses the same one.

det-unordered-iter   Iteration over std::unordered_map/_set whose
                     loop body feeds an order-sensitive sink
                     (file/stream output, warn/trace records,
                     swap requests).  Collecting into a vector that
                     is std::sort-ed later in the same function is
                     the blessed pattern and is not flagged; neither
                     is pure commutative aggregation (+=, counters,
                     erase).
"""

from .lexer import Tok
from .rules_base import Finding, Rule

_UNORDERED = ("unordered_map", "unordered_set")

#: Calls that make iteration order observable.
_SINK_CALLS = {
    "fprintf", "printf", "vfprintf", "fputs", "fputc", "fwrite",
    "puts", "putc", "sprintf", "snprintf",
    "warn", "info", "fatal", "record", "emit", "requestSwap",
    "write", "dump", "flushJsonl",
}

#: Stream-ish identifiers: `x << ...` with x in this set is output.
_STREAMY = {"os", "out", "oss", "ss", "cout", "cerr", "clog",
            "stream", "f", "file"}


def _unordered_names(tu, ctx):
    """All identifiers in this TU declared with an unordered type:
    class members (merged program-wide) plus every declaration in
    the TU, local or namespace-scope, found by token scan."""
    names = set()
    for info in ctx.classes.values():
        for member, mtype in info.members.items():
            if any(u in mtype for u in _UNORDERED):
                names.add(member)
    # declarations: `unordered_map < ... > name`
    toks = tu.tokens
    for i, t in enumerate(toks):
        if t.kind == Tok.ID and t.text in _UNORDERED:
            j = i + 1
            if j < len(toks) and toks[j].text == "<":
                depth = 1
                j += 1
                while j < len(toks) and depth:
                    if toks[j].text == "<":
                        depth += 1
                    elif toks[j].text == ">":
                        depth -= 1
                    elif toks[j].text == ">>":
                        depth -= 2
                    j += 1
                if j < len(toks) and toks[j].kind == Tok.ID:
                    names.add(toks[j].text)
    return names


def _stmt_extent(toks, i, end):
    """Extent [i, j) of the statement starting at i: a braced block
    or a single ';'-terminated statement."""
    if i < end and toks[i].text == "{":
        depth = 0
        j = i
        while j < end:
            if toks[j].text == "{":
                depth += 1
            elif toks[j].text == "}":
                depth -= 1
                if depth == 0:
                    return i, j + 1
            j += 1
        return i, end
    j = i
    pdepth = 0
    while j < end:
        t = toks[j].text
        if t == "(":
            pdepth += 1
        elif t == ")":
            pdepth -= 1
        elif t == ";" and pdepth == 0:
            return i, j + 1
        elif t == "{":
            # e.g. `for (...) if (...) { ... }`
            depth = 0
            while j < end:
                if toks[j].text == "{":
                    depth += 1
                elif toks[j].text == "}":
                    depth -= 1
                    if depth == 0:
                        return i, j + 1
                j += 1
            return i, end
        j += 1
    return i, end


class UnorderedIterRule(Rule):
    name = "det-unordered-iter"
    description = ("unordered container iteration must not feed "
                   "order-sensitive output")

    def check_tu(self, tu, ctx):
        toks = tu.tokens
        n = len(toks)
        unames = _unordered_names(tu, ctx)
        if not unames:
            return
        for fn in tu.functions:
            start, end = fn.body
            i = start
            while i < end:
                t = toks[i]
                if t.kind == Tok.ID and t.text == "for" and \
                        i + 1 < end and toks[i + 1].text == "(":
                    hit = self._check_loop(tu, toks, i, start, end,
                                           unames)
                    if hit is not None:
                        yield hit
                i += 1

    def _loop_head(self, toks, i, end):
        """toks[i] is 'for'; @return (container or None, head_end)."""
        depth = 0
        j = i + 1
        colon = None
        head_end = end
        while j < end:
            t = toks[j].text
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
                if depth == 0:
                    head_end = j + 1
                    break
            elif t == ":" and depth == 1 and colon is None:
                colon = j
            j += 1
        container = None
        if colon is not None:
            # range expression: last identifier before ')'
            for k in range(head_end - 2, colon, -1):
                if toks[k].kind == Tok.ID:
                    container = toks[k].text
                    break
        else:
            # iterator loop: look for `X.begin(` / `X.cbegin(`
            for k in range(i, head_end):
                if toks[k].kind == Tok.ID and \
                        toks[k].text in ("begin", "cbegin") and \
                        k >= 2 and toks[k - 1].text in (".", "->") \
                        and toks[k - 2].kind == Tok.ID:
                    container = toks[k - 2].text
                    break
        return container, head_end

    def _check_loop(self, tu, toks, i, fn_start, fn_end, unames):
        container, head_end = self._loop_head(toks, i, fn_end)
        if container is None or container not in unames:
            return None
        body_start, body_end = _stmt_extent(toks, head_end, fn_end)
        sink = self._find_sink(toks, body_start, body_end, fn_end)
        if sink is None:
            return None
        line, what = sink
        return Finding(
            self.name, tu.path, line,
            "iterating unordered container '%s' feeds "
            "order-sensitive sink %s; iterate a sorted copy (or "
            "collect + std::sort first)" % (container, what))

    def _find_sink(self, toks, start, end, fn_end):
        for j in range(start, end):
            t = toks[j]
            if t.kind == Tok.ID and t.text in _SINK_CALLS and \
                    j + 1 < end and toks[j + 1].text == "(":
                return t.line, "'%s()'" % t.text
            if t.kind == Tok.PUNCT and t.text == "<<":
                if j >= 1 and toks[j - 1].kind == Tok.ID and \
                        toks[j - 1].text in _STREAMY:
                    return t.line, "stream output"
                if j + 1 < end and toks[j + 1].kind == Tok.STR:
                    return t.line, "stream output"
            if t.kind == Tok.ID and \
                    t.text in ("push_back", "emplace_back") and \
                    j >= 2 and toks[j - 1].text in (".", "->") and \
                    toks[j - 2].kind == Tok.ID:
                target = toks[j - 2].text
                if not self._sorted_later(toks, end, fn_end, target):
                    return t.line, ("unsorted append to '%s'"
                                    % target)
        return None

    def _sorted_later(self, toks, from_idx, fn_end, target):
        """True if `sort(target.begin()` (std::sort/stable_sort)
        appears in [from_idx, fn_end)."""
        for j in range(from_idx, fn_end - 3):
            t = toks[j]
            if t.kind == Tok.ID and t.text in ("sort",
                                               "stable_sort"):
                k = j + 1
                if k < fn_end and toks[k].text == "(" and \
                        k + 1 < fn_end and \
                        toks[k + 1].kind == Tok.ID and \
                        toks[k + 1].text == target:
                    return True
        return False


RULES = [UnorderedIterRule()]
