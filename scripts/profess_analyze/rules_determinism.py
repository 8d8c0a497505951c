"""Determinism rules.

The repo-wide invariant these protect: simulation output is
bit-identical for any --jobs N and across machines.  Every rule
targets a construct that can silently break that.

det-unordered-iter   Iteration over std::unordered_map/_set whose
                     loop body feeds an order-sensitive sink
                     (file/stream output, warn/trace records,
                     swap requests).  Collecting into a vector that
                     is std::sort-ed later in the same function is
                     the blessed pattern and is not flagged; neither
                     is pure commutative aggregation (+=, counters,
                     erase).
det-pointer-key      Ordered or hashed containers keyed by pointer
                     values: iteration order then depends on the
                     allocator, i.e. on the run.
det-wallclock        std::chrono / time() / clock_gettime outside
                     common/rng.hh and the waived telemetry-timer
                     files (WALLCLOCK_WAIVED below): wall time must
                     never reach simulation state.
det-mutable-static   Mutable function-local statics and non-const
                     namespace-scope variables outside src/common/:
                     hidden cross-run (and cross-worker) state.
                     Meyers singletons (static local immediately
                     returned by reference) are the documented
                     process-global pattern and are exempt.
det-float-accum      += / -= on float/double members of classes
                     that also hold a mutex or atomic (i.e. state
                     shared across worker boundaries), and on
                     float/double globals: accumulation order would
                     change the rounding, so per-run results would
                     depend on scheduling.
"""

from .lexer import Tok
from .rules_base import Finding, Rule

#: Files allowed to read wall clocks, with the reason on record.
#: These never feed simulation state -- the analyzer's waiver file
#: is for temporary exceptions; this table is architecture.
WALLCLOCK_WAIVED = {
    "src/common/telemetry.hh":
        "ScopedTimer/TimerSlot host-side wall profiling (DESIGN 4d)",
    "src/common/telemetry.cc":
        "manifest wall-clock timestamps and RSS accounting",
    "src/common/thread_pool.cc":
        "idle-worker condition_variable timeout; scheduling only",
    "src/sim/run_telemetry.hh":
        "run manifest wall-clock span",
    "src/sim/run_telemetry.cc":
        "run manifest wall-clock span",
    "src/sim/parallel_runner.cc":
        "per-job progress timing on stderr",
}

#: Directory prefixes whose wall-clock reads are measurement
#: harnesses by definition (never simulation state).
WALLCLOCK_WAIVED_PREFIXES = ("bench/", "tests/", "examples/")

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

_CLOCK_IDS = {"steady_clock", "system_clock",
              "high_resolution_clock", "gettimeofday",
              "clock_gettime", "timespec_get", "localtime",
              "gmtime", "mktime"}


def _unordered_names(tu, ctx):
    """All identifiers in this TU declared with an unordered type:
    class members (merged program-wide) plus TU-local declarations
    found by token scan."""
    names = set()
    for info in ctx.classes.values():
        for member, mtype in info.members.items():
            if any(u in mtype for u in _UNORDERED):
                names.add(member)
    for name, _line, vtype in tu.ns_vars:
        if any(u in vtype for u in _UNORDERED):
            names.add(name)
    # local declarations: `unordered_map < ... > name`
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
            "collect + std::sort first)" % (container, what),
            "" )

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


class PointerKeyRule(Rule):
    name = "det-pointer-key"
    description = "containers must not be keyed by pointer values"

    _CONTAINERS = {"map", "set", "multimap", "multiset",
                   "unordered_map", "unordered_set", "hash"}

    def check_tu(self, tu, ctx):
        toks = tu.tokens
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != Tok.ID or t.text not in self._CONTAINERS:
                continue
            if i + 1 >= n or toks[i + 1].text != "<":
                continue
            # first template argument at depth 1
            depth = 1
            j = i + 2
            arg = []
            while j < n and depth:
                tj = toks[j].text
                if tj == "<":
                    depth += 1
                elif tj in (">", ">>"):
                    depth -= 2 if tj == ">>" else 1
                    if depth <= 0:
                        break
                elif tj == "," and depth == 1:
                    break
                arg.append(tj)
                j += 1
            if arg and arg[-1] == "*":
                yield Finding(
                    self.name, tu.path, t.line,
                    "std::%s keyed by pointer '%s': iteration/"
                    "hash order depends on allocation addresses"
                    % (t.text, " ".join(arg)), "")


class WallClockRule(Rule):
    name = "det-wallclock"
    description = ("wall-clock reads only in common/rng.hh and the "
                   "waived telemetry timers")

    def check_tu(self, tu, ctx):
        path = tu.path
        if path == "src/common/rng.hh":
            return
        if path in WALLCLOCK_WAIVED:
            return
        if path.startswith(WALLCLOCK_WAIVED_PREFIXES):
            return
        toks = tu.tokens
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != Tok.ID:
                continue
            if t.text == "chrono" and i >= 1 and \
                    toks[i - 1].text == "::":
                yield Finding(
                    self.name, path, t.line,
                    "std::chrono wall-clock use outside the waived "
                    "telemetry timers (see WALLCLOCK_WAIVED)", "")
            elif t.text in _CLOCK_IDS:
                yield Finding(
                    self.name, path, t.line,
                    "'%s' outside the waived telemetry timers"
                    % t.text, "")
            elif t.text in ("time", "clock") and i + 1 < n and \
                    toks[i + 1].text == "(" and \
                    (i == 0 or toks[i - 1].text not in
                     (".", "->", "::")):
                yield Finding(
                    self.name, path, t.line,
                    "'%s()' wall-clock call outside the waived "
                    "telemetry timers" % t.text, "")


class MutableStaticRule(Rule):
    name = "det-mutable-static"
    description = ("no mutable local statics or non-const globals "
                   "outside src/common/")

    #: Synchronization primitives carry no program-visible state;
    #: a file-scope mutex is coordination, not hidden data.
    _SYNC_TYPES = ("mutex", "condition_variable", "once_flag",
                   "atomic_flag")

    def check_tu(self, tu, ctx):
        path = tu.path
        if not path.startswith("src/") or \
                path.startswith("src/common/"):
            return
        for name, line, vtype in tu.ns_vars:
            if any(s in vtype for s in self._SYNC_TYPES):
                continue
            yield Finding(
                self.name, path, line,
                "non-const namespace-scope variable '%s' (%s): "
                "hidden global state outside src/common/"
                % (name, vtype or "?"), "")
        for fn in tu.functions:
            for name, line, is_singleton in fn.local_statics:
                if is_singleton:
                    continue  # documented Meyers-singleton pattern
                yield Finding(
                    self.name, path, line,
                    "mutable function-local static '%s' in %s(): "
                    "cross-run state; use a member or the "
                    "singleton pattern" % (name, fn.qualified), "")


class FloatAccumRule(Rule):
    name = "det-float-accum"
    description = ("no float accumulation into state shared across "
                   "worker boundaries")

    def _shared_classes(self, ctx):
        shared = {}
        for name, info in ctx.classes.items():
            for mtype in info.members.values():
                if "mutex" in mtype or "atomic" in mtype:
                    shared[name] = info
                    break
        return shared

    def check_program(self, ctx):
        shared = self._shared_classes(ctx)
        float_globals = {}
        for tu in ctx.tus.values():
            for name, line, vtype in tu.ns_vars:
                if "double" in vtype.split() or \
                        "float" in vtype.split():
                    float_globals[name] = (tu.path, line)
        for tu in ctx.tus.values():
            toks = tu.tokens
            for fn in tu.functions:
                info = shared.get(fn.cls) if fn.cls else None
                start, end = fn.body
                for j in range(start, end):
                    t = toks[j]
                    if t.kind != Tok.PUNCT or \
                            t.text not in ("+=", "-="):
                        continue
                    if j == start or toks[j - 1].kind != Tok.ID:
                        continue
                    target = toks[j - 1].text
                    if info is not None:
                        mtype = info.members.get(target, "")
                        words = mtype.split()
                        if "double" in words or "float" in words:
                            yield Finding(
                                self.name, tu.path, t.line,
                                "float accumulation '%s %s' into "
                                "member of %s, which holds "
                                "cross-worker shared state: "
                                "summation order would depend on "
                                "scheduling"
                                % (target, t.text, fn.cls), "")
                            continue
                    if target in float_globals:
                        yield Finding(
                            self.name, tu.path, t.line,
                            "float accumulation '%s %s' into a "
                            "global: summation order would depend "
                            "on scheduling" % (target, t.text), "")


RULES = [UnorderedIterRule(), PointerKeyRule(), WallClockRule(),
         MutableStaticRule(), FloatAccumRule()]
