"""Hot-path rules: a call-extent walk from the simulation kernel's
hot loops.

The walk starts at HOT_ROOTS (EventQueue extraction/scheduling, the
Channel scheduler, the HybridController access path, MDM's decision
path) and follows calls the model can resolve: same-class methods,
methods reached through a member whose declared type names a known
class, and free functions defined in the same translation unit.
Within every reachable body:

hot-heap-alloc     plain `new` (placement `::new (addr)` is fine),
                   malloc/calloc/realloc, make_unique/make_shared.
                   Steady-state container growth (push_back into a
                   reserved vector) is the accepted amortized
                   pattern and is not flagged.
hot-std-function   std::function creates/copies type-erased heap
                   callables; use InlineCallback
                   (common/inline_function.hh).
hot-virtual-call   virtual dispatch through a member: indirect
                   branches in the kernel loop.  The one documented
                   exemption is the policy boundary
                   (VIRTUAL_EXEMPT): one virtual call per policy
                   event is the plugin architecture itself.
hot-unlikely       telemetry pointer tests in hot-class
                   bodies must be wrapped in PROFESS_UNLIKELY so
                   the off state stays one predictable branch.
"""

from .lexer import Tok
from .rules_base import Finding, Rule

#: Reachability roots: (class, method).  "*" = every method.
HOT_ROOTS = [
    ("EventQueue", "runOne"),
    ("EventQueue", "run"),
    ("EventQueue", "runUntil"),
    ("EventQueue", "schedule"),
    ("EventQueue", "scheduleIn"),
    ("Channel", "push"),
    ("Channel", "trySchedule"),
    ("Channel", "pickNext"),
    ("Channel", "commit"),
    ("Channel", "executeSwap"),
    ("HybridController", "access"),
    ("HybridController", "serve"),
    ("HybridController", "finishSwap"),
    ("Mdm", "onAccess"),
    ("Mdm", "decide"),
]

#: Virtual-dispatch exemptions: class -> architectural reason.
VIRTUAL_EXEMPT = {
    "MigrationPolicy":
        "the policy plugin boundary: exactly one virtual call per "
        "policy event is the architecture (DESIGN.md 2/4c)",
    "SwapHost":
        "inverse edge of the policy boundary (policy -> controller)",
    "TraceSource":
        "per-access trace generation boundary (core model frontend)",
    "BlockOwnerOracle":
        "OS ownership oracle (allocator -> controller): one query "
        "per served access feeds AccessInfo.m1Owner for the policy; "
        "part of the plugin boundary like MigrationPolicy",
}

#: Telemetry pointer members that hot branches test.
TELEMETRY_PTRS = {
    "attr_", "chrome_", "decision_", "sink_", "trace_", "slot_",
    "sampler_", "timer_", "telemetry_",
}

#: Classes whose bodies get the hot-unlikely branch check.
HOT_CLASSES = {"EventQueue", "Channel", "HybridController", "Mdm",
               "StCache", "CoreModel"}

_HEAP_CALLS = {"malloc", "calloc", "realloc", "make_unique",
               "make_shared"}


class _Walker:
    """Builds the reachable-function set once per program."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.reachable = {}   # Function -> via (root chain string)
        self._fn_tu = {}
        for tu in ctx.tus.values():
            for fn in tu.functions:
                self._fn_tu[id(fn)] = tu
        self._walk()

    def tu_of(self, fn):
        return self._fn_tu[id(fn)]

    def _lookup(self, qual):
        return self.ctx.functions_by_qual.get(qual, [])

    def _walk(self):
        work = []
        for cls, method in HOT_ROOTS:
            for fn in self._lookup("%s::%s" % (cls, method)):
                work.append((fn, "%s::%s" % (cls, method)))
        while work:
            fn, via = work.pop()
            if id(fn) in {id(f) for f in self.reachable}:
                continue
            self.reachable[fn] = via
            tu = self.tu_of(fn)
            for call in fn.calls:
                for target in self._resolve(fn, tu, call):
                    if target not in self.reachable:
                        work.append((target, via))

    def _resolve(self, fn, tu, call):
        out = []
        if call.receiver in (None, "this") and fn.cls:
            out += self._lookup("%s::%s" % (fn.cls, call.name))
        if call.receiver not in (None, "this") and fn.cls:
            mtype = self.ctx.member_type(fn.cls, call.receiver)
            if mtype:
                for word in mtype.replace("*", " ").split():
                    if word in self.ctx.classes:
                        out += self._lookup(
                            "%s::%s" % (word, call.name))
        if call.receiver is None:
            # free function defined in the same TU
            for f in tu.functions:
                if f.cls is None and f.name == call.name:
                    out.append(f)
        return out


class HotPathWalkRules(Rule):
    """One walk, three banned-construct checks (heap, std::function,
    virtual dispatch)."""

    name = "hot-path"
    description = "banned constructs reachable from the hot loops"

    def check_program(self, ctx):
        walker = _Walker(ctx)
        for fn, via in walker.reachable.items():
            tu = walker.tu_of(fn)
            yield from self._check_body(ctx, tu, fn, via)

    def _check_body(self, ctx, tu, fn, via):
        toks = tu.tokens
        start, end = fn.body
        for j in range(start, end):
            t = toks[j]
            if t.kind != Tok.ID:
                continue
            if t.text == "new":
                prev = toks[j - 1].text if j > start else ""
                nxt = toks[j + 1].text if j + 1 < end else ""
                if prev != "::" and nxt != "(":
                    yield Finding(
                        "hot-heap-alloc", tu.path, t.line,
                        "'new' in %s(), reachable from hot root "
                        "%s; pool it (common/pool.hh) or move it "
                        "off the hot path" % (fn.qualified, via),
                        "")
            elif t.text in _HEAP_CALLS and j + 1 < end and \
                    toks[j + 1].text == "(":
                yield Finding(
                    "hot-heap-alloc", tu.path, t.line,
                    "'%s' in %s(), reachable from hot root %s"
                    % (t.text, fn.qualified, via), "")
            elif t.text == "function" and j >= 2 and \
                    toks[j - 1].text == "::" and \
                    toks[j - 2].text == "std":
                yield Finding(
                    "hot-std-function", tu.path, t.line,
                    "std::function in %s(), reachable from hot "
                    "root %s; use InlineCallback "
                    "(common/inline_function.hh)"
                    % (fn.qualified, via), "")
        yield from self._virtual_calls(ctx, tu, fn, via)

    def _virtual_calls(self, ctx, tu, fn, via):
        if not fn.cls:
            return
        for call in fn.calls:
            if call.receiver in (None, "this"):
                continue
            mtype = ctx.member_type(fn.cls, call.receiver)
            if not mtype:
                continue
            for word in mtype.replace("*", " ").replace("&", " ") \
                    .split():
                info = ctx.classes.get(word)
                if info is None:
                    continue
                virtuals = set(info.virtual_methods)
                for base in info.bases:
                    b = ctx.classes.get(base)
                    if b:
                        virtuals |= b.virtual_methods
                if call.name in virtuals:
                    if word in VIRTUAL_EXEMPT:
                        break
                    yield Finding(
                        "hot-virtual-call", tu.path, call.line,
                        "virtual call %s->%s() through %s in "
                        "%s(), reachable from hot root %s; "
                        "devirtualize or add a documented "
                        "exemption"
                        % (call.receiver, call.name, word,
                           fn.qualified, via), "")
                break


class HotUnlikelyRule(Rule):
    name = "hot-unlikely"
    description = ("telemetry-pointer branches in hot classes need "
                   "PROFESS_UNLIKELY")

    def check_tu(self, tu, ctx):
        toks = tu.tokens
        n = len(toks)
        for fn in tu.functions:
            if fn.cls not in HOT_CLASSES:
                continue
            start, end = fn.body
            j = start
            while j < end:
                t = toks[j]
                if t.kind == Tok.ID and t.text == "if" and \
                        j + 1 < end and toks[j + 1].text == "(":
                    depth = 0
                    k = j + 1
                    cond = []
                    while k < end:
                        if toks[k].text == "(":
                            depth += 1
                        elif toks[k].text == ")":
                            depth -= 1
                            if depth == 0:
                                break
                        cond.append(toks[k])
                        k += 1
                    texts = {c.text for c in cond}
                    tested = {p for p in texts & TELEMETRY_PTRS
                              if self._is_ptr_test(cond, p)}
                    if tested and "PROFESS_UNLIKELY" not in texts:
                        yield Finding(
                            self.name, tu.path, t.line,
                            "branch on telemetry pointer %s in "
                            "%s() lacks PROFESS_UNLIKELY: the "
                            "off state must stay one predictable "
                            "branch"
                            % (", ".join(sorted(tested)),
                               fn.qualified), "")
                    j = k
                    continue
                j += 1

    @staticmethod
    def _is_ptr_test(cond, ptr):
        """True when the condition tests `ptr`'s presence (that is
        the branch that must be hinted) rather than merely calling
        through an already-checked pointer."""
        for idx, c in enumerate(cond):
            if c.text != ptr:
                continue
            prev = cond[idx - 1].text if idx > 0 else ""
            nxt = cond[idx + 1].text if idx + 1 < len(cond) else ""
            if prev == "!":
                return True
            if nxt in ("==", "!=") or prev in ("==", "!="):
                return True
            if nxt in ("", "&&", "||") and prev in ("", "&&", "||",
                                                    "("):
                return True  # bare truthiness test
        return False


RULES = [HotPathWalkRules(), HotUnlikelyRule()]
