"""Per-translation-unit model for profess_analyze.

Built from the token stream (lexer.py), one TU per source file:

  classes         name -> ClassInfo: member declarations (name ->
                  type text), virtual method names, base classes
  functions       every function definition with its qualified
                  name, body token extent, enclosing class and call
                  sites (callee name + receiver member, if any)

The parser is heuristic -- a scope stack driven by brace matching,
good enough for this codebase's uniform style -- and deliberately
over-approximates: rules built on it must tolerate an occasional
unresolved call, never a missed extent.  Everything is line-
addressed so findings point at real source lines.
"""

from .lexer import Tok, tokenize

KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch",
    "new", "delete", "static_cast", "dynamic_cast", "const_cast",
    "reinterpret_cast", "alignof", "decltype", "throw", "case",
    "do", "else", "goto", "default", "using", "typedef", "typename",
    "template", "operator", "noexcept", "static_assert", "assert",
    "defined",
}

_TYPE_QUALIFIERS = {
    "const", "constexpr", "static", "inline", "mutable", "volatile",
    "extern", "thread_local", "unsigned", "signed", "long", "short",
    "virtual", "explicit", "friend", "typename", "struct", "class",
}


class ClassInfo:
    def __init__(self, name, line):
        self.name = name
        self.line = line
        self.bases = []            # base class names (last id each)
        self.members = {}          # member name -> type text
        self.virtual_methods = set()


class Call:
    """One call site inside a function body."""

    __slots__ = ("name", "receiver", "line")

    def __init__(self, name, receiver, line):
        self.name = name          # callee (last identifier)
        self.receiver = receiver  # receiver id before . / -> or None
        self.line = line


class Function:
    def __init__(self, name, cls, line):
        self.name = name          # unqualified
        self.cls = cls            # enclosing/qualifying class or None
        self.line = line
        self.body = (0, 0)        # [start, end) token indices
        self.calls = []           # [Call]

    @property
    def qualified(self):
        return "%s::%s" % (self.cls, self.name) if self.cls else self.name


class TU:
    def __init__(self, path, text):
        self.path = path
        self.text = text
        self.tokens = tokenize(text)
        self.classes = {}         # name -> ClassInfo
        self.functions = []       # [Function]
        _Parser(self).parse()


def _match_brace(toks, i):
    """toks[i] is '{'; @return index one past its matching '}'."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == Tok.PUNCT:
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
                if depth == 0:
                    return i + 1
        i += 1
    return n


def _match_paren(toks, i):
    """toks[i] is '('; @return index one past its matching ')'."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == Tok.PUNCT:
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
                if depth == 0:
                    return i + 1
        i += 1
    return n


class _Parser:
    def __init__(self, tu):
        self.tu = tu
        self.toks = tu.tokens

    def parse(self):
        self._scan_scope(0, len(self.toks), cls=None)

    # ------------------------------------------------------------
    # Scope scanning
    # ------------------------------------------------------------

    def _scan_scope(self, i, end, cls):
        """Scan [i, end) at namespace/class scope."""
        toks = self.toks
        while i < end:
            t = toks[i]
            if t.kind == Tok.PP:
                i += 1
                continue
            if t.kind == Tok.ID and t.text == "namespace":
                # namespace [name] { ... }  (or namespace alias)
                j = i + 1
                if j < end and toks[j].kind == Tok.ID:
                    j += 1
                if j < end and toks[j].text == "{":
                    close = _match_brace(toks, j)
                    self._scan_scope(j + 1, close - 1, cls)
                    i = close
                    continue
                i = j + 1
                continue
            if (t.kind == Tok.ID and t.text in ("class", "struct")
                    and cls is None):
                nxt = self._class_def(i, end)
                if nxt is not None:
                    i = nxt
                    continue
            if t.kind == Tok.ID and t.text == "enum":
                # enum [class] Name [: type] { ... };
                j = i + 1
                while j < end and toks[j].text != "{" \
                        and toks[j].text != ";":
                    j += 1
                i = _match_brace(toks, j) if (
                    j < end and toks[j].text == "{") else j + 1
                continue
            if t.text == "{":
                # Stray brace (extern "C", initializer...): skip.
                i = _match_brace(toks, i)
                continue
            nxt = self._function_or_decl(i, end, cls)
            i = nxt

    def _class_def(self, i, end):
        """Parse class/struct definition at toks[i]; None if a
        forward declaration or template usage."""
        toks = self.toks
        j = i + 1
        # skip attributes / alignas
        if j < end and toks[j].kind != Tok.ID:
            return None
        name = toks[j].text
        j += 1
        info = ClassInfo(name, toks[i].line)
        if j < end and toks[j].text == ":":
            j += 1
            while j < end and toks[j].text != "{":
                if toks[j].kind == Tok.ID and toks[j].text not in (
                        "public", "private", "protected", "virtual"):
                    info.bases.append(toks[j].text)
                j += 1
            # keep only last id per base path (A::B -> B kept anyway)
        if j >= end or toks[j].text != "{":
            return None  # forward decl / variable of elaborated type
        close = _match_brace(toks, j)
        self.tu.classes[name] = info
        self._scan_class_body(j + 1, close - 1, info)
        # skip trailing "name;" of "class X {...} x;"
        k = close
        while k < end and toks[k].text != ";":
            k += 1
        return k + 1

    def _scan_class_body(self, i, end, info):
        toks = self.toks
        while i < end:
            t = toks[i]
            if t.kind == Tok.PP:
                i += 1
                continue
            if t.text in ("public", "private", "protected"):
                i += 2  # label + ':'
                continue
            if t.kind == Tok.ID and t.text in ("class", "struct"):
                nxt = self._class_def(i, end)  # nested class
                if nxt is not None:
                    i = nxt
                    continue
            if t.kind == Tok.ID and t.text == "enum":
                j = i + 1
                while j < end and toks[j].text not in ("{", ";"):
                    j += 1
                i = _match_brace(toks, j) if (
                    j < end and toks[j].text == "{") else j + 1
                continue
            # statement: up to ';' or a brace-bodied member function
            stmt_start = i
            is_virtual = False
            j = i
            depth_guard = 0
            while j < end:
                tj = toks[j]
                if tj.kind == Tok.ID and tj.text == "virtual":
                    is_virtual = True
                if tj.text == "(":
                    j = _match_paren(toks, j)
                    continue
                if tj.text == "{":
                    break
                if tj.text == ";":
                    break
                if tj.text == "=":
                    # default member init or = 0 / = default
                    pass
                j += 1
                depth_guard += 1
                if depth_guard > 100000:
                    break
            if j >= end:
                break
            if toks[j].text == "{":
                # member function definition (or braced init).
                fn = self._try_function(stmt_start, j, info.name)
                close = _match_brace(toks, j)
                if fn is not None:
                    fn.body = (j + 1, close - 1)
                    self._scan_body(fn)
                    self.tu.functions.append(fn)
                    if is_virtual:
                        info.virtual_methods.add(fn.name)
                i = close
                if i < end and toks[i].text == ";":
                    i += 1
                continue
            # plain declaration ending at ';'
            self._class_member_decl(stmt_start, j, info, is_virtual)
            i = j + 1

    def _class_member_decl(self, i, end, info, is_virtual):
        """Member variable or method declaration in [i, end)."""
        toks = self.toks
        # method declaration: name '(' ... ')'
        k = i
        paren = None
        while k < end:
            if toks[k].text == "(":
                paren = k
                break
            k += 1
        if paren is not None:
            # name before '(' is the method
            m = paren - 1
            if m >= i and toks[m].kind == Tok.ID:
                if is_virtual or self._is_virtual_decl(i, paren):
                    info.virtual_methods.add(toks[m].text)
            return
        # variable: last id before '=' / '{' / end is the name
        stop = end
        for k in range(i, end):
            if toks[k].text in ("=", "{"):
                stop = k
                break
        name_idx = None
        for k in range(stop - 1, i - 1, -1):
            if toks[k].kind == Tok.ID:
                name_idx = k
                break
        if name_idx is None:
            return
        name = toks[name_idx].text
        if name in _TYPE_QUALIFIERS or name == "using":
            return
        type_text = " ".join(t.text for t in toks[i:name_idx])
        if not type_text or toks[i].text in ("using", "typedef",
                                             "friend", "template"):
            return
        info.members[name] = type_text

    def _is_virtual_decl(self, i, paren):
        for k in range(i, paren):
            if self.toks[k].text == "virtual":
                return True
        return False

    # ------------------------------------------------------------
    # Function definitions at namespace scope
    # ------------------------------------------------------------

    def _function_or_decl(self, i, end, cls):
        """At namespace scope: one declaration/definition starting
        at i.  @return index after it."""
        toks = self.toks
        j = i
        while j < end:
            tj = toks[j]
            if tj.kind == Tok.PP:
                j += 1
                continue
            if tj.text == "(":
                j = _match_paren(toks, j)
                # function?  skip trailer to '{' / ';' / '='
                k = self._skip_fn_trailer(j, end)
                if k < end and toks[k].text == "{":
                    fn = self._try_function(i, k, None)
                    close = _match_brace(toks, k)
                    if fn is not None:
                        fn.body = (k + 1, close - 1)
                        self._scan_body(fn)
                        self.tu.functions.append(fn)
                        return close
                    return close
                if k < end and toks[k].text == ";":
                    return k + 1
                # '=' (function = default / var init with call)
                j = k
                continue
            if tj.text == "{":
                return _match_brace(toks, j)
            if tj.text == ";":
                return j + 1
            j += 1
        return end

    def _skip_fn_trailer(self, j, end):
        """After a ')', skip const/noexcept/override/-> type and a
        constructor initializer list; @return index of '{'/';'/'='."""
        toks = self.toks
        while j < end:
            t = toks[j]
            if t.text in ("{", ";", "="):
                return j
            if t.kind == Tok.ID and t.text in (
                    "const", "noexcept", "override", "final",
                    "try"):
                j += 1
                continue
            if t.text == "->":
                j += 1
                continue
            if t.text == "(":
                j = _match_paren(toks, j)
                continue
            if t.text == ":":
                # ctor initializer: id ( ... ) / id { ... } , ...
                j += 1
                while j < end and toks[j].text != "{":
                    if toks[j].text == "(":
                        j = _match_paren(toks, j)
                        # after an init's ')', a '{' that follows a
                        # ',' continues the list; a direct '{' is
                        # the body.
                        if j < end and toks[j].text == "{":
                            return j
                        continue
                    if toks[j].text == "{":
                        break
                    j += 1
                return j
            if t.kind in (Tok.ID, Tok.NUM) or t.text in (
                    "::", "<", ">", "&", "*", ",", "...", "."):
                j += 1
                continue
            return j
        return j

    def _try_function(self, i, brace, cls):
        """Declaration tokens [i, brace) end in ')' (+trailer); build
        a Function if a name can be extracted."""
        toks = self.toks
        # find the parameter list: last top-level '(' ... ')' before
        # any trailer.  Scan forward pairing parens; remember the one
        # whose close is followed by trailer/{.
        k = i
        cand = None
        while k < brace:
            if toks[k].text == "(":
                close = _match_paren(toks, k)
                cand = k
                k = close
                continue
            if toks[k].text == ":" and cand is not None:
                break  # ctor initializer starts; cand was params
            k += 1
        if cand is None or cand == i:
            return None
        m = cand - 1
        # operator overloads: name token may be punctuation
        if toks[m].kind != Tok.ID:
            if m >= 1 and toks[m - 1].kind == Tok.ID and \
                    toks[m - 1].text == "operator":
                return None  # operators are never rule targets
            return None
        name = toks[m].text
        if name in KEYWORDS or name in _TYPE_QUALIFIERS:
            return None
        qual = cls
        if m >= 2 and toks[m - 1].text == "::" and \
                toks[m - 2].kind == Tok.ID:
            qual = toks[m - 2].text
        return Function(name, qual, toks[m].line)

    # ------------------------------------------------------------
    # Function bodies: call sites
    # ------------------------------------------------------------

    def _scan_body(self, fn):
        toks = self.toks
        start, end = fn.body
        for i in range(start, end):
            t = toks[i]
            if t.kind == Tok.ID and i + 1 < end and \
                    toks[i + 1].text == "(" and t.text not in KEYWORDS:
                recv = None
                if i >= 2 and toks[i - 1].text in (".", "->"):
                    recv = self._receiver_chain(i - 2, start)
                fn.calls.append(Call(t.text, recv, t.line))

    def _receiver_chain(self, i, start):
        """Identifier (last link) of the receiver ending at toks[i]."""
        if i >= start and self.toks[i].kind == Tok.ID:
            return self.toks[i].text
        return None  # call-chained receiver (or none): unresolvable
