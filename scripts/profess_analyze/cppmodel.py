"""Per-translation-unit model for profess_analyze.

Built from the token stream (lexer.py), one TU per source file:

  classes         name -> ClassInfo: member declarations (name ->
                  type text)
  functions       every function definition with its name and body
                  token extent

The parser is heuristic -- a scope stack driven by brace matching,
good enough for this codebase's uniform style -- and would rather
take a brace for a function body than miss one.  Everything is
line-addressed so findings point at real source lines.
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
        self.members = {}          # member name -> type text


class Function:
    def __init__(self, name, line):
        self.name = name          # unqualified
        self.line = line
        self.body = (0, 0)        # [start, end) token indices


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
        self._scan_scope(0, len(self.toks))

    # ------------------------------------------------------------
    # Scope scanning
    # ------------------------------------------------------------

    def _scan_scope(self, i, end):
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
                    self._scan_scope(j + 1, close - 1)
                    i = close
                    continue
                i = j + 1
                continue
            if t.kind == Tok.ID and t.text in ("class", "struct"):
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
            i = self._function_or_decl(i, end)

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
            while j < end and toks[j].text != "{":  # base list
                j += 1
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
            j = i
            while j < end:
                tj = toks[j]
                if tj.text == "(":
                    j = _match_paren(toks, j)
                    continue
                if tj.text in ("{", ";"):
                    break
                j += 1
            if j >= end:
                break
            if toks[j].text == "{":
                # member function definition (or braced init).
                fn = self._try_function(stmt_start, j)
                close = _match_brace(toks, j)
                if fn is not None:
                    fn.body = (j + 1, close - 1)
                    self.tu.functions.append(fn)
                i = close
                if i < end and toks[i].text == ";":
                    i += 1
                continue
            # plain declaration ending at ';'
            self._class_member_decl(stmt_start, j, info)
            i = j + 1

    def _class_member_decl(self, i, end, info):
        """Member variable declaration in [i, end); methods are
        skipped."""
        toks = self.toks
        if any(toks[k].text == "(" for k in range(i, end)):
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

    # ------------------------------------------------------------
    # Function definitions at namespace scope
    # ------------------------------------------------------------

    def _function_or_decl(self, i, end):
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
                    fn = self._try_function(i, k)
                    close = _match_brace(toks, k)
                    if fn is not None:
                        fn.body = (k + 1, close - 1)
                        self.tu.functions.append(fn)
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

    def _try_function(self, i, brace):
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
        return Function(name, toks[m].line)
