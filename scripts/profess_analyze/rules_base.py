"""Finding type, rule registry and the cross-TU program index."""


class Finding:
    """One rule violation at a source line."""

    __slots__ = ("rule", "path", "line", "message", "line_text")

    def __init__(self, rule, path, line, message, line_text=""):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message
        self.line_text = line_text

    def render(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)

    def __repr__(self):
        return self.render()


class Rule:
    """Base class.  Subclasses set `name`/`description` and override
    one (or both) hooks."""

    name = ""
    description = ""

    def check_tu(self, tu, ctx):
        """Per-file pass.  @return iterable of Finding."""
        return ()

    def check_program(self, ctx):
        """Whole-program pass after every TU is built."""
        return ()


class Context:
    """Cross-TU index shared by all rules."""

    def __init__(self, repo, tus):
        self.repo = repo
        self.tus = tus                    # path -> TU
        self.classes = {}                 # name -> ClassInfo (merged)
        self.functions_by_qual = {}       # "Cls::fn"/"fn" -> [Function]
        self.virtual_methods = {}         # method -> {class names}
        for tu in tus.values():
            for name, info in tu.classes.items():
                prev = self.classes.get(name)
                if prev is None:
                    self.classes[name] = info
                else:
                    prev.members.update(info.members)
                    prev.virtual_methods |= info.virtual_methods
                    prev.bases += [b for b in info.bases
                                   if b not in prev.bases]
            for fn in tu.functions:
                self.functions_by_qual.setdefault(
                    fn.qualified, []).append(fn)
        for name, info in self.classes.items():
            for m in info.virtual_methods:
                self.virtual_methods.setdefault(m, set()).add(name)
        # Propagate virtuals down the (single-level) hierarchy so an
        # override called through a derived member still resolves.
        for name, info in self.classes.items():
            for base in info.bases:
                binfo = self.classes.get(base)
                if binfo is None:
                    continue
                for m in binfo.virtual_methods:
                    self.virtual_methods.setdefault(m, set()).add(name)

    def member_type(self, cls_name, member):
        info = self.classes.get(cls_name)
        if info is None:
            return None
        return info.members.get(member)

    def line_text(self, tu, line):
        lines = tu.text.splitlines()
        return lines[line - 1] if 0 < line <= len(lines) else ""
