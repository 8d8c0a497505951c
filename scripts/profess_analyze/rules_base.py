"""Finding type, rule registry and the cross-TU program index."""


class Finding:
    """One rule violation at a source line."""

    __slots__ = ("rule", "path", "line", "message")

    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def render(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)

    def __repr__(self):
        return self.render()


class Rule:
    """Base class.  Subclasses set `name`/`description` and override
    check_tu."""

    name = ""
    description = ""

    def check_tu(self, tu, ctx):
        """Per-file pass.  @return iterable of Finding."""
        return ()


class Context:
    """Cross-TU index shared by all rules."""

    def __init__(self, repo, tus):
        self.repo = repo
        self.tus = tus                    # path -> TU
        self.classes = {}                 # name -> ClassInfo (merged)
        for tu in tus.values():
            for name, info in tu.classes.items():
                prev = self.classes.get(name)
                if prev is None:
                    self.classes[name] = info
                else:
                    prev.members.update(info.members)
