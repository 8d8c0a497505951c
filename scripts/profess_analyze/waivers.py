"""Waiver loading, validation and matching.

scripts/lint_waivers.json is a list of objects:

    {"rule":    "<rule name>",
     "path":    "<repo-relative file>",
     "pattern": "<optional regex over the offending line>",
     "reason":  "<why this exception is sound>",
     "expires": "YYYY-MM-DD"}

`reason` and `expires` are REQUIRED: a waiver is a debt with an
owner and a due date, not a mute button.  The analyzer errors
(exit 2) when a waiver has expired, and when a waiver matched no
raw finding in the run (stale: the code it excused is gone, so the
waiver must go too).  Architectural exceptions that should never
expire do not belong here -- they are encoded next to the rule
with their rationale (e.g. VIRTUAL_EXEMPT).
"""

import datetime
import json
import os
import re


class WaiverError(Exception):
    pass


class Waiver:
    def __init__(self, obj, index):
        for key in ("rule", "path", "reason", "expires"):
            if key not in obj:
                raise WaiverError(
                    "lint_waivers.json entry %d: missing required "
                    "field '%s': %r" % (index, key, obj))
        self.rule = obj["rule"]
        self.path = obj["path"]
        self.pattern = obj.get("pattern")
        self.reason = obj["reason"]
        try:
            self.expires = datetime.date.fromisoformat(
                obj["expires"])
        except ValueError:
            raise WaiverError(
                "lint_waivers.json entry %d: expires=%r is not an "
                "ISO date (YYYY-MM-DD)" % (index, obj["expires"]))
        self.matched = 0

    def matches(self, finding):
        if self.rule != finding.rule or self.path != finding.path:
            return False
        if self.pattern and not re.search(self.pattern,
                                          finding.line_text):
            return False
        self.matched += 1
        return True


def load(repo, today=None):
    """@return list of Waiver; raises WaiverError on a malformed or
    expired entry."""
    path = os.path.join(repo, "scripts", "lint_waivers.json")
    if not os.path.exists(path):
        return []
    with open(path) as f:
        objs = json.load(f)
    today = today or datetime.date.today()
    waivers = []
    for i, obj in enumerate(objs):
        w = Waiver(obj, i)
        if w.expires < today:
            raise WaiverError(
                "waiver expired %s: [%s] %s (%s) -- fix the code "
                "or renew the waiver with a fresh reason"
                % (w.expires.isoformat(), w.rule, w.path, w.reason))
        waivers.append(w)
    return waivers


def apply(waivers, findings):
    """Split findings into (kept, waived)."""
    kept, waived = [], []
    for f in findings:
        if any(w.matches(f) for w in waivers):
            waived.append(f)
        else:
            kept.append(f)
    return kept, waived


def stale(waivers):
    """Waivers that matched nothing this run."""
    return [w for w in waivers if w.matched == 0]
