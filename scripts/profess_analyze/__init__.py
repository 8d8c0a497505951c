"""profess_analyze -- determinism & hot-path static analyzer.

A stdlib-only analyzer for the ProFess C++ tree.  It keeps only the
rules no runtime check covers; what DetSan's jobs-1 vs jobs-8
journal, the tsan stage or StatRegistry's registration panic
enforce at run time has no static twin here (DESIGN.md 4e).

  * a tokenizer (lexer.py) and a per-translation-unit model
    (cppmodel.py): class/function extents, member declarations,
    virtual methods and call sites;
  * det-unordered-iter (rules_determinism.py): unordered-container
    iteration feeding ordered output -- hash order may differ
    between toolchains, which no run of one build can show;
  * hot-path rules (rules_hotpath.py): a call-extent walk from the
    EventQueue / Channel / HybridController hot loops flagging
    heap allocation, std::function, virtual dispatch outside the
    policy boundary, and telemetry branches missing
    PROFESS_UNLIKELY;
  * the line rules (rules_lint.py): hot-path headers, the one RNG,
    include hygiene and include order.

Waivers live in scripts/lint_waivers.json; every waiver must carry
`reason` and `expires` (ISO date) and must match at least one raw
finding -- expired or stale waivers are themselves errors
(waivers.py).  Findings can be emitted as SARIF 2.1.0 for GitHub
code scanning (sarif.py).

Run it as `python3 scripts/profess_analyze` (the directory is
executable via __main__.py) or `python3 -m profess_analyze` with
scripts/ on PYTHONPATH.  Exit status: 0 clean, 1 findings,
2 usage/waiver errors.
"""

__version__ = "1.0"
