"""profess_analyze -- determinism and include analyzer.

A stdlib-only analyzer for the ProFess C++ tree.  It keeps only the
rules no runtime check covers; what DetSan's jobs-1 vs jobs-8
journal, the tsan stage, StatRegistry's registration panic or the
allocation gate (tests/test_alloc.cc) enforce at run time has no
static twin here (DESIGN.md 4e, 4h).

  * a tokenizer (lexer.py) and a per-translation-unit model
    (cppmodel.py): class members and function body extents;
  * det-unordered-iter (rules_determinism.py): unordered-container
    iteration feeding ordered output -- hash order may differ
    between toolchains, which no run of one build can show;
  * the line rules (rules_lint.py): the one RNG, include hygiene
    and include order.

Findings can be emitted as SARIF 2.1.0 for GitHub code scanning
(sarif.py).

Run it as `python3 scripts/profess_analyze` (the directory is
executable via __main__.py) or `python3 -m profess_analyze` with
scripts/ on PYTHONPATH.  Exit status: 0 clean, 1 findings,
2 usage errors.
"""

__version__ = "1.0"
