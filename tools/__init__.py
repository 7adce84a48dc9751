"""Repository tooling: development gates that run under ``make check``.

``tools.analysis`` is the AST-based invariant analyzer (``repro-lint``;
see ``docs/static-analysis.md``).
"""
