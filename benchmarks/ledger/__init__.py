"""The performance ledger (see README.md).  A package so that ``trace.py`` is
``ledger.trace`` and never shadows the standard library's ``trace``."""
