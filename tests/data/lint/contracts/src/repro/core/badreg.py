"""Fixture: every api-contract violation family in one module."""

from __future__ import annotations


class UnusedExport:
    pass


__all__ = ["UnusedExport", "ghost_export"]
