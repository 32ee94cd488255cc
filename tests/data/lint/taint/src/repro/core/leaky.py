"""Fixture: set iteration order reaching every sink class (all findings)."""

from __future__ import annotations


def allocate(self, units, pool, directory):
    order = {unit for unit in units}
    picked = list(order)
    return picked


def names_report(names):
    for name in set(names):
        print(name)


def names_row(names):
    return {"names": ",".join(set(names))}


def as_row(names):
    return names_row(names)
