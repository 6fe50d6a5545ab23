"""Swap a function for a wrapper at every place walkforget looks it up.

``from .optimizer import project`` gives ``walkforget.protocols`` its own
binding of ``project``; replacing only ``walkforget.optimizer.project``
would miss the calls the protocols make. ``Patches.replace`` finds every
module-level binding of the same object and swaps each one, and
``restore`` puts every original back.
"""

from __future__ import annotations

import sys


def walkforget_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "walkforget" or name.startswith("walkforget."))]


class Patches:
    def __init__(self):
        self._saved = []

    def replace(self, original, replacement) -> int:
        """Rebind every module attribute that is ``original``; return how many."""
        count = 0
        for module in walkforget_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, name, value))
                    setattr(module, name, replacement)
                    count += 1
        return count

    def replace_attr(self, owner, name, replacement) -> None:
        """Rebind one class attribute, keeping its raw form (e.g. staticmethod)."""
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def shadow(self, module, name, replacement) -> None:
        """Give one module a global that hides the builtin ``name``."""
        self._saved.append((module, name, _ABSENT))
        setattr(module, name, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            if value is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, value)


_ABSENT = object()
