"""Stateful-compile policies (the Figure-9 ablation).

- ``FINE_GRAINED`` — the paper's design: per (function, pass) bypass.
  Even inside a heavily edited function's file, and even inside an
  edited function, every pass whose incoming IR matches a dormant
  record is skipped.
- ``COARSE`` — the status-quo strawman the paper argues against,
  transplanted inside the compiler: skip is all-or-nothing per
  function.  The pipeline is bypassed only when the function's entry
  fingerprint matches a prior build in which *every* pass was dormant;
  otherwise every pass runs.
- ``MEMO`` — machine-code reuse, beyond the paper: a function whose
  memo key (:func:`repro.core.stateful.memo_key`) equals its key from
  the unit's last compile skips its whole function pipeline and code
  generation, and takes its machine code from the unit's previous
  object.  It keeps no dormancy state: the keys live in the build DB.
  The default of ``reprobuild --stateful``; the library default stays
  ``FINE_GRAINED``, so the paper's tables measure the paper's
  mechanism alone.

Fine and coarse keep their dormancy records in a compiler state (a
section of the build DB, or ``reproc --state-file``); see
:attr:`repro.options.CompilerOptions.keeps_state`.
"""

from __future__ import annotations

import enum


class SkipPolicy(enum.Enum):
    FINE_GRAINED = "fine"
    COARSE = "coarse"
    MEMO = "memo"

    @classmethod
    def from_name(cls, name: str) -> "SkipPolicy":
        for policy in cls:
            if policy.value == name:
                return policy
        raise ValueError(f"unknown skip policy {name!r}")
