"""Compiler configuration, importable without the compiler.

:class:`CompilerOptions` is what the build system schedules by (the
``-O`` level an object depends on) and what it hands to
:class:`repro.driver.Compiler` for each dirty unit.  It lives apart from
the driver so a build that compiles nothing never imports the front
end, the passes or the backend just to read an option.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.policies import SkipPolicy


@dataclass
class CompilerOptions:
    """Configuration for one compiler instance."""

    opt_level: str = "O2"
    stateful: bool = False
    policy: SkipPolicy = SkipPolicy.FINE_GRAINED
    fingerprint_mode: str = "canonical"
    #: Verify IR after every pass (testing only; large slowdown).
    verify_each: bool = False
    #: Verify the final module before codegen.
    verify_output: bool = True

    @property
    def object_options(self) -> str:
        """The options an object file depends on, as the build DB records them.

        Only the optimization level: stateful and stateless compiles
        emit identical objects (property #1), and the policy,
        fingerprint mode and verification flags never change codegen.
        """
        return f"-{self.opt_level}"
