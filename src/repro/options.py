"""Compiler configuration, importable without the compiler.

:class:`CompilerOptions` is what the build system schedules by (the
``-O`` level an object depends on) and what it hands to
:class:`repro.driver.Compiler` for each dirty unit.  It lives apart from
the driver so a build that compiles nothing never imports the front
end, the passes or the backend just to read an option.
"""

from __future__ import annotations

from repro._struct import Struct
from repro.core.policies import SkipPolicy


class CompilerOptions(Struct):
    """Configuration for one compiler instance."""

    _fields = (
        "opt_level", "stateful", "policy", "fingerprint_mode", "verify_each",
    )

    def __init__(
        self,
        opt_level: str = "O2",
        stateful: bool = False,
        policy: SkipPolicy = SkipPolicy.FINE_GRAINED,
        fingerprint_mode: str = "canonical",
        verify_each: bool = False,
    ) -> None:
        self.opt_level = opt_level
        self.stateful = stateful
        self.policy = policy
        self.fingerprint_mode = fingerprint_mode
        #: Verify IR after every pass (testing only; large slowdown).
        self.verify_each = verify_each

    @property
    def keeps_state(self) -> bool:
        """Does the compiler carry a dormancy state?

        A stateful compile under the fine or coarse policy does.  The
        memo policy does not: its one fact per function, the memo key,
        lives in the build DB beside the object.
        """
        return self.stateful and self.policy is not SkipPolicy.MEMO

    @property
    def object_options(self) -> str:
        """The options an object file depends on, as the build DB records them.

        Only the optimization level: stateful and stateless compiles
        emit identical objects (property #1), and the policy,
        fingerprint mode and verification flags never change codegen.
        """
        return f"-{self.opt_level}"
