"""Module-level call graph.

Used by the inliner (bottom-up inlining order, recursion detection) and
by function-attribute inference.
"""

from __future__ import annotations

from repro._struct import Struct
from repro.ir.instructions import CallInst
from repro.ir.structure import Function, Module


class CallGraph(Struct):
    """Callers/callees by function name, for one module.

    Edges to functions not defined in the module (externals, builtins)
    appear in ``callees`` but have no node of their own.
    """

    _fields = ("module", "callees", "callers", "call_sites")

    def __init__(
        self,
        module: Module,
        callees: dict[str, set[str]] | None = None,
        callers: dict[str, set[str]] | None = None,
        call_sites: dict[str, list[CallInst]] | None = None,
    ) -> None:
        self.module = module
        self.callees = {} if callees is None else callees
        self.callers = {} if callers is None else callers
        self.call_sites = {} if call_sites is None else call_sites

    @classmethod
    def build(cls, module: Module) -> "CallGraph":
        graph = cls(module)
        for fn in module.functions.values():
            graph.callees[fn.name] = set()
            graph.call_sites[fn.name] = []
            graph.callers.setdefault(fn.name, set())
        for fn in module.defined_functions():
            for inst in fn.instructions():
                if isinstance(inst, CallInst):
                    graph.callees[fn.name].add(inst.callee)
                    graph.call_sites[fn.name].append(inst)
                    graph.callers.setdefault(inst.callee, set()).add(fn.name)
        return graph

    def is_self_recursive(self, name: str) -> bool:
        return name in self.callees.get(name, ())

    def bottom_up_order(self) -> list[Function]:
        """Defined functions, callees before callers (cycles broken by

        first-seen order); the inliner processes in this order so callee
        bodies are already optimized/inlined when considered."""
        defined = {f.name: f for f in self.module.defined_functions()}
        visited: set[str] = set()
        order: list[Function] = []

        def visit(name: str, path: set[str]) -> None:
            if name in visited or name not in defined:
                return
            if name in path:
                return  # cycle; break arbitrarily
            path.add(name)
            for callee in sorted(self.callees.get(name, ())):
                visit(callee, path)
            path.discard(name)
            if name not in visited:
                visited.add(name)
                order.append(defined[name])

        for name in sorted(defined):
            visit(name, set())
        return order

    def transitively_called_from(self, root: str) -> set[str]:
        """Names reachable from ``root`` in the call graph (excluding root

        unless it is recursive)."""
        seen: set[str] = set()
        stack = list(self.callees.get(root, ()))
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self.callees.get(name, ()))
        return seen
