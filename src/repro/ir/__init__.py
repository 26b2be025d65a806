"""SSA intermediate representation.

A small LLVM-flavoured IR: typed values with use-def chains, basic
blocks with explicit terminators, per-function SSA form (after mem2reg),
and a textual format that round-trips through the printer and parser.
"""

from repro._lazy import lazy_exports

__all__ = [
    "IRBuilder",
    "canonical_function_text",
    "fingerprint_function",
    "stable_hash",
    "AllocaInst",
    "BinaryInst",
    "BrInst",
    "CallInst",
    "CBrInst",
    "GepInst",
    "ICmpInst",
    "ICmpPred",
    "Instruction",
    "LoadInst",
    "Opcode",
    "PhiInst",
    "RetInst",
    "SelectInst",
    "StoreInst",
    "TruncInst",
    "UnreachableInst",
    "ZExtInst",
    "eval_binary",
    "eval_icmp",
    "wrap_i64",
    "IRParseError",
    "parse_module",
    "print_function",
    "print_instruction",
    "print_module",
    "BasicBlock",
    "Function",
    "GlobalVariable",
    "Module",
    "FunctionSig",
    "I1",
    "I64",
    "IRType",
    "PTR",
    "VOID",
    "Argument",
    "ConstantInt",
    "GlobalAddr",
    "UndefValue",
    "Value",
    "const_i1",
    "const_i64",
    "VerifyError",
    "verify_function",
    "verify_module",
]

# Lazy, as in repro.frontend: a build imports only the IR modules its
# compiler uses, never the textual-IR parser and its regexes.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.ir.builder": ("IRBuilder",),
    "repro.ir.fingerprint": ("canonical_function_text", "fingerprint_function", "stable_hash"),
    "repro.ir.instructions": (
        "AllocaInst", "BinaryInst", "BrInst", "CallInst", "CBrInst", "GepInst",
        "ICmpInst", "ICmpPred", "Instruction", "LoadInst", "Opcode", "PhiInst",
        "RetInst", "SelectInst", "StoreInst", "TruncInst", "UnreachableInst",
        "ZExtInst", "eval_binary", "eval_icmp", "wrap_i64",
    ),
    "repro.ir.parser": ("IRParseError", "parse_module"),
    "repro.ir.printer": ("print_function", "print_instruction", "print_module"),
    "repro.ir.structure": ("BasicBlock", "Function", "GlobalVariable", "Module"),
    "repro.ir.types": ("FunctionSig", "I1", "I64", "IRType", "PTR", "VOID"),
    "repro.ir.values": (
        "Argument", "ConstantInt", "GlobalAddr", "UndefValue", "Value",
        "const_i1", "const_i64",
    ),
    "repro.ir.verifier": ("VerifyError", "verify_function", "verify_module"),
})
