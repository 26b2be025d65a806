#!/usr/bin/env python3
"""Toolchain tour: formatter, disassembler, and virtual machine.

The supporting tools a compiler repo ships alongside the compiler:

1. format MiniC source canonically (``repro.frontend.printer``);
2. disassemble the compiled object and the linked image
   (``repro.backend.disasm``);
3. run the linked image (``repro.vm.machine``).

Run:  python examples/toolchain_tour.py
"""

from repro.backend.disasm import disassemble_image, disassemble_object
from repro.backend.linker import link
from repro.backend.objfile import compile_module_to_object
from repro.driver import Compiler, CompilerOptions
from repro.frontend.includes import MemoryFileProvider
from repro.frontend.printer import format_source
from repro.vm.machine import VirtualMachine

MESSY_SOURCE = """
int   gcd(int a,int b){while(b!=0){int t=b;b=a%b;a=t;}return a;}
int lcm(int a, int b) { if (a == 0 || b == 0) return 0; return a / gcd(a, b) * b; }
int main(){int acc=0;
for(int i=1;i<=12;++i)acc+=lcm(i,18)%1000;print(acc);return 0;}
"""


def main() -> None:
    print("== 1. formatter ==")
    formatted = format_source(MESSY_SOURCE)
    print(formatted)

    print("== 2. compile at O2 ==")
    compiler = Compiler(MemoryFileProvider({}), CompilerOptions(opt_level="O2"))
    result = compiler.compile_source("tour.mc", formatted)
    obj = result.object_file
    print(f"{result.module.num_instructions} IR instructions -> "
          f"{obj.num_instructions} machine instructions\n")

    print("== 3. object disassembly (first 25 lines) ==")
    print("\n".join(disassemble_object(obj).splitlines()[:25]))
    print("  ...\n")

    image = link([obj])
    print("== 4. linked image (first 15 lines) ==")
    print("\n".join(disassemble_image(image).splitlines()[:15]))
    print("  ...\n")

    print("== 5. run ==")
    result = VirtualMachine(image).run()
    print(f"program output: {result.output}, exit code {result.exit_code}")


if __name__ == "__main__":
    main()
