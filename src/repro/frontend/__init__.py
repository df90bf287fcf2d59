"""Textual frontend: a mini-Java-like surface language for the IR.

Usage::

    from repro.frontend import parse_source

    program = parse_source('''
        class Box {
            field v;
            method set(x) { this.v = x; }
            method get()  { r = this.v; return r; }
        }
        class Main {
            static method main() {
                b = new Box();
                o = new Box();
                b.set(o);
                g = b.get();
            }
        }
    ''')
"""

from __future__ import annotations

from ..ir.program import Program
from ..obs import NULL_TRACER, Tracer
from .ast_nodes import SourceProgram
from .lexer import SyntaxError_
from .lowering import lower_program
from .parser import parse_source_text

__all__ = ["SyntaxError_", "parse_source", "parse_source_text", "lower_program"]


def parse_source(text: str, tracer: Tracer = NULL_TRACER) -> Program:
    """Parse and lower surface-language source to a frozen IR program.

    The parse and lowering stages are recorded as spans on ``tracer``.
    """
    with tracer.span("frontend.parse", chars=len(text)):
        ast = parse_source_text(text)
    with tracer.span("frontend.lower", classes=len(ast.classes)):
        return lower_program(ast)
