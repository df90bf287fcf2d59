"""Structured tracing and profiling for the analysis pipeline.

See :mod:`repro.obs.tracer` for the design notes and
``docs/observability.md`` for the span catalogue.
"""

from .tracer import NULL_TRACER, Span, Tracer

__all__ = ["NULL_TRACER", "Span", "Tracer"]
