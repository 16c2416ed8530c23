"""Benchmark internals: workloads, pinned-result checks, spans, metrics."""
