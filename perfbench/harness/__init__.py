"""Benchmark harness: workloads, reference checks and the span tracer."""
