"""Benchmark harness for aockit: seeded workloads, an independent theory
oracle, span tracing and the metric rules.  Entry point: perfbench/run.py."""
