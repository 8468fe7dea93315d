"""The repository benchmark: workloads, outside-in tracing and metrics.

Run it with ``python3 perfbench/run.py``; see ``perfbench/README.md``.
"""
