"""Benchmark of the cgrs decoding engine; run it with ``python3 perfbench/run.py``."""
