"""Benchmark for msgstruct; run ``python3 perfbench/run.py --help``."""
