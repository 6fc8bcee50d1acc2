"""Benchmark of the ltsdeform library and command line; run run.py."""
