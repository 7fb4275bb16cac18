"""Wall-clock benchmark for semaq; run it with ``python3 perfbench/run.py``."""
