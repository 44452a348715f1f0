"""The repository's end-to-end benchmark: ``python3 perfbench/run.py --help``."""
