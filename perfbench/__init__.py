"""Repository benchmark: paper workloads timed end to end, layers attributed
from outside the program.  Run ``python3 perfbench/run.py --help``."""
