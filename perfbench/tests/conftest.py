import os
import sys

_PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [_PERFBENCH, os.path.join(os.path.dirname(_PERFBENCH), "src")]
