import sys

from perfbench.cli import main

sys.exit(main(sys.argv[1:]))
