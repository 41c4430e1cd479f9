"""Run every experiment family: `fedanon attack --family all` with the
given flags, for example `--seeds 0 1 2 --out-dir results/sweep`."""

import sys

from fedanon import cli

if __name__ == "__main__":
    raise SystemExit(cli.main(["attack", "--family", "all", *sys.argv[1:]]))
