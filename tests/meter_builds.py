"""Count the band-energy meters one roomfill command builds.

Usage: python tests/meter_builds.py COMMAND [ARGS...]

Runs `roomfill COMMAND ARGS...` in this process with
`gammatone._band_energy_meter` counted in every roomfill module that
imported it (the pipeline, whose room meter serves `design`'s solves and
`simulate`, and the solver, which builds one for a solve called without
a meter), then prints one JSON line: the command's exit status and, for
each meter built in order, the signal length n it fits and its FFT
length m. Builds gammatone makes for itself on a bank's first use are
not counted.
"""
import json
import sys

import roomfill.cli
from roomfill import gammatone


def main(argv) -> int:
    original = gammatone._band_energy_meter
    builds = []

    def counted(spec, n):
        meter = original(spec, n)
        builds.append({"n": n, "m": meter.size})
        return meter

    for name, module in list(sys.modules.items()):
        if (
            name.startswith("roomfill.")
            and module is not gammatone
            and getattr(module, "_band_energy_meter", None) is original
        ):
            module._band_energy_meter = counted
    status = roomfill.cli.main(argv)
    print(json.dumps({"exit": status, "builds": builds}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
