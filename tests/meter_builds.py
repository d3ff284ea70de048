"""Count the band-energy meters one roomfill command builds.

Usage: python tests/meter_builds.py COMMAND [ARGS...]

Runs `roomfill COMMAND ARGS...` in this process with
`gammatone._band_energy_meter` counted in every roomfill module that
imported it (the solver and the simulation), then prints one JSON line:
the command's exit status and the size n of each meter built, in order.
Builds gammatone makes for itself on a bank's first use are not counted.
"""
import json
import sys

import roomfill.cli
from roomfill import gammatone


def main(argv) -> int:
    original = gammatone._band_energy_meter
    sizes = []

    def counted(spec, n):
        sizes.append(n)
        return original(spec, n)

    for name, module in list(sys.modules.items()):
        if (
            name.startswith("roomfill.")
            and module is not gammatone
            and getattr(module, "_band_energy_meter", None) is original
        ):
            module._band_energy_meter = counted
    status = roomfill.cli.main(argv)
    print(json.dumps({"exit": status, "builds": sizes}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
