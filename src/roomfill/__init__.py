"""Room equalisation toolkit: fill the reverberant field from supporting
loudspeakers so the total response meets a sloped spectral target while
the primary loudspeakers' direct sound stays untouched.

The modules are the public surface, and importing the package loads them
all: audio, config, designfile, errors, gammatone, pipeline, render, rirs,
simulate, solver and target; cli is the command line.
"""

from . import (audio, config, designfile, errors, gammatone, pipeline,
               render, rirs, simulate, solver, target)
