"""One sha256 over the output of every finite command.

A refactor that must leave every output byte-identical is checked here:
the exit code and output of each request below, with the system file's
path replaced, are hashed in order into one digest.  A change that alters
an output on purpose updates `DIGEST` and says which outputs changed.
"""

import hashlib

from click.testing import CliRunner

from pfkit import SystemGenerator, save_system
from pfkit.cli import main

from conftest import SAMPLED_BOUNDS

DIGEST = "d714be192f8baf88f4b4b2886196c89d90a810451916d557fb9e2e545be8e089"

# (generator, systems 0..count - 1): the default generator, and the bounds
# of the sampled audit workload for systems above 12 atoms.
POPULATION = [(SystemGenerator(20260814), 200), (SystemGenerator(20260814, **SAMPLED_BOUNDS), 24)]

SYSTEM_REQUESTS = [
    ["classify", "--set", "B"],
    ["limit"],
    ["limit", "--format", "csv"],
    ["orbit", "--set", "B", "--steps", "12"],
    ["orbit", "--set", "B", "--direction", "backward", "--steps", "12"],
    ["mixing-profile", "--set", "B", "--kind", "uniform"],
    ["mixing-profile", "--set", "B", "--kind", "trace", "--trace", "D"],
    ["mixing-profile", "--set", "B", "--kind", "lower", "--trace", "D", "--c", "3"],
    ["mixing-profile", "--set", "B", "--kind", "image"],
]

DYADIC_SETS = ["0:1/2", "0:1/4,1/2:5/8", "1/8:3/8", "0:1/1024", "3/1024:517/1024,3/4:1"]


def _requests(tmp_path):
    """(argv, path) of every request; B is the first positive atom and D
    the set of all atoms."""
    for gen, count in POPULATION:
        for index, (space, phi) in enumerate(gen.systems(0, count)):
            path = str(tmp_path / f"s{gen.max_positive_atoms}-{index}.json")
            first = space.positive_support[0]
            save_system(path, space, phi, {"B": space.set_from_indices([first]), "D": space.full_set()})
            for argv in SYSTEM_REQUESTS:
                yield [argv[0], path, *argv[1:]], path
    for target in DYADIC_SETS:
        for kind in ("exactness", "image"):
            yield ["dyadic", "--set", target, "--kind", kind], None


def test_every_finite_command_output_is_pinned(tmp_path):
    runner = CliRunner()
    h = hashlib.sha256()
    for argv, path in _requests(tmp_path):
        result = runner.invoke(main, argv)
        output = result.output if path is None else result.output.replace(path, "<file>")
        h.update(f"{result.exit_code}\n{output}\0".encode())
    assert h.hexdigest() == DIGEST
