"""Seeded generators for the benchmark's workspace documents.

Each generator is a pure function of the seed: the same seed gives the
same bytes.  The seed picks which labels and points carry the work and
moves its amount by well under 1% (where a scan first fails), so the
spread between runs stays a property of the program and the machine.
"""
from __future__ import annotations

import random
import string

DEFAULT_SEED = 0


def _labels(rng: random.Random, n: int) -> list[str]:
    """n distinct point labels drawn from a pool of 26."""
    return rng.sample(string.ascii_lowercase, n)


def symbolic(seed: int) -> str:
    """Laws, idempotent and s-construction suites on symbolic functionals.

    The functionals follow one incidence template over four point
    positions; the seed maps positions to points, so every seed has the
    same verdicts (pass or fail per check) while witnesses and the point
    where a scan first fails move.  In scheme shiftC the mul shift moves
    about half of the sampled products out of the window, so the
    non-associativity search also runs its escape path.
    """
    rng = random.Random(seed)
    points = ["a", "b", "c", "d"]
    p = rng.sample(points, 4)

    def subset(*idx):
        return " ".join(sorted(p[i] for i in idx))

    return f"""# symbolic workload, seed {seed}
[structure mp60]
builtin = max-plus-chain 60

[structure rd]
builtin = right-dist

[structure mp3]
builtin = max-plus-chain 3

[space S]
structure = mp3
points = {" ".join(points)}

[functional d0]
space = S
kind = dirac
point = {p[0]}

[functional d1]
space = S
kind = dirac
point = {p[1]}

[functional s2]
space = S
kind = sup_over
set = {subset(0, 2)}

[functional s3]
space = S
kind = sup_over
set = {subset(1, 2, 3)}

[functional i2]
space = S
kind = inf_over
set = {subset(1, 3)}

[functional cl]
space = S
kind = combo
side = left
coeffs = 1 1
parts = s2 d1

[functional cr]
space = S
kind = combo
side = right
coeffs = 1 1
parts = i2 d0

[scheme shiftA]
structure = mp3
window = 0 150
add.psi = 0
add.phi = 0
mul.psi = 0
mul.phi = 1

[scheme shiftB]
structure = rd
window = 0 150
add.psi = 1
add.phi = 0
mul.psi = 0
mul.phi = 2

[scheme shiftC]
structure = mp3
window = 0 150
add.psi = 1
add.phi = 0
mul.psi = 100
mul.phi = 1

[suite default]
run = laws idempotent s-construction
budget = 20000
seed = 0
"""


def monad_enum(seed: int) -> str:
    """The monad suite on four small spaces, with seeded point labels."""
    rng = random.Random(seed)
    sections = []
    for name, struct, builtin, n in (
        ("A", "mp6", "max-plus-chain 6", 1),
        ("B", "mp5", "max-plus-chain 5", 1),
        ("C", "bool", "boolean", 3),
        ("D", "rd", "right-dist", 1),
    ):
        sections.append(f"[structure {struct}]\nbuiltin = {builtin}\n")
        sections.append(f"[space {name}]\nstructure = {struct}\npoints = {' '.join(_labels(rng, n))}\n")
    sections.append("[suite default]\nrun = monad\nbudget = 50000\nseed = 0\n")
    return f"# monad-enum workload, seed {seed}\n" + "\n".join(sections)


def conv_z4(seed: int) -> str:
    """Convolution on boolean over the cyclic group of order 4 acting on
    itself, unit cocycle, kind join; the seed names the group elements."""
    rng = random.Random(seed)
    g = _labels(rng, 4)
    cyc = [" ".join(g[(i + j) % 4] for j in range(4)) for i in range(4)]
    rows = "\n".join(f"groupoid.row.{g[i]} = {cyc[i]}" for i in range(4))
    acts = "\n".join(f"act.{g[i]} = {cyc[i]}" for i in range(4))
    rhos = "\n".join(f"rho.{g[i]} = 1 1 1 1" for i in range(4))
    return f"""# conv-z4 workload, seed {seed}
[structure bool]
builtin = boolean

[action Z4]
structure = bool
groupoid-elements = {" ".join(g)}
{rows}
unit = {g[0]}
points = {" ".join(g)}
{acts}
{rhos}
L = 0 1
regime = unit-cocycle
kind = join

[suite default]
run = convolution
budget = 20000
seed = 0
"""


GENERATORS = {"symbolic": symbolic, "monad-enum": monad_enum, "conv-z4": conv_z4}
