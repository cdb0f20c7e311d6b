"""Seeded inputs for the benchmark workloads.

Every op is one ``phasebound`` CLI invocation on its own potential file.
The op list of a workload is built in fixed blocks: each block holds one op
of every stratum (family, grid bucket, level count), so any whole number of
blocks has exactly the workload's mix.  The sizes that set an op's cost
(levels asked for, level index, angular numbers) step through fixed cycles
ordered so that consecutive entries pair a small size with a large one; the
seed moves only the continuous parameters inside their ranges.  Both keep
the work of a run nearly the same from seed to seed.

Nothing here imports numpy, scipy or the program, because the spawned
set-up probe times this module as part of the program's cold start.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("ladder", "wavefunction", "audit")

# Ops generated per workload, a whole number of MIX_OPS of every workload;
# the closed loop cycles through them.
POOL = 360
LADDER_FAMILIES = ("harmonic", "morse", "linear", "square_well", "coulomb",
                   "tabulated")
# 1001 twice, so a run's median op lies inside the 1001-point group, not in
# the gap between two groups' costs, and its p90 inside the 2001-point one.
GRID_BUCKETS = (11, 201, 1001, 1001, 2001)
WAVE_FAMILIES = ("harmonic", "morse", "linear")
AUDIT_FAMILIES = ("harmonic", "morse", "linear")
AUDIT_LEVELS = (3, 4, 5, 6, 7, 8)
# Cost-setting sizes, cycled per block (ladder, audit) or per op
# (wavefunction level index).
HARMONIC_LEVELS = (6, 21, 12, 15, 9, 18)
LINEAR_LEVELS = (4, 12, 7, 9, 5, 11)
TABULATED_LEVELS = (3, 8, 5, 6, 4, 7)
RADIAL_NUMBERS = ((0, 0, 1), (3, 2, 4), (1, -1, 2), (2, 1, 3), (0, -2, 1),
                  (1, 0, 4))                    # (n_theta, m_z, nrmax)
WAVE_LEVELS = (0, 10, 5, 2, 8, 4, 6, 1, 9, 3, 7)
# Coulomb charges of the timed ops.  The program's radial solve exits 1 when
# its converged level misses W(E) = pi hbar (n + 1/2) by more than its
# acceptance limit, which happens at small charges, where the level is
# weakly bound and W(E) steep: for n_theta = 3, m_z = 2 at charges in
# [0.505, 0.6] and at 0.8886.  The residual falls with the charge; over 2400
# solves with charges in [2, 3] it stayed below 0.13 of the limit for every
# angular cycle.  So the timed ops draw their charge from there and none
# fails, and KNOWN_DEFECT, (charge, n_theta, m_z, nrmax) of a failing
# solve, is run once per ladder run outside the timing and reported.
CHARGES = (2.0, 3.0)
KNOWN_DEFECT = (0.55, 3, 2, 4)
# Ops after which a run's mix is exact, the unit a run ends on: one block
# for wavefunction and audit; for ladder the 6 blocks over which every
# cycled level count comes round, as the ladder's slowest ops (tabulated)
# set its p90 by their level counts.
MIX_OPS = {"ladder": len(LADDER_FAMILIES) * len(TABULATED_LEVELS),
           "wavefunction": len(GRID_BUCKETS), "audit": len(AUDIT_LEVELS)}


@dataclass
class Op:
    """One CLI call plus what the verifier needs to know about its input."""

    index: int
    kind: str            # spectrum | radial | wavefunction | audit
    family: str
    params: dict
    path: str
    argv: list[str]
    levels: int = 0      # spectrum/audit: levels asked for
    n: int = 0           # wavefunction level
    grid: int = 0        # wavefunction grid
    out: str | None = None
    tags: list[str] = field(default_factory=list)


def morse_bound_count(depth: float, rng_a: float, hbar=1.0, mass=1.0) -> int:
    """Levels with hbar*omega*(n + 1/2) < 2*depth (closed-form Morse)."""
    omega = rng_a * math.sqrt(2.0 * depth / mass)
    return max(0, math.ceil(2.0 * depth / (hbar * omega) - 0.5))


def square_bound_count(depth: float, width: float, hbar=1.0, mass=1.0) -> int:
    """Levels with (pi hbar (n + 1/2) / w)^2 / 2m < depth."""
    return max(0, math.ceil(width * math.sqrt(2.0 * mass * depth)
                            / (math.pi * hbar) - 0.5))


def bound_count(family: str, params: dict) -> int | None:
    """Closed-form number of bound levels, for the families that have one."""
    if family == "morse":
        return morse_bound_count(params["depth"], params["range"])
    if family == "square_well":
        return square_bound_count(params["depth"], params["width"])
    return None


def _write(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _ladder_op(i: int, rng: random.Random, in_dir: str) -> Op:
    family = LADDER_FAMILIES[i % len(LADDER_FAMILIES)]
    block = i // len(LADDER_FAMILIES)
    path = os.path.join(in_dir, f"op{i:04d}.json")
    tags = []
    if family == "harmonic":
        params = {"omega": rng.uniform(0.5, 3.0)}
        levels = HARMONIC_LEVELS[block % len(HARMONIC_LEVELS)]
    elif family == "linear":
        params = {"slope": rng.uniform(0.5, 3.0)}
        levels = LINEAR_LEVELS[block % len(LINEAR_LEVELS)]
    elif family == "morse":
        params = {"depth": rng.uniform(3.0, 15.0), "range": rng.uniform(0.7, 1.5)}
        count = morse_bound_count(params["depth"], params["range"])
        # Every second Morse and square-well ladder asks past the last
        # bound level, so the truncation path (exit code 2) is exercised.
        levels = count + rng.randint(1, 3) if block % 2 == 0 \
            else rng.randint(max(1, count - 3), count)
    elif family == "square_well":
        params = {"depth": rng.uniform(2.0, 10.0), "width": rng.uniform(1.0, 3.0)}
        count = square_bound_count(params["depth"], params["width"])
        levels = count + rng.randint(1, 3) if block % 2 == 1 \
            else rng.randint(max(1, count - 3), count)
    elif family == "tabulated":
        c = rng.uniform(0.0, 2.0)
        npts = rng.choice((41, 49, 57, 65))
        xs = [-3.0 + 6.0 * k / (npts - 1) for k in range(npts)]
        params = {"samples": [[x, x ** 4 + c * x * x] for x in xs]}
        levels = TABULATED_LEVELS[block % len(TABULATED_LEVELS)]
    else:
        n_theta, m_z, nrmax = RADIAL_NUMBERS[block % len(RADIAL_NUMBERS)]
        return _radial_op(i, path, rng.uniform(*CHARGES), n_theta, m_z,
                          nrmax)
    _write(path, {"type": family, "params": params})
    bound = bound_count(family, params)
    if bound is not None and levels > bound:
        tags.append("truncated")
    if family == "tabulated":
        tags.append("tabulated")
    return Op(i, "spectrum", family, params, path,
              ["spectrum", path, "--levels", str(levels)], levels=levels,
              tags=tags)


def _radial_op(i: int, path: str, charge: float, n_theta: int, m_z: int,
               nrmax: int) -> Op:
    params = {"charge": charge}
    _write(path, {"type": "coulomb", "params": params})
    return Op(i, "radial", "coulomb", dict(params, n_theta=n_theta, m_z=m_z),
              path, ["radial", path, "--ntheta", str(n_theta), "--mz",
                     str(m_z), "--nrmax", str(nrmax)],
              levels=nrmax + 1, tags=["coulomb_zoom"])


def known_defect(in_dir: str) -> Op:
    """A radial solve the program wrongly rejects (KNOWN_DEFECT)."""
    os.makedirs(in_dir, exist_ok=True)
    charge, n_theta, m_z, nrmax = KNOWN_DEFECT
    return _radial_op(-2, os.path.join(in_dir, "defect.json"), charge,
                      n_theta, m_z, nrmax)


def _wave_op(i: int, rng: random.Random, in_dir: str) -> Op:
    block, slot = divmod(i, len(GRID_BUCKETS))
    grid = GRID_BUCKETS[slot]
    # rotate the family per block so 3 blocks cover every (family, grid)
    family = WAVE_FAMILIES[(slot + block) % len(WAVE_FAMILIES)]
    if family == "harmonic":
        params = {"omega": rng.uniform(0.5, 3.0)}
    elif family == "morse":
        params = {"depth": rng.uniform(40.0, 60.0), "range": rng.uniform(0.4, 0.6)}
    else:
        params = {"slope": rng.uniform(0.5, 3.0)}
    n = WAVE_LEVELS[i % len(WAVE_LEVELS)]
    path = os.path.join(in_dir, f"op{i:04d}.json")
    out = os.path.join(in_dir, f"op{i:04d}.csv")
    _write(path, {"type": family, "params": params})
    return Op(i, "wavefunction", family, params, path,
              ["wavefunction", path, "--n", str(n), "--grid", str(grid),
               "--out", out], n=n, grid=grid, out=out, tags=[f"grid{grid}"])


def _audit_op(i: int, rng: random.Random, in_dir: str) -> Op:
    levels = AUDIT_LEVELS[i % len(AUDIT_LEVELS)]
    block = i // len(AUDIT_LEVELS)
    family = AUDIT_FAMILIES[(i + block) % len(AUDIT_FAMILIES)]
    if family == "harmonic":
        params = {"omega": rng.uniform(0.5, 3.0)}
    elif family == "morse":
        params = {"depth": rng.uniform(30.0, 50.0), "range": rng.uniform(0.5, 0.8)}
    else:
        params = {"slope": rng.uniform(0.5, 3.0)}
    path = os.path.join(in_dir, f"op{i:04d}.json")
    _write(path, {"type": family, "params": params})
    return Op(i, "audit", family, params, path,
              ["audit", path, "--levels", str(levels)], levels=levels,
              tags=[f"levels{levels}"])


_MAKERS = {"ladder": _ladder_op, "wavefunction": _wave_op, "audit": _audit_op}


def generate(workload: str, seed: int, in_dir: str) -> list[Op]:
    """Write the workload's potential files into ``in_dir``; return its ops."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(in_dir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    make = _MAKERS[workload]
    return [make(i, rng, in_dir) for i in range(POOL)]


def cold_command(workload: str, in_dir: str) -> tuple[Op, list[str]]:
    """The workload's representative command for the cold-start timing.

    Fixed, not seeded: a harmonic well with omega = 1, as in the ROADMAP's
    end-to-end figures.
    """
    os.makedirs(in_dir, exist_ok=True)
    path = os.path.join(in_dir, "cold.json")
    params = {"omega": 1.0}
    _write(path, {"type": "harmonic", "params": params})
    if workload == "ladder":
        op = Op(-1, "spectrum", "harmonic", params, path,
                ["spectrum", path, "--levels", "21"], levels=21)
    elif workload == "wavefunction":
        out = os.path.join(in_dir, "cold.csv")
        op = Op(-1, "wavefunction", "harmonic", params, path,
                ["wavefunction", path, "--n", "10", "--grid", "1001",
                 "--out", out], n=10, grid=1001, out=out)
    else:
        op = Op(-1, "audit", "harmonic", params, path,
                ["audit", path, "--levels", "6"], levels=6)
    return op, op.argv


def mix(ops: list[Op]) -> dict:
    """Share of ops per kind/family and per tag."""
    total = len(ops)
    shares: dict[str, float] = {}
    for op in ops:
        for key in [f"family.{op.family}", *[f"tag.{t}" for t in op.tags]]:
            shares[key] = shares.get(key, 0.0) + 1.0 / total
    return {k: round(v, 4) for k, v in sorted(shares.items())}
