"""The benchmark's workloads: fixed `needlets` command lines, one list each.

Each command runs in a fresh process, as a CLI user runs it.  Arguments
that start with '-' use the '=' form, because argparse reads
`--cos-gamma -0.9` as a new flag.  The token "{seed}" in an argument is
replaced by the benchmark's workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass

# 24 inner products from near-antipodal to near-coincident
COS_GAMMAS = ("-0.95,-0.9,-0.8,-0.7,-0.6,-0.5,-0.4,-0.3,-0.2,-0.1,0.0,"
              "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,0.95,0.98,0.99,0.995")
# scales for the series-bound, localization and variance checks of `verify`
VERIFY_T_GRID = "0.1,0.07,0.05,0.035,0.025,0.0175,0.0125,0.00875,0.00625,0.0044,0.003125"


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `label` names its reference output."""

    label: str
    argv: tuple[str, ...]

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    def args(self, seed: int) -> list[str]:
        return [a.replace("{seed}", str(seed)) for a in self.argv]

    @property
    def seeded(self) -> bool:
        return any("{seed}" in a for a in self.argv)


def _verify(label: str, r: str, alpha: str) -> Command:
    return Command(label, ("verify", "--r", r, "--alpha", alpha,
                           "--t-grid", VERIFY_T_GRID, "--variance-t-grid", VERIFY_T_GRID,
                           "--envelope-lmax", "4000", "--window", "10:4000"))


WORKLOADS: dict[str, tuple[Command, ...]] = {
    # The analytic series engine.  legendre_series does about 91 % of the
    # compute, in two ways: `kernel` and `correlation` make thousands of
    # one-point calls (3 series and 3 choose_lmax scans per correlation row),
    # `verify` makes a few batched ones.  No harmonics, random draws or Gram
    # matrix.  Fixed grids: the seed does not enter.
    "analytic": (
        Command("kernel", ("kernel", "--r", "1", "--t", "0.1,0.05,0.025",
                           "--theta", "0:3.14159:512")),
        Command("correlation", ("correlation", "--r", "1", "--alpha", "3",
                                "--t", "0.4,0.2,0.1,0.05,0.025,0.0125,0.00625",
                                f"--cos-gamma={COS_GAMMAS}", "--fit")),
        _verify("verify-r1", "1", "3"),
        _verify("verify-r2", "2", "4"),
    ),
    # The Monte-Carlo draw-and-project loop in `fields`, about 98 % of the
    # compute; harmonics at high degree on 2 points.  The first command redraws
    # the same counter streams for every (t, d) pair, so only 26.7 % of its
    # draws are unique; the second (L = 116, 13 688 coefficients) has no
    # repeats.  A draw-once engine shows here both where it helps and where it
    # cannot.  The workload seed is the simulation seed.
    "montecarlo": (
        Command("simulate-r1", ("simulate", "--r", "1", "--alpha", "3", "--t", "0.2,0.1",
                                "--d", "0.3,0.785,1.571", "--replicas", "4000",
                                "--seed", "{seed}")),
        Command("simulate-r2", ("simulate", "--r", "2", "--alpha", "4", "--t", "0.05",
                                "--d", "0.3", "--replicas", "2000", "--seed", "{seed}")),
    ),
    # Frame bounds: harmonics at low degree on many points (sph_harm_matrix
    # about 55 % of the compute), then the Gram product and eigvalsh.  No series
    # calls and no random draws.  The L = 16 line is the README configuration.
    # Fixed grids: the seed does not enter.
    "frame": (
        Command("frame-L24", ("frame", "--r", "1", "--a", "2", "--L", "24",
                              "--j-range=-7:0", "--oversample", "1,2")),
        Command("frame-L16", ("frame", "--r", "1", "--a", "2", "--L", "16",
                              "--j-range=-6:0", "--oversample", "1,2,4")),
    ),
}

SUBCOMMANDS = ("kernel", "correlation", "verify", "simulate", "frame")
