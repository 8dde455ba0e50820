"""Seeded job lists for the three benchmark workloads, and the check of each
job's output.

A job is one ``inflectionary`` command line.  The program only ever sees the
generated argv; the seed decides the curve parameters, windows and order,
never the command families, so the cost of a job list moves little between
seeds.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

WORKLOADS = ("verify", "census", "render")
DEFAULT_SEED = 1

# Curve parameters p/q in each real regime, two per regime, of height 3 or 4
# and with 2/3 <= |lambda| <= 3/2.  A census costs more the larger the height
# of lambda and the farther |lambda| is from 1 (up to 1.6 times as much at
# lambda = 4 as at lambda = -1/3), and within a regime these two cost about
# the same for every (mu, k) of the census, so that the job list's median and
# tail latency move little between seeds.  The degenerate values 0 and 1 are
# excluded, and so are the harmonic values -1, 1/2 and 2 (the j = 1728
# fibers), where the extra symmetry makes a census three to four times
# cheaper.
REGIMES = {
    "negative": tuple(Fraction(v) for v in ("-3/2", "-4/3")),
    "unit": tuple(Fraction(v) for v in ("2/3", "3/4")),
    "large": tuple(Fraction(v) for v in ("4/3", "3/2")),
}

# The (mu, k) pairs each workload covers.  The census adds (3, 4) at one
# lambda only: one such job takes about 2 s, more than all the mu = 1 jobs at
# one lambda together, and three of them left room for only two passes in a
# run.
CENSUS_PAIRS = tuple((1, k) for k in range(4, 11)) + ((2, 3), (2, 4), (2, 5))
LEMMA1_PAIRS = ((2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5))
# The plots: (pairs, resolutions, windows for each pair and resolution), in
# four bands of cost that the seed's windows do not mix.  The number of
# sampled nodes, which sets the cost, is the same for every seed, but the
# window moves a plot's cost by up to 10%, so each percentile falls in the
# middle of a band of like plots: the 20 of the second band hold the median
# (the 24th and 25th), the 12 of the third the tail percentile (p79 of 48,
# the 38th).
RENDER_BANDS = (
    (((1, 2), (1, 3), (1, 4)), ((96, 96), (128, 128)), 2),
    (((2, 3), (2, 4)), ((128, 96),), 10),
    (((2, 3), (2, 4)), ((160, 160),), 6),
    (((3, 4),), ((96, 96), (128, 128)), 2),
)

# Reports printed by one `verify` job of each check family.
VERIFY_REPORTS = {"symmetry": 2, "support": 2, "faces": 1, "lemma1": 1,
                  "torsion": 1, "singular": 1}


def lambda_text(value: Fraction) -> str:
    """Exact ``p/q`` form of a curve parameter, as the command line takes it."""
    return f"{value.numerator}/{value.denominator}"


def _pick(rng, regime):
    return lambda_text(rng.choice(REGIMES[regime]))


def _one_per_regime(rng):
    return [_pick(rng, regime) for regime in REGIMES]


def _verify_jobs(rng):
    families = [
        [("symmetry", ["verify", "symmetry", "--k", str(k)]) for k in range(1, 9)],
        [("support", ["verify", "support", "--k", str(k)]) for k in range(1, 9)],
        [("faces", ["verify", "faces", "--k", str(k)]) for k in range(2, 7)],
        [("lemma1", ["verify", "lemma1", "--mu", str(mu), "--k", str(k)])
         for mu, k in LEMMA1_PAIRS],
    ]
    # Lambdas per regime for each torsion k.  The twelve k = 3 jobs, with the
    # symmetry check at k = 3, make a run of like cost where the median
    # falls, and the nine k = 4 jobs one where the tail percentile falls, so
    # that neither jumps between job kinds.
    torsion = []
    for k, rounds in ((2, 1), (3, 4), (4, 3)):
        for lam in [lam for _ in range(rounds) for lam in _one_per_regime(rng)]:
            torsion.append(("torsion", ["verify", "torsion", "--k", str(k), "--lambda", lam]))
    torsion.append(("torsion", ["verify", "torsion", "--k", "5",
                                "--lambda", _pick(rng, "negative")]))
    families.append(torsion)
    families.append([("singular", ["verify", "singular", "--k", str(k)]) for k in (2, 3, 4)])
    # Each family spread evenly over the pass, so that jobs of like cost do
    # not sample the host in one burst; the order does not depend on the
    # seed, so the job that first fills each memo cache is always the same.
    spread = sorted(((i + 0.5) / len(family), f, job)
                    for f, family in enumerate(families) for i, job in enumerate(family))
    return [job for _, _, job in spread]


def _census_jobs(rng):
    jobs = []
    regimes = tuple(REGIMES)
    for mu, k in CENSUS_PAIRS:
        lambdas = _one_per_regime(rng)
        if mu == 1:
            # A fourth lambda, from a regime that depends on k only, so
            # that the seed never changes how many jobs each regime gets.
            lambdas.append(_pick(rng, regimes[k % 3]))
        if (mu, k) == (1, 10):
            # Eight (1, 10) jobs of like cost, among which the tail
            # percentile falls, so that it does not jump between job kinds.
            lambdas += _one_per_regime(rng) + [_pick(rng, regimes[k % 3])]
        for lam in lambdas:
            jobs.append(("roots", ["roots", "--mu", str(mu), "--k", str(k), "--lambda", lam]))
    jobs.append(("roots", ["roots", "--mu", "3", "--k", "4", "--lambda", _pick(rng, "unit")]))
    for mu, k in ((1, 5), (2, 3)):
        grid = ",".join(lam for _ in range(2) for lam in _one_per_regime(rng))
        jobs.append(("scan", ["scan", "--mu", str(mu), "--k", str(k), "--lambda-grid", grid]))
    rng.shuffle(jobs)
    return jobs


def _render_window(rng):
    x_min = rng.choice(("-2/1", "-3/2", "-1/1", "-1/2"))
    x_max = rng.choice(("3/2", "2/1", "5/2", "3/1"))
    l_min = rng.choice(("-2/1", "-3/2", "-1/1", "-1/2"))
    l_max = rng.choice(("3/2", "2/1", "5/2", "3/1"))
    return ",".join((x_min, x_max, l_min, l_max))


def _render_jobs(rng):
    jobs = []
    for pairs, resolutions, windows in RENDER_BANDS:
        for (mu, k), (nx, nlambda) in itertools.product(pairs, resolutions):
            for _ in range(windows):
                jobs.append(("plot", ["plot", "--mu", str(mu), "--k", str(k),
                                      "--window", _render_window(rng),
                                      "--nx", str(nx), "--nlambda", str(nlambda)]))
    rng.shuffle(jobs)
    return jobs


_GENERATORS = {"verify": _verify_jobs, "census": _census_jobs, "render": _render_jobs}


def make_jobs(workload: str, seed: int):
    """The job list of one workload: dicts with ``id``, ``family`` and ``argv``.

    The same workload and seed always give the same list.  Plot jobs write
    ``job<id>.svg`` relative to the output directory.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{int(seed)}")
    jobs = []
    for i, (family, argv) in enumerate(_GENERATORS[workload](rng)):
        if family == "plot":
            argv = argv + ["--out", f"job{i}.svg"]
        jobs.append({"id": i, "family": family, "argv": argv})
    return jobs


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _expected_positive_roots(mu: int, k: int) -> int:
    # The paper's dichotomy: mu real roots with f > 0 when k - mu is even,
    # 2 mu when it is odd.
    return mu if (k - mu) % 2 == 0 else 2 * mu


def _reports(stdout):
    lines = stdout.splitlines()
    if not lines:
        raise ValueError("no output")
    return [json.loads(line) for line in lines]


def check_output(job, exit_code, stdout: str, svg):
    """Why the job's result is wrong, or None when it is as expected.

    Every job must exit 0.  Every verification report must read PASS, a
    root census must show the real-root count the dichotomy predicts, and a
    plot must write an SVG file and print nothing.
    """
    if exit_code != 0:
        return f"exit code {exit_code}"
    family = job["family"]
    argv = job["argv"]
    try:
        if family == "plot":
            if stdout:
                return "plot printed to stdout"
            if svg is None or not svg.startswith(b'<?xml version="1.0"'):
                return "no SVG document written"
            nx, nlambda = _flag(argv, "--nx"), _flag(argv, "--nlambda")
            if f"resolution={nx}x{nlambda}".encode() not in svg:
                return "SVG metadata does not match the requested resolution"
            return None
        reports = _reports(stdout)
        if family == "roots":
            if len(reports) != 1:
                return f"expected one census, got {len(reports)} lines"
            census = reports[0]
            mu, k = int(_flag(argv, "--mu")), int(_flag(argv, "--k"))
            if census["lambda0"] != str(Fraction(_flag(argv, "--lambda"))):
                return "census is for another lambda"
            if census["total_real_roots"] != len(census["intervals"]):
                return "root count disagrees with the isolating intervals"
            expected = _expected_positive_roots(mu, k)
            if census["roots_f_positive"] != expected:
                return f"{census['roots_f_positive']} roots with f > 0, expected {expected}"
            return None
        expected_count = 1 if family == "scan" else VERIFY_REPORTS[family]
        if len(reports) != expected_count:
            return f"expected {expected_count} reports, got {len(reports)}"
        verdicts = [r["verdict"] for r in reports]
        if any(v != "PASS" for v in verdicts):
            return f"verdicts {verdicts}, expected PASS"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return None
