"""Seeded input generator for the three benchmark workloads.

Every input is a plain dict, so the same list can be rebuilt in a fresh
interpreter (the set-up probe) from the workload name and the seed alone.
The same seed always gives the same inputs.

Inputs come in rounds: each round holds one point of every template of the
workload, in a fixed template order, so a run that stops part-way through a
round still sees the same mix of families on every seed.

Validity rules the generator keeps:

* ``eps`` is never 0, and every partnered family appears with both signs;
* bowtieN slope magnitudes are strictly increasing;
* the numeric workload's bowtieN points have two sweeping levels of
  opposite slope sign.  When two sweeping levels share a sign, the
  crossings route (hand-coded and generic alike) disagrees with direct
  propagation by 0.07-0.2 at every horizon, so the crossings factorization
  is no reference there; the crossings workload still runs such points
  (n = 3), whose checks do not involve propagation;
* delta and slope ranges keep ``numeric_smatrix`` at ``NUMERIC_T`` within
  the ``lzscatter compare`` rule against the crossings reference.
"""

from __future__ import annotations

import random

NUMERIC_T = 100.0
NUMERIC_RTOL = 1e-8
NUMERIC_ATOL = 1e-10

NUMERIC_TEMPLATES = (
    ("smatrix", "bowtie3", +1), ("smatrix", "bowtieN", +1),
    ("smatrix", "su3six", +1), ("smatrix", "su3adj8", +1),
    ("lax", 2, 0), ("lax", 3, 0),
    ("smatrix", "bowtie3", -1), ("smatrix", "bowtieN", -1),
    ("smatrix", "su3six", -1), ("smatrix", "su3adj8", -1),
    ("lax", 4, 0), ("lax", 5, 0), ("lax", 6, 0),
)

CROSSINGS_TEMPLATES = (
    ("bowtie3", 1, +1), ("bowtieN", 2, +1), ("bowtieN", 3, +1),
    ("su3six", 0, +1), ("su3adj8", 0, +1),
    ("bowtie3", 1, -1), ("bowtieN", 2, -1), ("bowtieN", 3, -1),
    ("su3six", 0, -1), ("su3adj8", 0, -1),
)

CLI_TEMPLATES = (
    "smatrix-spin", "smatrix-bowtie3", "smatrix-su3adj8",
    "sweep-spin", "sweep-bowtie3", "zero-curvature", "model-show",
)

SWEEP_POINTS = 20

ROUNDS = {"numeric": 3, "crossings": 6, "cli": 4}


# nominal (delta, slope) per family; bowtieN's are per sweeping level
NOMINAL = {
    "bowtie3": (0.3, 1.0),
    "bowtieN": ((0.25, 0.25, 0.25), (0.6, 1.2, 2.0)),
    "su3six": (0.2, 0.4),
    "su3adj8": (0.2, 0.4),
    "spin": (0.8, 1.0),
}
# relative half-widths (delta, slope) around the nominal values.  The
# numeric workload's cost grows with the slope (steps scale with |H| at the
# horizon), so its slopes stay close to nominal to keep the op cost alike
# from seed to seed; the crossings cost does not depend on the parameters.
NUMERIC_SPREAD = (0.15, 0.05)
WIDE_SPREAD = (0.3, 0.2)


def _r(rng, lo, hi):
    # rounded so that CLI arguments and in-process values are the same float
    return round(rng.uniform(lo, hi), 6)


def _around(rng, nominal, spread):
    return _r(rng, nominal * (1.0 - spread), nominal * (1.0 + spread))


def _partnered(rng, family, n, eps_sign, spread):
    """Model kwargs for one partnered family point.

    bowtieN slope magnitudes stay strictly increasing because the nominal
    magnitudes are further apart than the spread allows; their signs
    alternate from level to level, starting from a random sign.
    """
    delta, slope = NOMINAL[family]
    eps = eps_sign * _r(rng, 0.5, 1.5)
    if family == "bowtieN":
        first = rng.choice((-1.0, 1.0))
        return {"family": family,
                "delta": [_around(rng, d, spread[0]) for d in delta[:n]],
                "slope": [first * (-1) ** i * _around(rng, s, spread[1])
                          for i, s in enumerate(slope[:n])],
                "eps": eps}
    return {"family": family, "delta": _around(rng, delta, spread[0]),
            "slope": _around(rng, slope, spread[1]), "eps": eps}


def _spin(rng, k, spread):
    delta, slope = NOMINAL["spin"]
    return {"family": "spin", "k": k, "delta": _around(rng, delta, spread[0]),
            "slope": _around(rng, slope, spread[1])}


def numeric_inputs(rng, rounds):
    out = []
    for _ in range(rounds):
        for kind, what, eps_sign in NUMERIC_TEMPLATES:
            if kind == "smatrix":
                model = _partnered(rng, what, 2, eps_sign, NUMERIC_SPREAD)
                out.append({"kind": "smatrix", "model": model})
            else:
                out.append({"kind": "lax", "model": _spin(rng, what, NUMERIC_SPREAD)})
    return out


def crossings_inputs(rng, rounds):
    return [{"kind": "crossings", "model": _partnered(rng, family, n, eps_sign, WIDE_SPREAD)}
            for _ in range(rounds) for family, n, eps_sign in CROSSINGS_TEMPLATES]


def _cli_model_args(model):
    # --key=value: argparse would take a list such as "-0.6,1.2" for an option
    args = [f"--family={model['family']}"]
    if "k" in model:
        args.append(f"--k={model['k']}")
    for key in ("delta", "slope", "eps"):
        value = model.get(key)
        if value is None:
            continue
        text = ",".join(repr(v) for v in value) if isinstance(value, list) else repr(value)
        args.append(f"--{key}={text}")
    return args


def _sweep_range(start, step):
    # start:stop:step with the stop half a step past the last point
    stop = start + (SWEEP_POINTS - 0.5) * step
    return f"{start!r}:{stop!r}:{step!r}", [start + step * i for i in range(SWEEP_POINTS)]


def cli_inputs(rng, rounds):
    """The fixed command mix; zero-curvature and model show rotate over the
    partnered families from round to round."""
    partnered = ("bowtie3", "bowtieN", "su3six", "su3adj8")
    out = []
    for r in range(rounds):
        for name in CLI_TEMPLATES:
            sign = rng.choice((-1, 1))
            if name == "smatrix-spin":
                model = _spin(rng, 3 + r % 4, WIDE_SPREAD)
                argv = ["smatrix", *_cli_model_args(model), "--method=algebraic"]
            elif name in ("smatrix-bowtie3", "smatrix-su3adj8"):
                model = _partnered(rng, name.split("-")[1], 0, sign, WIDE_SPREAD)
                argv = ["smatrix", *_cli_model_args(model), "--method=crossings"]
            elif name == "sweep-spin":
                model = _spin(rng, 3 + r % 4, WIDE_SPREAD)
                text, values = _sweep_range(_r(rng, 0.05, 0.2), 0.05)
                model["delta"] = None
                argv = ["sweep", *_cli_model_args(model), f"--delta={text}",
                        "--method=algebraic"]
                model["sweep"] = {"param": "delta", "values": values}
            elif name == "sweep-bowtie3":
                model = _partnered(rng, "bowtie3", 0, sign, WIDE_SPREAD)
                text, values = _sweep_range(_r(rng, 0.5, 0.8), 0.05)
                model["slope"] = None
                argv = ["sweep", *_cli_model_args(model), f"--slope={text}",
                        "--method=crossings"]
                model["sweep"] = {"param": "slope", "values": values}
            else:
                model = _partnered(rng, partnered[r % 4], 2, sign, WIDE_SPREAD)
                command = ["zero-curvature"] if name == "zero-curvature" else ["model", "show"]
                argv = [*command, *_cli_model_args(model)]
            out.append({"kind": name, "model": model, "argv": argv})
    return out


GENERATORS = {"numeric": numeric_inputs, "crossings": crossings_inputs, "cli": cli_inputs}


def make_inputs(workload, seed):
    """The workload's input list for ``seed`` (same seed, same list)."""
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, ROUNDS[workload])


def model_kwargs(model):
    """``build_model`` keyword arguments for one input's model dict."""
    return {k: model[k] for k in ("family", "delta", "slope", "eps", "k") if k in model}


def models_to_build(workload, seed):
    """Model kwargs for every model the workload's ops are built from.

    A sweep contributes one model per sweep point, as the CLI builds them.
    """
    out = []
    for item in make_inputs(workload, seed):
        model = item["model"]
        sweep = model.get("sweep")
        if sweep is None:
            out.append(model_kwargs(model))
            continue
        for value in sweep["values"]:
            kwargs = model_kwargs(model)
            kwargs[sweep["param"]] = value
            out.append(kwargs)
    return out
