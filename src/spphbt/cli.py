"""Command-line interface.

Subcommands mirror the pipeline stages and pipe into each other through
files: `simulate` writes time tags, `correlate` turns tags into a histogram,
`fit` turns a histogram into model parameters and a photophysics report,
`report` recomputes the photophysics table of a stored fit, `validate`
checks a scenario without running it, and `run` does the whole chain.  Each
stage takes its settings from the scenario values stored with its input, so
the chain writes what `run` writes; a flag overrides the stored value.  The
default output directory comes from --out, falling back to the SPPHBT_OUT
environment variable and then ./spphbt_out.

Exit codes: 0 ok, 1 runtime failure (missing or malformed file, empty stream,
fit that did not converge or that the rate inversion rejects), 2 configuration
or usage error.  Fit-health flags print `warning:` lines on stderr without
changing the exit code.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import ConfigError, EmptyStream, NonConvergence, UnknownScenario
from .fitter import (
    DEFAULT_INVERSION,
    DEFAULT_MAX_ITERATIONS,
    INVERSIONS,
    fit_warnings,
    report_photophysics,
    require_converged,
)
from .pipeline import correlate_tags, fit_from_mapping, fit_histogram, fit_payload, run_pipeline
from .scenarios import (
    DEFAULT_BIN_WIDTH_PS,
    DEFAULT_WINDOW_PS,
    builtin_scenario_names,
    check_window,
    validate_config,
)
from .tagio import (
    json_section,
    read_histogram_csv,
    read_json,
    read_time_tags,
    write_histogram_csv,
    write_json,
)

OUT_ENV_VAR = "SPPHBT_OUT"


def _out_dir(value: str | None) -> Path:
    out = Path(value or os.environ.get(OUT_ENV_VAR) or "spphbt_out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _setting(flag, stored: dict, key: str, path, convert, default=None):
    """A flag given on the command line, else the value stored with the input, else default.

    A stored null counts as absent.  A stored value that `convert` rejects is
    a ValueError naming the file it came from.
    """
    if flag is not None:
        return flag
    value = stored.get(key)
    if value is None:
        return default
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad {key} {value!r} ({exc})") from exc


def _one_of(*choices):
    """A converter that passes one of `choices` through and rejects anything else."""
    def convert(value):
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return value
    return convert


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _conclude(fit, rejected) -> None:
    """Warn about each fit-health flag, then fail on a non-converged or uninvertible fit."""
    for line in fit_warnings(fit):
        print(line, file=sys.stderr)
    require_converged(fit)
    if rejected is not None:
        raise rejected


def _load_scenario_arg(source: str, seed: int | None):
    scenario, diagnostics = validate_config(source)
    if scenario is None:
        raise ConfigError(diagnostics)
    if seed is not None:
        scenario = scenario.with_seed(seed)
    return scenario


def _cmd_validate(args) -> int:
    scenario, diagnostics = validate_config(args.scenario)
    if scenario is None:
        print(f"invalid scenario {args.scenario!r}:", file=sys.stderr)
        for line in diagnostics:
            print(f"  - {line}", file=sys.stderr)
        return 2
    t12, t21, t23, t31 = scenario.rates.lifetimes
    print(f"ok: {scenario.name}")
    print(f"  rates: tau12={t12:g} tau21={t21:g} tau23={t23:g} tau31={t31:g} ns")
    print(f"  n_emitters={scenario.n_emitters} duration={scenario.duration_ns:g} ns "
          f"seed={scenario.seed}")
    print(f"  fiber_config={scenario.fiber_config} correlation={scenario.correlation_kind}")
    return 0


def _cmd_simulate(args) -> int:
    scenario = _load_scenario_arg(args.scenario, args.seed)
    out = _out_dir(args.out)
    from .pipeline import acquire
    from .tagio import write_time_tags

    a, b, info = acquire(scenario)
    path = write_time_tags(out / f"{scenario.name}.ttag", a, b, metadata=info)
    print(f"wrote {path} ({len(a)} + {len(b)} tags, "
          f"rates {a.rate_hz:.0f}/{b.rate_hz:.0f} Hz)")
    return 0


def _cmd_correlate(args) -> int:
    a, b, meta = read_time_tags(args.tags)
    inner = meta.get("metadata") or {}  # the reader checked it is an object
    sidecar = f"{args.tags}.json"
    kind = _setting(args.kind, inner, "correlation", sidecar, _one_of("auto", "cross"), "cross")
    window = _setting(args.window, inner, "window_ps", sidecar, int, DEFAULT_WINDOW_PS)
    bins = _setting(args.bins, inner, "bin_width_ps", sidecar, int, DEFAULT_BIN_WIDTH_PS)
    problems = check_window(window, bins)
    if problems:
        raise ConfigError(problems)
    hist = correlate_tags(a, b, kind, window, bins)
    out = _out_dir(args.out)
    stem = Path(args.tags).stem
    used = dict(inner, correlation=kind, window_ps=window, bin_width_ps=bins)
    path = write_histogram_csv(out / f"{stem}_g2.csv", hist, metadata=used)
    zero_bin = (0 - hist.lag_min) // hist.bin_width
    print(f"wrote {path} ({hist.n_bins} bins of {bins} ps, "
          f"g2(0) bin = {hist.g2[zero_bin]:.3f})")
    return 0


def _cmd_fit(args) -> int:
    hist, meta = read_histogram_csv(args.hist)
    sidecar = f"{args.hist}.json"
    stored = json_section(meta, "fit", sidecar)
    max_iterations = _setting(args.max_iterations, stored, "max_iterations", sidecar, int,
                              DEFAULT_MAX_ITERATIONS)
    k12 = _setting(args.k12, stored, "k12", sidecar, float)
    inversion = _setting(args.inversion, stored, "inversion", sidecar, _one_of(*INVERSIONS),
                         DEFAULT_INVERSION)
    n_emitters = _setting(None, meta, "n_emitters", sidecar, int, 1)
    rho = _setting(None, meta, "rho_effective", sidecar, float)
    fit = fit_histogram(hist, max_iterations)
    payload, report, rejected = fit_payload(
        fit, meta.get("scenario", Path(args.hist).stem), k12, inversion, n_emitters, rho)
    out = _out_dir(args.out)
    path = write_json(out / f"{Path(args.hist).stem}_fit.json", payload)
    g1, g2, beta, c = fit.params
    print(f"wrote {path}")
    print(f"  gamma1={g1:.5g} gamma2={g2:.5g} beta={beta:.4g} c={c:.4g} "
          f"(chi2_red={fit.chi2_reduced:.3g}, {'converged' if fit.converged else 'NOT converged'})")
    if report is not None:
        print(report.format_table(payload["scenario"]))
    _conclude(fit, rejected)
    return 0


def _cmd_report(args) -> int:
    payload = read_json(args.fit)
    ctx = json_section(payload, "context", args.fit)
    k12 = _setting(args.k12, ctx, "k12", args.fit, float)
    if k12 is None:
        print("stored fit has no pump rate; pass --k12 to compute a report", file=sys.stderr)
        return 2
    try:
        fit = fit_from_mapping(payload.get("fit"))
    except ValueError as exc:
        raise ValueError(f"{args.fit}: {exc}") from exc
    report = report_photophysics(
        fit, k12, _setting(None, ctx, "n_emitters", args.fit, int, 1),
        _setting(None, ctx, "rho_effective", args.fit, float),
        inversion=_setting(args.inversion, ctx, "inversion", args.fit, _one_of(*INVERSIONS),
                           DEFAULT_INVERSION))
    print(report.format_table(payload.get("scenario", "stored fit")))
    return 0


def _cmd_run(args) -> int:
    scenario = _load_scenario_arg(args.scenario, args.seed)
    result = run_pipeline(scenario, _out_dir(args.out))
    zero_bin = (0 - result.histogram.lag_min) // result.histogram.bin_width
    print(f"scenario {scenario.name}: {result.histogram.counts.sum()} pairs, "
          f"g2(0) bin = {result.histogram.g2[zero_bin]:.3f}")
    g1, g2, beta, c = result.fit.params
    print(f"  fit: gamma1={g1:.5g} gamma2={g2:.5g} beta={beta:.4g} c={c:.4g}")
    if result.report is not None:
        print(result.report.format_table(scenario.name))
    print(f"  artifacts in {result.paths['manifest'].parent}")
    _conclude(result.fit, result.rejected)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spphbt",
        description="Simulate and analyse two-detector correlation measurements "
                    "of few-emitter plasmonic sources.",
        epilog=f"builtin scenarios: {', '.join(builtin_scenario_names())}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p):
        p.add_argument("--scenario", required=True,
                       help="YAML scenario file or builtin scenario name")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${OUT_ENV_VAR} or ./spphbt_out)")

    p = sub.add_parser("run", help="full pipeline: simulate, correlate, fit, report")
    add_scenario_args(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("simulate", help="generate detector time tags")
    add_scenario_args(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("correlate", help="histogram a tag file into g2(tau)")
    p.add_argument("--tags", required=True, help="TTAG file from simulate")
    p.add_argument("--bins", type=_positive_int, default=None,
                   help="bin width in ps (default: the scenario's, stored with the tags)")
    p.add_argument("--window", type=_positive_int, default=None,
                   help="max |lag| in ps (default: the scenario's, stored with the tags)")
    p.add_argument("--kind", choices=("auto", "cross"), default=None,
                   help="override the correlation kind stored with the tags")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("fit", help="fit the correlation model to a histogram")
    p.add_argument("--hist", required=True, help="histogram CSV from correlate")
    p.add_argument("--k12", type=float, default=None,
                   help="pump rate in ns^-1 for the rate inversion")
    p.add_argument("--inversion", choices=INVERSIONS, default=None)
    p.add_argument("--max-iterations", type=_positive_int, default=None,
                   help="default: the scenario's, stored with the histogram")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("report", help="recompute the photophysics table of a stored fit")
    p.add_argument("--fit", required=True, help="fit JSON file")
    p.add_argument("--k12", type=float, default=None)
    p.add_argument("--inversion", choices=INVERSIONS, default=None)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("validate", help="check a scenario file and echo resolved values")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UnknownScenario) as exc:
        if isinstance(exc, ConfigError):
            print("configuration error:", file=sys.stderr)
            for line in exc.diagnostics:
                print(f"  - {line}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EmptyStream, NonConvergence, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
