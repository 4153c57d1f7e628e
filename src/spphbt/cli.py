"""Command-line interface.

Subcommands mirror the pipeline stages and pipe into each other through
files: `simulate` writes time tags, `correlate` turns tags into a histogram,
`fit` turns a histogram into model parameters and a photophysics report,
`validate` checks a scenario without running it, and `run` does the whole
chain.  Each stage takes its settings from the scenario values stored with
its input, so the chain writes what `run` writes; a flag overrides the
stored value.  A new pump rate or inversion is a re-fit of the histogram
(`fit --k12 ... --inversion ...`); the fit JSON is a record that no command
reads.  The default output directory comes from --out, falling back to the
SPPHBT_OUT environment variable and then ./spphbt_out.

Every setting is held to its scenario key's rule (`scenarios.check_setting`),
and every value read back from an artifact to its rule by `stored_setting`.

Exit codes: 0 ok, 1 runtime failure (a missing, unreadable or malformed file
or sidecar, a stored value or window that breaks its rule, empty stream, a
histogram too large for memory, fit that did not converge or that the rate
inversion rejects, whose error line names the histogram file), 2
configuration or usage error (a flag that breaks its rule included).
Fit-health `warning:` lines leave the exit code unchanged.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .errors import ConfigError, EmptyStream, NonConvergence
from .fitter import (
    DEFAULT_INVERSION,
    DEFAULT_MAX_ITERATIONS,
    fit_warnings,
    report_photophysics,  # noqa: F401  not called here; bench/tracing.py wraps it in cli
    require_converged,
)
from .pipeline import correlate_tags, fit_histogram, fit_payload, run_pipeline
from .scenarios import (
    DEFAULT_BIN_WIDTH_PS,
    DEFAULT_WINDOW_PS,
    builtin_scenario_names,
    check_setting,
    check_window,
    stored_setting,
    validate_config,
)
from .tagio import (
    json_section,
    read_histogram_csv,
    read_time_tags,
    sidecar_path,
    write_histogram_csv,
    write_json,
)

OUT_ENV_VAR = "SPPHBT_OUT"


def _out_dir(value: str | None) -> Path:
    out = Path(value or os.environ.get(OUT_ENV_VAR) or "spphbt_out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _setting(flag, stored: dict, key: str, path, default=None, rule: str | None = None):
    """A flag given on the command line, else `stored_setting(stored, key, path, rule, default)`."""
    return flag if flag is not None else stored_setting(stored, key, path, rule, default=default)


def _flag(rule: str):
    """An argparse type holding a flag to the rule of setting `rule`."""
    def convert(text: str):
        try:
            return check_setting(rule, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


def _conclude(fit, rejected, hist) -> int:
    """Warn about each fit-health flag, then fail on a non-converged or uninvertible fit
    with one error line that names the histogram file `hist`; the exit code."""
    for line in fit_warnings(fit):
        print(line, file=sys.stderr)
    try:
        require_converged(fit)
    except NonConvergence as exc:
        rejected = exc
    if rejected is None:
        return 0
    print(f"error: {hist}: {rejected}", file=sys.stderr)
    return 1


def _load_scenario_arg(source: str, seed: int | None):
    scenario, diagnostics = validate_config(source)
    if scenario is None:
        raise ConfigError(diagnostics)
    if seed is not None:
        scenario = scenario.with_seed(seed)
    return scenario


def _cmd_validate(args) -> int:
    scenario = _load_scenario_arg(args.scenario, None)
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

    tags = acquire(scenario)
    path = write_time_tags(out / f"{scenario.name}.ttag", tags)
    n_a, n_b = tags.counts
    rate_a, rate_b = (n / tags.duration * 1e12 for n in (n_a, n_b))
    print(f"wrote {path} ({n_a} + {n_b} tags, rates {rate_a:.0f}/{rate_b:.0f} Hz)")
    return 0


def _cmd_correlate(args) -> int:
    tags = read_time_tags(args.tags)
    inner = tags.metadata
    sidecar = sidecar_path(args.tags)
    kind = _setting(args.kind, inner, "correlation", sidecar, "cross")
    window = _setting(args.window, inner, "window_ps", sidecar, DEFAULT_WINDOW_PS)
    bins = _setting(args.bins, inner, "bin_width_ps", sidecar, DEFAULT_BIN_WIDTH_PS)
    problems = check_window(window, bins, tags.duration)
    if problems:  # a usage error if a flag is to blame, else the stored values'
        raise (ConfigError(problems) if args.window or args.bins
               else ValueError(f"{sidecar}: {'; '.join(problems)}"))
    try:
        hist = correlate_tags(tags, kind, window, bins)
    except EmptyStream as exc:  # the tag file's fault, as every other of its faults
        raise ValueError(f"{args.tags}: {exc}") from exc
    out = _out_dir(args.out)
    stem = Path(args.tags).stem
    used = dict(inner, correlation=kind, window_ps=window, bin_width_ps=bins)
    path = write_histogram_csv(out / f"{stem}_g2.csv", hist, metadata=used)
    zero_bin = hist.lag_max // hist.bin_width
    print(f"wrote {path} ({hist.n_bins} bins of {bins} ps, "
          f"g2(0) bin = {hist.g2[zero_bin]:.3f})")
    return 0


def _cmd_fit(args) -> int:
    hist, meta = read_histogram_csv(args.hist)
    sidecar = sidecar_path(args.hist)
    stored = json_section(meta, "fit", sidecar)
    max_iterations = _setting(args.max_iterations, stored, "max_iterations", sidecar,
                              DEFAULT_MAX_ITERATIONS, rule="fit.max_iterations")
    k12 = _setting(args.k12, stored, "k12", sidecar, rule="fit.k12")
    inversion = _setting(args.inversion, stored, "inversion", sidecar, DEFAULT_INVERSION,
                         rule="fit.inversion")
    n_emitters = stored_setting(meta, "n_emitters", sidecar, default=1)
    rho = stored_setting(meta, "rho_effective", sidecar, "rho", default=None)
    name = stored_setting(meta, "scenario", sidecar, "name", default=Path(args.hist).stem)
    fit = fit_histogram(hist, max_iterations)
    payload, report, rejected = fit_payload(fit, name, k12, inversion, n_emitters, rho)
    out = _out_dir(args.out)
    path = write_json(out / f"{Path(args.hist).stem}_fit.json", payload)
    g1, g2, beta, c = fit.params
    print(f"wrote {path}")
    print(f"  gamma1={g1:.5g} gamma2={g2:.5g} beta={beta:.4g} c={c:.4g} "
          f"(chi2_red={fit.chi2_reduced:.3g}, {'converged' if fit.converged else 'NOT converged'})")
    if report is not None:
        print(report.format_table(payload["scenario"]))
    return _conclude(fit, rejected, args.hist)


def _cmd_run(args) -> int:
    scenario = _load_scenario_arg(args.scenario, args.seed)
    result = run_pipeline(scenario, _out_dir(args.out))
    zero_bin = result.histogram.lag_max // result.histogram.bin_width
    print(f"scenario {scenario.name}: {result.histogram.counts.sum()} pairs, "
          f"g2(0) bin = {result.histogram.g2[zero_bin]:.3f}")
    g1, g2, beta, c = result.fit.params
    print(f"  fit: gamma1={g1:.5g} gamma2={g2:.5g} beta={beta:.4g} c={c:.4g}")
    if result.report is not None:
        print(result.report.format_table(scenario.name))
    print(f"  artifacts in {result.paths['manifest'].parent}")
    return _conclude(result.fit, result.rejected, result.paths["histogram"])


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
        p.add_argument("--seed", type=_flag("seed"), default=None,
                       help="override the scenario seed")
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
    p.add_argument("--bins", type=_flag("bin_width_ps"), default=None,
                   help="bin width in ps (default: the scenario's, stored with the tags)")
    p.add_argument("--window", type=_flag("window_ps"), default=None,
                   help="max |lag| in ps (default: the scenario's, stored with the tags)")
    p.add_argument("--kind", type=_flag("correlation"), default=None, metavar="{auto,cross}",
                   help="override the correlation kind stored with the tags")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("fit", help="fit the correlation model to a histogram")
    p.add_argument("--hist", required=True, help="histogram CSV from correlate")
    p.add_argument("--k12", type=_flag("fit.k12"), default=None,
                   help="pump rate in ns^-1 for the rate inversion")
    p.add_argument("--inversion", type=_flag("fit.inversion"), default=None,
                   metavar="{exact,model}")
    p.add_argument("--max-iterations", type=_flag("fit.max_iterations"), default=None,
                   help="default: the scenario's, stored with the histogram")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("validate", help="check a scenario file and echo resolved values")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=_cmd_validate)

    return parser


# one tree per process: building it costs about 15 times parsing with it, and a parse
# leaves nothing in it, so repeated in-process calls share it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("configuration error:", file=sys.stderr)
        for line in exc.diagnostics:
            print(f"  - {line}", file=sys.stderr)
        return 2
    except (NonConvergence, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
