"""Exception types shared across the package."""


class DegenerateRates(ValueError):
    """Rate combination outside the model's domain, e.g. an absorbing shelf."""


class InvalidInversion(ValueError):
    """Shape parameters cannot be mapped back to a physical rate set."""


class SingularSystem(ValueError):
    """Stationary excited population is zero, so the decay amplitudes are undefined."""


class InvalidGeometry(ValueError):
    """Detection geometry violates the leakage condition or basic bounds."""


class UnknownScenario(ValueError):
    """Preset name not recognised."""


class EmptyStream(ValueError):
    """Correlation requested on a stream without events."""


class UnsortedInput(ValueError):
    """Time tags are not in non-decreasing order."""


class NonConvergence(RuntimeError):
    """Fit did not converge within the configured iteration budget."""


class ConfigError(ValueError):
    """Scenario configuration failed validation."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))
