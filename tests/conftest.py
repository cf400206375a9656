import pytest

from seqjde import CostWeights, ModelParams, gfunc

_ACCEPTANCE: list[tuple[int, str, bool]] = []


def record_acceptance(num: int, label: str, ok: bool) -> None:
    _ACCEPTANCE.append((num, label, bool(ok)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num, label, ok in sorted(_ACCEPTANCE):
        terminalreporter.write_line(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}")


@pytest.fixture
def ref_params() -> ModelParams:
    return ModelParams(mu_x=0.0, sigma_x=1.0, sigma=1.0)


@pytest.fixture
def ref_costs() -> CostWeights:
    return CostWeights(c0=1.0, c1=1.0, ce=1.0)


@pytest.fixture
def root_solves(monkeypatch) -> list[float]:
    """Energies at which gfunc solves a margin root, in call order."""
    energies: list[float] = []
    solve = gfunc._margin_root

    def counting(U, p, c):
        energies.append(U)
        return solve(U, p, c)

    monkeypatch.setattr(gfunc, "_margin_root", counting)
    return energies
