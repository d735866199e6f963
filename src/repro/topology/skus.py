"""SKU catalogue and topology builder.

The paper's testbed is a dual-socket EPYC 7502 (32 cores per package in
4 CCDs, §IV).  We also carry neighbouring Rome SKUs so the future-work
bench (throttling vs. core count, §VIII) can sweep the compute-to-I/O
ratio the authors call out.

Frequencies: the test system exposes three P-states — 1.5, 2.2 and
2.5 GHz — with 2.5 GHz being the nominal ("reference") frequency.  Boost
ceilings are included for completeness; the paper runs with boost mostly
disabled and finds it has almost no influence under FIRESTARTER (§V-E).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.topology.components import SystemTopology
from repro.topology.enumeration import linux_cpu_numbering
from repro.units import ghz


@dataclass(frozen=True)
class SKU:
    """Static description of a processor model."""

    name: str
    n_ccds: int
    cores_per_ccx: int
    nominal_freq_hz: float
    boost_freq_hz: float
    tdp_w: float
    #: Package power tracking limit used by the SMU power loop.
    ppt_w: float
    #: Per-package electrical design current limit (A) used by the EDC
    #: manager; calibrated so FIRESTARTER throttles to the Fig 6 points.
    edc_limit_a: float

    @property
    def n_cores(self) -> int:
        return self.n_ccds * 2 * self.cores_per_ccx

    @property
    def available_freqs_hz(self) -> tuple[float, ...]:
        """The ACPI P-state frequencies exposed to the OS (paper §IV)."""
        return (ghz(1.5), ghz(2.2), self.nominal_freq_hz)


#: Catalogue of Rome SKUs used across experiments and benches.
SKUS: dict[str, SKU] = {
    "EPYC 7502": SKU(
        name="EPYC 7502",
        n_ccds=4,
        cores_per_ccx=4,
        nominal_freq_hz=ghz(2.5),
        boost_freq_hz=ghz(3.35),
        tdp_w=180.0,
        ppt_w=200.0,
        edc_limit_a=156.8,
    ),
    "EPYC 7742": SKU(
        name="EPYC 7742",
        n_ccds=8,
        cores_per_ccx=4,
        nominal_freq_hz=ghz(2.25),
        boost_freq_hz=ghz(3.4),
        tdp_w=225.0,
        ppt_w=240.0,
        edc_limit_a=225.0,
    ),
    "EPYC 7302": SKU(
        name="EPYC 7302",
        n_ccds=4,
        cores_per_ccx=2,
        nominal_freq_hz=ghz(3.0),
        boost_freq_hz=ghz(3.3),
        tdp_w=155.0,
        ppt_w=170.0,
        edc_limit_a=140.0,
    ),
    "EPYC 7252": SKU(
        name="EPYC 7252",
        n_ccds=2,
        cores_per_ccx=2,
        nominal_freq_hz=ghz(3.1),
        boost_freq_hz=ghz(3.2),
        tdp_w=120.0,
        ppt_w=135.0,
        edc_limit_a=120.0,
    ),
}


def sku_by_name(name: str) -> SKU:
    """Look up a SKU, with a helpful error listing known models."""
    try:
        return SKUS[name]
    except KeyError:
        known = ", ".join(sorted(SKUS))
        raise ConfigurationError(f"unknown SKU {name!r}; known: {known}") from None


def build_topology(sku: SKU | str = "EPYC 7502", n_packages: int = 2) -> SystemTopology:
    """Build an enumerated :class:`SystemTopology` for ``sku``.

    Logical CPU numbers follow the Linux scheme (first threads of all
    cores across packages, then sibling threads) — see
    :func:`repro.topology.enumeration.linux_cpu_numbering`.
    """
    if isinstance(sku, str):
        sku = sku_by_name(sku)
    topo = SystemTopology(
        n_packages=n_packages,
        n_ccds=sku.n_ccds,
        cores_per_ccx=sku.cores_per_ccx,
        sku_name=sku.name,
    )
    linux_cpu_numbering(topo)
    # All cores start at the minimum available frequency, matching the
    # paper's baseline ("other cores ... set to the minimum frequency").
    min_hz = min(sku.available_freqs_hz)
    for thread in topo.threads():
        thread.requested_freq_hz = min_hz
    for core in topo.cores():
        core.applied_freq_hz = min_hz
    for ccx in topo.ccxs():
        ccx.l3_freq_hz = min_hz
    return topo
