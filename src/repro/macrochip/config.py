"""Macrochip system configuration (paper sections 3-5, Table 4).

Two configurations matter:

* :func:`full_2015_config` — the 2015 target platform of section 3
  (64 cores/site, 2.56 TB/s per site, 160 TB/s aggregate).  Documented for
  completeness; the paper itself never simulates it.
* :func:`scaled_config` — the simulated system of Table 4, scaled down 8x
  in compute and network bandwidth (8 cores/site, 320 GB/s per site,
  20 TB/s aggregate, 8 wavelengths/waveguide, 128 Tx + 128 Rx per site).

Fixed latencies the paper leaves implicit (directory access, local memory)
are centralized here with their rationale so every experiment shares them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..photonics.layout import MacrochipLayout
from ..photonics.technology import DEFAULT_TECHNOLOGY, Technology
from ..core.units import cycles_to_ps


@dataclass(frozen=True)
class MacrochipConfig:
    """Complete parameter set for one simulated macrochip."""

    layout: MacrochipLayout = field(default_factory=MacrochipLayout)
    tech: Technology = DEFAULT_TECHNOLOGY

    clock_ghz: float = 5.0
    cores_per_site: int = 8
    threads_per_core: int = 1
    l2_cache_kb: int = 256

    transmitters_per_site: int = 128
    receivers_per_site: int = 128
    wavelengths_per_waveguide: int = 8

    cache_line_bytes: int = 64
    control_message_bytes: int = 8
    #: data message = cache line + header
    data_header_bytes: int = 8

    #: Round, 2015-plausible fixed latencies (see DESIGN.md section 4.4):
    #: directory lookup ~10 cycles; local (site-attached, electrically
    #: proximate) memory access ~50 cycles.
    directory_latency_cycles: int = 10
    memory_latency_cycles: int = 50
    #: L2 hit latency seen by a core.
    l2_hit_latency_cycles: int = 4
    #: Outstanding misses per site (finite MSHRs, section 5).
    mshrs_per_site: int = 16
    #: Intra-site traffic uses a single-cycle loopback (section 6.2).
    loopback_latency_cycles: int = 1

    def __post_init__(self) -> None:
        # replay() would wait forever on zero MSHRs, and a negative
        # budget never reaches its "== 0" stall check (unbounded MSHRs)
        if self.mshrs_per_site < 1:
            raise ValueError("mshrs_per_site must be at least 1, got %r"
                             % (self.mshrs_per_site,))

    @property
    def num_sites(self) -> int:
        return self.layout.num_sites

    @property
    def num_cores(self) -> int:
        return self.num_sites * self.cores_per_site

    @property
    def cycle_ps(self) -> int:
        return cycles_to_ps(1, self.clock_ghz)

    @property
    def wavelength_gb_per_s(self) -> float:
        return self.tech.wavelength_bandwidth_gb_per_s

    @property
    def site_bandwidth_gb_per_s(self) -> float:
        """Peak injection bandwidth per site (Table 4: 320 GB/s)."""
        return self.transmitters_per_site * self.wavelength_gb_per_s

    @property
    def total_bandwidth_tb_per_s(self) -> float:
        """Peak aggregate network bandwidth (Table 4: 20 TB/s)."""
        return self.num_sites * self.site_bandwidth_gb_per_s / 1000.0

    @property
    def data_message_bytes(self) -> int:
        return self.cache_line_bytes + self.data_header_bytes

    def cycles_ps(self, cycles: float) -> int:
        return cycles_to_ps(cycles, self.clock_ghz)

    @property
    def directory_latency_ps(self) -> int:
        return self.cycles_ps(self.directory_latency_cycles)

    @property
    def memory_latency_ps(self) -> int:
        return self.cycles_ps(self.memory_latency_cycles)

    @property
    def loopback_latency_ps(self) -> int:
        return self.cycles_ps(self.loopback_latency_cycles)

    def with_overrides(self, **kwargs) -> "MacrochipConfig":
        return replace(self, **kwargs)


def scaled_config() -> MacrochipConfig:
    """The simulated configuration of Table 4 (the default everywhere)."""
    return MacrochipConfig()


def full_2015_config() -> MacrochipConfig:
    """The un-scaled 2015 platform of section 3: 64 cores/site, 1024 Tx/Rx
    per site, 16 wavelengths per waveguide, 160 TB/s aggregate."""
    return MacrochipConfig(
        cores_per_site=64,
        transmitters_per_site=1024,
        receivers_per_site=1024,
        wavelengths_per_waveguide=16,
    )


def small_test_config(rows: int = 4, cols: int = 4) -> MacrochipConfig:
    """A reduced macrochip for fast unit tests (16 sites by default)."""
    return MacrochipConfig(layout=MacrochipLayout(rows=rows, cols=cols))


def grid_config(rows: int, cols: int = None) -> MacrochipConfig:
    """A Table 4 configuration on an arbitrary ``rows x cols`` grid.

    Per-site resources (128 Tx/Rx, 8 cores, 8-wavelength WDM) are held
    at the paper's scaled point while the array grows — exactly the
    regime the scaling-limit study probes: what breaks first when the
    same site is tiled 4x4, 8x8, 16x16, 32x32?  ``grid_config(8, 8)``
    is bit-identical to :func:`scaled_config`.
    """
    if cols is None:
        cols = rows
    return MacrochipConfig(layout=MacrochipLayout(rows=rows, cols=cols))


def table4_rows(config: MacrochipConfig = None):
    """The rows of the paper's Table 4."""
    cfg = config or scaled_config()
    return [
        ("Number of sites", str(cfg.num_sites)),
        ("Shared L2 Cache per site", "%d KB" % cfg.l2_cache_kb),
        ("Bandwidth per site", "%.0f GB/sec" % cfg.site_bandwidth_gb_per_s),
        ("Total peak bandwidth", "%.0f TB/sec" % cfg.total_bandwidth_tb_per_s),
        ("Cores per site", str(cfg.cores_per_site)),
        ("Threads per core", str(cfg.threads_per_core)),
        ("FPU per core", "1"),
    ]
