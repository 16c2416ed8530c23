"""Instruction-cache organization design-space explorer.

Reproduces the cache study behind the paper (and its companion paper,
"On-chip Instruction Caches for High Performance Processors"): given an
instruction fetch trace, sweep organizations under the 512-word area budget
and compare them on *average instruction fetch cost* --

    cost = 1 + miss_ratio x miss_service_cycles

The paper's two key findings, both measurable here:

* performance is more sensitive to the miss **service time** (2 vs 3
  cycles, set by whether the tags live in the datapath) than to the miss
  **ratio** differences between organizations;
* using the two miss-service cycles to fetch back two words "almost halves
  the miss ratio", making the double fetch-back the dominant win.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Sequence

from repro.core.config import IcacheConfig
from repro.icache.cache import Icache, IcacheStats


@dataclasses.dataclass
class OrganizationResult:
    """One point in the design space."""

    config: IcacheConfig
    stats: IcacheStats
    label: str = ""

    @property
    def miss_ratio(self) -> float:
        return self.stats.miss_rate

    @property
    def fetch_cost(self) -> float:
        return self.stats.average_fetch_cost(self.config.miss_cycles)

    def describe(self) -> str:
        cache = self.config
        return (f"{cache.sets}set x {cache.ways}way x {cache.block_words}w "
                f"fb={cache.fetchback} svc={cache.miss_cycles}")


def evaluate(config: IcacheConfig, trace: Sequence[int],
             label: str = "") -> OrganizationResult:
    """Run one organization over a fetch trace."""
    cache = Icache(config)
    cache.simulate_trace(trace)
    return OrganizationResult(config=config, stats=cache.stats, label=label)


def organizations(total_words: int = 512, miss_cycles: int = 2,
                  fetchback: int = 2) -> List[IcacheConfig]:
    """All (sets, ways, block) splits of a fixed ``total_words`` budget,
    by block size and then by associativity."""
    configs = []
    block = 1
    while block <= total_words:
        lines = total_words // block
        ways = 1
        while ways <= lines:
            sets = lines // ways
            if sets * ways * block == total_words and sets >= 1:
                configs.append(IcacheConfig(
                    sets=sets, ways=ways, block_words=block,
                    fetchback=fetchback, miss_cycles=miss_cycles))
            ways *= 2
        block *= 2
    return configs


def sweep_organizations(trace: Sequence[int],
                        total_words: int = 512,
                        miss_cycles: int = 2,
                        fetchback: int = 2) -> List[OrganizationResult]:
    """Every organization of :func:`organizations` over one trace."""
    return [evaluate(config, trace)
            for config in organizations(total_words, miss_cycles,
                                        fetchback)]


def fetchback_study(trace: Sequence[int],
                    base: Optional[IcacheConfig] = None,
                    counts: Iterable[int] = (1, 2, 3, 4)
                    ) -> List[OrganizationResult]:
    """Miss ratio / fetch cost as a function of the fetch-back count.

    The paper argues 2 is optimal: the two miss cycles fully use the cache
    write bandwidth; more words would not fit the miss service window (we
    model k > 2 as costing k service cycles)."""
    base = base or IcacheConfig()
    results = []
    for count in counts:
        config = dataclasses.replace(base, fetchback=count,
                                     miss_cycles=max(2, count))
        results.append(evaluate(config, trace, label=f"fetchback={count}"))
    return results


def service_time_study(trace: Sequence[int],
                       organizations: Optional[List[IcacheConfig]] = None
                       ) -> List[OrganizationResult]:
    """The paper's central tradeoff: tags in the datapath (2-cycle miss)
    versus a 'better' organization with a 3-cycle miss.

    Returns results for: the paper's organization at 2 and 3 cycle service
    times, and the best-miss-ratio organization from a sweep at 3 cycles.
    """
    results = []
    paper2 = IcacheConfig(miss_cycles=2)
    paper3 = dataclasses.replace(paper2, miss_cycles=3)
    results.append(evaluate(paper2, trace, label="paper org, 2-cycle miss"))
    results.append(evaluate(paper3, trace, label="paper org, 3-cycle miss"))
    if organizations is None:
        sweep = sweep_organizations(trace, miss_cycles=3)
        best = min(sweep, key=lambda r: r.miss_ratio)
        best.label = f"best miss ratio ({best.describe()}), 3-cycle miss"
        results.append(best)
    else:
        for config in organizations:
            results.append(evaluate(config, trace))
    return results
