#include "workload/ref_trace.hh"

namespace aosd
{

RefTraceResult
runRefTrace(const MachineDesc &machine, const RefTraceConfig &cfg)
{
    Tlb tlb(machine.tlb);
    Rng rng(cfg.seed);
    RefTraceResult r;

    // The replay's cycle domain: one cycle per reference, plus refill
    // cycles on misses and purge cycles on untagged-TLB switches.
    Cycles refill_cycles = 0; // cumulative, the occupancy aux channel
    bool sampling = cfg.samplingIntervalCycles > 0;
    bool ctrs_were_on = HwCounters::instance().enabled();
    if (sampling)
        HwCounters::instance().enable(); // resets
    CounterSampler &sampler = CounterSampler::instance();
    if (sampling)
        sampler.begin({cfg.samplingIntervalCycles,
                       cfg.samplerCapacity});

    Asid current = 1;
    double switch_prob =
        static_cast<double>(cfg.switchesPerMillion) / 1e6;

    auto touch = [&](Vpn vpn, Asid asid, bool system) {
        ++r.cycles;
        const bool hit = tlb.touch(vpn, asid, system, [&](Cycles c) {
            r.cycles += c;
            refill_cycles += c;
            return TlbFill{vpn, {}};
        });
        if (system) {
            ++r.systemRefs;
            r.systemMisses += !hit;
        } else {
            ++r.userRefs;
            r.userMisses += !hit;
        }
    };

    for (std::uint64_t i = 0; i < cfg.references; ++i) {
        if (rng.chance(switch_prob)) {
            current = 1 + static_cast<Asid>(rng.below(cfg.processes));
            r.cycles += tlb.switchContext(); // purges when untagged
        }

        bool system = rng.chance(cfg.systemFraction);
        if (system) {
            // System references: shared space (ASID 0), mild locality
            // over a sprawling pool.
            Vpn vpn;
            if (rng.chance(cfg.systemHotProbability))
                vpn = 0x100000 + rng.below(cfg.systemHotPages);
            else
                vpn = 0x110000 + rng.below(cfg.systemPoolPages);
            touch(vpn, 0, true);
        } else {
            // User references: per-process tight working set.
            Vpn base = 0x1000 * current;
            Vpn vpn;
            if (rng.chance(cfg.userHotProbability))
                vpn = base + rng.below(cfg.userHotPages);
            else
                vpn = base + 0x400 + rng.below(cfg.userColdPages);
            touch(vpn, current, false);
        }
        sampler.tick(r.cycles,
                     static_cast<double>(refill_cycles));
    }

    if (sampling) {
        sampler.finish(r.cycles,
                       static_cast<double>(refill_cycles));
        r.timeseries = sampler.series();
        HwCounters::instance().disable();
        HwCounters::instance().reset();
        if (ctrs_were_on)
            HwCounters::instance().resume();
    }
    return r;
}

} // namespace aosd
