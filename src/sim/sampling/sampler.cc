#include "sim/sampling/sampler.hh"

#include "sim/trace.hh"

namespace aosd
{

CounterSampler &
CounterSampler::instance()
{
    static thread_local CounterSampler sampler;
    return sampler;
}

void
CounterSampler::begin(const SamplerConfig &cfg, Cycles start_cycle,
                      double aux)
{
    series_ = CounterTimeSeries{};
    series_.intervalCycles = cfg.intervalCycles;
    series_.startCycle = start_cycle;
    series_.endCycle = start_cycle;
    series_.base = {start_cycle, aux,
                    HwCounters::instance().snapshot()};
    series_.samples.clear();
    series_.samples.reserve(cfg.capacity);
    cap = cfg.capacity ? cfg.capacity : 1;
    nextDue = start_cycle + cfg.intervalCycles;
    lastSample = start_cycle;
    setObserving(observeSampler, cfg.intervalCycles > 0);
}

void
CounterSampler::take(Cycles now, double aux)
{
    record(now, aux, HwCounters::instance().snapshot());
}

void
CounterSampler::record(Cycles now, double aux, CounterSet &&snap)
{
    if (series_.samples.size() == cap) {
        // Ring semantics: overwrite the oldest sample.
        series_.samples.erase(series_.samples.begin());
        ++series_.dropped;
    }
    series_.samples.push_back({now, aux, std::move(snap)});
    series_.endCycle = now;
    lastSample = now;
    nextDue = now + series_.intervalCycles;

    if (tracerEnabled()) {
        // Cumulative-within-the-window counter tracks; Perfetto draws
        // the series, the rates live in timeseries.json.
        Tracer &t = Tracer::instance();
        const CounterSample &s = series_.samples.back();
        auto track = [&](const char *name, HwCounter c) {
            t.recordAt(now, TraceEvent::Counter, TracePhase::Counter,
                       name,
                       s.counters.get(c) - series_.base.counters.get(c));
        };
        track("ts/tlb_misses", HwCounter::TlbMisses);
        track("ts/kernel_syscalls", HwCounter::KernelSyscalls);
        track("ts/thread_switches", HwCounter::ThreadSwitches);
        track("ts/emulated_instrs", HwCounter::EmulatedInstrs);
        track("ts/wb_stall_cycles", HwCounter::WbStallCycles);
        Cycles span = now > series_.startCycle
                          ? now - series_.startCycle
                          : 1;
        double occ = 100.0 * (s.aux - series_.base.aux) /
                     static_cast<double>(span);
        t.recordAt(now, TraceEvent::Counter, TracePhase::Counter,
                   "ts/kernel_occupancy_pct",
                   occ > 0 ? static_cast<std::uint64_t>(occ + 0.5)
                           : 0);
    }
}

void
CounterSampler::tickRun(Cycles start, Cycles per_event,
                        std::uint64_t n,
                        const CounterSet &per_event_counters,
                        std::uint64_t aux_start,
                        std::uint64_t aux_per_event)
{
    if (!samplingEnabled() || n == 0)
        return;
    if (per_event == 0) {
        // Zero-cost events never advance the clock, so the per-event
        // loop samples at most once: at the first event, iff the
        // boundary was already due (after which nextDue moves past
        // the stationary clock).
        if (start >= nextDue)
            take(start,
                 static_cast<double>(aux_start + aux_per_event));
        return;
    }
    const CounterSet now_counters = HwCounters::instance().snapshot();
    for (;;) {
        // First event of the run whose completion reaches the due
        // boundary — the event the per-event loop would sample at.
        // nextDue <= start can only hold before the run's first
        // sample; afterwards record() pushed it past the clock.
        std::uint64_t i = 1;
        if (nextDue > start)
            i = (nextDue - start + per_event - 1) / per_event;
        if (i > n)
            return;
        CounterSet snap = now_counters;
        for (std::size_t c = 0; c < numHwCounters; ++c) {
            auto hc = static_cast<HwCounter>(c);
            std::uint64_t per = per_event_counters.get(hc);
            if (per && !counterIsHighWater(hc))
                snap.set(hc, snap.get(hc) - per * (n - i));
        }
        record(start + per_event * i,
               static_cast<double>(aux_start + aux_per_event * i),
               std::move(snap));
    }
}

void
CounterSampler::finish(Cycles end_cycle, double aux)
{
    if (!samplingEnabled())
        return;
    if (end_cycle > lastSample)
        take(end_cycle, aux);
    series_.endCycle = end_cycle;
    setObserving(observeSampler, false);
}

Json
CounterTimeSeries::toJson() const
{
    Json out = Json::object();
    out.set("interval_cycles", Json(intervalCycles));
    out.set("start_cycle", Json(startCycle));
    out.set("end_cycle", Json(endCycle));
    out.set("samples",
            Json(static_cast<std::uint64_t>(samples.size())));
    out.set("dropped_samples", Json(dropped));

    Json cycles_arr = Json::array();
    for (const CounterSample &s : samples)
        cycles_arr.push(Json(s.cycle));
    out.set("cycles", std::move(cycles_arr));

    // Per-interval rates: sample i differenced against sample i-1
    // (the first against the window baseline).
    auto rate = [&](auto &&value_of) {
        Json arr = Json::array();
        for (std::size_t i = 0; i < samples.size(); ++i) {
            const CounterSample &prev = i ? samples[i - 1] : base;
            const CounterSample &cur = samples[i];
            Cycles dc = cur.cycle > prev.cycle
                            ? cur.cycle - prev.cycle
                            : 0;
            arr.push(Json(value_of(prev, cur, dc)));
        }
        return arr;
    };
    auto per_kcycle = [&](HwCounter c) {
        return rate([c](const CounterSample &p, const CounterSample &s,
                        Cycles dc) {
            if (!dc)
                return 0.0;
            auto de = static_cast<double>(s.counters.get(c) -
                                          p.counters.get(c));
            return 1000.0 * de / static_cast<double>(dc);
        });
    };
    auto miss_rate_pct = [&](HwCounter hits, HwCounter misses) {
        return rate([hits, misses](const CounterSample &p,
                                   const CounterSample &s, Cycles) {
            auto dh = static_cast<double>(s.counters.get(hits) -
                                          p.counters.get(hits));
            auto dm = static_cast<double>(s.counters.get(misses) -
                                          p.counters.get(misses));
            return dh + dm > 0 ? 100.0 * dm / (dh + dm) : 0.0;
        });
    };

    Json series = Json::object();
    series.set("tlb_misses_per_kcycle",
               per_kcycle(HwCounter::TlbMisses));
    series.set("tlb_refill_cycles_per_kcycle",
               per_kcycle(HwCounter::TlbRefillCycles));
    series.set("wb_stall_cycles_per_kcycle",
               per_kcycle(HwCounter::WbStallCycles));
    series.set("syscalls_per_kcycle",
               per_kcycle(HwCounter::KernelSyscalls));
    series.set("context_switches_per_kcycle",
               per_kcycle(HwCounter::ContextSwitches));
    series.set("thread_switches_per_kcycle",
               per_kcycle(HwCounter::ThreadSwitches));
    series.set("emulated_instrs_per_kcycle",
               per_kcycle(HwCounter::EmulatedInstrs));
    series.set("procedure_calls_per_kcycle",
               per_kcycle(HwCounter::ProcedureCalls));
    series.set("tlb_miss_rate_pct",
               miss_rate_pct(HwCounter::TlbHits,
                             HwCounter::TlbMisses));
    series.set("cache_miss_rate_pct",
               miss_rate_pct(HwCounter::CacheHits,
                             HwCounter::CacheMisses));
    series.set("kernel_window_occupancy_pct",
               rate([](const CounterSample &p, const CounterSample &s,
                       Cycles dc) {
                   return dc ? 100.0 * (s.aux - p.aux) /
                                   static_cast<double>(dc)
                             : 0.0;
               }));
    out.set("series", std::move(series));
    return out;
}

} // namespace aosd
