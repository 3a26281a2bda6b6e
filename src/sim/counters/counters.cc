#include "sim/counters/counters.hh"

namespace aosd
{

namespace ctrdetail
{
constinit thread_local std::array<std::uint64_t, numHwCounters> vals{};
} // namespace ctrdetail

const char *
counterName(HwCounter c)
{
    switch (c) {
      case HwCounter::InstrRetired:
        return "instr_retired";
      case HwCounter::IssueSlots:
        return "issue_slots";
      case HwCounter::Nops:
        return "nops";
      case HwCounter::Branches:
        return "branches";
      case HwCounter::InterlockCycles:
        return "interlock_cycles";
      case HwCounter::Loads:
        return "loads";
      case HwCounter::Stores:
        return "stores";
      case HwCounter::UncachedAccesses:
        return "uncached_accesses";
      case HwCounter::AtomicOps:
        return "atomic_ops";
      case HwCounter::ColdMisses:
        return "cold_misses";
      case HwCounter::CtrlRegAccesses:
        return "ctrl_reg_accesses";
      case HwCounter::MicrocodeOps:
        return "microcode_ops";
      case HwCounter::MicrocodeCycles:
        return "microcode_cycles";
      case HwCounter::FpuSyncCycles:
        return "fpu_sync_cycles";
      case HwCounter::TrapEnters:
        return "trap_enters";
      case HwCounter::TrapReturns:
        return "trap_returns";
      case HwCounter::WindowOverflows:
        return "window_overflows";
      case HwCounter::WindowUnderflows:
        return "window_underflows";
      case HwCounter::WindowsSpilled:
        return "windows_spilled";
      case HwCounter::TlbWriteOps:
        return "tlb_write_ops";
      case HwCounter::TlbProbeOps:
        return "tlb_probe_ops";
      case HwCounter::TlbPurgeEntryOps:
        return "tlb_purge_entry_ops";
      case HwCounter::TlbPurgeAllOps:
        return "tlb_purge_all_ops";
      case HwCounter::CacheFlushLines:
        return "cache_flush_lines";
      case HwCounter::WbStores:
        return "wb_stores";
      case HwCounter::WbStalls:
        return "wb_stalls";
      case HwCounter::WbReadWaits:
        return "wb_read_waits";
      case HwCounter::WbStallCycles:
        return "wb_stall_cycles";
      case HwCounter::WbOccupancyHighWater:
        return "wb_occupancy_high_water";
      case HwCounter::CacheHits:
        return "cache_hits";
      case HwCounter::CacheMisses:
        return "cache_misses";
      case HwCounter::CacheWriteThroughs:
        return "cache_write_throughs";
      case HwCounter::TlbHits:
        return "tlb_hits";
      case HwCounter::TlbMisses:
        return "tlb_misses";
      case HwCounter::TlbRefillCycles:
        return "tlb_refill_cycles";
      case HwCounter::TlbPurges:
        return "tlb_purges";
      case HwCounter::AsidRollovers:
        return "asid_rollovers";
      case HwCounter::KernelTraps:
        return "kernel_traps";
      case HwCounter::KernelSyscalls:
        return "kernel_syscalls";
      case HwCounter::ContextSwitches:
        return "context_switches";
      case HwCounter::ThreadSwitches:
        return "thread_switches";
      case HwCounter::EmulatedInstrs:
        return "emulated_instrs";
      case HwCounter::IpcMessages:
        return "ipc_messages";
      case HwCounter::IpcBytesCopied:
        return "ipc_bytes_copied";
      case HwCounter::IpcFastPath:
        return "ipc_fast_path";
      case HwCounter::IpcSlowPath:
        return "ipc_slow_path";
      case HwCounter::ProcedureCalls:
        return "procedure_calls";
      case HwCounter::PteChanges:
        return "pte_changes";
      case HwCounter::EmulatedTasOps:
        return "emulated_tas_ops";
      case HwCounter::TlbPurgeCycles:
        return "tlb_purge_cycles";
      case HwCounter::CacheFlushCycles:
        return "cache_flush_cycles";
      case HwCounter::NumCounters:
        break;
    }
    return "unknown";
}

CounterSet
CounterSet::delta(const CounterSet &start) const
{
    CounterSet out;
    for (std::size_t i = 0; i < numHwCounters; ++i) {
        auto c = static_cast<HwCounter>(i);
        out.v[i] = counterIsHighWater(c) ? v[i] : v[i] - start.v[i];
    }
    return out;
}

std::uint64_t
CounterSet::totalEvents() const
{
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < numHwCounters; ++i)
        if (!counterIsHighWater(static_cast<HwCounter>(i)))
            n += v[i];
    return n;
}

Json
CounterSet::toJson() const
{
    Json out = Json::object();
    for (std::size_t i = 0; i < numHwCounters; ++i)
        out.set(counterName(static_cast<HwCounter>(i)), Json(v[i]));
    return out;
}

HwCounters &
HwCounters::instance()
{
    static HwCounters counters;
    return counters;
}

CounterSet
HwCounters::snapshot() const
{
    CounterSet out;
    for (std::size_t i = 0; i < numHwCounters; ++i)
        out.set(static_cast<HwCounter>(i), ctrdetail::vals[i]);
    return out;
}

} // namespace aosd
