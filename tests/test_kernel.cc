/**
 * @file
 * Unit tests for the instrumented simulated kernel (SimKernel):
 * counting, charging, context-switch side effects, the virtual-cache
 * flush contract, ASID recycling.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/machines.hh"
#include "counting_scope.hh"
#include "mem/cache.hh"
#include "os/kernel/kernel.hh"

namespace aosd
{
namespace
{

TEST(SimKernel, SyscallChargesAndCounts)
{
    SimKernel k(makeMachine(MachineId::R3000));
    Cycles expected = sharedCostDb().cycles(MachineId::R3000,
                                            Primitive::NullSyscall);
    k.syscall();
    k.syscall();
    EXPECT_EQ(k.counts().syscalls, 2u);
    EXPECT_EQ(k.elapsedCycles(), 2 * expected);
    EXPECT_EQ(k.primitiveCycles(), 2 * expected);
}

TEST(SimKernel, TrapAndExceptionCounts)
{
    SimKernel k(makeMachine(MachineId::R3000));
    k.trap();
    k.otherException();
    EXPECT_EQ(k.counts().traps, 1u);
    EXPECT_EQ(k.counts().otherExceptions, 1u);
}

TEST(SimKernel, ContextSwitchCountsBothSwitchKinds)
{
    SimKernel k(makeMachine(MachineId::R3000));
    AddressSpace &a = k.createSpace("a");
    k.contextSwitchTo(a);
    // An address-space switch implies a thread switch (Table 7 note).
    EXPECT_EQ(k.counts().addrSpaceSwitches, 1u);
    EXPECT_EQ(k.counts().threadSwitches, 1u);
    k.threadSwitch();
    EXPECT_EQ(k.counts().threadSwitches, 2u);
    EXPECT_EQ(k.counts().addrSpaceSwitches, 1u);
}

TEST(SimKernel, SwitchToCurrentSpaceIsFree)
{
    SimKernel k(makeMachine(MachineId::R3000));
    AddressSpace &a = k.createSpace("a");
    k.contextSwitchTo(a);
    Cycles before = k.elapsedCycles();
    k.contextSwitchTo(a);
    EXPECT_EQ(k.elapsedCycles(), before);
    EXPECT_EQ(k.counts().addrSpaceSwitches, 1u);
}

TEST(SimKernel, UntaggedTlbPurgedOnSwitch)
{
    CountingScope counting;
    SimKernel k(makeMachine(MachineId::CVAX)); // untagged TLB
    AddressSpace &a = k.createSpace("a");
    AddressSpace &b = k.createSpace("b");
    a.mapRange(0x100, 4, 0x900, {});
    a.setWorkingSet(0x100, 4);
    k.contextSwitchTo(a);
    EXPECT_GT(k.tlb().validEntries(), 0u);
    std::size_t after_a = k.tlb().validEntries();
    k.contextSwitchTo(b);
    // Purge happened; only b's (empty) refill remains.
    EXPECT_LT(k.tlb().validEntries(), after_a + 1);
    EXPECT_EQ(counting.value(HwCounter::TlbPurges), 2u);
}

TEST(SimKernel, TaggedTlbSurvivesSwitch)
{
    SimKernel k(makeMachine(MachineId::R3000));
    AddressSpace &a = k.createSpace("a");
    AddressSpace &b = k.createSpace("b");
    a.mapRange(0x100, 4, 0x900, {});
    a.setWorkingSet(0x100, 4);
    k.contextSwitchTo(a);
    k.contextSwitchTo(b);
    // a's entries still present under its ASID.
    EXPECT_GE(k.tlb().entriesForAsid(a.asid()), 4u);
}

TEST(SimKernel, WorkingSetRefillCountsUserMisses)
{
    SimKernel k(makeMachine(MachineId::R3000));
    AddressSpace &a = k.createSpace("a");
    a.mapRange(0x100, 8, 0x900, {});
    a.setWorkingSet(0x100, 8);
    k.contextSwitchTo(a);
    EXPECT_GE(k.counts().userTlbMisses, 8u);
    std::uint64_t first = k.counts().userTlbMisses;
    k.touchWorkingSet(); // warm now
    EXPECT_EQ(k.counts().userTlbMisses, first);
}

TEST(SimKernel, KernelTouchesCountKernelMisses)
{
    SimKernel k(makeMachine(MachineId::R3000));
    k.touchPages({0x800, 0x801}, /*kernel_space=*/true);
    EXPECT_EQ(k.counts().kernelTlbMisses, 2u);
    k.touchPages({0x800}, true); // warm
    EXPECT_EQ(k.counts().kernelTlbMisses, 2u);
}

TEST(SimKernel, SoftwareKernelMissesAreExpensive)
{
    // MIPS: a kernel-space miss costs a few hundred cycles (s5).
    SimKernel k(makeMachine(MachineId::R3000));
    Cycles before = k.elapsedCycles();
    k.touchPages({0xC00}, true);
    Cycles cost = k.elapsedCycles() - before;
    EXPECT_GE(cost, 300u);
}

TEST(SimKernel, EmulatedInstructions)
{
    SimKernel k(makeMachine(MachineId::R3000));
    k.emulateInstructions(10);
    k.emulateTestAndSet();
    EXPECT_EQ(k.counts().emulatedInstrs, 11u);
    EXPECT_GT(k.primitiveCycles(), 0u);
}

TEST(SimKernel, PteChangeInvalidatesTlbEntry)
{
    SimKernel k(makeMachine(MachineId::R3000));
    AddressSpace &a = k.createSpace("a");
    a.mapRange(0x100, 1, 0x900, {});
    a.setWorkingSet(0x100, 1);
    k.contextSwitchTo(a);
    EXPECT_TRUE(k.tlb().lookup(0x100, a.asid()).hit);
    PageProt ro;
    ro.writable = false;
    k.pteChange(a, 0x100, ro);
    EXPECT_FALSE(k.tlb().lookup(0x100, a.asid()).hit);
    EXPECT_EQ(k.counts().pteChanges, 1u);
    // The page table itself was updated.
    EXPECT_FALSE(a.pageTable().walk(0x100).pte->prot.writable);
}

TEST(SimKernel, AsidRecyclingPurgesStaleEntries)
{
    MachineDesc m = makeMachine(MachineId::R3000);
    m.tlb.pidCount = 4; // tiny ASID space to force recycling
    SimKernel k(m);
    AddressSpace &first = k.createSpace("first");
    ASSERT_EQ(first.asid(), 1u);
    first.mapRange(0x100, 1, 0x900, {});
    k.contextSwitchTo(first);
    k.touchPages({0x100}, false);
    k.touchPages({0x800}, /*kernel_space=*/true); // ASID 0's own entry
    ASSERT_TRUE(k.tlb().lookup(0x100, first.asid()).hit);

    // ASIDs 2 and 3, then the wrap hands out ASID 1 again.
    std::vector<AddressSpace *> spaces;
    for (int i = 0; i < 3; ++i)
        spaces.push_back(&k.createSpace("s" + std::to_string(i)));
    AddressSpace &reused = *spaces.back();
    ASSERT_EQ(reused.asid(), first.asid());
    // The new owner must not see the previous owner's translation,
    // and the kernel's translations survive the purge.
    EXPECT_FALSE(k.tlb().lookup(0x100, reused.asid()).hit);
    EXPECT_TRUE(k.tlb().lookup(0x800, 0, true).hit);

    for (int i = 3; i < 10; ++i)
        spaces.push_back(&k.createSpace("s" + std::to_string(i)));
    // ASIDs must stay within the architectural range.
    for (AddressSpace *s : spaces)
        EXPECT_LT(s->asid(), 4u);
}

/** Swept lines and cycles of `op` on a fresh reference Cache. */
template <typename Op>
std::pair<std::uint64_t, Cycles>
referenceSweep(const CacheDesc &d, Op op)
{
    Cache ref(d);
    std::uint64_t before =
        HwCounters::instance().value(HwCounter::CacheFlushLines);
    Cycles cost = op(ref);
    return {HwCounters::instance().value(HwCounter::CacheFlushLines) -
                before,
            cost};
}

/** Records named `name` in the tracer's ring. */
std::vector<TraceRecord>
traced(const char *name)
{
    std::vector<TraceRecord> out;
    for (const TraceRecord &r : Tracer::instance().snapshot())
        if (std::string(r.name) == name)
            out.push_back(r);
    return out;
}

TEST(SimKernel, FlushChargesMatchReferenceCache)
{
    // The kernel charges each §3.2 sweep as a per-machine constant;
    // it must equal what the functional Cache does on the same
    // machine: flushPage's swept lines per PTE change (virtual caches
    // only), flushAll()'s lines and cost per switch (untagged virtual
    // caches only).
    for (const MachineDesc &m : allMachines()) {
        SCOPED_TRACE(m.name);
        CountingScope counting;
        const bool virt = m.cache.indexing == CacheIndexing::Virtual;
        const bool untagged = virt && m.cache.flushOnContextSwitch;
        const std::uint64_t page_lines =
            referenceSweep(m.cache, [](Cache &c) {
                return c.flushPage(0x100000, 1);
            }).first;
        const auto [all_lines, all_cost] =
            referenceSweep(m.cache, [](Cache &c) { return c.flushAll(); });
        const std::uint64_t exp_page = virt ? page_lines : 0;
        const std::uint64_t exp_switch = untagged ? all_lines : 0;
        const Cycles exp_switch_cycles = untagged ? all_cost : 0;
        if (m.id == MachineId::SPARC) {
            EXPECT_EQ(exp_page, 256u);
            EXPECT_EQ(exp_switch, 0u);
        } else if (m.id == MachineId::I860) {
            EXPECT_EQ(exp_page, 128u);
            EXPECT_EQ(exp_switch, 256u);
            EXPECT_EQ(exp_switch_cycles, 768u);
        } else {
            EXPECT_FALSE(virt);
            EXPECT_EQ(exp_page, 0u);
            EXPECT_EQ(exp_switch, 0u);
        }

        SimKernel k(m);
        AddressSpace &a = k.createSpace("a");
        AddressSpace &b = k.createSpace("b");
        a.mapRange(0x100, 4, 0x900, {});
        PageProt ro;
        ro.writable = false;
        const Cycles pte_cycles =
            sharedCostDb().cycles(m.id, Primitive::PteChange);
        const Cycles switch_cycles =
            sharedCostDb().cycles(m.id, Primitive::ContextSwitch) +
            (m.tlb.processIdTags ? 0 : m.tlb.purgeAllCycles);

        // One PTE change: the primitive already prices the sweep, so
        // only the lines are counted.
        std::uint64_t lines0 = counting.value(HwCounter::CacheFlushLines);
        Cycles t0 = k.elapsedCycles();
        k.pteChange(a, 0x100, ro);
        EXPECT_EQ(counting.value(HwCounter::CacheFlushLines) - lines0,
                  exp_page);
        EXPECT_EQ(counting.value(HwCounter::CacheFlushCycles), 0u);
        EXPECT_EQ(k.elapsedCycles() - t0, pte_cycles);

        // A page list counts the same lines per page.
        lines0 = counting.value(HwCounter::CacheFlushLines);
        t0 = k.elapsedCycles();
        k.pteChange(a, std::vector<Vpn>{0x101, 0x102, 0x103}, ro);
        EXPECT_EQ(counting.value(HwCounter::CacheFlushLines) - lines0,
                  3 * exp_page);
        EXPECT_EQ(k.elapsedCycles() - t0, 3 * pte_cycles);

        // One context switch (empty working set: no refills).
        lines0 = counting.value(HwCounter::CacheFlushLines);
        t0 = k.elapsedCycles();
        k.contextSwitchTo(a);
        EXPECT_EQ(counting.value(HwCounter::CacheFlushLines) - lines0,
                  exp_switch);
        EXPECT_EQ(counting.value(HwCounter::CacheFlushCycles),
                  exp_switch_cycles);
        EXPECT_EQ(k.elapsedCycles() - t0,
                  switch_cycles + exp_switch_cycles);

        // The tracer sees one instant per sweep, the lines as its arg.
        Tracer::instance().enable(1 << 12);
        k.pteChange(a, 0x100, ro);
        k.contextSwitchTo(b);
        const auto pages = traced("cache_flush_page");
        const auto alls = traced("cache_flush_all");
        ASSERT_EQ(pages.size(), virt ? 1u : 0u);
        ASSERT_EQ(alls.size(), untagged ? 1u : 0u);
        for (const TraceRecord &r : pages)
            EXPECT_EQ(r.arg, exp_page);
        for (const TraceRecord &r : alls)
            EXPECT_EQ(r.arg, exp_switch);
    }
}

TEST(SimKernel, TracedTouchPagesEmitsEveryMissAndFill)
{
    // A working set four pages larger than the TLB, touched twice in
    // one call. The first user miss also misses on the space's page-
    // table page (s5); every later user miss hits it, which keeps it
    // most recently used, so the user pages cycle through entries-1
    // slots under LRU and every one of the 2W references misses.
    for (MachineId id : {MachineId::R3000, MachineId::CVAX}) {
        const MachineDesc m = makeMachine(id);
        SCOPED_TRACE(m.name);
        const bool sw = m.tlb.management == TlbManagement::Software;
        const Cycles user_cost = sw ? m.tlb.swUserMissCycles
                                    : m.tlb.hwMissCycles;
        const Cycles kernel_cost = sw ? m.tlb.swKernelMissCycles
                                      : m.tlb.hwMissCycles;
        const std::uint32_t w = m.tlb.entries + 4;

        SimKernel k(m);
        AddressSpace &a = k.createSpace("a");
        a.mapRange(0x4000, w, 0x9000, {});
        k.contextSwitchTo(a); // empty working set: no TLB traffic
        CountingScope counting;
        Tracer::instance().enable(1 << 12);

        std::vector<Vpn> pages;
        for (int pass = 0; pass < 2; ++pass)
            for (Vpn v = 0x4000; v < 0x4000 + w; ++v)
                pages.push_back(v);
        const Cycles t0 = k.elapsedCycles();
        k.touchPages(pages, false);

        std::vector<TraceRecord> want;
        Cycles t = t0;
        std::uint64_t misses = 0;
        auto miss = [&](const char *name, Cycles cost, Vpn vpn) {
            want.push_back({t, 0, cost, name, TraceEvent::TlbMiss,
                            TracePhase::Instant});
            want.push_back({t, 0, ++misses, "tlb_misses",
                            TraceEvent::Counter, TracePhase::Counter});
            t += cost;
            want.push_back({t, 0, vpn, "tlb_fill", TraceEvent::TlbFill,
                            TracePhase::Instant});
        };
        for (std::size_t i = 0; i < pages.size(); ++i) {
            miss("tlb_miss_user", user_cost, pages[i]);
            if (i == 0)
                miss("tlb_miss_kernel", kernel_cost, 0x800 + a.asid());
        }

        const auto got = Tracer::instance().snapshot();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            SCOPED_TRACE(::testing::Message() << "record " << i);
            EXPECT_STREQ(got[i].name, want[i].name);
            EXPECT_EQ(got[i].cycle, want[i].cycle);
            EXPECT_EQ(got[i].arg, want[i].arg);
            EXPECT_EQ(got[i].event, want[i].event);
            EXPECT_EQ(got[i].phase, want[i].phase);
        }
        EXPECT_EQ(k.elapsedCycles(), t);
        EXPECT_EQ(k.counts().userTlbMisses, 2u * w);
        EXPECT_EQ(k.counts().kernelTlbMisses, 1u);
        EXPECT_EQ(counting.value(HwCounter::TlbMisses), 2u * w + 1);
        EXPECT_EQ(counting.value(HwCounter::TlbHits), 2u * w - 1);
        EXPECT_EQ(counting.value(HwCounter::TlbRefillCycles), t - t0);
    }
}

TEST(SimKernel, RunUserCodeScalesWithAppPerformance)
{
    SimKernel fast(makeMachine(MachineId::R3000));
    SimKernel slow(makeMachine(MachineId::CVAX));
    fast.runUserCode(1000000);
    slow.runUserCode(1000000);
    // Same work: the 6.7x machine finishes in much less time.
    EXPECT_LT(fast.elapsedMicros() * 4, slow.elapsedMicros());
}

TEST(SimKernel, ResetAccountingClearsEverything)
{
    SimKernel k(makeMachine(MachineId::R3000));
    AddressSpace &s = k.createSpace("s");
    s.mapRange(0x1000, 4, 0x9000, {});
    s.setWorkingSet(0x1000, 4);
    k.syscall();
    k.trap();
    k.otherException();
    k.threadSwitch();
    k.contextSwitchTo(s); // misses on the working set and its tables
    k.emulateInstructions(3);
    k.pteChange(s, 0x1000, {});
    // Every count is live before the reset.
    const SimKernel::Counts &c = k.counts();
    for (std::uint64_t n :
         {c.syscalls, c.traps, c.addrSpaceSwitches, c.threadSwitches,
          c.emulatedInstrs, c.kernelTlbMisses, c.userTlbMisses,
          c.otherExceptions, c.pteChanges})
        EXPECT_GT(n, 0u);
    k.resetAccounting();
    EXPECT_EQ(k.elapsedCycles(), 0u);
    EXPECT_EQ(k.primitiveCycles(), 0u);
    EXPECT_EQ(k.counts(), SimKernel::Counts{});
}

TEST(SimKernel, ElapsedMicrosMatchesClock)
{
    SimKernel k(makeMachine(MachineId::R3000)); // 25 MHz
    k.chargeCycles(25);
    EXPECT_NEAR(k.elapsedMicros(), 1.0, 1e-9);
    k.chargeMicros(9.0);
    EXPECT_NEAR(k.elapsedMicros(), 10.0, 1e-9);
}

// Every kernel event kind's records in the tracer's ring: event,
// phase, name, cycle, duration and arg, one kind at a time.
TEST(SimKernel, TracedRecordsPerEventKind)
{
    struct Want
    {
        TraceEvent event;
        TracePhase phase;
        std::string name;
        Cycles cycle;
        Cycles duration;
        std::uint64_t arg;
    };
    for (MachineId mid : {MachineId::R3000, MachineId::SPARC}) {
        SCOPED_TRACE(machineSlug(mid));
        const MachineDesc m = makeMachine(mid);
        auto cost = [&](Primitive p) {
            return sharedCostDb().cycles(mid, p);
        };
        CountingScope counting;
        Tracer::instance().enable(1 << 10);
        SimKernel k(m);
        AddressSpace &a = k.createSpace("a");
        a.mapRange(0x100, 4, 0x900, {});
        k.chargeCycles(1000);
        // Run `event` from the kernel's clock in a fresh trace session
        // (its clock at 0) and compare the records it adds.
        auto check = [&](const char *kind, auto event,
                         auto want_at) {
            SCOPED_TRACE(kind);
            const Cycles t = k.elapsedCycles();
            Tracer::instance().clear();
            event();
            const std::vector<Want> want = want_at(t);
            const auto got = Tracer::instance().snapshot();
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].event, want[i].event) << i;
                EXPECT_EQ(got[i].phase, want[i].phase) << i;
                EXPECT_EQ(std::string(got[i].name), want[i].name) << i;
                EXPECT_EQ(got[i].cycle, want[i].cycle) << i;
                EXPECT_EQ(got[i].duration, want[i].duration) << i;
                EXPECT_EQ(got[i].arg, want[i].arg) << i;
            }
        };
        const Cycles sys = cost(Primitive::NullSyscall);
        const Cycles trap = cost(Primitive::Trap);
        const Cycles sw = cost(Primitive::ContextSwitch);
        check("syscall", [&] { k.syscall(); }, [&](Cycles t) {
            return std::vector<Want>{{TraceEvent::Syscall,
                                      TracePhase::Complete, "syscall",
                                      t, sys, 0}};
        });
        check("trap", [&] { k.trap(); }, [&](Cycles t) {
            return std::vector<Want>{
                {TraceEvent::TrapEnter, TracePhase::Begin, "trap", t, 0,
                 0},
                {TraceEvent::TrapExit, TracePhase::End, "trap",
                 t + trap, 0, 0}};
        });
        check("exception", [&] { k.otherException(); }, [&](Cycles t) {
            return std::vector<Want>{{TraceEvent::TrapEnter,
                                      TracePhase::Complete, "exception",
                                      t, trap, 0}};
        });
        check("thread switch", [&] { k.threadSwitch(); }, [&](Cycles t) {
            return std::vector<Want>{{TraceEvent::ThreadSwitch,
                                      TracePhase::Complete,
                                      "thread_switch", t, sw, 0}};
        });
        check("emulate 3", [&] { k.emulateInstructions(3); },
              [&](Cycles t) {
                  return std::vector<Want>{{TraceEvent::EmulatedInstr,
                                            TracePhase::Instant,
                                            "emulate", t, 0, 3}};
              });
        check("test&set", [&] { k.emulateTestAndSet(); },
              [](Cycles) { return std::vector<Want>{}; });
        PageProt ro;
        ro.writable = false;
        check("pte change", [&] { k.pteChange(a, 0x100, ro); },
              [&](Cycles t) {
                  if (mid != MachineId::SPARC)
                      return std::vector<Want>{};
                  return std::vector<Want>{
                      {TraceEvent::CacheFlush, TracePhase::Instant,
                       "cache_flush_page", t, 0,
                       pageBytes / m.cache.lineBytes}};
              });
        Tracer::instance().disable();
    }
}

TEST(SimKernelDeathTest, SwitchToForeignSpacePanics)
{
    SimKernel k1(makeMachine(MachineId::R3000));
    SimKernel k2(makeMachine(MachineId::R3000));
    AddressSpace &foreign = k2.createSpace("foreign");
    EXPECT_DEATH(k1.contextSwitchTo(foreign), "does not own");
}

} // namespace
} // namespace aosd
