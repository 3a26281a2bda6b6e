/**
 * @file
 * Tests for the constants the kernel charges per event: every cached
 * PrimitiveCostDb entry equals a fresh interpreter run of its handler
 * program, and the emulated test&set and software TLB-refill prices
 * equal the interpreted totals of their instruction streams, and
 * every kernel event a traffic request class issues charges exactly
 * its kernel-window price whatever state the kernel is in.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/machines.hh"
#include "cpu/exec_model.hh"
#include "cpu/handlers.hh"
#include "cpu/primitive_costs.hh"
#include "os/kernel/kernel.hh"
#include "sim/trace.hh"

namespace aosd
{
namespace
{

void
expectBreakdownEq(const CycleBreakdown &a, const CycleBreakdown &b)
{
    EXPECT_EQ(a.base, b.base);
    EXPECT_EQ(a.writeBufferStall, b.writeBufferStall);
    EXPECT_EQ(a.cacheMissStall, b.cacheMissStall);
    EXPECT_EQ(a.uncached, b.uncached);
    EXPECT_EQ(a.ctrlReg, b.ctrlReg);
    EXPECT_EQ(a.microcode, b.microcode);
    EXPECT_EQ(a.tlbOps, b.tlbOps);
    EXPECT_EQ(a.cacheMaintenance, b.cacheMaintenance);
    EXPECT_EQ(a.trapHardware, b.trapHardware);
    EXPECT_EQ(a.fpuSync, b.fpuSync);
}

TEST(KernelCostTest, CostDbEqualsTheInterpreterEveryPair)
{
    const PrimitiveCostDb &db = sharedCostDb();
    for (const MachineDesc &m : allMachines()) {
        for (Primitive p : allPrimitives) {
            SCOPED_TRACE(std::string(m.name) + "/" + primitiveName(p));
            ExecModel exec(m);
            const ExecResult want = exec.run(cachedHandler(m, p));
            const PrimitiveCost &got = db.cost(m.id, p);
            EXPECT_EQ(got.cycles, want.cycles);
            EXPECT_EQ(got.instructions, want.instructions);
            EXPECT_EQ(got.detail.cycles, want.cycles);
            EXPECT_EQ(got.detail.instructions, want.instructions);
            expectBreakdownEq(got.detail.breakdown, want.breakdown);
            ASSERT_EQ(got.detail.phases.size(), want.phases.size());
            for (std::size_t i = 0; i < want.phases.size(); ++i) {
                const PhaseResult &g = got.detail.phases[i];
                const PhaseResult &w = want.phases[i];
                EXPECT_EQ(g.kind, w.kind);
                EXPECT_EQ(g.cycles, w.cycles);
                EXPECT_EQ(g.instructions, w.instructions);
                expectBreakdownEq(g.breakdown, w.breakdown);
            }
        }
    }
}

TEST(KernelCostTest, TasCyclesEqualTheInterpretedFastTrap)
{
    InstrStream tas;
    tas.trapEnter(/*counts_as_instr=*/false)
        .microcoded(emulatedTasSequenceCycles)
        .trapReturn();
    for (const MachineDesc &m : allMachines()) {
        SCOPED_TRACE(m.name);
        ExecModel exec(m);
        EXPECT_EQ(exec.runStream(tas).cycles, emulatedTasCycles(m));
        EXPECT_EQ(kernelWindowCosts(m).emulTasCycles,
                  emulatedTasCycles(m));

        SimKernel kernel(m);
        kernel.emulateTestAndSet();
        EXPECT_EQ(kernel.elapsedCycles(), emulatedTasCycles(m));
    }
}

TEST(KernelCostTest, TlbRefillSeqTotalsEqualTheMissConstants)
{
    for (MachineId id : {MachineId::R2000, MachineId::R3000}) {
        MachineDesc m = makeMachine(id);
        ASSERT_EQ(m.tlb.management, TlbManagement::Software);
        for (bool kernel : {false, true}) {
            SCOPED_TRACE(std::string(m.name) +
                         (kernel ? " kernel" : " user"));
            Cycles want = kernel ? m.tlb.swKernelMissCycles
                                 : m.tlb.swUserMissCycles;
            ExecModel exec(m);
            EXPECT_EQ(exec.runStream(tlbRefillSeq(m, kernel)).cycles,
                      want);
        }
    }
}

// The traffic driver prices a request class once per cell from
// kernelWindowCosts() and charges the kernel once per event kind at
// the cell's end. That is exact only if one event of each kind the
// classes use advances both clocks by its window price alone, in any
// kernel state and under either charging body.
TEST(KernelCostTest, EachEventChargesItsWindowPriceInAnyState)
{
    constexpr Vpn base = 0x1000;
    constexpr std::uint64_t pages = 64;
    enum PriorState { Fresh, SwitchedAndTouched, AfterPteChanges };
    const char *const state_names[] = {"fresh", "switched and touched",
                                       "after PTE changes"};
    for (const MachineDesc &m : allMachines()) {
        const KernelWindowCosts kc = kernelWindowCosts(m);
        for (PriorState state :
             {Fresh, SwitchedAndTouched, AfterPteChanges}) {
            for (bool per_event : {false, true}) {
                SCOPED_TRACE(std::string(m.name) + ", " +
                             state_names[state] +
                             (per_event ? ", per-event" : ", closed form"));
                SimKernel kernel(m);
                AddressSpace &space = kernel.createSpace("prices");
                space.mapRange(base, pages, 0x50000, {});
                space.setWorkingSet(base, 8);
                if (state == SwitchedAndTouched) {
                    kernel.contextSwitchTo(space);
                    kernel.touchPages({base, base + 1, base + 9}, false);
                    kernel.touchPages({0x800, 0x801}, true);
                } else if (state == AfterPteChanges) {
                    const std::vector<Vpn> earlier = {base, base + 1,
                                                      base + 2, base};
                    kernel.pteChange(space, earlier, {});
                }

                if (per_event)
                    Tracer::instance().enable(1 << 10);
                EXPECT_EQ(kernel.batchActive(), !per_event);
                auto expectCharges = [&](const char *kind, Cycles price,
                                         auto event) {
                    SCOPED_TRACE(kind);
                    const Cycles elapsed = kernel.elapsedCycles();
                    const Cycles prim = kernel.primitiveCycles();
                    event();
                    EXPECT_EQ(kernel.elapsedCycles() - elapsed, price);
                    EXPECT_EQ(kernel.primitiveCycles() - prim, price);
                };
                expectCharges("syscall", kc.syscallCycles,
                              [&] { kernel.syscall(1); });
                expectCharges("trap", kc.trapCycles,
                              [&] { kernel.trap(1); });
                expectCharges("other exception", kc.trapCycles,
                              [&] { kernel.otherException(1); });
                expectCharges("thread switch", kc.switchCycles,
                              [&] { kernel.threadSwitch(1); });
                expectCharges("emulated test&set", kc.emulTasCycles,
                              [&] { kernel.emulateTestAndSet(1); });
                expectCharges("emulated instruction", kc.emulInstrCycles,
                              [&] { kernel.emulateSingleInstructions(1); });
                PageProt writable;
                writable.writable = true;
                expectCharges("pte change", kc.pteChangeCycles, [&] {
                    kernel.pteChange(space, base + 1, writable);
                });
                if (per_event) {
                    Tracer::instance().disable();
                    Tracer::instance().clear();
                }
            }
        }
    }
}

TEST(KernelCostDeathTest, TlbRefillSeqPanicsOnHardwareTlb)
{
    MachineDesc cvax = makeMachine(MachineId::CVAX);
    ASSERT_EQ(cvax.tlb.management, TlbManagement::Hardware);
    EXPECT_DEATH(tlbRefillSeq(cvax, false), "hardware-managed");
}

} // namespace
} // namespace aosd
