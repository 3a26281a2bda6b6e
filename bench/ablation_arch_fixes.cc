/**
 * @file
 * Ablation A8 (§2.5, §3.1, §3.2): the architecture improvements the
 * paper proposes, applied to the simulated handlers.
 *
 * For each fix: the stock primitive, the improved one, and the gain —
 * quantifying the paper's qualitative suggestions.
 */

#include <cstdio>

#include "core/aosd.hh"

using namespace aosd;

int
main()
{
    std::printf("Ablation: the paper's proposed architecture fixes\n\n");

    TextTable t;
    t.header({"fix", "machine/primitive", "stock us", "fixed us",
              "stock instr", "fixed instr", "speedup"});

    for (ArchFix fix : allArchFixes) {
        for (const MachineDesc &m : allMachines()) {
            for (Primitive p : allPrimitives) {
                if (!archFixApplies(fix, m.id, p))
                    continue;
                ExecModel exec(m);
                ExecResult stock = exec.run(buildHandler(m, p));
                exec.reset();
                ExecResult fixed =
                    exec.run(buildImprovedHandler(m, p, fix));
                std::string target =
                    m.name + " " + primitiveName(p);
                t.row({archFixName(fix), target,
                       TextTable::num(m.clock.cyclesToMicros(
                                          stock.cycles),
                                      1),
                       TextTable::num(m.clock.cyclesToMicros(
                                          fixed.cycles),
                                      1),
                       std::to_string(stock.instructions),
                       std::to_string(fixed.instructions),
                       TextTable::num(
                           static_cast<double>(stock.cycles) /
                               static_cast<double>(fixed.cycles),
                           2) + "x"});
            }
        }
    }
    std::printf("%s\n", t.render().c_str());

    std::printf("What the fixed machines would mean for LRPC (the "
                "kernel-transfer bottleneck):\n");
    // Recompute the i860 LRPC with tagged caches folded into the
    // context-switch primitive via a modified machine description.
    {
        MachineDesc i860 = sharedCostDb().machine(MachineId::I860);
        LrpcBreakdown stock = LrpcModel(i860).nullCall();

        MachineDesc tagged = i860;
        tagged.cache.flushOnContextSwitch = false;
        tagged.tlb.processIdTags = true;
        tagged.tlb.pidCount = 64;
        // Rebuild primitive costs under the modified description.
        ExecModel exec(tagged);
        Cycles cs = exec.run(buildImprovedHandler(
                                 tagged, Primitive::ContextSwitch,
                                 ArchFix::CacheContextTags))
                        .cycles;
        std::printf("  i860 context switch: %.1f -> %.1f us with "
                    "cache/TLB context tags\n",
                    sharedCostDb().micros(MachineId::I860,
                                          Primitive::ContextSwitch),
                    tagged.clock.cyclesToMicros(cs));
        std::printf("  i860 null LRPC today: %.1f us (%.0f%% TLB "
                    "refill after untagged purges)\n",
                    stock.totalUs(), stock.tlbPercent());
        LrpcBreakdown fixed = LrpcModel(tagged).nullCall();
        std::printf("  i860 null LRPC with tags: %.1f us (%.0f%% "
                    "TLB)\n",
                    fixed.totalUs(), fixed.tlbPercent());
    }
    std::printf("\n(s2.5: voluntary exceptions need not pay the "
                "involuntary-exception machinery;\ns3.1: don't hide "
                "the fault address; s3.2: tag, don't flush)\n");
    return 0;
}
