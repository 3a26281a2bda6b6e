/**
 * @file
 * Randomized property suites over the execution model, and a
 * full-system integration story exercising every subsystem together.
 */

#include <gtest/gtest.h>

#include "core/aosd.hh"

namespace aosd
{
namespace
{

// ---- exec model fuzz ---------------------------------------------------

InstrStream
randomStream(Rng &rng, std::uint32_t ops)
{
    InstrStream s;
    for (std::uint32_t i = 0; i < ops; ++i) {
        switch (rng.below(10)) {
          case 0: s.alu(static_cast<std::uint32_t>(
                      rng.between(1, 8))); break;
          case 1: s.nop(1); break;
          case 2: s.branch(1); break;
          case 3: s.load(1, rng.chance(0.3)); break;
          case 4: s.store(1, rng.chance(0.7)); break;
          case 5: s.ctrlRead(1); break;
          case 6: s.ctrlWrite(1); break;
          case 7: s.tlbPurgeEntry(1); break;
          case 8: s.microcoded(static_cast<std::uint32_t>(
                      rng.between(1, 50))); break;
          default: s.loadUncached(1); break;
        }
    }
    return s;
}

class ExecFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ExecFuzzTest, InvariantsHoldOnRandomStreams)
{
    Rng rng(GetParam());
    for (const MachineDesc &m : allMachines()) {
        ExecModel exec(m);
        for (int round = 0; round < 20; ++round) {
            InstrStream s = randomStream(
                rng, static_cast<std::uint32_t>(rng.between(1, 60)));
            PhaseResult r = exec.runStream(s);
            // Cycles can never undercut the instruction count.
            ASSERT_GE(r.cycles, r.instructions) << m.name;
            // The breakdown always accounts for every cycle.
            ASSERT_EQ(r.breakdown.total(), r.cycles) << m.name;
            // Instruction accounting matches the stream.
            ASSERT_EQ(r.instructions, s.instructionCount());
            exec.reset();
        }
    }
}

TEST_P(ExecFuzzTest, ConcatenationIsConsistent)
{
    // Running A then B from a reset buffer costs no less than A and
    // B measured with the same warm-up (monotonicity sanity).
    Rng rng(GetParam() * 31);
    MachineDesc m = makeMachine(MachineId::R2000);
    InstrStream a = randomStream(rng, 20);
    InstrStream b = randomStream(rng, 20);
    InstrStream ab = a;
    ab.append(b);

    ExecModel exec(m);
    Cycles joint = exec.runStream(ab).cycles;
    exec.reset();
    Cycles a_only = exec.runStream(a).cycles;
    exec.reset();
    Cycles b_only = exec.runStream(b).cycles;
    // Write-buffer state can make the concatenation dearer than the
    // sum of independent runs, never more than one full drain cheaper.
    EXPECT_GE(joint + 60, a_only + b_only);
    EXPECT_EQ(ab.instructionCount(),
              a.instructionCount() + b.instructionCount());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecFuzzTest,
                         ::testing::Values(101, 202, 303, 404));

// ---- full-system story ---------------------------------------------------

TEST(Integration, FullSystemStory)
{
    // One machine, one kernel: spaces, COW messaging, ports, LRPC-ish
    // crossings, threads — all charging the same primitive costs.
    MachineDesc m = makeMachine(MachineId::R3000);
    SimKernel kernel(m);
    PhysMem mem(4096);
    VmManager vm(kernel, &mem);
    PortSpace ports(kernel);

    AddressSpace &app = kernel.createSpace("app");
    AddressSpace &fs = kernel.createSpace("fs-server");
    app.setWorkingSet(0x1000, 8);
    app.mapRange(0x1000, 8, 0x100, {});
    fs.setWorkingSet(0x5000, 8);
    fs.mapRange(0x5000, 8, 0x200, {});

    // 1. The app builds a 16-page message and COW-sends it to fs.
    PageProt rw;
    rw.writable = true;
    vm.mapZeroFill(app, 0x2000, 16, rw);
    std::uint64_t frames_before = mem.allocatedFrames();
    vm.shareCopyOnWrite(app, 0x2000, fs, 0x6000, 16);
    EXPECT_EQ(mem.allocatedFrames(), frames_before); // no copies yet

    // 2. fs writes 3 pages: exactly 3 frames get copied.
    for (Vpn v = 0; v < 3; ++v)
        EXPECT_EQ(vm.access(fs, 0x6000 + v, true),
                  FaultResult::CopiedOnWrite);
    EXPECT_EQ(mem.allocatedFrames(), frames_before + 3);

    // 3. The app RPCs the server over ports.
    PortId svc = ports.allocate(fs);
    PortId reply = ports.allocate(app);
    ports.grantSendRight(svc, app);
    ports.grantSendRight(reply, fs);
    kernel.contextSwitchTo(app);
    std::uint64_t sc_before = kernel.counts().syscalls;
    ASSERT_TRUE(portRpc(kernel, ports, app, fs, svc, reply, 128, 64));
    EXPECT_EQ(kernel.counts().syscalls - sc_before, 4u);

    // 4. Fine-grained threads chew on the result.
    ThreadPackage pkg(m, ThreadLevel::User);
    pkg.setLockCount(1);
    for (int t = 0; t < 4; ++t)
        pkg.create({{500, 0}, {500, -1}, {500, 0}});
    pkg.runToCompletion();
    EXPECT_TRUE(pkg.allDone());

    // 5. Global sanity: time moved, primitives were counted, and the
    // primitive share of this IPC/VM-heavy sequence is substantial.
    EXPECT_GT(kernel.elapsedMicros(), 0.0);
    EXPECT_GT(kernel.counts().addrSpaceSwitches, 2u);
    EXPECT_GT(kernel.counts().traps, 2u);
    // (The page copies themselves are user-side byte moving, so the
    // primitive share sits near 10% even in this IPC-heavy sequence.)
    double prim_share =
        static_cast<double>(kernel.primitiveCycles()) /
        static_cast<double>(kernel.elapsedCycles());
    EXPECT_GT(prim_share, 0.05);
}

TEST(Integration, CrossModuleCostConsistency)
{
    // The same primitive cost must be observed identically through
    // every entry point that claims to use it.
    const PrimitiveCostDb &db = sharedCostDb();
    for (const MachineDesc &m : allMachines()) {
        SimKernel k(m);
        k.syscall();
        EXPECT_EQ(k.elapsedCycles(),
                  db.cycles(m.id, Primitive::NullSyscall)) << m.name;

        ExecModel exec(m);
        ExecResult direct =
            exec.run(buildHandler(m, Primitive::NullSyscall));
        EXPECT_EQ(direct.cycles,
                  db.cycles(m.id, Primitive::NullSyscall)) << m.name;
    }
}

TEST(Integration, DeterministicEndToEnd)
{
    // Two complete Table 7 studies must agree bit for bit.
    auto run = [] {
        MachSystem sys(makeMachine(MachineId::R3000),
                       OsStructure::SmallKernel);
        Table7Row r = sys.run(workloadByName("spellcheck-1"));
        return std::make_tuple(r.elapsedSeconds, r.kernelTlbMisses,
                               r.systemCalls, r.threadSwitches);
    };
    EXPECT_EQ(run(), run());
}

} // namespace
} // namespace aosd
