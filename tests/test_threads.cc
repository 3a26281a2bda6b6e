/**
 * @file
 * Tests for the threads subsystem (§4): cost models, synchronization,
 * the functional thread package, and granularity properties.
 */

#include <gtest/gtest.h>

#include "arch/machines.hh"
#include "cpu/primitive_costs.hh"
#include "os/threads/sync.hh"
#include "os/threads/thread.hh"
#include "os/threads/thread_package.hh"

namespace aosd
{
namespace
{

// ---- cost model ------------------------------------------------------

TEST(ThreadCosts, StateWordsFollowTable6)
{
    MachineDesc sparc = makeMachine(MachineId::SPARC);
    EXPECT_EQ(threadStateWords(sparc, false), 136u + 6u);
    EXPECT_EQ(threadStateWords(sparc, true), 136u + 6u + 32u);
    MachineDesc vax = makeMachine(MachineId::CVAX);
    EXPECT_EQ(threadStateWords(vax, false), 17u);
}

TEST(ThreadCosts, SparcSwitchCostsTensOfCalls)
{
    // s4.1: "the cost of a thread context switch is 50 times that of
    // a procedure call" on the SPARC at 3 windows per switch.
    ThreadCosts c = computeThreadCosts(makeMachine(MachineId::SPARC));
    EXPECT_GT(c.switchToCallRatio(), 30.0);
    EXPECT_LT(c.switchToCallRatio(), 80.0);
}

TEST(ThreadCosts, SparcSwitchRequiresKernelTrap)
{
    // The CWP is privileged: the user switch embeds a syscall-priced
    // trap and so can never be cheaper than one.
    ThreadCosts c = computeThreadCosts(makeMachine(MachineId::SPARC));
    EXPECT_GE(c.userThreadSwitch,
              sharedCostDb().cycles(MachineId::SPARC,
                                    Primitive::NullSyscall));
}

TEST(ThreadCosts, FlatMachinesSwitchFasterThanSparc)
{
    Cycles sparc = computeThreadCosts(makeMachine(MachineId::SPARC))
                       .userThreadSwitch;
    for (MachineId id : {MachineId::R3000, MachineId::RS6000,
                         MachineId::CVAX}) {
        EXPECT_LT(computeThreadCosts(makeMachine(id)).userThreadSwitch,
                  sparc)
            << makeMachine(id).name;
    }
}

TEST(ThreadCosts, FpStateMakesSwitchesDearer)
{
    ThreadCostOptions fp;
    fp.fpInUse = true;
    for (MachineId id : {MachineId::R3000, MachineId::RS6000}) {
        MachineDesc m = makeMachine(id);
        EXPECT_GT(computeThreadCosts(m, fp).userThreadSwitch,
                  computeThreadCosts(m).userThreadSwitch)
            << m.name;
    }
}

TEST(ThreadCosts, SaveActiveOnlyHelpsFlatFilesNotWindows)
{
    ThreadCostOptions lean;
    lean.saveActiveOnly = true;
    MachineDesc mips = makeMachine(MachineId::R3000);
    EXPECT_LT(computeThreadCosts(mips, lean).userThreadSwitch,
              computeThreadCosts(mips).userThreadSwitch);
    MachineDesc sparc = makeMachine(MachineId::SPARC);
    EXPECT_EQ(computeThreadCosts(sparc, lean).userThreadSwitch,
              computeThreadCosts(sparc).userThreadSwitch);
}

TEST(ThreadCosts, UserCreateWithinPaperRange)
{
    // "new thread creation in 5-10 times the cost of a procedure
    // call" [Anderson et al. 89] — on flat machines.
    for (MachineId id : {MachineId::R3000, MachineId::M88000,
                         MachineId::RS6000}) {
        ThreadCosts c = computeThreadCosts(makeMachine(id));
        double ratio = static_cast<double>(c.userThreadCreate) /
                       static_cast<double>(c.procedureCall);
        EXPECT_GT(ratio, 3.0) << makeMachine(id).name;
        EXPECT_LT(ratio, 15.0) << makeMachine(id).name;
    }
}

TEST(ThreadCosts, KernelOpsCostMoreThanUserOps)
{
    for (const MachineDesc &m : allMachines()) {
        ThreadCosts c = computeThreadCosts(m);
        EXPECT_GT(c.kernelThreadCreate, c.userThreadCreate) << m.name;
    }
}

// ---- synchronization -------------------------------------------------

TEST(Sync, MipsMustTrap)
{
    EXPECT_EQ(naturalLockImpl(makeMachine(MachineId::R3000)),
              LockImpl::KernelTrap);
    EXPECT_EQ(naturalLockImpl(makeMachine(MachineId::SPARC)),
              LockImpl::AtomicInstruction);
}

TEST(Sync, CostOrdering)
{
    // atomic < Lamport < kernel trap, on machines that have all three.
    for (MachineId id : {MachineId::SPARC, MachineId::M88000,
                         MachineId::RS6000}) {
        MachineDesc m = makeMachine(id);
        Cycles atomic = lockPairCycles(m, LockImpl::AtomicInstruction);
        Cycles lamport =
            lockPairCycles(m, LockImpl::LamportSoftware);
        Cycles trap = lockPairCycles(m, LockImpl::KernelTrap);
        EXPECT_LT(atomic, lamport) << m.name;
        EXPECT_LT(lamport, trap) << m.name;
    }
}

TEST(Sync, LamportIsDozensOfCycles)
{
    Cycles c = lockPairCycles(makeMachine(MachineId::R3000),
                              LockImpl::LamportSoftware);
    EXPECT_GT(c, 20u);
    EXPECT_LT(c, 80u);
}

TEST(Sync, AtomicUnavailableOnMips)
{
    EXPECT_EQ(lockPairCycles(makeMachine(MachineId::R3000),
                             LockImpl::AtomicInstruction),
              0u);
}

TEST(Sync, FunctionalLockMutualExclusion)
{
    TestAndSetLock lock;
    EXPECT_TRUE(lock.tryAcquire(1));
    EXPECT_FALSE(lock.tryAcquire(2));
    lock.release(2); // non-holder release is ignored
    EXPECT_TRUE(lock.isHeld());
    lock.release(1);
    EXPECT_FALSE(lock.isHeld());
    EXPECT_TRUE(lock.tryAcquire(2));
    EXPECT_EQ(lock.acquireCount(), 2u);
}

// ---- thread package --------------------------------------------------

TEST(ThreadPackage, RunsAllWorkToCompletion)
{
    ThreadPackage pkg(makeMachine(MachineId::R3000), ThreadLevel::User);
    pkg.create({{100, -1}, {200, -1}});
    pkg.create({{300, -1}});
    pkg.runToCompletion();
    EXPECT_TRUE(pkg.allDone());
    EXPECT_EQ(pkg.counts().slices, 3u);
    EXPECT_GE(pkg.elapsedCycles(), 600u);
}

TEST(ThreadPackage, ChargesCreatesAndSwitches)
{
    MachineDesc m = makeMachine(MachineId::R3000);
    ThreadPackage pkg(m, ThreadLevel::User);
    pkg.create({{10, -1}, {10, -1}});
    pkg.create({{10, -1}, {10, -1}});
    pkg.runToCompletion();
    // Round robin alternates threads: at least 3 switches.
    EXPECT_GE(pkg.counts().switches, 3u);
    EXPECT_EQ(pkg.counts().creates, 2u);
}

TEST(ThreadPackage, KernelLevelCostsMoreThanUserLevel)
{
    auto run = [](ThreadLevel level) {
        ThreadPackage pkg(makeMachine(MachineId::SPARC), level);
        for (int t = 0; t < 4; ++t) {
            std::vector<WorkSlice> slices(20, WorkSlice{50, -1});
            pkg.create(std::move(slices));
        }
        pkg.runToCompletion();
        return pkg.elapsedCycles();
    };
    EXPECT_GT(run(ThreadLevel::Kernel), 0u);
    // On the SPARC user switches embed a trap, but kernel ones carry
    // the full context-switch primitive: still dearer.
    EXPECT_GT(run(ThreadLevel::Kernel), run(ThreadLevel::User) / 2);
}

TEST(ThreadPackage, LocksAreMutuallyExclusiveAcrossYields)
{
    ThreadPackage pkg(makeMachine(MachineId::R3000), ThreadLevel::User);
    pkg.setLockCount(1);
    // Thread 0 holds the lock across a yield; thread 1 contends.
    pkg.create({{10, 0, true}, {10, -1}});
    pkg.create({{10, 0}, {10, -1}});
    pkg.runToCompletion();
    EXPECT_TRUE(pkg.allDone());
    EXPECT_GE(pkg.counts().lockContended, 1u);
    EXPECT_EQ(pkg.counts().lockAcquires, 2u);
}

TEST(ThreadPackage, DeterministicAcrossRuns)
{
    auto run = [] {
        ThreadPackage pkg(makeMachine(MachineId::R3000),
                          ThreadLevel::User);
        pkg.setLockCount(2);
        pkg.create({{10, 0, true}, {20, 1}, {5, -1}});
        pkg.create({{15, 1}, {25, 0}});
        pkg.runToCompletion();
        return pkg.elapsedCycles();
    };
    EXPECT_EQ(run(), run());
}

TEST(ThreadPackageDeathTest, BadLockIdPanics)
{
    ThreadPackage pkg(makeMachine(MachineId::R3000), ThreadLevel::User);
    pkg.create({{10, 3}}); // no locks configured
    EXPECT_DEATH(pkg.runToCompletion(), "lock");
}

/** Property: finer grain never reduces elapsed time (overhead is
 *  monotone in the number of slices). */
class GrainTest
    : public ::testing::TestWithParam<std::tuple<MachineId, int>>
{
};

TEST_P(GrainTest, FinerGrainCostsMore)
{
    auto [id, level_int] = GetParam();
    auto level = static_cast<ThreadLevel>(level_int);
    MachineDesc m = makeMachine(id);
    auto elapsed = [&](Cycles grain) {
        ThreadPackage pkg(m, level);
        for (int t = 0; t < 4; ++t) {
            std::vector<WorkSlice> slices;
            for (Cycles done = 0; done < 10000; done += grain)
                slices.push_back({grain, -1});
            pkg.create(std::move(slices));
        }
        pkg.runToCompletion();
        return pkg.elapsedCycles();
    };
    Cycles coarse = elapsed(10000);
    Cycles medium = elapsed(1000);
    Cycles fine = elapsed(100);
    EXPECT_LE(coarse, medium);
    EXPECT_LE(medium, fine);
    // And the overhead is architecture-dependent: it must at least
    // include the per-switch cost times the extra switches.
    EXPECT_GT(fine, coarse);
}

INSTANTIATE_TEST_SUITE_P(
    MachinesAndLevels, GrainTest,
    ::testing::Combine(::testing::Values(MachineId::R3000,
                                         MachineId::SPARC,
                                         MachineId::CVAX,
                                         MachineId::RS6000),
                       ::testing::Values(0, 1)),
    [](const ::testing::TestParamInfo<std::tuple<MachineId, int>>
           &info) {
        MachineDesc m = makeMachine(std::get<0>(info.param));
        std::string name = m.name;
        name += std::get<1>(info.param) == 0 ? "_user" : "_kernel";
        for (char &ch : name)
            if (!isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return name;
    });

} // namespace
} // namespace aosd
