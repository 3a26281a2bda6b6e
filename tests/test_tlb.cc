/**
 * @file
 * Unit and property tests for the TLB model (§3.2).
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "arch/machines.hh"
#include "counting_scope.hh"
#include "mem/tlb.hh"
#include "sim/random.hh"

namespace aosd
{
namespace
{

TlbDesc
smallTagged()
{
    TlbDesc d;
    d.entries = 4;
    d.processIdTags = true;
    d.pidCount = 64;
    d.lockableEntries = 2;
    return d;
}

TEST(Tlb, MissThenHit)
{
    Tlb tlb(smallTagged());
    EXPECT_FALSE(tlb.lookup(0x10, 1).hit);
    tlb.insert(0x10, 1, 0x99, {});
    TlbLookup r = tlb.lookup(0x10, 1);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.pfn, 0x99u);
}

TEST(Tlb, TagsIsolateAddressSpaces)
{
    Tlb tlb(smallTagged());
    tlb.insert(0x10, 1, 0xA, {});
    EXPECT_TRUE(tlb.lookup(0x10, 1).hit);
    EXPECT_FALSE(tlb.lookup(0x10, 2).hit); // other ASID misses
}

TEST(Tlb, UntaggedIgnoresAsid)
{
    TlbDesc d = smallTagged();
    d.processIdTags = false;
    Tlb tlb(d);
    tlb.insert(0x10, 1, 0xA, {});
    EXPECT_TRUE(tlb.lookup(0x10, 2).hit); // no tags: shared entry
}

TEST(Tlb, LruVictimSelection)
{
    Tlb tlb(smallTagged());
    for (Vpn v = 0; v < 4; ++v)
        tlb.insert(v, 1, v, {});
    // Touch 0..2 so 3 is LRU.
    tlb.lookup(0, 1);
    tlb.lookup(1, 1);
    tlb.lookup(2, 1);
    tlb.insert(0x50, 1, 0x50, {});
    EXPECT_FALSE(tlb.lookup(3, 1).hit);   // evicted
    EXPECT_TRUE(tlb.lookup(0x50, 1).hit); // inserted
    EXPECT_TRUE(tlb.lookup(0, 1).hit);
}

TEST(Tlb, LockedEntriesSurviveReplacement)
{
    Tlb tlb(smallTagged());
    tlb.insert(0x1, 1, 1, {}, /*locked=*/true);
    for (Vpn v = 0x10; v < 0x20; ++v)
        tlb.insert(v, 1, v, {});
    EXPECT_TRUE(tlb.lookup(0x1, 1).hit); // never evicted
}

TEST(Tlb, SwitchContextPurgesOnlyUntagged)
{
    Tlb tagged(smallTagged());
    tagged.insert(0x10, 1, 1, {});
    EXPECT_EQ(tagged.switchContext(), 0u);
    EXPECT_TRUE(tagged.lookup(0x10, 1).hit);

    TlbDesc d = smallTagged();
    d.processIdTags = false;
    d.purgeAllCycles = 32;
    Tlb untagged(d);
    untagged.insert(0x10, 1, 1, {});
    EXPECT_EQ(untagged.switchContext(), 32u);
    EXPECT_FALSE(untagged.lookup(0x10, 1).hit);
}

TEST(Tlb, InvalidateAsidOnlyDropsThatSpace)
{
    Tlb tlb(smallTagged());
    tlb.insert(0x10, 1, 1, {});
    tlb.insert(0x11, 2, 2, {});
    tlb.invalidateAsid(1);
    EXPECT_FALSE(tlb.lookup(0x10, 1).hit);
    EXPECT_TRUE(tlb.lookup(0x11, 2).hit);
}

TEST(Tlb, MissCostsFollowManagementStyle)
{
    TlbDesc sw;
    sw.entries = 4;
    sw.management = TlbManagement::Software;
    sw.swUserMissCycles = 12;
    sw.swKernelMissCycles = 300;
    Tlb s(sw);
    EXPECT_EQ(s.lookup(1, 0, false).missCycles, 12u);
    EXPECT_EQ(s.lookup(1, 0, true).missCycles, 300u);

    TlbDesc hw;
    hw.entries = 4;
    hw.management = TlbManagement::Hardware;
    hw.hwMissCycles = 22;
    Tlb h(hw);
    EXPECT_EQ(h.lookup(1, 0, false).missCycles, 22u);
    EXPECT_EQ(h.lookup(1, 0, true).missCycles, 22u);
}

TEST(Tlb, StatsCountHitsAndMisses)
{
    CountingScope counting;
    TlbDesc d = smallTagged();
    d.management = TlbManagement::Software;
    Tlb tlb(d);
    tlb.lookup(1, 1);          // miss
    tlb.insert(1, 1, 1, {});
    tlb.lookup(1, 1);          // hit
    tlb.lookup(2, 1, true);    // kernel miss
    EXPECT_EQ(counting.value(HwCounter::TlbHits), 1u);
    EXPECT_EQ(counting.value(HwCounter::TlbMisses), 2u);
    // One user and one kernel miss, told apart by their refill prices.
    EXPECT_EQ(counting.value(HwCounter::TlbRefillCycles),
              d.swUserMissCycles + d.swKernelMissCycles);
}

TEST(Tlb, InsertUpdatesExistingEntry)
{
    Tlb tlb(smallTagged());
    tlb.insert(1, 1, 0xA, {});
    PageProt ro;
    ro.writable = false;
    tlb.insert(1, 1, 0xB, ro);
    EXPECT_EQ(tlb.validEntries(), 1u);
    TlbLookup r = tlb.lookup(1, 1);
    EXPECT_EQ(r.pfn, 0xBu);
}

TEST(Tlb, EntriesForAsidCounts)
{
    Tlb tlb(smallTagged());
    tlb.insert(1, 1, 1, {});
    tlb.insert(2, 1, 2, {});
    tlb.insert(3, 2, 3, {});
    EXPECT_EQ(tlb.entriesForAsid(1), 2u);
    EXPECT_EQ(tlb.entriesForAsid(2), 1u);
}

TEST(TlbDeathTest, AllEntriesLockedPanics)
{
    // A desc that lets every entry lock leaves a later fill no
    // victim; the constructor rejects it as a configuration error.
    TlbDesc d;
    d.entries = 2;
    d.lockableEntries = 2;
    EXPECT_DEATH(Tlb{d}, "TLB has 2 lockable entries of 2");
    d.lockableEntries = 3;
    EXPECT_DEATH(Tlb{d}, "TLB has 3 lockable entries of 2");
    // One replaceable entry is enough: fills evict it.
    d.lockableEntries = 1;
    Tlb tlb(d);
    tlb.insert(1, 0, 1, {}, true);
    tlb.insert(2, 0, 2, {});
    tlb.insert(3, 0, 3, {});
    EXPECT_TRUE(tlb.lookup(1, 0).hit);
    EXPECT_TRUE(tlb.lookup(3, 0).hit);
    EXPECT_FALSE(tlb.lookup(2, 0).hit);
}

TEST(TlbDeathTest, LockingPastTheLimitIsFatal)
{
    TlbDesc d = smallTagged(); // 4 entries, 2 lockable
    Tlb tlb(d);
    tlb.insert(1, 1, 1, {}, true);
    tlb.insert(2, 1, 2, {}, true);
    EXPECT_DEATH(tlb.insert(3, 1, 3, {}, true), "2 lockable entries");
    // Locking a present but unlocked key counts as a new lock too.
    tlb.insert(4, 1, 4, {});
    EXPECT_DEATH(tlb.insert(4, 1, 4, {}, true), "2 lockable entries");
    d.lockableEntries = 0;
    Tlb none(d);
    EXPECT_DEATH(none.insert(1, 1, 1, {}, true), "0 lockable entries");
    // SPARC locks 8 of its 64 entries, not all of them.
    Tlb sparc(makeMachine(MachineId::SPARC).tlb);
    for (Vpn v = 0; v < 8; ++v)
        sparc.insert(v, 1, v, {}, true);
    EXPECT_DEATH(sparc.insert(8, 1, 8, {}, true), "8 lockable entries");
}

TEST(Tlb, LockCountFollowsUnlocksAndDrops)
{
    Tlb tlb(smallTagged()); // 2 lockable
    tlb.insert(1, 1, 1, {}, true);
    tlb.insert(2, 1, 2, {}, true);
    // Re-locking a locked key takes no new lock.
    tlb.insert(1, 1, 0x11, {}, true);
    EXPECT_EQ(tlb.lookup(1, 1).pfn, 0x11u);
    // Unlock by insert, invalidate and invalidateAsid each free one.
    tlb.insert(1, 1, 1, {});
    tlb.insert(3, 1, 3, {}, true);
    tlb.invalidate(2, 1);
    tlb.insert(4, 2, 4, {}, true);
    tlb.invalidateAsid(2);
    tlb.insert(5, 1, 5, {}, true);
    // Both locked (3 and 5) survive a full sweep of unlocked fills.
    for (Vpn v = 0x10; v < 0x20; ++v)
        tlb.insert(v, 1, v, {});
    EXPECT_TRUE(tlb.lookup(3, 1).hit);
    EXPECT_TRUE(tlb.lookup(5, 1).hit);
    // invalidateAll frees every lock.
    tlb.invalidateAll();
    tlb.insert(6, 1, 6, {}, true);
    tlb.insert(7, 1, 7, {}, true);
    EXPECT_EQ(tlb.validEntries(), 2u);
}

/** Property: a TLB of N entries never reports more than N valid. */
class TlbPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TlbPropertyTest, OccupancyNeverExceedsCapacityUnderRandomOps)
{
    Rng rng(GetParam());
    TlbDesc d;
    d.entries = 16;
    d.processIdTags = true;
    d.pidCount = 8;
    Tlb tlb(d);
    for (int i = 0; i < 5000; ++i) {
        Vpn v = rng.below(64);
        Asid a = static_cast<Asid>(rng.below(8));
        switch (rng.below(5)) {
          case 0:
            tlb.insert(v, a, v, {});
            break;
          case 1:
            tlb.invalidate(v, a);
            break;
          case 2:
            tlb.invalidateAsid(a);
            break;
          case 3:
            tlb.lookup(v, a);
            break;
          default:
            if (rng.chance(0.01))
                tlb.invalidateAll();
            break;
        }
        ASSERT_LE(tlb.validEntries(), 16u);
    }
    // Consistency: everything inserted and not invalidated is findable.
    tlb.invalidateAll();
    tlb.insert(5, 3, 55, {});
    EXPECT_TRUE(tlb.lookup(5, 3).hit);
}

TEST_P(TlbPropertyTest, TouchBehavesLikeLookupThenInsert)
{
    // Two mirrored TLBs driven by the same reference stream: one
    // refills through touch() (the kernel's one-probe path), the other
    // with lookup() then insert(). Every probe must agree — a
    // divergence means the refill broke a probe-path invariant.
    Rng rng(GetParam() * 104729);
    TlbDesc d;
    d.entries = 16;
    d.processIdTags = true;
    d.pidCount = 8;
    Tlb touched(d);
    Tlb ref(d);
    for (int i = 0; i < 20000; ++i) {
        Vpn v = rng.below(48);
        Asid a = static_cast<Asid>(rng.below(4));
        if (rng.chance(0.02)) {
            touched.invalidate(v, a);
            ref.invalidate(v, a);
            continue;
        }
        TlbLookup r = ref.lookup(v, a);
        const bool hit = touched.touch(v, a, false, [&](Cycles) {
            return TlbFill{v * 3, {}};
        });
        ASSERT_EQ(hit, r.hit) << "step " << i;
        if (!r.hit)
            ref.insert(v, a, v * 3, {});
        // The key is most recent in both now, so this probe moves
        // nothing.
        ASSERT_EQ(touched.lookup(v, a).pfn, ref.lookup(v, a).pfn);
        ASSERT_EQ(touched.validEntries(), ref.validEntries());
    }
}

TEST_P(TlbPropertyTest, HitAfterInsertUntilEvicted)
{
    Rng rng(GetParam() * 7919);
    TlbDesc d;
    d.entries = 8;
    d.processIdTags = true;
    d.pidCount = 4;
    Tlb tlb(d);
    for (int i = 0; i < 1000; ++i) {
        Vpn v = rng.below(32);
        Asid a = static_cast<Asid>(rng.below(4));
        tlb.insert(v, a, v * 2, {});
        TlbLookup r = tlb.lookup(v, a);
        ASSERT_TRUE(r.hit);
        ASSERT_EQ(r.pfn, v * 2);
    }
}

/**
 * The replacement policy written the obvious way: a vector of entries
 * with lastUse stamps. The victim is the first invalid slot, else the
 * least recently used unlocked entry.
 */
struct ReferenceTlb
{
    struct Entry
    {
        bool valid = false;
        bool locked = false;
        Vpn vpn = 0;
        Asid asid = 0;
        Pfn pfn = 0;
        PageProt prot;
        std::uint64_t lastUse = 0;
    };

    TlbDesc desc;
    std::vector<Entry> entries;
    std::uint64_t clock = 0;

    explicit ReferenceTlb(const TlbDesc &d) : desc(d), entries(d.entries) {}

    Entry *
    find(Vpn vpn, Asid asid)
    {
        for (Entry &e : entries)
            if (e.valid && e.vpn == vpn &&
                (!desc.processIdTags || e.asid == asid))
                return &e;
        return nullptr;
    }

    TlbLookup
    lookup(Vpn vpn, Asid asid, bool kernel_space)
    {
        if (Entry *e = find(vpn, asid)) {
            e->lastUse = ++clock;
            return {true, e->pfn, e->prot, 0};
        }
        if (desc.management == TlbManagement::Hardware)
            return {false, 0, {}, desc.hwMissCycles};
        return {false, 0, {}, kernel_space ? desc.swKernelMissCycles
                                           : desc.swUserMissCycles};
    }

    void
    insert(Vpn vpn, Asid asid, Pfn pfn, PageProt prot, bool locked)
    {
        Entry *e = find(vpn, asid);
        for (Entry &c : entries)
            if (!e && !c.valid)
                e = &c;
        if (!e)
            for (Entry &c : entries)
                if (!c.locked && (!e || c.lastUse < e->lastUse))
                    e = &c;
        *e = {true,   locked, vpn, desc.processIdTags ? asid : 0,
              pfn,    prot,   ++clock};
    }

    template <class Pred>
    void
    dropIf(Pred pred)
    {
        for (Entry &e : entries)
            if (e.valid && pred(e))
                e = Entry{};
    }

    std::size_t
    count(Asid asid, bool any_asid) const
    {
        std::size_t n = 0;
        for (const Entry &e : entries)
            n += e.valid && (any_asid || e.asid == asid);
        return n;
    }
};

/** The TLB shapes the reference-model tests run over. */
struct Shape
{
    std::uint32_t entries;
    bool tagged;
    TlbManagement management;

    TlbDesc
    desc() const
    {
        TlbDesc d;
        d.entries = entries;
        d.processIdTags = tagged;
        d.pidCount = tagged ? 8 : 0;
        d.management = management;
        d.lockableEntries = entries / 4;
        return d;
    }
};

const Shape shapes[] = {
    {1, true, TlbManagement::Software},
    {1, false, TlbManagement::Hardware},
    {4, true, TlbManagement::Hardware},
    {4, false, TlbManagement::Software},
    {28, true, TlbManagement::Software},
    {28, false, TlbManagement::Hardware},
    {64, true, TlbManagement::Software},
    {64, false, TlbManagement::Hardware},
};

/** touch() beside the reference's lookup-then-insert: the same hit or
 *  miss, and on a miss exactly one refill_from call, priced at the
 *  reference's miss cost. */
void
touchBoth(Tlb &tlb, ReferenceTlb &ref, Vpn v, Asid a, bool kernel,
          TlbFill fill)
{
    const TlbLookup want = ref.lookup(v, a, kernel);
    int calls = 0;
    Cycles cost = 0;
    const bool hit = tlb.touch(v, a, kernel, [&](Cycles c) {
        ++calls;
        cost = c;
        return fill;
    });
    ASSERT_EQ(hit, want.hit);
    ASSERT_EQ(calls, hit ? 0 : 1);
    if (!hit) {
        ASSERT_EQ(cost, want.missCycles);
        ref.insert(v, a, fill.pfn, fill.prot, false);
    }
}

TEST_P(TlbPropertyTest, MatchesReferenceModel)
{
    for (const Shape &shape : shapes) {
        SCOPED_TRACE(::testing::Message()
                     << shape.entries << " entries, "
                     << (shape.tagged ? "tagged" : "untagged"));
        Rng rng(GetParam() * 31 + shape.entries);
        const TlbDesc d = shape.desc();
        Tlb tlb(d);
        ReferenceTlb ref(d);
        // Lock at most entries-1 translations so a victim always exists.
        const std::size_t lock_cap =
            std::min<std::size_t>(d.lockableEntries, d.entries - 1);
        for (int i = 0; i < 4000; ++i) {
            Vpn v = rng.below(3 * shape.entries + 4);
            Asid a = static_cast<Asid>(rng.below(4));
            bool kernel = rng.chance(0.3);
            std::uint64_t op = rng.below(100);
            if (op < 55) {
                TlbLookup got = tlb.lookup(v, a, kernel);
                TlbLookup want = ref.lookup(v, a, kernel);
                ASSERT_EQ(got.hit, want.hit) << "step " << i;
                ASSERT_EQ(got.pfn, want.pfn) << "step " << i;
                ASSERT_EQ(got.prot, want.prot) << "step " << i;
                ASSERT_EQ(got.missCycles, want.missCycles) << "step " << i;
                if (!got.hit && rng.chance(0.8)) {
                    PageProt p{true, rng.chance(0.5), !kernel};
                    ASSERT_NO_FATAL_FAILURE(
                        touchBoth(tlb, ref, v, a, kernel, {v * 7 + a, p}))
                        << "step " << i;
                }
            } else if (op < 75) {
                const ReferenceTlb::Entry *cur = ref.find(v, a);
                std::size_t others_locked = 0;
                for (const auto &e : ref.entries)
                    others_locked += e.valid && e.locked && &e != cur;
                bool lock = rng.chance(0.2) && others_locked < lock_cap;
                PageProt p{true, rng.chance(0.5), rng.chance(0.5)};
                tlb.insert(v, a, v + 1000 * a, p, lock);
                ref.insert(v, a, v + 1000 * a, p, lock);
            } else if (op < 85) {
                ASSERT_NO_FATAL_FAILURE(
                    touchBoth(tlb, ref, v, a, kernel, {v ^ 0x55, {}}))
                    << "step " << i;
            } else if (op < 93) {
                tlb.invalidate(v, a);
                if (ReferenceTlb::Entry *e = ref.find(v, a))
                    *e = {};
            } else if (op < 96) {
                tlb.invalidateAsid(a);
                ref.dropIf([a](const auto &e) { return e.asid == a; });
            } else if (op < 98) {
                ASSERT_EQ(tlb.switchContext(),
                          shape.tagged ? 0 : d.purgeAllCycles);
                if (!shape.tagged)
                    ref.dropIf([](const auto &) { return true; });
            } else if (op < 99) {
                tlb.invalidateAll();
                ref.dropIf([](const auto &) { return true; });
            }
            ASSERT_EQ(tlb.validEntries(), ref.count(0, true))
                << "step " << i;
            for (Asid q = 0; q < 4; ++q)
                ASSERT_EQ(tlb.entriesForAsid(q), ref.count(q, false))
                    << "step " << i << " asid " << q;
        }
    }
}

TEST_P(TlbPropertyTest, TouchRefillsOncePerMissAndNeverOnAHit)
{
    CountingScope counting;
    for (const Shape &shape : shapes) {
        SCOPED_TRACE(::testing::Message()
                     << shape.entries << " entries, "
                     << (shape.tagged ? "tagged" : "untagged"));
        Rng rng(GetParam() * 131 + shape.entries);
        Tlb tlb(shape.desc());
        const std::uint64_t hits0 = counting.value(HwCounter::TlbHits);
        const std::uint64_t misses0 = counting.value(HwCounter::TlbMisses);
        std::uint64_t hits = 0, refills = 0;
        for (int i = 0; i < 4000; ++i) {
            Vpn v = rng.below(2 * shape.entries + 2);
            Asid a = static_cast<Asid>(rng.below(4));
            if (rng.chance(0.05)) {
                tlb.invalidate(v, a);
                continue;
            }
            if (rng.chance(0.01))
                tlb.switchContext();
            int calls = 0;
            const bool hit = tlb.touch(v, a, rng.chance(0.3), [&](Cycles) {
                ++calls;
                return TlbFill{v, {}};
            });
            ASSERT_EQ(calls, hit ? 0 : 1) << "step " << i;
            refills += calls;
            // A touched key is present until something evicts it.
            ASSERT_TRUE(tlb.lookup(v, a).hit) << "step " << i;
            hits += hit + 1; // the touch's, if it hit, and the lookup's
        }
        EXPECT_EQ(counting.value(HwCounter::TlbHits) - hits0, hits);
        EXPECT_EQ(counting.value(HwCounter::TlbMisses) - misses0, refills);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TlbPropertyTest,
                         ::testing::Values(1, 2, 3, 42, 1991));

} // namespace
} // namespace aosd
