/**
 * @file
 * Managed-mode tests: heat-policy arithmetic in isolation (aging
 * decay, EWMA hysteresis, bucket geometry), then the scan kthread +
 * migration daemon end to end — promotion of hot buckets, demotion
 * once they cool, the per-epoch page budget, failure absorption under
 * injected fault bursts, the kBusy rule between app and daemon movs
 * over the same pages, and inertness with the lever off.
 *
 * The integration tests drive heat with one deterministic touch pass
 * over the managed region at t=0 (manage_region arms every PTE, so
 * only real touches read as accesses): the first scan epoch sees the
 * whole region hot and the daemon promotes it; with no further touches
 * the aging vector decays below the demote threshold a few epochs
 * later and the daemon moves everything back. One touch pass therefore
 * exercises the full promote -> cool -> demote -> quiesce cycle
 * without any schedule-sensitive racing.
 */
#include "memif/device.h"

#include <gtest/gtest.h>

#include <vector>

#include "dma/engine.h"
#include "memif/heat_policy.h"
#include "memif/user_api.h"
#include "os/kernel.h"
#include "os/process.h"
#include "sim/task.h"
#include "sim/types.h"

namespace memif::core {
namespace {

// ---------------------------------------------------------------------
// Heat-policy unit coverage: pure arithmetic, no simulator.
// ---------------------------------------------------------------------

TEST(HeatPolicy, AgingPromotesOnRecencyAndDecaysToDemote)
{
    HeatConfig hc;  // defaults: promote >= 0x60, demote < 0x10
    RegionHeat heat(hc, 16);
    ASSERT_EQ(heat.num_buckets(), 2u);

    // One fully-accessed epoch shifts 0x80 into the vector: hot.
    heat.fold(0, 8, 2, 8);
    EXPECT_EQ(heat.bucket(0).age, 0x80);
    EXPECT_EQ(heat.classify(0, /*resident_fast=*/false),
              HeatVerdict::kPromote);
    EXPECT_EQ(heat.classify(0, /*resident_fast=*/true), HeatVerdict::kStay);

    // Idle epochs halve the score; inside the hysteresis band the
    // bucket keeps its hot classification (0x40, 0x20, 0x10 >= 0x10).
    heat.fold(0, 0, 0, 8);
    EXPECT_EQ(heat.bucket(0).age, 0x40);
    EXPECT_EQ(heat.classify(0, false), HeatVerdict::kPromote);
    heat.fold(0, 0, 0, 8);
    heat.fold(0, 0, 0, 8);
    EXPECT_EQ(heat.bucket(0).age, 0x10);
    EXPECT_TRUE(heat.bucket(0).hot);

    // One more idle epoch drops below the demote threshold: cold.
    heat.fold(0, 0, 0, 8);
    EXPECT_EQ(heat.bucket(0).age, 0x08);
    EXPECT_EQ(heat.classify(0, /*resident_fast=*/true),
              HeatVerdict::kDemote);
    EXPECT_EQ(heat.classify(0, /*resident_fast=*/false),
              HeatVerdict::kStay);

    // The untouched second bucket never classified as anything but
    // cold, and epoch accounting tracked the first one's activity.
    EXPECT_FALSE(heat.bucket(1).hot);
    EXPECT_EQ(heat.bucket(0).accessed_epochs, 1u);
    EXPECT_EQ(heat.bucket(0).written_epochs, 1u);
}

// The tiered daemon's three-way verdict: the aging cold band enters at
// age <= 0x02 and leaves only at age >= 0x08, a hot bucket is never
// cold, and each band maps to its tier. The DDR pressure bit gates
// only the cold band: with room on DDR a cold bucket stops there, and
// only a pressured DDR sends it on to the far tier.
TEST(HeatPolicy, AgingColdBandDrivesTheTieredVerdict)
{
    HeatConfig hc;
    hc.aging_promote_threshold = 0xC0;  // two touched epochs to go hot
    RegionHeat heat(hc, 8);
    ASSERT_EQ(heat.num_buckets(), 1u);
    auto verdicts = [&heat](bool slow_has_room) {
        return std::vector<TierVerdict>{
            heat.classify_tiered(0, HeatTier::kFast, slow_has_room),
            heat.classify_tiered(0, HeatTier::kSlow, slow_has_room),
            heat.classify_tiered(0, HeatTier::kFar, slow_has_room)};
    };
    const std::vector<TierVerdict> warm = {
        TierVerdict::kToSlow, TierVerdict::kStay, TierVerdict::kToSlow};
    const std::vector<TierVerdict> cold_pressured = {
        TierVerdict::kToFar, TierVerdict::kToFar, TierVerdict::kStay};
    const std::vector<TierVerdict> cold_roomy = {
        TierVerdict::kToSlow, TierVerdict::kStay, TierVerdict::kStay};
    const std::vector<TierVerdict> hot = {
        TierVerdict::kStay, TierVerdict::kToFast, TierVerdict::kToFast};
    // Hot and warm rows ignore the pressure bit.
    auto expect_either_way = [&](const std::vector<TierVerdict> &want) {
        EXPECT_EQ(verdicts(true), want);
        EXPECT_EQ(verdicts(false), want);
    };
    auto expect_cold = [&] {
        EXPECT_EQ(verdicts(true), cold_roomy);
        EXPECT_EQ(verdicts(false), cold_pressured);
    };

    // One touch: 0x80 is below the promote threshold, so warm.
    heat.fold(0, 8, 0, 8);
    expect_either_way(warm);
    // Decay to 0x08 (the exit edge) and 0x04 (inside the band): a
    // bucket that was never cold stays warm there.
    for (int e = 0; e < 5; ++e) heat.fold(0, 0, 0, 8);
    EXPECT_EQ(heat.bucket(0).age, 0x04);
    EXPECT_FALSE(heat.bucket(0).cold);
    expect_either_way(warm);
    // 0x02 enters the cold band; further decay keeps it there.
    heat.fold(0, 0, 0, 8);
    EXPECT_EQ(heat.bucket(0).age, 0x02);
    EXPECT_TRUE(heat.bucket(0).cold);
    expect_cold();
    heat.fold(0, 0, 0, 8);
    heat.fold(0, 0, 0, 8);
    EXPECT_EQ(heat.bucket(0).age, 0x00);
    expect_cold();
    // A touch lifts the age to 0x80 >= 0x08: out of the cold band, but
    // one epoch is not hot, so a far-resident bucket stops at DDR.
    heat.fold(0, 8, 0, 8);
    EXPECT_FALSE(heat.bucket(0).cold);
    expect_either_way(warm);
    // A second touch (0xC0) is hot: everything heads for the fast tier.
    heat.fold(0, 8, 0, 8);
    EXPECT_TRUE(heat.bucket(0).hot);
    expect_either_way(hot);

    // A hot bucket is never cold, even at an age inside the cold band:
    // with promote at 0x01, decay reaches 0x02 while still hot.
    HeatConfig eager;
    eager.aging_promote_threshold = 0x01;
    RegionHeat h2(eager, 8);
    h2.fold(0, 8, 0, 8);
    for (int e = 0; e < 6; ++e) h2.fold(0, 0, 0, 8);
    EXPECT_EQ(h2.bucket(0).age, 0x02);
    EXPECT_TRUE(h2.bucket(0).hot);
    EXPECT_FALSE(h2.bucket(0).cold);
    EXPECT_EQ(h2.classify_tiered(0, HeatTier::kFar, true),
              TierVerdict::kToFast);
    EXPECT_EQ(h2.classify_tiered(0, HeatTier::kFar, false),
              TierVerdict::kToFast);
    // Once it decays out of the hot band (age 0 < 0x10) it is cold.
    h2.fold(0, 0, 0, 8);
    h2.fold(0, 0, 0, 8);
    EXPECT_FALSE(h2.bucket(0).hot);
    EXPECT_TRUE(h2.bucket(0).cold);
    EXPECT_EQ(h2.classify_tiered(0, HeatTier::kFast, false),
              TierVerdict::kToFar);
    EXPECT_EQ(h2.classify_tiered(0, HeatTier::kFast, true),
              TierVerdict::kToSlow);
}

TEST(HeatPolicy, BucketGeometryAndHistogram)
{
    static_assert(kHeatBucketPages == 8);
    HeatConfig hc;
    RegionHeat heat(hc, 21);  // 2 full buckets + one short tail
    ASSERT_EQ(heat.num_buckets(), 3u);
    EXPECT_EQ(heat.pages_in(0), 8u);
    EXPECT_EQ(heat.pages_in(2), 5u);
    EXPECT_EQ(heat.first_page(2), 16u);
    EXPECT_EQ(heat.bucket_of(15), 1u);
    EXPECT_EQ(heat.bucket_of(16), 2u);

    heat.fold(0, 8, 0, 8);  // age 0x80: score 0.5, the middle octile
    const std::vector<std::uint64_t> h = heat.histogram();
    ASSERT_EQ(h.size(), 8u);
    std::uint64_t total = 0;
    for (const std::uint64_t n : h) total += n;
    EXPECT_EQ(total, heat.num_buckets());
    EXPECT_EQ(h.front(), 2u);  // the two untouched buckets
    EXPECT_EQ(h[4], 1u);       // the freshly hot one
    EXPECT_EQ(heat.ping_pongs(), 0u);  // initial flips are not flaps
}

// ---------------------------------------------------------------------
// Integration: scanner + daemon against a live device.
// ---------------------------------------------------------------------

struct Fixture {
    os::Kernel kernel;
    os::Process &proc;
    MemifDevice dev;
    MemifUser user;

    explicit Fixture(MemifConfig cfg)
        : proc(kernel.create_process()), dev(kernel, proc, cfg), user(dev)
    {
    }

    ~Fixture()
    {
        std::string why;
        EXPECT_TRUE(dev.check_quiesced(&why)) << "teardown: " << why;
    }

    void
    fill(vm::VAddr base, std::uint64_t bytes, std::uint8_t seed)
    {
        std::vector<std::uint8_t> buf(bytes);
        for (std::uint64_t i = 0; i < bytes; ++i)
            buf[i] = static_cast<std::uint8_t>(seed + i * 13);
        ASSERT_TRUE(proc.as().write(base, buf.data(), bytes));
    }

    bool
    check(vm::VAddr base, std::uint64_t bytes, std::uint8_t seed)
    {
        std::vector<std::uint8_t> buf(bytes);
        if (!proc.as().read(base, buf.data(), bytes)) return false;
        for (std::uint64_t i = 0; i < bytes; ++i)
            if (buf[i] != static_cast<std::uint8_t>(seed + i * 13))
                return false;
        return true;
    }

    /** Node the backing frame of page @p idx of @p base's vma lives on. */
    mem::NodeId
    node_of_page(vm::VAddr base, std::uint64_t idx)
    {
        const vm::Vma *vma = proc.as().find_vma(base);
        EXPECT_NE(vma, nullptr);
        return kernel.phys().node_of(vma->pte(idx).pfn);
    }
};

/** managed() tightened for tests: fast scan epochs, small buckets. */
MemifConfig
test_managed()
{
    MemifConfig c = MemifConfig::managed();
    c.heat_scan_interval = sim::microseconds(100);
    return c;
}

/** One read touch on every page of [base, base + pages) at t=0. */
sim::Task
touch_all(Fixture &f, vm::VAddr base, std::uint32_t pages)
{
    for (std::uint32_t p = 0; p < pages; ++p) {
        os::TouchOutcome t;
        co_await f.proc.touch(base + std::uint64_t{p} * 4096, false, &t);
    }
}

TEST(Managed, PromoteStormThenCoolDownDemotesAndQuiesces)
{
    Fixture f(test_managed());
    const std::uint32_t pages = 32;  // 4 buckets of 8
    const vm::VAddr base = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                       f.kernel.slow_node());
    f.fill(base, pages * 4096, 17);
    ASSERT_TRUE(f.dev.manage_region(base));
    EXPECT_EQ(f.dev.managed_region_count(), 1u);

    // One touch pass, then silence: the first scan epoch marks every
    // bucket accessed (promote storm), the following idle epochs decay
    // them cold (demotions), then the scanner parks and the event
    // queue runs dry.
    f.kernel.spawn(touch_all(f, base, pages));
    f.kernel.run();

    const DeviceStats &ds = f.dev.stats();
    EXPECT_GE(ds.heat_scans, 6u);
    EXPECT_EQ(ds.promotions_issued, 4u);
    EXPECT_EQ(ds.promotions_completed, 4u);
    EXPECT_EQ(ds.demotions_issued, 4u);
    EXPECT_EQ(ds.demotions_completed, 4u);
    EXPECT_EQ(ds.daemon_movs_dropped, 0u);
    // Fully cooled: everything migrated back where it started, with
    // the contents intact across both round trips.
    for (std::uint32_t p = 0; p < pages; ++p)
        EXPECT_EQ(f.node_of_page(base, p), f.kernel.slow_node())
            << "page " << p;
    EXPECT_TRUE(f.check(base, pages * 4096, 17));
    EXPECT_GT(f.proc.as().stats().heat_samples, 0u);
    EXPECT_GT(f.proc.as().stats().heat_rearms, 0u);
}

TEST(Managed, EpochBudgetBoundsTheDaemonsRate)
{
    MemifConfig cfg = test_managed();
    cfg.migrate_pages_per_epoch = 8;  // one bucket per epoch
    Fixture f(cfg);
    const std::uint32_t pages = 32;
    const vm::VAddr base = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                       f.kernel.slow_node());
    f.fill(base, pages * 4096, 23);
    ASSERT_TRUE(f.dev.manage_region(base));

    f.kernel.spawn(touch_all(f, base, pages));
    f.kernel.run();

    // All four buckets still promoted (and later demoted), but spread
    // over epochs: the budget ran out at least once per direction.
    const DeviceStats &ds = f.dev.stats();
    EXPECT_EQ(ds.promotions_completed, 4u);
    EXPECT_EQ(ds.demotions_completed, 4u);
    EXPECT_GE(ds.daemon_budget_exhausted, 2u);
    EXPECT_TRUE(f.check(base, pages * 4096, 23));
}

TEST(Managed, DaemonAbsorbsFaultBurstsWithoutPerturbingAppRequests)
{
    Fixture f(test_managed());
    const std::uint32_t pages = 32;
    const vm::VAddr base = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                       f.kernel.slow_node());
    f.fill(base, pages * 4096, 41);
    const vm::VAddr src = f.proc.mmap(16 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst = f.proc.mmap(16 * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    f.fill(src, 16 * 4096, 7);
    ASSERT_TRUE(f.dev.manage_region(base));

    // Heavy allocation-failure burst: nearly every daemon promotion
    // dies at the fast-node allocation, plus DMA TC errors rattling
    // the recovery ladder under everything.
    sim::FaultInjector &fi = f.kernel.faults();
    fi.seed(0xC001D00Dull);
    fi.arm_probability(kFaultAllocFail, 0.9);
    fi.arm_probability(dma::kFaultTcError, 0.2);

    // A concurrent app replication must ride through untouched — the
    // daemon's failures are absorbed (drop + cooldown), never retried
    // or escalated on a path the app can feel.
    const std::uint32_t idx = f.user.alloc_request();
    ASSERT_NE(idx, kNoRequest);
    MovReq &req = f.user.request(idx);
    req.op = MovOp::kReplicate;
    req.src_base = src;
    req.dst_base = dst;
    req.num_pages = 16;
    f.kernel.spawn(touch_all(f, base, pages));
    f.kernel.spawn(f.user.submit(idx));
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, 16 * 4096, 7));
    EXPECT_TRUE(f.check(base, pages * 4096, 41));
    const DeviceStats &ds = f.dev.stats();
    EXPECT_GE(ds.daemon_movs_dropped, 1u);
    // Dropped is dropped: issued = completed + dropped, nothing lost.
    EXPECT_EQ(ds.promotions_issued + ds.demotions_issued,
              ds.promotions_completed + ds.demotions_completed +
                  ds.daemon_movs_dropped);
}

/** Poll every 100 ns of simulated time until @p done holds. */
template <typename Pred>
sim::Task
wait_until(Fixture &f, Pred done)
{
    while (!done()) co_await sim::Delay{f.kernel.eq(), 100};
}

/** Replicate @p npages from @p src to @p dst and wait for the outcome;
 *  the request's final status lands in @p status, its error in @p err. */
sim::Task
replicate_and_wait(Fixture &f, vm::VAddr src, std::uint32_t npages,
                   vm::VAddr dst, MovStatus *status, MovError *err)
{
    const std::uint32_t idx = f.user.alloc_request();
    MovReq &req = f.user.request(idx);
    req.op = MovOp::kReplicate;
    req.src_base = src;
    req.dst_base = dst;
    req.num_pages = npages;
    co_await f.user.submit(idx);
    co_await wait_until(f, [&req] {
        const MovStatus st = req.load_status();
        return st != MovStatus::kSubmitted && st != MovStatus::kInFlight;
    });
    *status = req.load_status();
    *err = req.error;
    f.user.free_request(idx);
}

// App and daemon movs over the same pages never overlap in flight:
// whichever reaches Prep second bounces with kBusy. That is why a
// move is never retargeted mid-copy — its frames cannot change under
// it while it is in flight.
TEST(Managed, AppAndDaemonCollisionsBounceWithKBusy)
{
    Fixture f(test_managed());
    const std::uint32_t pages = 32;  // 4 buckets of 8
    const vm::VAddr base = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                       f.kernel.slow_node());
    f.fill(base, pages * 4096, 29);
    const vm::VAddr dst = f.proc.mmap(3 * 8 * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    ASSERT_TRUE(f.dev.manage_region(base));
    const vm::Vma *vma = f.proc.as().find_vma(base);
    ASSERT_NE(vma, nullptr);
    const DeviceStats &ds = f.dev.stats();

    MovStatus st[3] = {};
    MovError err[3] = {};
    std::uint64_t dropped_after_first = 0;
    auto app = [&]() -> sim::Task {
        // 1. The first scan epoch finds every bucket hot; the app
        //    replicates bucket 0 before the daemon's promotion of it
        //    reaches Prep, so that promotion is dropped.
        co_await wait_until(f, [&] { return ds.heat_scans >= 1; });
        co_await replicate_and_wait(f, base, 8, dst, &st[0], &err[0]);
        dropped_after_first = ds.daemon_movs_dropped;
        // 2. After its one-epoch cooldown the daemon promotes bucket 0
        //    again. A replication submitted while that migration is in
        //    flight bounces with kBusy; its retry after the migration
        //    lands the bytes.
        co_await wait_until(f, [&] { return vma->pte(0).migration; });
        co_await replicate_and_wait(f, base, 8, dst + 8 * 4096, &st[1],
                                    &err[1]);
        co_await wait_until(f, [&] { return !vma->pte(0).migration; });
        co_await replicate_and_wait(f, base, 8, dst + 16 * 4096, &st[2],
                                    &err[2]);
    };
    f.kernel.spawn(touch_all(f, base, pages));
    f.kernel.spawn(app());
    f.kernel.run();

    EXPECT_EQ(st[0], MovStatus::kDone);
    EXPECT_EQ(dropped_after_first, 1u);
    EXPECT_EQ(st[1], MovStatus::kFailed);
    EXPECT_EQ(err[1], MovError::kBusy);
    EXPECT_EQ(st[2], MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, 8 * 4096, 29));
    EXPECT_TRUE(f.check(dst + 16 * 4096, 8 * 4096, 29));
    EXPECT_TRUE(f.check(base, pages * 4096, 29));
    // The only drop is the first collision; nothing else was lost.
    EXPECT_EQ(ds.daemon_movs_dropped, 1u);
    EXPECT_EQ(ds.promotions_issued + ds.demotions_issued,
              ds.promotions_completed + ds.demotions_completed +
                  ds.daemon_movs_dropped);
}

TEST(Managed, AutoMigrateOffIsInert)
{
    Fixture f(MemifConfig::tenanted());
    const vm::VAddr base = f.proc.mmap(16 * 4096, vm::PageSize::k4K);
    f.fill(base, 16 * 4096, 5);

    // The lever is off: nothing to manage, no scanner, no daemon.
    EXPECT_FALSE(f.dev.manage_region(base));
    EXPECT_EQ(f.dev.managed_region_count(), 0u);

    const vm::VAddr dst = f.proc.mmap(16 * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    const std::uint32_t idx = f.user.alloc_request();
    MovReq &req = f.user.request(idx);
    req.op = MovOp::kReplicate;
    req.src_base = base;
    req.dst_base = dst;
    req.num_pages = 16;
    f.kernel.spawn(f.user.submit(idx));
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    const DeviceStats &ds = f.dev.stats();
    EXPECT_EQ(ds.heat_scans, 0u);
    EXPECT_EQ(ds.promotions_issued, 0u);
    EXPECT_EQ(ds.demotions_issued, 0u);
    EXPECT_EQ(f.proc.as().stats().heat_samples, 0u);
}

TEST(Managed, UnmanageStopsFutureScansOfTheRegion)
{
    Fixture f(test_managed());
    const vm::VAddr base = f.proc.mmap(16 * 4096, vm::PageSize::k4K,
                                       f.kernel.slow_node());
    f.fill(base, 16 * 4096, 66);
    ASSERT_TRUE(f.dev.manage_region(base));
    ASSERT_TRUE(f.dev.manage_region(base));  // idempotent
    EXPECT_EQ(f.dev.managed_region_count(), 1u);

    f.dev.unmanage_region(base);
    EXPECT_EQ(f.dev.managed_region_count(), 0u);

    // With nothing managed the scanner parks immediately; the run ends
    // with zero daemon activity.
    f.kernel.run();
    EXPECT_EQ(f.dev.stats().promotions_issued, 0u);
    EXPECT_EQ(f.dev.stats().demotions_issued, 0u);
}

}  // namespace
}  // namespace memif::core
