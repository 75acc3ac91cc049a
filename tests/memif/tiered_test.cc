/**
 * @file
 * Tiered-memory tests: chained multi-hop migration between the SRAM
 * and far tiers (staged through DDR), pipelined batch overlap, and the
 * per-hop recovery ladder — injected TC errors and lost IRQs on the
 * second hop of a demotion chain must either be absorbed hop-locally
 * or roll the whole chain back with no leaked staging frames or
 * descriptor leases (the fixture's quiesce sweep checks both).
 */
#include "memif/device.h"

#include <gtest/gtest.h>

#include <vector>

#include "dma/engine.h"
#include "memif/user_api.h"
#include "os/kernel.h"
#include "os/process.h"
#include "sim/task.h"
#include "sim/trace.h"
#include "sim/types.h"

namespace memif::core {
namespace {

MemifConfig
tiered_cfg()
{
    // The tiered lever pair alone, without the managed daemon — these
    // tests drive migrations by hand and must not share the machine
    // with scanner-originated movs.
    MemifConfig cfg;
    cfg.tiered_memory = true;
    cfg.pipelined_eviction = true;
    // Hop stages overlap across transfer controllers; pinning every
    // stage to one TC would serialize them at the engine.
    cfg.multi_tc_dispatch = true;
    return cfg;
}

struct Fixture {
    os::Kernel kernel;
    os::Process &proc;
    MemifDevice dev;
    MemifUser user;

    explicit Fixture(MemifConfig cfg = tiered_cfg(),
                     std::uint64_t far_bytes = 64ull << 20,
                     std::uint64_t slow_bytes =
                         mem::KeystoneMemory::kDefaultSlowBytes)
        : kernel(os::KernelConfig{.slow_bytes = slow_bytes,
                                  .far_bytes = far_bytes}),
          proc(kernel.create_process()),
          dev(kernel, proc, cfg),
          user(dev)
    {
    }

    ~Fixture()
    {
        // No test may leave the driver dirty: empty flight table, no
        // leased descriptors, and — the tiered invariant — zero
        // staging frames still out of the pool.
        std::string why;
        EXPECT_TRUE(dev.check_quiesced(&why)) << "teardown: " << why;
    }

    sim::FaultInjector &faults() { return kernel.faults(); }

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

    std::uint32_t
    migrate(vm::VAddr src, std::uint32_t npages, mem::NodeId dst_node)
    {
        const std::uint32_t idx = user.alloc_request();
        EXPECT_NE(idx, kNoRequest);
        MovReq &req = user.request(idx);
        req.op = MovOp::kMigrate;
        req.src_base = src;
        req.num_pages = npages;
        req.dst_node = dst_node;
        kernel.spawn(user.submit(idx));
        return idx;
    }

    void
    expect_on_node(vm::VAddr base, std::uint64_t npages, mem::NodeId n)
    {
        vm::Vma *vma = proc.as().find_vma(base);
        ASSERT_NE(vma, nullptr);
        for (std::uint64_t i = 0; i < npages; ++i) {
            const vm::Pte pte = vma->pte(i);
            EXPECT_EQ(kernel.phys().node_of(pte.pfn), n) << "page " << i;
            EXPECT_FALSE(pte.migration) << "page " << i;
        }
    }
};

TEST(Tiered, DemotionToFarChainsThroughDdr)
{
    Fixture f;
    const vm::VAddr base =
        f.proc.mmap(8 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(base, 8 * 4096, 42);

    const std::uint32_t idx = f.migrate(base, 8, f.kernel.far_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 8 * 4096, 42));
    f.expect_on_node(base, 8, f.kernel.far_node());
    // One chain, one batch (8 <= tiered_batch_pages), two hop stages.
    EXPECT_EQ(f.dev.stats().chained_migrations, 1u);
    EXPECT_EQ(f.dev.stats().chain_batches, 1u);
    EXPECT_EQ(f.dev.stats().hop_stages_issued, 2u);
    EXPECT_EQ(f.dev.stats().hop_stages_completed, 2u);
    EXPECT_EQ(f.dev.stats().chain_rollbacks, 0u);
    EXPECT_GT(f.dev.stats().staging_frames_hwm, 0u);
}

TEST(Tiered, AdjacentMigrationsNeverChain)
{
    // slow↔far and fast↔slow are one SLIT hop apart: no middle node is
    // strictly closer to both endpoints, so these stay single-transfer
    // moves even with the lever on.
    Fixture f;
    const vm::VAddr base = f.proc.mmap(8 * 4096, vm::PageSize::k4K);
    f.fill(base, 8 * 4096, 9);

    const std::uint32_t to_far = f.migrate(base, 8, f.kernel.far_node());
    f.kernel.run();
    EXPECT_EQ(f.user.request(to_far).load_status(), MovStatus::kDone);
    const std::uint32_t back = f.migrate(base, 8, f.kernel.slow_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(back).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 8 * 4096, 9));
    EXPECT_EQ(f.dev.stats().chained_migrations, 0u);
    EXPECT_EQ(f.dev.stats().hop_stages_issued, 0u);
}

TEST(Tiered, PromotionFromFarChainsBack)
{
    Fixture f;
    const vm::VAddr base =
        f.proc.mmap(16 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(base, 16 * 4096, 77);

    const std::uint32_t down = f.migrate(base, 16, f.kernel.far_node());
    f.kernel.run();
    ASSERT_EQ(f.user.request(down).load_status(), MovStatus::kDone);
    const std::uint32_t up = f.migrate(base, 16, f.kernel.fast_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(up).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 16 * 4096, 77));
    f.expect_on_node(base, 16, f.kernel.fast_node());
    EXPECT_EQ(f.dev.stats().chained_migrations, 2u);
    EXPECT_EQ(f.dev.stats().chain_rollbacks, 0u);
}

TEST(Tiered, PipelinedBatchesOverlapAndBeatSequential)
{
    auto run = [](bool pipelined) {
        MemifConfig cfg = tiered_cfg();
        cfg.pipelined_eviction = pipelined;
        Fixture f(cfg);
        const vm::VAddr base = f.proc.mmap(64 * 4096, vm::PageSize::k4K,
                                           f.kernel.fast_node());
        f.fill(base, 64 * 4096, 5);
        const std::uint32_t idx =
            f.migrate(base, 64, f.kernel.far_node());
        f.kernel.run();
        EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
        EXPECT_TRUE(f.check(base, 64 * 4096, 5));
        EXPECT_EQ(f.dev.stats().chain_batches, 4u);  // 64 / 16
        EXPECT_EQ(f.dev.stats().hop_stages_issued, 8u);
        if (pipelined)
            EXPECT_GT(f.dev.stats().hop_overlap_events, 0u);
        else
            EXPECT_EQ(f.dev.stats().hop_overlap_events, 0u);
        return f.kernel.eq().now();
    };
    const std::uint64_t sequential = run(false);
    const std::uint64_t pipelined = run(true);
    EXPECT_LT(pipelined, sequential)
        << "out-of-order hop stages must beat store-and-forward";
}

TEST(Tiered, TcErrorOnSecondHopIsRetriedHopLocally)
{
    // The error hits hop 2 only; hop 1's copy into staging is already
    // safe, so recovery replays just the second stage.
    Fixture f;
    const vm::VAddr base =
        f.proc.mmap(8 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(base, 8 * 4096, 31);
    f.faults().arm_nth(dma::kFaultTcError, 2);

    const std::uint32_t idx = f.migrate(base, 8, f.kernel.far_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 8 * 4096, 31));
    f.expect_on_node(base, 8, f.kernel.far_node());
    EXPECT_EQ(f.dev.stats().dma_errors, 1u);
    EXPECT_EQ(f.dev.stats().hop_retries, 1u);
    EXPECT_EQ(f.dev.stats().hop_stages_issued, 3u);  // 2 + 1 replay
    EXPECT_EQ(f.dev.stats().chain_rollbacks, 0u);
    EXPECT_EQ(f.kernel.dma_engine().stats().transfers_failed, 1u);
}

TEST(Tiered, UnrecoverableSecondHopRollsBackTheWholeChain)
{
    // Ladder exhausted mid-chain (no retries, no CPU fallback): the
    // master restores the old PTEs and frees the new frames. Hop 1's
    // bytes sat in staging frames no PTE ever pointed at, so partial
    // progress is invisible — and the staging lease must be returned
    // (fixture teardown asserts the pool drained).
    MemifConfig cfg = tiered_cfg();
    cfg.cpu_copy_fallback = false;
    cfg.dma_max_retries = 0;
    Fixture f(cfg);
    const vm::VAddr base =
        f.proc.mmap(8 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(base, 8 * 4096, 63);
    const std::uint64_t outstanding_before =
        f.kernel.phys().outstanding_pages();
    f.faults().arm_nth(dma::kFaultTcError, 2);  // second hop only

    const std::uint32_t idx = f.migrate(base, 8, f.kernel.far_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kFailed);
    EXPECT_EQ(f.user.request(idx).error, MovError::kDmaError);
    EXPECT_TRUE(f.check(base, 8 * 4096, 63));
    f.expect_on_node(base, 8, f.kernel.fast_node());
    EXPECT_EQ(f.kernel.phys().outstanding_pages(), outstanding_before);
    EXPECT_EQ(f.dev.stats().chain_rollbacks, 1u);
    EXPECT_EQ(f.dev.stats().rollbacks, 1u);
    // The region stays usable after the rollback.
    f.fill(base, 8 * 4096, 64);
    EXPECT_TRUE(f.check(base, 8 * 4096, 64));
}

TEST(Tiered, LostIrqOnSecondHopIsCaughtByTheHopDeadline)
{
    // The transfer completes but its IRQ is dropped: the hop's own
    // deadline timer fires, the stage reads the clean completion and
    // reclaims the descriptor lease itself — no retry, no second copy,
    // no leaked lease (teardown quiesce).
    Fixture f;
    const vm::VAddr base =
        f.proc.mmap(8 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(base, 8 * 4096, 88);
    f.faults().arm_nth(dma::kFaultLostIrq, 2);

    const std::uint32_t idx = f.migrate(base, 8, f.kernel.far_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 8 * 4096, 88));
    f.expect_on_node(base, 8, f.kernel.far_node());
    // The transfer itself completed, so the deadline wake reads a
    // clean record: no timeout is charged and nothing is recopied.
    EXPECT_EQ(f.dev.stats().watchdog_timeouts, 0u);
    EXPECT_EQ(f.dev.stats().hop_retries, 0u);
    EXPECT_EQ(f.dev.stats().chain_rollbacks, 0u);
    EXPECT_EQ(f.kernel.dma_engine().stats().interrupts_lost, 1u);
}

TEST(Tiered, PersistentHopErrorFallsBackToCpuCopy)
{
    // Every transfer errors: each hop burns its retries then the CPU
    // copies that hop's bytes — the chain still completes end to end.
    Fixture f;
    const vm::VAddr base =
        f.proc.mmap(8 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(base, 8 * 4096, 19);
    f.faults().arm_probability(dma::kFaultTcError, 1.0);

    const std::uint32_t idx = f.migrate(base, 8, f.kernel.far_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 8 * 4096, 19));
    f.expect_on_node(base, 8, f.kernel.far_node());
    EXPECT_EQ(f.dev.stats().hop_fallback_copies, 2u);  // one per hop
    EXPECT_EQ(f.dev.stats().chain_rollbacks, 0u);
}

// ---------------------------------------------------------------------
// The managed daemon's three-way verdict under DDR pressure.
// ---------------------------------------------------------------------

/** tiered() with test-sized scan epochs: the daemon runs on top of
 *  the chained-migration levers. */
MemifConfig
managed_tiered_cfg()
{
    MemifConfig cfg = MemifConfig::tiered();
    cfg.heat_scan_interval = sim::microseconds(100);
    return cfg;
}

/** Touch pages [first, first + pages) of @p base once per scan epoch,
 *  @p epochs times; no touch may find a page unmapped. */
sim::Task
touch_window(Fixture &f, vm::VAddr base, std::uint32_t first,
             std::uint32_t pages, std::uint32_t epochs, bool *all_ok)
{
    for (std::uint32_t e = 0; e < epochs; ++e) {
        for (std::uint32_t p = first; p < first + pages; ++p) {
            os::TouchOutcome t;
            co_await f.proc.touch(base + std::uint64_t{p} * 4096, false,
                                  &t);
            if (t.result == vm::AccessResult::kNotPresent) *all_ok = false;
        }
        co_await sim::Delay{f.kernel.eq(), sim::microseconds(100)};
    }
}

/** A hot window swept for a while, then moved to a second window. */
sim::Task
moving_window(Fixture &f, vm::VAddr base, bool *all_ok)
{
    co_await touch_window(f, base, 0, 16, 12, all_ok);
    co_await touch_window(f, base, 32, 16, 12, all_ok);
}

/** Run until the event queue drains, giving up at @p bound of virtual
 *  time: a scanner that never parks fails the caller instead of
 *  hanging it. */
bool
runs_to_quiescence(Fixture &f, sim::Duration bound)
{
    f.kernel.run_until(bound);
    return f.kernel.eq().empty();
}

std::uint64_t
pages_on(Fixture &f, vm::VAddr base, std::uint64_t npages, mem::NodeId n)
{
    const vm::Vma *vma = f.proc.as().find_vma(base);
    std::uint64_t count = 0;
    for (std::uint64_t i = 0; i < npages; ++i)
        if (f.kernel.phys().node_of(vma->pte(i).pfn) == n) ++count;
    return count;
}

TEST(Tiered, RoomyDdrKeepsColdBucketsOffTheFarTier)
{
    // 256 MB of DDR holds the whole set many times over: no scan epoch
    // is pressured, so buckets the hot window left go SRAM -> DDR and
    // stay there; nothing is demoted to the far tier.
    Fixture f{managed_tiered_cfg()};
    const std::uint32_t pages = 64;  // 8 buckets
    const vm::VAddr base =
        f.proc.mmap(pages * 4096, vm::PageSize::k4K, f.kernel.slow_node());
    f.fill(base, pages * 4096, 31);
    ASSERT_TRUE(f.dev.manage_region(base));

    bool all_ok = true;
    f.kernel.spawn(moving_window(f, base, &all_ok));
    ASSERT_TRUE(runs_to_quiescence(f, sim::milliseconds(50)));

    const DeviceStats &ds = f.dev.stats();
    EXPECT_TRUE(all_ok);
    EXPECT_GT(ds.promotions_completed, 0u) << "the window never went hot";
    EXPECT_GT(ds.demotions_completed, 0u);
    EXPECT_EQ(ds.ddr_pressure_epochs, 0u);
    EXPECT_EQ(ds.demotions_to_far, 0u);
    EXPECT_EQ(ds.promotions_from_far, 0u);
    // Both windows cooled off SRAM and came to rest on DDR.
    EXPECT_EQ(pages_on(f, base, pages, f.kernel.slow_node()), pages);
    EXPECT_TRUE(f.check(base, pages * 4096, 31));
}

TEST(Tiered, SqueezedDdrDemotesColdBucketsToFar)
{
    // 2 MB of DDR, 384 pages of it managed: the set alone leaves DDR
    // under its free-frame watermark, so cold buckets sink to the far
    // tier until DDR has room again.
    Fixture f{managed_tiered_cfg(), 64ull << 20, 2ull << 20};
    f.kernel.tracer().enable();
    const std::uint32_t pages = 384;
    const vm::VAddr base =
        f.proc.mmap(pages * 4096, vm::PageSize::k4K, f.kernel.slow_node());
    ASSERT_NE(base, 0u);
    f.fill(base, pages * 4096, 47);
    ASSERT_TRUE(f.dev.manage_region(base));

    bool all_ok = true;
    f.kernel.spawn(moving_window(f, base, &all_ok));
    ASSERT_TRUE(runs_to_quiescence(f, sim::milliseconds(50)));
    // The app still allocates on DDR once the daemon is done: demotion
    // to far made room rather than consuming it.
    const vm::VAddr more =
        f.proc.mmap(64 * 4096, vm::PageSize::k4K, f.kernel.slow_node());
    EXPECT_NE(more, 0u);

    const DeviceStats &ds = f.dev.stats();
    EXPECT_TRUE(all_ok);
    EXPECT_GT(ds.ddr_pressure_epochs, 0u);
    EXPECT_GT(ds.demotions_to_far, 0u);
    EXPECT_GT(pages_on(f, base, pages, f.kernel.far_node()), 0u);
    EXPECT_TRUE(f.check(base, pages * 4096, 47));
    // Every pressured epoch left one mark on the trace.
    std::uint64_t traced = 0;
    for (const sim::TraceRecord &r : f.kernel.tracer().records())
        if (r.point == sim::TracePoint::kDdrPressure) ++traced;
    EXPECT_EQ(traced, ds.ddr_pressure_epochs);
}

TEST(Tiered, IdleScannerParksWhileDdrHasRoom)
{
    // One touch, then silence. With room on DDR the cooled buckets'
    // verdict is kStay for the scanner and the daemon alike, so the
    // scanner parks and the event queue drains. A scanner that saw a
    // far verdict the daemon refused would run forever.
    Fixture f{managed_tiered_cfg()};
    const std::uint32_t pages = 32;
    const vm::VAddr base =
        f.proc.mmap(pages * 4096, vm::PageSize::k4K, f.kernel.slow_node());
    f.fill(base, pages * 4096, 59);
    ASSERT_TRUE(f.dev.manage_region(base));

    bool all_ok = true;
    f.kernel.spawn(touch_window(f, base, 0, pages, 1, &all_ok));
    EXPECT_TRUE(runs_to_quiescence(f, sim::milliseconds(20)))
        << "scanner still running after 200 scan epochs";
    EXPECT_TRUE(all_ok);
    EXPECT_EQ(f.dev.stats().demotions_to_far, 0u);
    EXPECT_EQ(pages_on(f, base, pages, f.kernel.slow_node()), pages);
    EXPECT_TRUE(f.check(base, pages * 4096, 59));
}

TEST(Tiered, LeverOffNeverChains)
{
    // Same machine (far node present), lever off: a fast→far migration
    // is one direct transfer, as before the tier shipped.
    Fixture f{MemifConfig{}};
    const vm::VAddr base =
        f.proc.mmap(8 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(base, 8 * 4096, 50);

    const std::uint32_t idx = f.migrate(base, 8, f.kernel.far_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 8 * 4096, 50));
    f.expect_on_node(base, 8, f.kernel.far_node());
    EXPECT_EQ(f.dev.stats().chained_migrations, 0u);
    EXPECT_EQ(f.dev.stats().hop_stages_issued, 0u);
}

}  // namespace
}  // namespace memif::core
