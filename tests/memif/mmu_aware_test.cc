/**
 * @file
 * MMU-aware DMA tests: translation prefetch ahead of the consumption
 * stream and SVA-routed replication. The races this PR introduces —
 * a shootdown landing between prefetch issue and fill, a retried chain
 * reusing stale translations, an IOMMU walk fault mid-stream — must
 * never surface as wrong bytes; only as stalls, demand walks, or a
 * clean kXlateFault through the recovery ladder.
 */
#include "memif/device.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "dma/engine.h"
#include "memif/user_api.h"
#include "memif/xlate_cache.h"
#include "os/kernel.h"
#include "os/process.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/task.h"
#include "sim/types.h"

namespace memif::core {
namespace {

struct Fixture {
    os::Kernel kernel;
    os::Process &proc;
    MemifDevice dev;
    MemifUser user;

    explicit Fixture(MemifConfig cfg = MemifConfig::mmu_aware())
        : proc(kernel.create_process()),
          dev(kernel, proc, cfg),
          user(dev)
    {
    }

    ~Fixture()
    {
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
    replicate(vm::VAddr src, std::uint32_t npages, vm::VAddr dst)
    {
        const std::uint32_t idx = user.alloc_request();
        EXPECT_NE(idx, kNoRequest);
        MovReq &req = user.request(idx);
        req.op = MovOp::kReplicate;
        req.src_base = src;
        req.dst_base = dst;
        req.num_pages = npages;
        kernel.spawn(user.submit(idx));
        return idx;
    }
};

/** mmu_aware() with coalescing off: every 4 KB chunk is its own SG
 *  entry / stream slot, so the prefetcher has a real stream to run
 *  ahead of (the buddy allocator's contiguous frames would otherwise
 *  collapse the whole region into a couple of descriptors). */
MemifConfig
uncoalesced_mmu_aware()
{
    MemifConfig c = MemifConfig::mmu_aware();
    c.sg_coalescing = false;
    return c;
}

// ---------------------------------------------------------------------
// XlateCache pending-prefetch unit coverage: the generation check at
// fill time is what makes the issue->fill window race-safe.
// ---------------------------------------------------------------------

TEST(XlatePrefetch, FillAfterInvalidationIsDropped)
{
    Fixture f;  // only used to mint a real Vma
    const vm::VAddr base = f.proc.mmap(8 * 4096, vm::PageSize::k4K);
    vm::Vma *vma = f.proc.as().find_vma(base);
    ASSERT_NE(vma, nullptr);
    auto walk = [&](std::uint64_t first, std::uint64_t n) {
        std::vector<vm::Pte> ptes;
        for (std::uint64_t i = 0; i < n; ++i)
            ptes.push_back(vma->pte(first + i));
        return ptes;
    };

    XlateCache cache(8);
    // Clean prefetch: issue, fill, hit.
    const std::uint64_t t0 = cache.begin_prefetch(vma, 0, 4);
    EXPECT_EQ(cache.pending_prefetches().size(), 1u);
    EXPECT_TRUE(cache.fill_prefetch(t0, walk(0, 4)));
    EXPECT_TRUE(cache.pending_prefetches().empty());
    EXPECT_NE(cache.lookup(vma, 0, 4), nullptr);

    // Shootdown lands between issue and fill: the fill must be
    // dropped — the walk it snapshots may predate the PTE change.
    const std::uint64_t t1 = cache.begin_prefetch(vma, 4, 4);
    EXPECT_EQ(cache.invalidate(vma, 5, 1), 0u);  // kills the pending
    EXPECT_FALSE(cache.fill_prefetch(t1, walk(4, 4)));
    EXPECT_TRUE(cache.pending_prefetches().empty());
    EXPECT_EQ(cache.lookup(vma, 4, 4), nullptr);

    // Non-overlapping invalidations leave a pending alive.
    const std::uint64_t t2 = cache.begin_prefetch(vma, 4, 2);
    cache.invalidate(vma, 0, 2);
    EXPECT_TRUE(cache.fill_prefetch(t2, walk(4, 2)));
    EXPECT_NE(cache.lookup(vma, 4, 2), nullptr);

    // Unknown / already-consumed tokens are rejected.
    EXPECT_FALSE(cache.fill_prefetch(t2, walk(4, 2)));
    EXPECT_FALSE(cache.fill_prefetch(987654u, walk(0, 1)));

    // An empty fill cleanly retires a pending (cancellation drain).
    const std::uint64_t t3 = cache.begin_prefetch(vma, 0, 2);
    EXPECT_TRUE(cache.fill_prefetch(t3, {}));
    EXPECT_TRUE(cache.pending_prefetches().empty());
    EXPECT_EQ(cache.lookup(vma, 0, 2), nullptr);
}

// ---------------------------------------------------------------------
// SVA-routed replication: correctness and prefetch-overlap accounting.
// ---------------------------------------------------------------------

TEST(MmuAware, SvaReplicationStreamsCorrectBytes)
{
    Fixture f(uncoalesced_mmu_aware());
    const std::uint32_t pages = 64;
    const vm::VAddr src = f.proc.mmap(pages * 4096, vm::PageSize::k4K);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    f.fill(src, pages * 4096, 42);

    const std::uint32_t idx = f.replicate(src, pages, dst);
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, pages * 4096, 42));
    const DeviceStats &ds = f.dev.stats();
    // Every slot went through the gate and resolved live.
    EXPECT_EQ(ds.sva_resolved, pages);
    EXPECT_EQ(ds.sva_faults, 0u);
    // The whole stream was prefetched; the bulk of it landed before
    // the consumer got there (first window is synchronous, later
    // batches walk ~16x faster than the 4 KB copies stream).
    EXPECT_EQ(ds.stream_prefetch_issued, pages);
    EXPECT_GE(ds.stream_prefetch_hits, pages / 2);
    EXPECT_EQ(ds.stream_prefetch_hits + ds.stream_prefetch_late +
                  ds.stream_prefetch_wasted,
              pages);
    EXPECT_EQ(f.kernel.dma_engine().stats().gated_transfers, 1u);
}

TEST(MmuAware, WarmSvaStreamSkipsTheWalk)
{
    // The stream prefetcher checks the gang cache first: a region pair
    // replicated a second time finds every window already translated
    // by the first pass, so the repeat walks nothing: no prep-time
    // walk charge, no demand walk, no consumer stall.
    Fixture f(uncoalesced_mmu_aware());
    const std::uint32_t pages = 32;
    const vm::VAddr src = f.proc.mmap(pages * 4096, vm::PageSize::k4K);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    f.fill(src, pages * 4096, 64);

    const std::uint32_t first = f.replicate(src, pages, dst);
    f.kernel.run();
    ASSERT_EQ(f.user.request(first).load_status(), MovStatus::kDone);
    const DeviceStats before = f.dev.stats();
    const sim::CpuAccounting cpu_before = f.kernel.cpu().snapshot();

    const std::uint32_t second = f.replicate(src, pages, dst);
    f.kernel.run();

    EXPECT_EQ(f.user.request(second).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, pages * 4096, 64));
    const DeviceStats &ds = f.dev.stats();
    // One slot per page; every one was ready and cached at consumption.
    EXPECT_EQ(ds.stream_prefetch_issued - before.stream_prefetch_issued,
              pages);
    EXPECT_EQ(ds.stream_prefetch_hits - before.stream_prefetch_hits, pages);
    EXPECT_EQ(ds.consumer_stalls, before.consumer_stalls);
    EXPECT_EQ(ds.sva_demand_walks, before.sva_demand_walks);
    EXPECT_EQ(ds.sva_resolved - before.sva_resolved, pages);
    // Prep paid validation plus one probe per region, and no walk.
    const sim::CostModel &cm = f.kernel.costs();
    const sim::CpuAccounting spent =
        f.kernel.cpu().snapshot().since(cpu_before);
    EXPECT_EQ(spent.op(sim::Op::kPrep),
              cm.request_validate + cm.request_admin + 2 * cm.xlate_probe);
}

TEST(MmuAware, ShootdownStormNeverCorruptsTheStream)
{
    Fixture f(uncoalesced_mmu_aware());
    const std::uint32_t pages = 64;
    const vm::VAddr src = f.proc.mmap(pages * 4096, vm::PageSize::k4K);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    f.fill(src, pages * 4096, 77);

    // Race a TLB-shootdown storm over the source while the SVA stream
    // is consuming it: invalidations land between prefetch issue and
    // fill (fills dropped by the generation check) and between fill
    // and consumption (prefetched entries wasted, demand re-walks).
    const std::uint32_t idx = f.replicate(src, pages, dst);
    auto storm = [&]() -> sim::Task {
        for (std::uint32_t i = 0; i < 128; ++i) {
            f.proc.as().flush_tlb_page(src + (i % pages) * 4096,
                                       vm::PageSize::k4K);
            co_await sim::Delay{f.kernel.eq(), 400};
        }
    };
    f.kernel.spawn(storm());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, pages * 4096, 77));
    const DeviceStats &ds = f.dev.stats();
    // The storm must have been seen: dead fills dropped, and at least
    // some survivors invalidated before consumption forced re-walks.
    EXPECT_GE(ds.prefetch_fills_dropped, 1u);
    EXPECT_GE(ds.stream_prefetch_wasted + ds.sva_demand_walks, 1u);
    EXPECT_EQ(ds.sva_faults, 0u);
}

TEST(MmuAware, RetriedChainRevalidatesPrefetchedTranslations)
{
    Fixture f(uncoalesced_mmu_aware());
    const std::uint32_t pages = 32;
    const vm::VAddr src = f.proc.mmap(pages * 4096, vm::PageSize::k4K);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    f.fill(src, pages * 4096, 9);
    f.faults().arm_nth(dma::kFaultTcError, 1);

    const std::uint32_t idx = f.replicate(src, pages, dst);
    f.kernel.run();

    // The errored first attempt is restarted through the ladder; the
    // restart re-resolved every slot from the live tables (nothing
    // moved, so no rewrite was needed) and streamed clean.
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, pages * 4096, 9));
    EXPECT_EQ(f.dev.stats().dma_retries, 1u);
    EXPECT_EQ(f.dev.stats().sva_retranslated, 0u);
    EXPECT_EQ(f.dev.stats().sva_faults, 0u);
}

TEST(MmuAware, SvaWalkFaultMidChainRecoversThroughTheLadder)
{
    Fixture f(uncoalesced_mmu_aware());
    const std::uint32_t pages = 32;
    const vm::VAddr src = f.proc.mmap(pages * 4096, vm::PageSize::k4K);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    f.fill(src, pages * 4096, 31);
    // The 8th descriptor's IOMMU walk faults mid-stream; the retried
    // chain walks clean and completes.
    f.faults().arm_nth(kFaultSvaWalk, 8);

    const std::uint32_t idx = f.replicate(src, pages, dst);
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, pages * 4096, 31));
    const DeviceStats &ds = f.dev.stats();
    EXPECT_EQ(ds.sva_faults, 1u);
    EXPECT_EQ(ds.dma_retries, 1u);
    EXPECT_EQ(f.kernel.dma_engine().stats().gate_faults, 1u);
}

TEST(MmuAware, SvaWalkFaultSurfacesAsXlateFaultWithoutTheLadder)
{
    MemifConfig cfg = uncoalesced_mmu_aware();
    cfg.cpu_copy_fallback = false;
    cfg.dma_max_retries = 0;
    Fixture f(cfg);
    const std::uint32_t pages = 16;
    const vm::VAddr src = f.proc.mmap(pages * 4096, vm::PageSize::k4K);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    f.fill(src, pages * 4096, 3);
    f.fill(dst, pages * 4096, 99);  // pre-existing destination content
    f.faults().arm_nth(kFaultSvaWalk, 1);  // first descriptor faults

    const std::uint32_t idx = f.replicate(src, pages, dst);
    f.kernel.run();

    // With the ladder disarmed the fault is terminal and carries its
    // own error code; the fault hit descriptor 0, so not a byte moved.
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kFailed);
    EXPECT_EQ(f.user.request(idx).error, MovError::kXlateFault);
    EXPECT_TRUE(f.check(dst, pages * 4096, 99));
    EXPECT_EQ(f.dev.stats().sva_faults, 1u);
}

/** uncoalesced_mmu_aware() on the static completion rule and one TC,
 *  so a small request the kernel thread serves is polled (multi-TC
 *  dispatch and the adaptive controller keep everything irq-driven). */
MemifConfig
polled_mmu_aware()
{
    MemifConfig c = uncoalesced_mmu_aware();
    c.completion_batching = false;
    c.multi_tc_dispatch = false;
    return c;
}

/** Submit two 16-page replications back to back from one app task:
 *  the first is kicked and irq-driven, the second (64 KB, below the
 *  poll threshold) lands in the queue the kernel thread owns and is
 *  served in polled mode. Returns their request indices. */
std::pair<std::uint32_t, std::uint32_t>
replicate_kicked_then_polled(Fixture &f, vm::VAddr src, vm::VAddr dst)
{
    std::pair<std::uint32_t, std::uint32_t> idx{kNoRequest, kNoRequest};
    auto app = [&]() -> sim::Task {
        for (int r = 0; r < 2; ++r) {
            const std::uint32_t i = f.user.alloc_request();
            MovReq &req = f.user.request(i);
            req.op = MovOp::kReplicate;
            req.src_base = src + static_cast<vm::VAddr>(r) * 16 * 4096;
            req.dst_base = dst + static_cast<vm::VAddr>(r) * 16 * 4096;
            req.num_pages = 16;
            (r == 0 ? idx.first : idx.second) = i;
            co_await f.user.submit(i);
        }
    };
    f.kernel.spawn(app());
    f.kernel.run();
    return idx;
}

TEST(MmuAware, PolledSvaStreamCompletes)
{
    Fixture f(polled_mmu_aware());
    const std::uint32_t pages = 32;
    const vm::VAddr src = f.proc.mmap(pages * 4096, vm::PageSize::k4K);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    f.fill(src, pages * 4096, 58);

    const auto [idx0, idx1] = replicate_kicked_then_polled(f, src, dst);

    // The kernel thread's polled wait tolerates gate stalls pushing
    // the completion estimate: it re-sleeps instead of declaring the
    // transfer stuck.
    EXPECT_EQ(f.user.request(idx0).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.user.request(idx1).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, pages * 4096, 58));
    EXPECT_EQ(f.dev.stats().polled_completions, 1u);
    EXPECT_EQ(f.dev.stats().watchdog_timeouts, 0u);
    EXPECT_EQ(f.kernel.dma_engine().stats().gated_transfers, 2u);
}

TEST(MmuAware, PolledSvaWalkFaultSurfacesAsXlateFault)
{
    // The polled wait classifies a gate fault exactly as the IRQ path
    // does (SvaWalkFaultSurfacesAsXlateFaultWithoutTheLadder).
    MemifConfig cfg = polled_mmu_aware();
    cfg.cpu_copy_fallback = false;
    cfg.dma_max_retries = 0;
    Fixture f(cfg);
    const std::uint32_t pages = 32;
    const vm::VAddr src = f.proc.mmap(pages * 4096, vm::PageSize::k4K);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    f.fill(src, pages * 4096, 58);
    // Pre-existing content where the polled request would write.
    f.fill(dst + 16 * 4096, 16 * 4096, 99);
    // One TC serialises the chains, so the first request consumes
    // gate checks 1-16 and the polled one's first descriptor is 17th.
    f.faults().arm_nth(kFaultSvaWalk, 17);

    const auto [idx0, idx1] = replicate_kicked_then_polled(f, src, dst);

    EXPECT_EQ(f.user.request(idx0).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, 16 * 4096, 58));
    EXPECT_EQ(f.user.request(idx1).load_status(), MovStatus::kFailed);
    EXPECT_EQ(f.user.request(idx1).error, MovError::kXlateFault);
    EXPECT_TRUE(f.check(dst + 16 * 4096, 16 * 4096, 99));
    const DeviceStats &ds = f.dev.stats();
    EXPECT_EQ(ds.sva_faults, 1u);
    EXPECT_EQ(ds.dma_errors, 1u);
    EXPECT_EQ(ds.watchdog_timeouts, 0u);
    // Only the kicked transfer raised an interrupt: the faulted one
    // was supervised by the polled wait.
    EXPECT_EQ(f.kernel.dma_engine().stats().interrupts_raised, 1u);
}

TEST(MmuAware, LeversOffStaysOnThePrePinnedPath)
{
    // tenanted() differs from mmu_aware() only by sva_dma: with it
    // off, no transfer is gated and no prefetch machinery runs — the
    // pre-pinned contract of PR 1-6 is untouched.
    Fixture f(MemifConfig::tenanted());
    const std::uint32_t pages = 32;
    const vm::VAddr src = f.proc.mmap(pages * 4096, vm::PageSize::k4K);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    f.fill(src, pages * 4096, 12);

    const std::uint32_t idx = f.replicate(src, pages, dst);
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, pages * 4096, 12));
    const DeviceStats &ds = f.dev.stats();
    EXPECT_EQ(ds.stream_prefetch_issued, 0u);
    EXPECT_EQ(ds.sva_resolved, 0u);
    EXPECT_EQ(f.kernel.dma_engine().stats().gated_transfers, 0u);
}

}  // namespace
}  // namespace memif::core
