/**
 * @file
 * Translation-path tests under MMU events. Every move is translated at
 * Prep through the gang cache and pinned before its chain starts, so a
 * TLB shootdown over a region in flight, a TC error retried from the
 * recorded SG list, or a transfer supervised by the kernel thread's
 * polled wait must never surface as wrong bytes. Several test names
 * keep the wording of the retired consumption-time (SVA) path they were
 * first written for; each now checks the same property on the
 * pre-pinned path.
 */
#include "memif/device.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "dma/engine.h"
#include "memif/user_api.h"
#include "os/kernel.h"
#include "os/process.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/task.h"
#include "sim/types.h"

namespace memif::core {
namespace {

/** tenanted() with coalescing off: every 4 KB chunk of a replication is
 *  its own descriptor (the buddy allocator's contiguous frames would
 *  otherwise collapse the region into a couple of them). */
MemifConfig
uncoalesced_tenanted()
{
    MemifConfig c = MemifConfig::tenanted();
    c.sg_coalescing = false;
    return c;
}

/** uncoalesced_tenanted() on the static completion rule and one TC, so
 *  a small request the kernel thread serves is polled (multi-TC
 *  dispatch and completion batching keep everything irq-driven). */
MemifConfig
polled_tenanted()
{
    MemifConfig c = uncoalesced_tenanted();
    c.completion_batching = false;
    c.multi_tc_dispatch = false;
    return c;
}

struct Fixture {
    os::Kernel kernel;
    os::Process &proc;
    MemifDevice dev;
    MemifUser user;

    explicit Fixture(MemifConfig cfg = uncoalesced_tenanted())
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

    /** A source on the slow node and a destination on the fast node,
     *  @p pages each; the source is filled from @p seed. */
    std::pair<vm::VAddr, vm::VAddr>
    region_pair(std::uint32_t pages, std::uint8_t seed)
    {
        const vm::VAddr src = proc.mmap(pages * 4096, vm::PageSize::k4K);
        const vm::VAddr dst =
            proc.mmap(pages * 4096, vm::PageSize::k4K, kernel.fast_node());
        fill(src, pages * 4096, seed);
        return {src, dst};
    }
};

/** Submit two 16-page replications back to back from one app task: the
 *  first is kicked and irq-driven, the second (64 KB, below the poll
 *  threshold) lands in the queue the kernel thread owns and is served
 *  in polled mode. Returns their request indices. */
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

// ---------------------------------------------------------------------
// Replication streams: bytes and gang-cache reuse.
// ---------------------------------------------------------------------

TEST(MmuAware, SvaReplicationStreamsCorrectBytes)
{
    // A cold 64-descriptor replication: Prep walks both regions once
    // and the chain lands every byte.
    Fixture f;
    const std::uint32_t pages = 64;
    const auto [src, dst] = f.region_pair(pages, 42);

    const std::uint32_t idx = f.replicate(src, pages, dst);
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, pages * 4096, 42));
    const DeviceStats &ds = f.dev.stats();
    EXPECT_EQ(ds.sg_entries_emitted, pages);
    EXPECT_EQ(ds.xlate_hits, 0u);
    EXPECT_GT(ds.xlate_misses, 0u);
}

TEST(MmuAware, WarmSvaStreamSkipsTheWalk)
{
    // A region pair replicated a second time finds both runs in the
    // gang cache: the repeat walks nothing, and Prep pays validation,
    // admission and one probe per region.
    Fixture f;
    const std::uint32_t pages = 32;
    const auto [src, dst] = f.region_pair(pages, 64);

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
    EXPECT_EQ(ds.xlate_misses, before.xlate_misses);
    EXPECT_GT(ds.xlate_hits, before.xlate_hits);
    const sim::CostModel &cm = f.kernel.costs();
    const sim::CpuAccounting spent =
        f.kernel.cpu().snapshot().since(cpu_before);
    EXPECT_EQ(spent.op(sim::Op::kPrep),
              cm.request_validate + cm.request_admin + 2 * cm.xlate_probe);
}

TEST(MmuAware, ShootdownBetweenMovesForcesAFreshWalk)
{
    // One shootdown over the source between two replications drops its
    // cached run: the repeat walks again instead of trusting the stale
    // entry, and still lands the (rewritten) source bytes.
    Fixture f;
    const std::uint32_t pages = 32;
    const auto [src, dst] = f.region_pair(pages, 5);

    const std::uint32_t first = f.replicate(src, pages, dst);
    f.kernel.run();
    ASSERT_EQ(f.user.request(first).load_status(), MovStatus::kDone);
    const DeviceStats before = f.dev.stats();

    f.proc.as().flush_tlb_page(src + 7 * 4096, vm::PageSize::k4K);
    f.fill(src, pages * 4096, 6);
    const std::uint32_t second = f.replicate(src, pages, dst);
    f.kernel.run();

    EXPECT_EQ(f.user.request(second).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, pages * 4096, 6));
    const DeviceStats &ds = f.dev.stats();
    EXPECT_GT(ds.xlate_invalidations, before.xlate_invalidations);
    EXPECT_GT(ds.xlate_misses, before.xlate_misses);
}

TEST(MmuAware, ShootdownStormNeverCorruptsTheStream)
{
    // TLB shootdowns over the source while its replication is in
    // flight drop the gang-cache entries Prep recorded; the pinned
    // chain still lands the source's bytes.
    Fixture f;
    const std::uint32_t pages = 64;
    const auto [src, dst] = f.region_pair(pages, 77);

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
    EXPECT_GE(f.dev.stats().xlate_invalidations, 1u);
}

// ---------------------------------------------------------------------
// Recovery replays Prep's translations.
// ---------------------------------------------------------------------

TEST(MmuAware, RetriedChainRevalidatesPrefetchedTranslations)
{
    // The errored first attempt is restarted through the ladder from
    // the SG list Prep pinned: shootdowns over the source during the
    // retry backoff cannot stale it, and the retry re-runs no Prep, so
    // it walks and charges exactly what a clean run does.
    const std::uint32_t pages = 32;
    std::uint64_t clean_misses = 0;
    sim::Duration clean_prep = 0;
    {
        Fixture clean;
        const auto [src, dst] = clean.region_pair(pages, 9);
        const std::uint32_t idx = clean.replicate(src, pages, dst);
        clean.kernel.run();
        ASSERT_EQ(clean.user.request(idx).load_status(), MovStatus::kDone);
        clean_misses = clean.dev.stats().xlate_misses;
        clean_prep = clean.kernel.cpu().snapshot().op(sim::Op::kPrep);
    }

    Fixture f;
    const auto [src, dst] = f.region_pair(pages, 9);
    f.faults().arm_nth(dma::kFaultTcError, 1);
    const std::uint32_t idx = f.replicate(src, pages, dst);
    auto storm = [&]() -> sim::Task {
        for (std::uint32_t i = 0; i < pages; ++i) {
            f.proc.as().flush_tlb_page(src + i * 4096, vm::PageSize::k4K);
            co_await sim::Delay{f.kernel.eq(), 500};
        }
    };
    f.kernel.spawn(storm());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, pages * 4096, 9));
    const DeviceStats &ds = f.dev.stats();
    EXPECT_EQ(ds.dma_errors, 1u);
    EXPECT_EQ(ds.dma_retries, 1u);
    EXPECT_EQ(ds.fallback_copies, 0u);
    EXPECT_GE(ds.xlate_invalidations, 1u);
    EXPECT_EQ(ds.xlate_misses, clean_misses);
    EXPECT_EQ(f.kernel.cpu().snapshot().op(sim::Op::kPrep), clean_prep);
}

// ---------------------------------------------------------------------
// The kernel thread's polled wait.
// ---------------------------------------------------------------------

TEST(MmuAware, PolledSvaStreamCompletes)
{
    // One TC keeps the second request queued behind the first, so the
    // kernel thread serves it and, at 64 KB (below the threshold),
    // supervises it in polled mode: no interrupt, no watchdog.
    Fixture f(polled_tenanted());
    const std::uint32_t pages = 32;
    const auto [src, dst] = f.region_pair(pages, 58);

    const auto [idx0, idx1] = replicate_kicked_then_polled(f, src, dst);

    EXPECT_EQ(f.user.request(idx0).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.user.request(idx1).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, pages * 4096, 58));
    EXPECT_EQ(f.dev.stats().polled_completions, 1u);
    EXPECT_EQ(f.dev.stats().watchdog_timeouts, 0u);
    // Only the kicked request raised an interrupt.
    EXPECT_EQ(f.kernel.dma_engine().stats().interrupts_raised, 1u);
}

TEST(MmuAware, PolledTcErrorIsRetriedToSuccess)
{
    // The polled wait sends an errored transfer down the same ladder as
    // the IRQ path: the retry is supervised in polled mode too.
    Fixture f(polled_tenanted());
    const std::uint32_t pages = 32;
    const auto [src, dst] = f.region_pair(pages, 23);
    // One TC serialises the chains: the polled request's is the second.
    f.faults().arm_nth(dma::kFaultTcError, 2);

    const auto [idx0, idx1] = replicate_kicked_then_polled(f, src, dst);

    EXPECT_EQ(f.user.request(idx0).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.user.request(idx1).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, pages * 4096, 23));
    const DeviceStats &ds = f.dev.stats();
    EXPECT_EQ(ds.dma_errors, 1u);
    EXPECT_EQ(ds.dma_retries, 1u);
    EXPECT_EQ(ds.fallback_copies, 0u);
    EXPECT_EQ(ds.polled_completions, 1u);
    EXPECT_EQ(ds.watchdog_timeouts, 0u);
    EXPECT_EQ(f.kernel.dma_engine().stats().interrupts_raised, 1u);
}

TEST(MmuAware, PolledDmaErrorSurfacesAsDmaError)
{
    // With the ladder disarmed the polled wait classifies the error
    // exactly as the IRQ path does: terminal kDmaError, and the failed
    // replication leaves its destination untouched.
    MemifConfig cfg = polled_tenanted();
    cfg.cpu_copy_fallback = false;
    cfg.dma_max_retries = 0;
    Fixture f(cfg);
    const std::uint32_t pages = 32;
    const auto [src, dst] = f.region_pair(pages, 58);
    // Pre-existing content where the polled request would write.
    f.fill(dst + 16 * 4096, 16 * 4096, 99);
    f.faults().arm_nth(dma::kFaultTcError, 2);

    const auto [idx0, idx1] = replicate_kicked_then_polled(f, src, dst);

    EXPECT_EQ(f.user.request(idx0).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, 16 * 4096, 58));
    EXPECT_EQ(f.user.request(idx1).load_status(), MovStatus::kFailed);
    EXPECT_EQ(f.user.request(idx1).error, MovError::kDmaError);
    EXPECT_TRUE(f.check(dst + 16 * 4096, 16 * 4096, 99));
    const DeviceStats &ds = f.dev.stats();
    EXPECT_EQ(ds.dma_errors, 1u);
    EXPECT_EQ(ds.dma_retries, 0u);
    EXPECT_EQ(ds.watchdog_timeouts, 0u);
    // Only the kicked transfer raised an interrupt: the errored one was
    // supervised by the polled wait.
    EXPECT_EQ(f.kernel.dma_engine().stats().interrupts_raised, 1u);
}

// ---------------------------------------------------------------------
// The counters kept for memifbench stay 0 under every preset.
// ---------------------------------------------------------------------

TEST(MmuAware, LeversOffStaysOnThePrePinnedPath)
{
    const std::vector<std::pair<const char *, MemifConfig>> presets = {
        {"default", MemifConfig{}},
        {"pipelined", MemifConfig::pipelined()},
        {"moderated", MemifConfig::moderated()},
        {"scaled", MemifConfig::scaled()},
        {"tenanted", MemifConfig::tenanted()},
        {"managed", MemifConfig::managed()},
        {"tiered", MemifConfig::tiered()},
        {"strided", MemifConfig::strided()},
    };
    for (const auto &[name, cfg] : presets) {
        Fixture f(cfg);
        const std::uint32_t pages = 32;
        const auto [src, dst] = f.region_pair(pages, 12);

        const std::uint32_t idx = f.replicate(src, pages, dst);
        f.kernel.run();

        EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone)
            << name;
        EXPECT_TRUE(f.check(dst, pages * 4096, 12)) << name;
        const DeviceStats &ds = f.dev.stats();
        EXPECT_EQ(ds.stream_prefetch_hits, 0u) << name;
        EXPECT_EQ(ds.stream_prefetch_late, 0u) << name;
        EXPECT_EQ(ds.stream_prefetch_wasted, 0u) << name;
        EXPECT_EQ(ds.sva_demand_walks, 0u) << name;
        const dma::EngineStats &es = f.kernel.dma_engine().stats();
        EXPECT_EQ(es.gate_stalls, 0u) << name;
        EXPECT_EQ(es.gate_stall_time, 0) << name;
    }
}

}  // namespace
}  // namespace memif::core
