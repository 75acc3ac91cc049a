/**
 * @file
 * Tiered memory: the chained multi-hop eviction engine (tiered_memory
 * lever). A migration between non-adjacent tiers (SRAM ↔ far, as the
 * SLIT distances encode) is decomposed into per-hop DMA stages through
 * the middle (DDR) tier: the request is split into bounded batches,
 * each batch leases staging frames from a capped pool, copies
 * old→staging (hop 1) then staging→new (hop 2), and returns the
 * frames. With pipelined_eviction on, up to kMaxBatches batches
 * are in flight at once and their stages execute out of order across
 * the engine's transfer controllers — batch k+1's fast hop overlaps
 * batch k's slow far hop — so a large eviction approaches the far
 * tier's bandwidth instead of the sum of both hops' serial times.
 *
 * Recovery is per hop: each stage supervises its own transfer
 * (completion callback + deadline timer; the flight-table watchdog
 * machinery never sees hop transfers) and runs the PR 1 ladder —
 * bounded retries with exponential backoff, then the CPU byte-copy
 * fallback. A stage whose ladder runs dry fails the chain: sibling
 * batches stop before their next hop, and the master rolls the remap
 * back. Mid-chain state is recoverable by construction — completed
 * hops only wrote staging or new frames that no PTE points at yet
 * (chained flights migrate behind blocking migration PTEs), so the
 * old frames stay authoritative until Release.
 */
#include "memif/device.h"

#include <algorithm>

#include "sim/log.h"

namespace memif::core {

using sim::ExecContext;
using sim::Op;

namespace {

/** Pages (of the request's order) per chained batch — the pipelining
 *  grain. */
constexpr std::uint32_t kBatchPages = 16;
/** pipelined_eviction: concurrent in-flight batches per chain (bounds
 *  staging demand and the out-of-order window). */
constexpr std::uint32_t kMaxBatches = 4;
/** Cap on middle-tier staging frames (4 KB) leased across all chains;
 *  a batch that cannot get its frames waits for a peer's release. */
constexpr std::uint64_t kStagingPoolPages = 128;

/** Append a run to @p sg, merging into the previous entry when both
 *  sides are contiguous (bulk-allocated staging frames usually are —
 *  the hop-level analogue of the sg_coalescing lever). */
void
append_merged(std::vector<dma::SgEntry> &sg, std::uint64_t src,
              std::uint64_t dst, std::uint64_t bytes)
{
    if (!sg.empty()) {
        dma::SgEntry &last = sg.back();
        if (last.src_addr + last.bytes == src &&
            last.dst_addr + last.bytes == dst) {
            last.bytes += bytes;
            return;
        }
    }
    sg.push_back(dma::SgEntry{src, dst, bytes});
}

}  // namespace

mem::NodeId
MemifDevice::chain_mid_node(mem::NodeId src, mem::NodeId dst) const
{
    if (src == dst) return mem::kInvalidNode;
    mem::PhysicalMemory &pm = kernel_.phys();
    const std::uint32_t direct = pm.distance(src, dst);
    mem::NodeId best = mem::kInvalidNode;
    std::uint32_t best_worst = 0;
    const auto count = static_cast<mem::NodeId>(pm.node_count());
    for (mem::NodeId n = 0; n < count; ++n) {
        if (n == src || n == dst) continue;
        const std::uint32_t a = pm.distance(src, n);
        const std::uint32_t b = pm.distance(n, dst);
        // "Between" in SLIT terms: strictly closer to both endpoints
        // than they are to each other. With the default topology only
        // DDR sits between SRAM and the far tier; SRAM is not between
        // DDR and far (its far leg is longer than the direct path).
        if (a >= direct || b >= direct) continue;
        const std::uint32_t worst = a > b ? a : b;
        if (best == mem::kInvalidNode || worst < best_worst) {
            best = n;
            best_worst = worst;
        }
    }
    return best;
}

sim::Task
MemifDevice::staging_acquire(mem::NodeId mid, unsigned order,
                             std::uint32_t pages,
                             std::vector<mem::Pfn> *out, bool *ok)
{
    *ok = false;
    const std::uint64_t frames = std::uint64_t{pages} << order;
    // The pool bounds total staging memory across all chains. A batch
    // larger than the whole cap may borrow past it *alone* (progress
    // guarantee); everyone else waits for a peer's release.
    bool waited = false;
    while (staging_frames_out_ != 0 &&
           staging_frames_out_ + frames > kStagingPoolPages) {
        if (!waited) {
            waited = true;
            ++stats_.staging_pool_waits;
        }
        co_await staging_wq_.wait();
        if (stopping_) co_return;
    }
    staging_frames_out_ += frames;
    if (staging_frames_out_ > stats_.staging_frames_hwm)
        stats_.staging_frames_hwm = staging_frames_out_;
    // Straight from the buddy, not the magazines: staging frames are
    // transient device property, never tenant-charged, and freeing
    // them back keeps the magazines' accounting untouched.
    const sim::CostModel &cm = kernel_.costs();
    mem::PhysicalMemory &pm = kernel_.phys();
    sim::Duration cost = 0;
    std::vector<mem::Pfn> got;
    got.reserve(pages);
    bool exhausted = false;
    for (std::uint32_t i = 0; i < pages; ++i) {
        cost += cm.page_alloc_time(order);
        const mem::Pfn pfn = pm.allocate(mid, order);
        if (pfn == mem::kInvalidPfn) {
            exhausted = true;
            break;
        }
        got.push_back(pfn);
    }
    if (exhausted) {
        // Middle tier itself is full: undo and report — the batch
        // degrades to a direct end-to-end hop.
        for (const mem::Pfn pfn : got) pm.free(pfn, order);
        staging_frames_out_ -= frames;
        staging_wq_.notify_all();
        co_await kernel_.cpu().busy(ExecContext::kKthread, Op::kRemap,
                                    cost);
        co_return;
    }
    co_await kernel_.cpu().busy(ExecContext::kKthread, Op::kRemap, cost);
    *out = std::move(got);
    *ok = true;
}

void
MemifDevice::staging_release(std::vector<mem::Pfn> &frames, unsigned order)
{
    mem::PhysicalMemory &pm = kernel_.phys();
    for (const mem::Pfn pfn : frames) pm.free(pfn, order);
    staging_frames_out_ -= std::uint64_t{frames.size()} << order;
    frames.clear();
    staging_wq_.notify_all();
}

sim::Task
MemifDevice::run_hop(InFlightPtr fl, const std::vector<dma::SgEntry> *sg,
                     bool *ok)
{
    const sim::CostModel &cm = kernel_.costs();
    sim::Cpu &cpu = kernel_.cpu();
    dma::DmaDriver &drv = kernel_.dma();
    *ok = false;
    std::uint64_t bytes = 0;
    for (const dma::SgEntry &e : *sg) bytes += e.bytes;

    for (std::uint32_t attempt = 1;; ++attempt) {
        if (fl->chain_failed || stopping_) co_return;
        co_await drv.reserve_descriptors(
            static_cast<std::uint32_t>(sg->size()), &fl->chain_failed,
            &stopping_);
        if (fl->chain_failed || stopping_) co_return;
        dma::DmaDriver::Prepared prepared = drv.prepare(*sg);
        co_await cpu.busy(ExecContext::kKthread, Op::kDmaConfig,
                          prepared.cpu_time);
        if (fl->chain_failed || stopping_) {
            drv.abandon(std::move(prepared));
            co_return;
        }
        const unsigned tc = config_.multi_tc_dispatch ? drv.pick_tc() : tc_;
        ++stats_.tc_dispatches[tc];
        ++stats_.hop_stages_issued;
        if (++active_hop_stages_ > 1) ++stats_.hop_overlap_events;
        // Self-supervised completion: the stage waits on its own event,
        // set by the completion callback or by a deadline timer at the
        // watchdog margin — the latter covers stuck transfers and lost
        // IRQs without the flight-table watchdog (whose scans key off
        // fl->tid, which a chained master never populates). The shared
        // event outlives the frame, so a late engine callback after a
        // timeout (or teardown) sets a flag nobody reads instead of
        // resuming freed memory.
        auto done = std::make_shared<sim::SimEvent>(kernel_.eq());
        const dma::TransferId tid =
            drv.start(std::move(prepared), /*irq_mode=*/true,
                      [done](dma::TransferId) { done->set(); }, tc);
        const sim::EventQueue::EventId timer = kernel_.eq().schedule_at(
            watchdog_deadline(tid), [done] { done->set(); });
        co_await done->wait();
        kernel_.eq().cancel(timer);
        --active_hop_stages_;
        // Inspect the transfer before any suspension: once the recovery
        // path yields, the engine may purge an errored record and the
        // stale id would read as a clean completion.
        bool success = false;
        if (drv.is_complete(tid)) {
            if (drv.status(tid) == dma::TransferStatus::kOk) {
                // If the completion IRQ was lost the retiring callback
                // never ran; return the lease ourselves (harmless when
                // it did run).
                drv.reclaim(tid);
                success = true;
            } else {
                // TC bus error: completion moved zero bytes.
                ++stats_.dma_errors;
                drv.reclaim(tid);
            }
        } else {
            // Stuck: the deadline passed with the transfer still
            // running. Cancel returns the lease and feeds the ladder.
            ++stats_.watchdog_timeouts;
            drv.cancel(tid);
        }
        co_await cpu.busy(ExecContext::kKthread, Op::kSched,
                          cm.irq_overhead);
        if (success) {
            ++stats_.hop_stages_completed;
            *ok = true;
            co_return;
        }
        // The per-hop ladder: bounded retries with exponential backoff,
        // then the CPU byte-copy floor. Only the failed hop is redone —
        // earlier hops' copies are already safe in staging/new frames.
        if (attempt <= config_.dma_max_retries) {
            ++stats_.hop_retries;
            ++stats_.dma_retries;
            co_await sim::Delay{kernel_.eq(),
                                kDmaRetryBackoff << (attempt - 1)};
            continue;
        }
        if (config_.cpu_copy_fallback) {
            mem::PhysicalMemory &pm = kernel_.phys();
            for (const dma::SgEntry &e : *sg)
                pm.copy(e.dst_addr >> mem::kPageShift,
                        e.src_addr >> mem::kPageShift, e.bytes);
            co_await cpu.busy(ExecContext::kKthread, Op::kCopy,
                              cm.cpu_copy_time(bytes));
            ++stats_.hop_fallback_copies;
            ++stats_.fallback_copies;
            ++stats_.hop_stages_completed;
            *ok = true;
        }
        co_return;
    }
}

sim::Task
MemifDevice::run_chain_batch(InFlightPtr fl, ChainStatePtr cs,
                             mem::NodeId mid, std::uint32_t first,
                             std::uint32_t count)
{
    ++stats_.chain_batches;
    bool ok = true;
    if (!fl->chain_failed && !stopping_) {
        std::vector<mem::Pfn> staging;
        bool have_staging = false;
        co_await staging_acquire(mid, fl->order, count, &staging,
                                 &have_staging);
        if (!fl->chain_failed && !stopping_) {
            if (have_staging) {
                std::vector<dma::SgEntry> hop1;
                std::vector<dma::SgEntry> hop2;
                hop1.reserve(count);
                hop2.reserve(count);
                for (std::uint32_t i = 0; i < count; ++i) {
                    const std::uint64_t src = fl->old_pfns[first + i]
                                              << mem::kPageShift;
                    const std::uint64_t st = staging[i]
                                             << mem::kPageShift;
                    const std::uint64_t dst = fl->new_pfns[first + i]
                                              << mem::kPageShift;
                    append_merged(hop1, src, st, fl->page_bytes);
                    append_merged(hop2, st, dst, fl->page_bytes);
                }
                stats_.sg_entries_emitted += hop1.size() + hop2.size();
                co_await run_hop(fl, &hop1, &ok);
                if (ok && !fl->chain_failed && !stopping_)
                    co_await run_hop(fl, &hop2, &ok);
            } else if (!stopping_) {
                // Middle tier exhausted: degrade this batch to one
                // direct end-to-end hop — correct, just unstaged (the
                // far latency rides on every descriptor, and nothing
                // overlaps inside the batch).
                std::vector<dma::SgEntry> direct;
                direct.reserve(count);
                for (std::uint32_t i = 0; i < count; ++i)
                    append_merged(
                        direct,
                        fl->old_pfns[first + i] << mem::kPageShift,
                        fl->new_pfns[first + i] << mem::kPageShift,
                        fl->page_bytes);
                stats_.sg_entries_emitted += direct.size();
                co_await run_hop(fl, &direct, &ok);
            }
        }
        if (!staging.empty()) staging_release(staging, fl->order);
    }
    if (!ok) fl->chain_failed = true;
    --cs->batches_left;
    cs->join.notify_all();
}

sim::Task
MemifDevice::run_chain(InFlightPtr fl, mem::NodeId mid)
{
    const std::uint32_t nb = (fl->num_pages + kBatchPages - 1) / kBatchPages;
    auto cs = std::make_shared<ChainState>(kernel_.eq());
    cs->batches_left = nb;
    // Pipelined: keep up to kMaxBatches batches in flight; their
    // hop stages land on whichever TC frees up first, so batch k+1's
    // hop 1 runs while batch k's hop 2 is still copying. Sequential
    // (store-and-forward, the bench baseline): a window of one batch,
    // each batch's hops in series.
    const std::uint32_t window = config_.pipelined_eviction ? kMaxBatches : 1;
    // Batch frames are owned here: destroying the master (device
    // teardown destroys chain_tasks_) destroys every suspended batch
    // and hop frame with it, so nothing kernel-owned can resume into a
    // dead device.
    std::vector<sim::Task> batches;
    std::uint32_t launched = 0;
    for (std::uint32_t b = 0; b < nb; ++b) {
        while (launched - (nb - cs->batches_left) >= window)
            co_await cs->join.wait();
        if (stopping_) co_return;
        const std::uint32_t first = b * kBatchPages;
        const std::uint32_t count =
            std::min<std::uint32_t>(kBatchPages, fl->num_pages - first);
        std::erase_if(batches, [](const sim::Task &t) {
            if (!t.done()) return false;
            t.rethrow_if_failed();
            return true;
        });
        batches.push_back(run_chain_batch(fl, cs, mid, first, count));
        ++launched;
    }
    while (cs->batches_left != 0) co_await cs->join.wait();
    if (stopping_) co_return;
    if (fl->chain_failed) {
        // Mid-chain failure: only unfinished hops are lost — completed
        // hops wrote frames no PTE points at, so restoring the old
        // PTEs (and freeing the new frames) is the whole rollback.
        ++stats_.chain_rollbacks;
        fail_unrecoverable(fl, ExecContext::kKthread, MovError::kDmaError);
    } else {
        co_await do_release(fl, ExecContext::kKthread);
    }
    // The master retires the flight itself — no completion interrupt
    // fires for a chain. The worker may have gone to sleep while this
    // flight was the only thing keeping the queues kernel-owned (red);
    // wake it so it can hand flush responsibility back to the
    // application, or nothing ever kicks the next submission.
    wake_kthread();
}

}  // namespace memif::core
