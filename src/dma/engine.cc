#include "dma/engine.h"

#include <cstring>

#include "sim/log.h"

namespace memif::dma {

namespace {

/** Per-side bandwidth of the node owning physical byte address @p addr. */
double
addr_bandwidth(mem::PhysicalMemory &pm, std::uint64_t addr)
{
    const mem::NodeId id = pm.node_of(addr >> mem::kPageShift);
    MEMIF_ASSERT(id != mem::kInvalidNode, "DMA address outside memory");
    return pm.node(id).bandwidth_bps();
}

/**
 * Per-descriptor access latency implied by the nodes a descriptor
 * touches: the slower (higher-latency) side gates the transfer, as with
 * bandwidth. On-board tiers carry zero, so two-node machines are
 * byte-identical; only descriptors touching a far/remote node pay.
 */
sim::Duration
desc_latency(mem::PhysicalMemory &pm, const TransferDescriptor &d)
{
    const auto lat = [&pm](std::uint64_t addr) {
        const mem::NodeId id = pm.node_of(addr >> mem::kPageShift);
        MEMIF_ASSERT(id != mem::kInvalidNode, "DMA address outside memory");
        return pm.node(id).latency_ns();
    };
    const std::uint64_t s = lat(d.src);
    const std::uint64_t t = lat(d.dst);
    return static_cast<sim::Duration>(s > t ? s : t);
}

}  // namespace

sim::Duration
Edma3Engine::chain_duration(DescIndex head) const
{
    sim::Duration total = cm_.dma_latency;
    DescIndex idx = head;
    unsigned hops = 0;
    while (idx != kNullLink) {
        MEMIF_ASSERT(++hops <= DescriptorRam::kEntries,
                     "descriptor chain loops");
        const TransferDescriptor &d = ram_.read(idx);
        auto &pm = const_cast<mem::PhysicalMemory &>(pm_);
        const double src_bw = addr_bandwidth(pm, d.src);
        const double dst_bw = addr_bandwidth(pm, d.dst);
        total += cm_.dma_per_desc + desc_latency(pm, d) +
                 cm_.dma_stream_time(d.total_bytes(), src_bw, dst_bw);
        idx = d.link;
    }
    return total;
}

TransferId
Edma3Engine::start_chain(DescIndex head, unsigned tc, bool raise_irq,
                         CompletionFn on_complete, bool moderated)
{
    MEMIF_ASSERT(tc < kNumTcs, "bad transfer controller");
    // Housekeeping: keep the flight table bounded even when no driver
    // ever calls purge_finished() explicitly.
    if (flights_.size() >= kPurgeThreshold) purge_finished();

    const sim::Duration duration = chain_duration(head);
    const sim::SimTime begin =
        tc_busy_until_[tc] > eq_.now() ? tc_busy_until_[tc] : eq_.now();
    const sim::SimTime done_at = begin + duration;
    tc_busy_until_[tc] = done_at;

    const TransferId id = next_id_++;
    Flight flight;
    flight.head = head;
    flight.raise_irq = raise_irq;
    flight.moderated = moderated && raise_irq;
    flight.tc = tc;
    flight.completes_at = done_at;
    flight.on_complete = std::move(on_complete);
    // The error model decides each transfer's fate up front so one
    // seeded plan replays identically. Sites are only consulted while
    // armed (the common case costs one integer compare).
    if (faults_ && faults_->enabled()) {
        flight.stuck = faults_->should_fire(kFaultStuck);
        flight.error =
            faults_->should_fire(kFaultTcError) && !flight.stuck;
        // A lost completion only makes sense in interrupt mode; polled
        // completions are observed via the pollable flag. An errored
        // chain raises the CC error interrupt, not the completion one,
        // so the lost-completion site never swallows it: the error
        // must reach the driver while the record still reads kError.
        // Once purge_finished() drops the record, the stale id would
        // read as a clean completion, and a drain or watchdog pass
        // would release a migration whose new frames were never
        // written. The draw stays unconditional so every seeded fault
        // plan keeps its RNG stream.
        flight.lose_irq = faults_->should_fire(kFaultLostIrq) &&
                          raise_irq && !flight.error;
    }
    flights_.emplace(id, std::move(flight));
    ++stats_.transfers_started;
    stats_.busy_time += duration;

    eq_.schedule_at(done_at, [this, id] {
        auto it = flights_.find(id);
        if (it == flights_.end()) return;  // cancelled and purged
        Flight &fl = it->second;
        if (fl.cancelled) return;
        if (fl.stuck) return;  // hangs until the driver cancels it
        if (fl.error) {
            // TC bus error: the chain terminates without moving a
            // byte; the CC dispatches the error interrupt instead of
            // the completion interrupt.
            ++stats_.transfers_failed;
        } else {
            execute_copies(fl.head);
            ++stats_.transfers_completed;
        }
        fl.completed = true;
        if (fl.lose_irq) {
            ++stats_.interrupts_lost;
            return;  // nobody learns of the completion
        }
        // An error interrupt is never moderated (nor lost, see
        // start_chain): the CC error line is separate from the
        // completion line, so time-to-detection of a TC bus error is
        // identical with moderation on or off.
        if (fl.moderated && !fl.error) {
            hold_completion(id, fl.tc);
            return;
        }
        if (fl.raise_irq) ++stats_.interrupts_raised;
        if (fl.on_complete) fl.on_complete(id);
    });
    return id;
}

void
Edma3Engine::hold_completion(TransferId id, unsigned tc)
{
    Moderation &mod = moderation_[tc];
    flights_.at(id).delivery_pending = true;
    mod.pending.push_back(id);
    // While masked the driver's poller reaps held completions itself
    // (NAPI-style); neither the batch threshold nor the holdoff timer
    // raises an IRQ. An already-armed timer keeps running as a
    // liveness backstop.
    if (moderation_mask_ > 0) return;
    if (mod.pending.size() >= moderation_batch_) {
        flush_moderated(tc);
        return;
    }
    // First held completion arms the holdoff timer; later ones ride it.
    if (mod.timer == sim::EventQueue::kInvalidEvent) {
        mod.timer = eq_.schedule_after(moderation_holdoff_, [this, tc] {
            moderation_[tc].timer = sim::EventQueue::kInvalidEvent;
            ++stats_.moderation_timer_flushes;
            flush_moderated(tc);
        });
    }
}

void
Edma3Engine::flush_moderated(unsigned tc)
{
    Moderation &mod = moderation_[tc];
    if (mod.timer != sim::EventQueue::kInvalidEvent) {
        eq_.cancel(mod.timer);
        mod.timer = sim::EventQueue::kInvalidEvent;
    }
    if (mod.pending.empty()) return;
    std::vector<TransferId> batch;
    batch.swap(mod.pending);
    // One coalesced IRQ retires the whole batch.
    ++stats_.interrupts_raised;
    ++stats_.moderated_irqs;
    for (TransferId id : batch) {
        auto it = flights_.find(id);
        if (it == flights_.end() || !it->second.delivery_pending)
            continue;  // discarded (watchdog or teardown) meanwhile
        it->second.delivery_pending = false;
        ++stats_.moderated_completions;
        if (it->second.on_complete) it->second.on_complete(id);
    }
}

void
Edma3Engine::unmask_moderation()
{
    MEMIF_ASSERT(moderation_mask_ > 0, "unbalanced unmask_moderation");
    if (--moderation_mask_ > 0) return;
    // Deliver anything the poller left behind before it goes idle.
    for (unsigned tc = 0; tc < kNumTcs; ++tc) flush_moderated(tc);
}

bool
Edma3Engine::discard_moderated(TransferId id)
{
    auto it = flights_.find(id);
    if (it == flights_.end() || !it->second.delivery_pending) return false;
    it->second.delivery_pending = false;
    Moderation &mod = moderation_[it->second.tc];
    std::erase(mod.pending, id);
    if (mod.pending.empty() &&
        mod.timer != sim::EventQueue::kInvalidEvent) {
        eq_.cancel(mod.timer);
        mod.timer = sim::EventQueue::kInvalidEvent;
    }
    return true;
}

void
Edma3Engine::execute_copies(DescIndex head)
{
    DescIndex idx = head;
    while (idx != kNullLink) {
        const TransferDescriptor &d = ram_.read(idx);
        // Walk the 3D geometry; the common cases collapse to one memcpy.
        for (std::uint32_t frame = 0; frame < (d.c_cnt ? d.c_cnt : 1);
             ++frame) {
            for (std::uint32_t arr = 0; arr < d.b_cnt; ++arr) {
                const std::uint64_t src =
                    d.src + frame * std::int64_t{d.src_cidx} +
                    arr * std::int64_t{d.src_bidx};
                const std::uint64_t dst =
                    d.dst + frame * std::int64_t{d.dst_cidx} +
                    arr * std::int64_t{d.dst_bidx};
                std::byte *s =
                    pm_.span(src >> mem::kPageShift,
                             (src & (mem::kPageSize - 1)) + d.a_cnt) +
                    (src & (mem::kPageSize - 1));
                std::byte *t =
                    pm_.span(dst >> mem::kPageShift,
                             (dst & (mem::kPageSize - 1)) + d.a_cnt) +
                    (dst & (mem::kPageSize - 1));
                std::memcpy(t, s, d.a_cnt);
                stats_.bytes_copied += d.a_cnt;
            }
        }
        idx = d.link;
    }
}

bool
Edma3Engine::is_complete(TransferId id) const
{
    auto it = flights_.find(id);
    if (it == flights_.end()) return true;  // purged => finished
    return it->second.completed;
}

TransferStatus
Edma3Engine::status(TransferId id) const
{
    auto it = flights_.find(id);
    if (it == flights_.end()) return TransferStatus::kOk;  // purged
    if (it->second.cancelled) return TransferStatus::kCancelled;
    if (it->second.completed && it->second.error)
        return TransferStatus::kError;
    return TransferStatus::kOk;
}

sim::SimTime
Edma3Engine::completion_time(TransferId id) const
{
    auto it = flights_.find(id);
    if (it == flights_.end()) return 0;
    return it->second.completes_at;
}

std::size_t
Edma3Engine::purge_finished()
{
    return std::erase_if(flights_, [](const auto &kv) {
        // A moderated completion whose delivery is still held must keep
        // its record (and callback) alive until the batch flushes.
        return (kv.second.completed && !kv.second.delivery_pending) ||
               kv.second.cancelled;
    });
}

bool
Edma3Engine::cancel(TransferId id)
{
    auto it = flights_.find(id);
    if (it == flights_.end()) return false;  // purged => was finished
    if (it->second.completed) return false;
    if (!it->second.cancelled) {
        it->second.cancelled = true;
        ++stats_.transfers_cancelled;
    }
    return true;
}

}  // namespace memif::dma
