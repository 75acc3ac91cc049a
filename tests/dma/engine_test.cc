/**
 * @file
 * Unit tests for the EDMA3 engine model: real byte movement, chain
 * timing from the bandwidth model, interrupt vs polled completion, TC
 * serialization, and cancellation.
 */
#include "dma/engine.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "dma/descriptor.h"
#include "mem/phys.h"
#include "sim/cost_model.h"
#include "sim/event_queue.h"

namespace memif::dma {
namespace {

struct Fixture {
    sim::EventQueue eq;
    mem::PhysicalMemory pm;
    sim::CostModel cm;
    mem::NodeId slow, fast;
    Edma3Engine engine{eq, pm, cm};

    Fixture()
    {
        auto ids = mem::KeystoneMemory::build(pm, 32ull << 20);
        slow = ids.first;
        fast = ids.second;
    }

    std::uint64_t addr(mem::Pfn pfn) const { return pfn << mem::kPageShift; }
};

TEST(Descriptor, ContiguousSmallUsesAcntOnly)
{
    const TransferDescriptor d =
        TransferDescriptor::contiguous(0x1000, 0x2000, 4096);
    EXPECT_EQ(d.a_cnt, 4096);
    EXPECT_EQ(d.b_cnt, 1);
    EXPECT_EQ(d.total_bytes(), 4096u);
}

TEST(Descriptor, ContiguousLargeSplitsIntoArrays)
{
    const TransferDescriptor d =
        TransferDescriptor::contiguous(0, 0x200000, 2u << 20);
    EXPECT_EQ(d.a_cnt, 4096);
    EXPECT_EQ(d.b_cnt, 512);
    EXPECT_EQ(d.src_bidx, 4096);
    EXPECT_EQ(d.total_bytes(), 2u << 20);
}

TEST(DescriptorRam, CountsWriteKinds)
{
    DescriptorRam ram;
    ram.write_full(0, TransferDescriptor::contiguous(0, 4096, 4096));
    ram.rewrite_src_dst(0, 8192, 12288);
    ram.rewrite_link(0, 5);
    EXPECT_EQ(ram.stats().full_writes, 1u);
    EXPECT_EQ(ram.stats().partial_writes, 2u);
    EXPECT_EQ(ram.read(0).link, 5);
}

TEST(Engine, SingleDescriptorCopiesRealBytes)
{
    Fixture f;
    const mem::Pfn src = f.pm.allocate(f.slow, 0);
    const mem::Pfn dst = f.pm.allocate(f.fast, 0);
    std::byte *s = f.pm.span(src, mem::kPageSize);
    for (unsigned i = 0; i < mem::kPageSize; ++i)
        s[i] = static_cast<std::byte>(i ^ 0x5A);

    f.engine.param_ram().write_full(
        7, TransferDescriptor::contiguous(f.addr(src), f.addr(dst),
                                          mem::kPageSize));
    bool fired = false;
    const TransferId id = f.engine.start_chain(
        7, 0, true, [&](TransferId) { fired = true; });
    // Bytes must not move before completion time.
    EXPECT_NE(std::memcmp(f.pm.span(dst, mem::kPageSize), s, mem::kPageSize),
              0);
    f.eq.run();
    EXPECT_TRUE(fired);
    EXPECT_TRUE(f.engine.is_complete(id));
    EXPECT_EQ(std::memcmp(f.pm.span(dst, mem::kPageSize), s, mem::kPageSize),
              0);
    EXPECT_EQ(f.engine.stats().bytes_copied, mem::kPageSize);
}

TEST(Engine, ChainFollowsLinksAndSumsTime)
{
    Fixture f;
    std::vector<mem::Pfn> srcs, dsts;
    for (int i = 0; i < 4; ++i) {
        srcs.push_back(f.pm.allocate(f.slow, 0));
        dsts.push_back(f.pm.allocate(f.fast, 0));
        std::memset(f.pm.span(srcs.back(), mem::kPageSize), 0x10 + i,
                    mem::kPageSize);
    }
    for (int i = 0; i < 4; ++i) {
        TransferDescriptor d = TransferDescriptor::contiguous(
            f.addr(srcs[i]), f.addr(dsts[i]), mem::kPageSize);
        d.link = (i < 3) ? static_cast<DescIndex>(i + 1) : kNullLink;
        f.engine.param_ram().write_full(static_cast<DescIndex>(i), d);
    }
    const sim::Duration expected =
        f.cm.dma_latency +
        4 * (f.cm.dma_per_desc +
             f.cm.dma_stream_time(mem::kPageSize, 6.2e9, 24.0e9));
    EXPECT_EQ(f.engine.chain_duration(0), expected);

    f.engine.start_chain(0, 0, false, nullptr);
    f.eq.run();
    EXPECT_EQ(f.eq.now(), expected);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(*f.pm.span(dsts[static_cast<size_t>(i)], 1),
                  static_cast<std::byte>(0x10 + i));
    }
}

TEST(Engine, PolledModeRaisesNoInterrupt)
{
    Fixture f;
    const mem::Pfn src = f.pm.allocate(f.slow, 0);
    const mem::Pfn dst = f.pm.allocate(f.fast, 0);
    f.engine.param_ram().write_full(
        0, TransferDescriptor::contiguous(f.addr(src), f.addr(dst),
                                          mem::kPageSize));
    const TransferId id = f.engine.start_chain(0, 0, false, nullptr);
    EXPECT_FALSE(f.engine.is_complete(id));
    f.eq.run();
    EXPECT_TRUE(f.engine.is_complete(id));
    EXPECT_EQ(f.engine.stats().interrupts_raised, 0u);
    EXPECT_EQ(f.engine.stats().transfers_completed, 1u);
}

TEST(Engine, SameTcSerializesTransfers)
{
    Fixture f;
    const mem::Pfn a = f.pm.allocate(f.slow, 0);
    const mem::Pfn b = f.pm.allocate(f.fast, 0);
    f.engine.param_ram().write_full(
        0, TransferDescriptor::contiguous(f.addr(a), f.addr(b),
                                          mem::kPageSize));
    f.engine.param_ram().write_full(
        1, TransferDescriptor::contiguous(f.addr(a), f.addr(b),
                                          mem::kPageSize));
    const TransferId first = f.engine.start_chain(0, 0, false, nullptr);
    const TransferId second = f.engine.start_chain(1, 0, false, nullptr);
    EXPECT_EQ(f.engine.completion_time(second),
              2 * f.engine.completion_time(first));
}

TEST(Engine, DifferentTcsOverlap)
{
    Fixture f;
    const mem::Pfn a = f.pm.allocate(f.slow, 0);
    const mem::Pfn b = f.pm.allocate(f.fast, 0);
    f.engine.param_ram().write_full(
        0, TransferDescriptor::contiguous(f.addr(a), f.addr(b),
                                          mem::kPageSize));
    f.engine.param_ram().write_full(
        1, TransferDescriptor::contiguous(f.addr(a), f.addr(b),
                                          mem::kPageSize));
    const TransferId first = f.engine.start_chain(0, 0, false, nullptr);
    const TransferId second = f.engine.start_chain(1, 1, false, nullptr);
    EXPECT_EQ(f.engine.completion_time(second),
              f.engine.completion_time(first));
}

TEST(Engine, CancelPreventsCopyAndCallback)
{
    Fixture f;
    const mem::Pfn src = f.pm.allocate(f.slow, 0);
    const mem::Pfn dst = f.pm.allocate(f.fast, 0);
    std::memset(f.pm.span(src, mem::kPageSize), 0x77, mem::kPageSize);
    f.engine.param_ram().write_full(
        0, TransferDescriptor::contiguous(f.addr(src), f.addr(dst),
                                          mem::kPageSize));
    bool fired = false;
    const TransferId id =
        f.engine.start_chain(0, 0, true, [&](TransferId) { fired = true; });
    EXPECT_TRUE(f.engine.cancel(id));
    f.eq.run();
    EXPECT_FALSE(fired);
    EXPECT_FALSE(f.engine.is_complete(id));
    EXPECT_EQ(*f.pm.span(dst, 1), std::byte{0});
    EXPECT_EQ(f.engine.stats().transfers_cancelled, 1u);
    // Cancelling a finished transfer fails.
    const TransferId id2 = f.engine.start_chain(0, 0, false, nullptr);
    f.eq.run();
    EXPECT_FALSE(f.engine.cancel(id2));
}

struct FaultFixture : Fixture {
    sim::FaultInjector faults;
    Edma3Engine faulty{eq, pm, cm, &faults};

    /** One page slow->fast programmed at descriptor 0; src = 0x5A. */
    mem::Pfn src, dst;
    FaultFixture()
    {
        src = pm.allocate(slow, 0);
        dst = pm.allocate(fast, 0);
        std::memset(pm.span(src, mem::kPageSize), 0x5A, mem::kPageSize);
        faulty.param_ram().write_full(
            0, TransferDescriptor::contiguous(addr(src), addr(dst),
                                              mem::kPageSize));
    }
};

TEST(EngineFault, TcErrorCompletesWithoutBytesButInterrupts)
{
    FaultFixture f;
    f.faults.arm_nth(kFaultTcError, 1);
    bool fired = false;
    const TransferId id =
        f.faulty.start_chain(0, 0, true, [&](TransferId) { fired = true; });
    f.eq.run();
    // The CC error interrupt still dispatches the callback, the chain
    // completes, but not one byte landed: all-or-nothing destinations.
    EXPECT_TRUE(fired);
    EXPECT_TRUE(f.faulty.is_complete(id));
    EXPECT_EQ(f.faulty.status(id), TransferStatus::kError);
    EXPECT_EQ(*f.pm.span(f.dst, 1), std::byte{0});
    EXPECT_EQ(f.faulty.stats().transfers_failed, 1u);
    EXPECT_EQ(f.faulty.stats().transfers_completed, 0u);
    EXPECT_EQ(f.faulty.stats().bytes_copied, 0u);
}

TEST(EngineFault, SecondTransferUnaffectedByNthTrigger)
{
    FaultFixture f;
    f.faults.arm_nth(kFaultTcError, 1);
    f.faulty.start_chain(0, 0, false, nullptr);
    f.eq.run();
    const TransferId id2 = f.faulty.start_chain(0, 0, false, nullptr);
    f.eq.run();
    EXPECT_EQ(f.faulty.status(id2), TransferStatus::kOk);
    EXPECT_EQ(*f.pm.span(f.dst, 1), std::byte{0x5A});
}

TEST(EngineFault, LostIrqMovesBytesButSkipsCallback)
{
    FaultFixture f;
    f.faults.arm_nth(kFaultLostIrq, 1);
    bool fired = false;
    const TransferId id =
        f.faulty.start_chain(0, 0, true, [&](TransferId) { fired = true; });
    f.eq.run();
    EXPECT_FALSE(fired);
    EXPECT_TRUE(f.faulty.is_complete(id));
    EXPECT_EQ(f.faulty.status(id), TransferStatus::kOk);
    EXPECT_EQ(*f.pm.span(f.dst, 1), std::byte{0x5A});
    EXPECT_EQ(f.faulty.stats().interrupts_lost, 1u);
    EXPECT_EQ(f.faulty.stats().interrupts_raised, 0u);
}

// The lost-completion site never swallows an error interrupt: the CC
// error line is separate. A lost error IRQ would leave the errored
// record to be purged, after which its stale id reads as a clean
// completion and a drain or watchdog pass would release a migration
// whose destination was never written.
TEST(EngineFault, ErrorInterruptIsNeverLost)
{
    FaultFixture f;
    f.faults.arm_nth(kFaultTcError, 1);
    f.faults.arm_nth(kFaultLostIrq, 1);
    bool fired = false;
    const TransferId id =
        f.faulty.start_chain(0, 0, true, [&](TransferId) { fired = true; });
    f.eq.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(f.faulty.status(id), TransferStatus::kError);
    EXPECT_EQ(*f.pm.span(f.dst, 1), std::byte{0});
    EXPECT_EQ(f.faulty.stats().interrupts_lost, 0u);
}

TEST(EngineFault, LostIrqOnlyAppliesToIrqMode)
{
    FaultFixture f;
    f.faults.arm_probability(kFaultLostIrq, 1.0);
    const TransferId id = f.faulty.start_chain(0, 0, false, nullptr);
    f.eq.run();
    // Polled transfers have no interrupt to lose.
    EXPECT_TRUE(f.faulty.is_complete(id));
    EXPECT_EQ(f.faulty.stats().interrupts_lost, 0u);
    EXPECT_EQ(*f.pm.span(f.dst, 1), std::byte{0x5A});
}

TEST(EngineFault, StuckTransferNeverCompletesUntilCancelled)
{
    FaultFixture f;
    f.faults.arm_nth(kFaultStuck, 1);
    bool fired = false;
    const TransferId id =
        f.faulty.start_chain(0, 0, true, [&](TransferId) { fired = true; });
    f.eq.run();  // the completion event runs but the flight stays open
    EXPECT_FALSE(fired);
    EXPECT_FALSE(f.faulty.is_complete(id));
    EXPECT_EQ(*f.pm.span(f.dst, 1), std::byte{0});
    EXPECT_TRUE(f.faulty.cancel(id));
    EXPECT_EQ(f.faulty.status(id), TransferStatus::kCancelled);
}

TEST(EngineFault, StuckWinsOverTcErrorWhenBothFire)
{
    FaultFixture f;
    f.faults.arm_probability(kFaultStuck, 1.0);
    f.faults.arm_probability(kFaultTcError, 1.0);
    const TransferId id = f.faulty.start_chain(0, 0, true, nullptr);
    f.eq.run();
    EXPECT_FALSE(f.faulty.is_complete(id));
    EXPECT_EQ(f.faulty.stats().transfers_failed, 0u);
}

TEST(Engine, FlightTableAutoPurgesAtThreshold)
{
    Fixture f;
    const mem::Pfn src = f.pm.allocate(f.slow, 0);
    const mem::Pfn dst = f.pm.allocate(f.fast, 0);
    f.engine.param_ram().write_full(
        0, TransferDescriptor::contiguous(f.addr(src), f.addr(dst),
                                          mem::kPageSize));
    // Run well past the threshold without ever calling purge_finished():
    // the table must stay bounded by the auto-purge in start_chain.
    const std::size_t n = Edma3Engine::kPurgeThreshold * 2 + 10;
    for (std::size_t i = 0; i < n; ++i) {
        f.engine.start_chain(0, 0, false, nullptr);
        f.eq.run();
    }
    EXPECT_LE(f.engine.flight_count(), Edma3Engine::kPurgeThreshold);
    EXPECT_EQ(f.engine.stats().transfers_completed, n);
}

TEST(Engine, StatusOfPurgedAndInFlightIdsIsOk)
{
    Fixture f;
    const mem::Pfn src = f.pm.allocate(f.slow, 0);
    const mem::Pfn dst = f.pm.allocate(f.fast, 0);
    f.engine.param_ram().write_full(
        0, TransferDescriptor::contiguous(f.addr(src), f.addr(dst),
                                          mem::kPageSize));
    const TransferId id = f.engine.start_chain(0, 0, false, nullptr);
    EXPECT_EQ(f.engine.status(id), TransferStatus::kOk);  // in flight
    f.eq.run();
    f.engine.purge_finished();
    EXPECT_EQ(f.engine.status(id), TransferStatus::kOk);  // purged
}

TEST(Engine, BandwidthBoundBySlowerNode)
{
    Fixture f;
    // slow->fast at 6.2 GB/s vs fast->fast at 24 GB/s.
    const mem::Pfn s0 = f.pm.allocate(f.slow, 0);
    const mem::Pfn f0 = f.pm.allocate(f.fast, 0);
    const mem::Pfn f1 = f.pm.allocate(f.fast, 0);
    f.engine.param_ram().write_full(
        0, TransferDescriptor::contiguous(f.addr(s0), f.addr(f0),
                                          mem::kPageSize));
    f.engine.param_ram().write_full(
        1, TransferDescriptor::contiguous(f.addr(f0), f.addr(f1),
                                          mem::kPageSize));
    EXPECT_GT(f.engine.chain_duration(0), f.engine.chain_duration(1));
}

}  // namespace
}  // namespace memif::dma
