#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_set>

#include "sim/random.h"

namespace memifbench {

using namespace memif;

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

/** Simulated time the event loop advances per `sim.run` slice. */
constexpr sim::Duration kRunSlice = sim::milliseconds(1);

std::uint64_t
host_ns(double s)
{
    return static_cast<std::uint64_t>(s * 1e9);
}

double
per(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
us(sim::Duration d)
{
    return sim::to_us(d);
}

std::string
json_number(double v)
{
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

double
host_seconds()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         kProcessStart)
        .count();
}

double
host_cpu_seconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------

namespace {

/** CPU time between calibration units: short, so the kernel tracks a
 *  shared host's speed drift closely (overhead about 5%). */
constexpr double kCalibrationEvery = 0.002;
/** Heap operations per unit (about 0.1 ms). */
constexpr int kCalibrationOps = 500;
/** CPU seconds one unit takes on the reference host (x86-64 VM,
 *  4 vCPUs, GCC 12 -O2) interleaved with the simulator, whose cache
 *  footprint it inherits. */
constexpr double kReferenceUnitSeconds = 0.00018;

Calibration g_calibration;
double g_last_calibration = 0.0;
std::uint64_t g_calibration_sink = 0;

}  // namespace

const Calibration &
calibration()
{
    return g_calibration;
}

void
calibrate_if_due()
{
    const double t0 = host_cpu_seconds();
    if (t0 - g_last_calibration < kCalibrationEvery) return;
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    std::unordered_set<std::uint64_t> live;
    sim::Rng rng(0x5eed);
    std::uint64_t now = 0;
    for (int i = 0; i < 1024; ++i) {
        heap.push(rng.next_below(1 << 16));
        live.insert(rng.next());
    }
    for (int i = 0; i < kCalibrationOps; ++i) {
        now = heap.top();
        heap.pop();
        heap.push(now + rng.next_below(1 << 16));
        live.erase(live.begin());
        live.insert(rng.next());
    }
    g_calibration_sink += now + live.size();
    const double t1 = host_cpu_seconds();
    g_calibration.cpu_s += t1 - t0;
    ++g_calibration.units;
    g_last_calibration = t1;
}

double
slowdown(const Calibration &from, const Calibration &to)
{
    if (to.units == from.units) return 1.0;
    return (to.cpu_s - from.cpu_s) /
           static_cast<double>(to.units - from.units) / kReferenceUnitSeconds;
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

void
Tracer::span(const char *name, const char *clock, std::uint64_t op,
             std::uint64_t start_ns, std::uint64_t end_ns,
             const char *parent)
{
    if (on_) spans_.push_back(Span{name, clock, parent, op, start_ns, end_ns});
}

void
Tracer::counters(const char *where, const std::vector<Metric> &values)
{
    if (!on_) return;
    std::string line = std::string("{\"counters\":\"") + where + "\"";
    for (const Metric &m : values)
        line += ",\"" + m.name + "\":" + json_number(m.value);
    line += "}";
    counter_lines_.push_back(std::move(line));
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    bool ok = true;
    for (const Span &sp : spans_)
        ok = ok &&
             std::fprintf(f,
                          "{\"span\":\"%s\",\"clock\":\"%s\",\"op\":%llu,"
                          "\"start_ns\":%llu,\"end_ns\":%llu,"
                          "\"parent\":\"%s\"}\n",
                          sp.name, sp.clock,
                          static_cast<unsigned long long>(sp.op),
                          static_cast<unsigned long long>(sp.start_ns),
                          static_cast<unsigned long long>(sp.end_ns),
                          sp.parent) >= 0;
    for (const std::string &l : counter_lines_)
        ok = ok && std::fprintf(f, "%s\n", l.c_str()) >= 0;
    return std::fclose(f) == 0 && ok;
}

// ---------------------------------------------------------------------
// Rig
// ---------------------------------------------------------------------

Rig::Rig(const os::KernelConfig &kc, const core::MemifConfig &mc,
         Tracer &tr)
    : tracer(tr)
{
    const double t0 = host_cpu_seconds();
    kernel = std::make_unique<os::Kernel>(kc);
    const double t1 = host_cpu_seconds();
    kernel_build_s = t1 - t0;
    tracer.span("os.kernel_build", "host", 0, host_ns(t0), host_ns(t1), "");
    owner = &kernel->create_process();
    dev = std::make_unique<core::MemifDevice>(*kernel, *owner, mc);
    procs.push_back(owner);
    users.push_back(std::make_unique<core::MemifUser>(*dev, 0, 0));
    frames_baseline = kernel->phys().outstanding_pages();
}

std::uint32_t
Rig::add_tenant(std::uint32_t weight)
{
    os::Process &p = kernel->create_process();
    const std::uint32_t asid = dev->register_tenant(p, weight);
    MEMIF_ASSERT(asid == procs.size(), "unexpected asid %u", asid);
    procs.push_back(&p);
    users.push_back(std::make_unique<core::MemifUser>(*dev, asid, asid));
    return asid;
}

vm::VAddr
Rig::mmap(os::Process &proc, std::uint64_t bytes, mem::NodeId node)
{
    const double t0 = host_cpu_seconds();
    const vm::VAddr va = proc.mmap(bytes, vm::PageSize::k4K, node);
    const double t1 = host_cpu_seconds();
    mmap_s += t1 - t0;
    tracer.span("vm.mmap", "host", 0, host_ns(t0), host_ns(t1), "");
    MEMIF_ASSERT(va != 0, "benchmark mmap of %llu bytes failed",
                 static_cast<unsigned long long>(bytes));
    return va;
}

Snapshot
Rig::snap() const
{
    Snapshot s;
    s.now = kernel->eq().now();
    s.events = kernel->eq().events_executed();
    s.host_cpu = host_cpu_seconds();
    s.cal = calibration();
    s.cpu = kernel->cpu().snapshot();
    s.sys = kernel->syscall_stats();
    s.dev = dev->stats();
    s.eng = kernel->dma_engine().stats();
    s.chain = kernel->dma().cache().stats();
    s.param = kernel->dma_engine().param_ram().stats();
    for (os::Process *p : procs) {
        const vm::VmStats &v = p->as().stats();
        s.vm.migration_blocks += v.migration_blocks;
        s.vm.tlb_page_flushes += v.tlb_page_flushes;
        s.vm.tlb_range_flushes += v.tlb_range_flushes;
        s.vm.heat_samples += v.heat_samples;
    }
    return s;
}

bool
run_to_completion(Rig &rig, sim::Task &app)
{
    sim::EventQueue &eq = rig.kernel->eq();
    while (!app.done()) {
        if (eq.empty()) break;
        const double h0 = host_cpu_seconds();
        eq.run_until(eq.now() + kRunSlice);
        rig.tracer.span("sim.run", "host", 0, host_ns(h0),
                        host_ns(host_cpu_seconds()), "");
        calibrate_if_due();
    }
    app.rethrow_if_failed();
    if (!app.done()) return false;
    const double h0 = host_cpu_seconds();
    eq.run();
    rig.tracer.span("sim.run", "host", 0, host_ns(h0),
                    host_ns(host_cpu_seconds()), "");
    return true;
}

bool
verify_bytes(vm::AddressSpace &as, vm::VAddr va, const std::uint8_t *expect,
             std::uint64_t bytes)
{
    std::uint64_t off = 0;
    while (off < bytes) {
        const vm::VAddr at = va + off;
        const std::uint64_t in_page =
            std::min<std::uint64_t>(mem::kPageSize - (at % mem::kPageSize),
                                    bytes - off);
        const std::byte *p = as.translate(at);
        if (p == nullptr || std::memcmp(p, expect + off, in_page) != 0)
            return false;
        off += in_page;
    }
    return true;
}

std::vector<std::uint8_t>
pattern(std::uint64_t seed, std::uint64_t n)
{
    sim::Rng rng(seed);
    std::vector<std::uint8_t> out(n);
    for (std::uint64_t i = 0; i < n; i += 8) {
        const std::uint64_t w = rng.next();
        std::memcpy(out.data() + i, &w, std::min<std::uint64_t>(8, n - i));
    }
    return out;
}

std::int64_t
teardown_checks(Rig &rig,
                const std::vector<std::pair<os::Process *, vm::VAddr>> &regions,
                std::vector<std::string> &errors)
{
    std::string why;
    if (!rig.dev->check_quiesced(&why))
        errors.push_back("device not quiesced: " + why);
    for (const auto &[proc, base] : regions) proc->as().munmap(base);
    rig.kernel->run();
    const auto outstanding =
        static_cast<std::int64_t>(rig.kernel->phys().outstanding_pages());
    const std::int64_t delta =
        outstanding - static_cast<std::int64_t>(rig.dev->magazine_pages()) -
        static_cast<std::int64_t>(rig.frames_baseline);
    if (delta != 0)
        errors.push_back("buddy frames outstanding changed by " +
                         std::to_string(delta) + " over the run");
    return delta;
}

double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty()) return 0.0;
    const auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

double
tail_pct(std::size_t samples)
{
    for (const double p : {99.0, 95.0, 90.0, 75.0})
        if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0)
            return p;
    return 50.0;
}

double
Round::sim_value(const std::string &name) const
{
    for (const Metric &m : sim)
        if (m.name == name) return m.value;
    return std::numeric_limits<double>::quiet_NaN();
}

// ---------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------

void
layer_metrics(const Snapshot &a, const Snapshot &b, std::uint64_t ops,
              std::uint64_t pages, Round &out)
{
    const auto n = static_cast<double>(ops);
    const auto pg = static_cast<double>(pages);
    auto add = [&](const char *name, const char *unit, double v) {
        out.sim.push_back(Metric{name, unit, v});
    };
    auto d = [](std::uint64_t x1, std::uint64_t x0) {
        return static_cast<double>(x1 - x0);
    };
    auto cpu_op = [&](sim::Op o) {
        return per(us(b.cpu.op(o) - a.cpu.op(o)), n);
    };
    auto cpu_ctx = [&](sim::ExecContext c) {
        return per(us(b.cpu.context(c) - a.cpu.context(c)), n);
    };
    const core::DeviceStats &s0 = a.dev;
    const core::DeviceStats &s1 = b.dev;

    // sim
    add("sim.events_per_op", "events/op", per(d(b.events, a.events), n));
    add("sim.cpu.user_us_per_op", "us/op", cpu_ctx(sim::ExecContext::kUser));
    add("sim.cpu.syscall_us_per_op", "us/op",
        cpu_ctx(sim::ExecContext::kSyscall));
    add("sim.cpu.irq_us_per_op", "us/op", cpu_ctx(sim::ExecContext::kIrq));
    add("sim.cpu.kthread_us_per_op", "us/op",
        cpu_ctx(sim::ExecContext::kKthread));
    // os
    add("os.syscalls_per_op", "1/op",
        per(d(b.sys.crossings, a.sys.crossings), n));
    add("os.kthread_wakeups_per_op", "1/op",
        per(d(s1.kthread_wakeups, s0.kthread_wakeups), n));
    add("cpu.sched_us_per_op", "us/op", cpu_op(sim::Op::kSched));
    // mem
    add("mem.magazine_pops_per_page", "1/page",
        per(d(s1.magazine_pops, s0.magazine_pops), pg));
    add("mem.bulk_allocs_per_op", "1/op",
        per(d(s1.bulk_allocs, s0.bulk_allocs), n));
    add("cpu.remap_us_per_op", "us/op", cpu_op(sim::Op::kRemap));
    // vm
    add("vm.tlb_page_flushes_per_op", "1/op",
        per(d(b.vm.tlb_page_flushes, a.vm.tlb_page_flushes), n));
    add("vm.tlb_range_flushes_per_op", "1/op",
        per(d(b.vm.tlb_range_flushes, a.vm.tlb_range_flushes), n));
    add("vm.migration_blocks", "count",
        d(b.vm.migration_blocks, a.vm.migration_blocks));
    add("vm.heat_samples_per_op", "1/op",
        per(d(b.vm.heat_samples, a.vm.heat_samples), n));
    add("cpu.prep_us_per_op", "us/op", cpu_op(sim::Op::kPrep));
    add("cpu.release_us_per_op", "us/op", cpu_op(sim::Op::kRelease));
    // lockfree
    // Every handle's kick ioctl lands in the device's count, including
    // the C-API handle's, whose UserStats are not reachable.
    add("lockfree.kicks_per_op", "1/op",
        per(d(s1.kick_ioctls, s0.kick_ioctls), n));
    add("lockfree.shared_submit_retries", "count",
        d(s1.shared_submit_retries, s0.shared_submit_retries));
    add("cpu.queue_us_per_op", "us/op", cpu_op(sim::Op::kQueue));
    // dma
    add("dma.tc_busy_frac", "ratio",
        per(static_cast<double>(b.eng.busy_time - a.eng.busy_time),
            static_cast<double>(dma::Edma3Engine::kNumTcs) *
                static_cast<double>(b.now - a.now)));
    add("dma.gate_stalls_per_op", "1/op",
        per(d(b.eng.gate_stalls, a.eng.gate_stalls), n));
    add("dma.gate_stall_us_per_op", "us/op",
        per(us(b.eng.gate_stall_time - a.eng.gate_stall_time), n));
    add("dma.irqs_per_op", "1/op",
        per(d(b.eng.interrupts_raised, a.eng.interrupts_raised), n));
    const double reused = d(b.chain.descs_reused, a.chain.descs_reused);
    const double fresh = d(b.chain.descs_fresh, a.chain.descs_fresh);
    add("dma.chain_reuse_ratio", "ratio", per(reused, reused + fresh));
    add("dma.desc_full_writes_per_op", "1/op",
        per(d(b.param.full_writes, a.param.full_writes), n));
    add("dma.desc_partial_writes_per_op", "1/op",
        per(d(b.param.partial_writes, a.param.partial_writes), n));
    add("dma.transfers_failed", "count",
        d(b.eng.transfers_failed, a.eng.transfers_failed));
    add("cpu.dmacfg_us_per_op", "us/op", cpu_op(sim::Op::kDmaConfig));
    // memif: submission / completion
    add("memif.drained_per_drain", "1/drain",
        per(d(s1.drained_requests, s0.drained_requests),
            d(s1.completion_drains, s0.completion_drains)));
    add("memif.adaptive_polled", "count",
        d(s1.adaptive_polled, s0.adaptive_polled));
    add("memif.adaptive_irq", "count", d(s1.adaptive_irq, s0.adaptive_irq));
    add("memif.adaptive_moderated", "count",
        d(s1.adaptive_moderated, s0.adaptive_moderated));
    add("memif.sg_entries_per_op", "1/op",
        per(d(s1.sg_entries_emitted, s0.sg_entries_emitted), n));
    add("memif.descriptor_writes_saved_per_op", "1/op",
        per(d(s1.descriptor_writes_saved, s0.descriptor_writes_saved), n));
    add("cpu.notify_us_per_op", "us/op", cpu_op(sim::Op::kNotify));
    // memif: translation
    const double xh = d(s1.xlate_hits, s0.xlate_hits);
    const double xm = d(s1.xlate_misses, s0.xlate_misses);
    add("memif.xlate_hit_ratio", "ratio", per(xh, xh + xm));
    const double ph = d(s1.stream_prefetch_hits, s0.stream_prefetch_hits);
    const double pl = d(s1.stream_prefetch_late, s0.stream_prefetch_late);
    const double pw = d(s1.stream_prefetch_wasted, s0.stream_prefetch_wasted);
    add("memif.prefetch_hit_ratio", "ratio", per(ph, ph + pl + pw));
    add("memif.prefetch_wasted_per_op", "1/op", per(pw, n));
    add("memif.sva_demand_walks_per_op", "1/op",
        per(d(s1.sva_demand_walks, s0.sva_demand_walks), n));
    // memif: tenancy
    add("memif.admission_rejections", "count",
        d(s1.admission_rejections, s0.admission_rejections));
    add("memif.shed_requests", "count",
        d(s1.shed_requests, s0.shed_requests));
    add("memif.quota_hits_inflight", "count",
        d(s1.quota_hits_inflight, s0.quota_hits_inflight));
    add("memif.quota_hits_frames", "count",
        d(s1.quota_hits_frames, s0.quota_hits_frames));
    // memif: tiered / strided
    add("memif.chain_batches_per_op", "1/op",
        per(d(s1.chain_batches, s0.chain_batches), n));
    add("memif.hop_overlap_events", "count",
        d(s1.hop_overlap_events, s0.hop_overlap_events));
    add("memif.staging_pool_waits", "count",
        d(s1.staging_pool_waits, s0.staging_pool_waits));
    add("memif.staging_frames_hwm", "frames",
        static_cast<double>(s1.staging_frames_hwm));
    add("memif.hop_retries", "count", d(s1.hop_retries, s0.hop_retries));
    const double strided = d(s1.strided_requests, s0.strided_requests);
    add("memif.strided_descriptors_per_req", "1/req",
        per(d(s1.strided_descriptors, s0.strided_descriptors), strided));
    add("memif.strided_row_splits_per_req", "1/req",
        per(d(s1.strided_row_splits, s0.strided_row_splits), strided));
    // memif: managed
    add("memif.heat_pages_sampled_per_op", "1/op",
        per(d(s1.heat_pages_sampled, s0.heat_pages_sampled), n));
    const double issued = d(s1.promotions_issued, s0.promotions_issued) +
                          d(s1.demotions_issued, s0.demotions_issued);
    const double useful = d(s1.promotions_completed, s0.promotions_completed) +
                          d(s1.demotions_completed, s0.demotions_completed);
    add("memif.daemon_useful_ratio", "ratio", per(useful, issued));
    add("memif.daemon_movs_dropped", "count",
        d(s1.daemon_movs_dropped, s0.daemon_movs_dropped));
}

void
stage_metrics(const std::vector<OpTiming> &ops, Round &out)
{
    std::vector<double> submit, service, notify;
    for (const OpTiming &t : ops) {
        if (t.retrieved == 0) continue;
        submit.push_back(us(t.returned - t.call));
        if (t.complete_time >= t.submit_time && t.submit_time != 0)
            service.push_back(us(t.complete_time - t.submit_time));
        if (t.retrieved >= t.complete_time && t.complete_time != 0)
            notify.push_back(us(t.retrieved - t.complete_time));
    }
    std::sort(submit.begin(), submit.end());
    std::sort(service.begin(), service.end());
    std::sort(notify.begin(), notify.end());
    out.sim.push_back(Metric{"memif.submit_us_p50", "us",
                             percentile(submit, 50.0)});
    out.sim.push_back(Metric{"memif.service_us_p50", "us",
                             percentile(service, 50.0)});
    out.sim.push_back(Metric{"memif.service_us_p99", "us",
                             percentile(service, tail_pct(service.size()))});
    out.sim.push_back(Metric{"memif.notify_us_p50", "us",
                             percentile(notify, 50.0)});
}

void
trace_op(Tracer &tracer, std::uint64_t op, const OpTiming &t)
{
    if (!tracer.on()) return;
    tracer.span("bench.op", "sim", op, t.call, t.retrieved, "");
    tracer.span("memif.submit", "sim", op, t.call, t.returned, "bench.op");
    tracer.span("memif.service", "sim", op, t.submit_time, t.complete_time,
                "bench.op");
    tracer.span("memif.notify", "sim", op, t.complete_time, t.retrieved,
                "bench.op");
}

std::vector<Metric>
snapshot_values(const Snapshot &s)
{
    auto v = [](std::uint64_t x) { return static_cast<double>(x); };
    return {
        {"sim_ns", "ns", v(s.now)},
        {"host_cpu_ns", "ns", s.host_cpu * 1e9},
        {"events", "count", v(s.events)},
        {"cpu_total_ns", "ns", v(s.cpu.total)},
        {"syscalls", "count", v(s.sys.crossings)},
        {"requests_completed", "count", v(s.dev.requests_completed)},
        {"bytes_moved", "bytes", v(s.dev.bytes_moved)},
        {"kthread_wakeups", "count", v(s.dev.kthread_wakeups)},
        {"kicks", "count", v(s.dev.kick_ioctls)},
        {"irqs", "count", v(s.eng.interrupts_raised)},
        {"tc_busy_ns", "ns", v(s.eng.busy_time)},
        {"gate_stalls", "count", v(s.eng.gate_stalls)},
        {"tlb_page_flushes", "count", v(s.vm.tlb_page_flushes)},
        {"tlb_range_flushes", "count", v(s.vm.tlb_range_flushes)},
        {"xlate_hits", "count", v(s.dev.xlate_hits)},
        {"xlate_misses", "count", v(s.dev.xlate_misses)},
    };
}

std::uint64_t
fnv(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

}  // namespace memifbench
