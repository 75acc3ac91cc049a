/**
 * @file
 * Shared plumbing of the memif benchmark: the simulated machine one
 * round runs on, counter snapshots of every public stats struct, the
 * in-memory span recorder, and the per-round result every workload
 * fills in.
 *
 * The benchmark measures each layer from outside: it times and counts
 * around calls into public functions (Kernel construction, mmap,
 * MemifUser submit/retrieve/poll, memif_mov_strided, the event loop)
 * and reads the public stats() structs. Nothing here reaches into
 * src/ internals.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "memif/device.h"
#include "memif/user_api.h"
#include "os/kernel.h"
#include "os/process.h"
#include "sim/cpu.h"
#include "sim/task.h"

namespace memifbench {

/** Host seconds since process start (steady clock). */
double host_seconds();

/**
 * CPU seconds the calling thread has used. The simulator is one
 * thread, so every host time the benchmark reports is in this clock:
 * unlike wall time it does not count the time other processes on a
 * shared machine hold the core.
 */
double host_cpu_seconds();

/**
 * Host-speed calibration. The machine a benchmark runs on may be shared
 * and its speed drift by tens of percent within seconds, so the event
 * loop interleaves a fixed CPU kernel (a binary heap and a hash set
 * churned like an event queue) with the simulation, about every 2 ms
 * of CPU time, and host speed is reported relative to that kernel's
 * speed on the reference host.
 */
struct Calibration {
    double cpu_s = 0.0;       ///< CPU seconds spent in the kernel so far
    std::uint64_t units = 0;  ///< kernel invocations so far
};

/** Totals of every calibration run in this process. */
const Calibration &calibration();

/** Run one calibration unit if enough CPU time passed since the last. */
void calibrate_if_due();

/**
 * How much slower this host ran than the reference host over the
 * interval between two calibration totals (1.0 = reference speed);
 * 1.0 when no calibration ran in between.
 */
double slowdown(const Calibration &from, const Calibration &to);

/** One named value with its unit. */
struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
};

/**
 * Spans and counter records kept in memory and written out as JSON
 * lines when the run ends. Inert unless constructed with @p on.
 * Simulated spans carry virtual nanoseconds, host spans CPU nanoseconds
 * of the simulating thread.
 */
class Tracer {
  public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }

    /** Record one span; @p parent is the causing span's name ("" for a
     *  root). Spans of one operation share @p op. The name strings must
     *  be literals (they are kept by pointer). */
    void span(const char *name, const char *clock, std::uint64_t op,
              std::uint64_t start_ns, std::uint64_t end_ns,
              const char *parent);

    /** Record a counter snapshot taken at boundary @p where. */
    void counters(const char *where, const std::vector<Metric> &values);

    /** Write everything recorded as JSON lines. @return false on I/O
     *  failure. */
    bool write(const std::string &path) const;

  private:
    struct Span {
        const char *name;
        const char *clock;
        const char *parent;
        std::uint64_t op;
        std::uint64_t start_ns;
        std::uint64_t end_ns;
    };
    bool on_;
    std::vector<Span> spans_;
    std::vector<std::string> counter_lines_;
};

/** Every public counter the benchmark reads, at one instant. */
struct Snapshot {
    memif::sim::SimTime now = 0;
    std::uint64_t events = 0;
    double host_cpu = 0.0;  ///< host_cpu_seconds()
    Calibration cal;
    memif::sim::CpuAccounting cpu;
    memif::os::SyscallStats sys;
    memif::core::DeviceStats dev;
    memif::dma::EngineStats eng;
    memif::dma::ChainCacheStats chain;
    memif::dma::DescriptorRamStats param;
    /** Summed over every process of the machine. */
    memif::vm::VmStats vm;
};

/**
 * One simulated machine with one memif device: the owning process plus
 * optional tenant processes, each with its own MemifUser. Building it
 * is the `os.kernel_build` span.
 */
struct Rig {
    Rig(const memif::os::KernelConfig &kc, const memif::core::MemifConfig &mc,
        Tracer &tracer);
    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    /** Add a tenant process with WRR weight @p weight; returns its ASID. */
    std::uint32_t add_tenant(std::uint32_t weight);

    /** mmap in @p proc on @p node, timed as a `vm.mmap` host span. */
    memif::vm::VAddr mmap(memif::os::Process &proc, std::uint64_t bytes,
                          memif::mem::NodeId node);

    Snapshot snap() const;

    Tracer &tracer;
    std::unique_ptr<memif::os::Kernel> kernel;
    memif::os::Process *owner = nullptr;
    std::unique_ptr<memif::core::MemifDevice> dev;
    /** procs[asid] and users[asid]. */
    std::vector<memif::os::Process *> procs;
    std::vector<std::unique_ptr<memif::core::MemifUser>> users;
    double kernel_build_s = 0.0;
    double mmap_s = 0.0;
    /** Buddy frames outstanding once the device exists, before any
     *  mmap: the value teardown must return to. */
    std::uint64_t frames_baseline = 0;
};

/**
 * Drive the event loop until @p app finishes, in slices of simulated
 * time (each slice is one `sim.run` host span), then drain whatever
 * kernel work is left. @return false if the app never finished.
 */
bool run_to_completion(Rig &rig, memif::sim::Task &app);

/**
 * Compare @p bytes at @p va in @p as against @p expect through
 * AddressSpace::translate, page by page. @return false on any
 * mismatch or unmapped page.
 */
bool verify_bytes(memif::vm::AddressSpace &as, memif::vm::VAddr va,
                  const std::uint8_t *expect, std::uint64_t bytes);

/** Fill @p n bytes from a seeded xoshiro stream. */
std::vector<std::uint8_t> pattern(std::uint64_t seed, std::uint64_t n);

/**
 * End-of-round checks shared by every workload: the device quiesced,
 * and after unmapping @p regions (pairs of process, base) the buddy
 * frames outstanding are back at the pre-run value.
 * Appends a message per failed check to @p errors and returns the
 * frame delta (0 when clean).
 */
std::int64_t teardown_checks(
    Rig &rig,
    const std::vector<std::pair<memif::os::Process *, memif::vm::VAddr>>
        &regions,
    std::vector<std::string> &errors);

/** Sorted-sample percentile by nearest rank; 0 for no samples. */
double percentile(const std::vector<double> &sorted, double p);

/**
 * The tail percentile the benchmark reports as "p99": 99 when at least
 * ten samples lie beyond it, else the highest of 95/90/75/50 that has
 * ten beyond (50 as a floor). */
double tail_pct(std::size_t samples);

/** Per-operation timing of one memif request (virtual ns). */
struct OpTiming {
    std::uint64_t call = 0;       ///< submit call entered (or due time)
    std::uint64_t returned = 0;   ///< submit call returned
    std::uint64_t submit_time = 0;    ///< MovReq::submit_time
    std::uint64_t complete_time = 0;  ///< MovReq::complete_time
    std::uint64_t retrieved = 0;  ///< completion retrieved by the app
};

/** Everything one round produces. */
struct Round {
    /** Simulated metrics, end-to-end and per-layer, in a fixed order.
     *  Bit-identical across rounds of one seed. */
    std::vector<Metric> sim;
    /** Host-time per-layer metrics (vary run to run). */
    std::vector<Metric> host;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Operations simulated in the measured phase, and the host CPU
     *  time that phase took (checking and poisoning excluded). */
    std::uint64_t measured_ops = 0;
    double measured_host_s = 0.0;
    /** slowdown() over the measured phase. */
    double host_slowdown = 1.0;
    /** Host CPU seconds from round start to the first measured
     *  submission. */
    double setup_s = 0.0;
    /** Hash of the generated request stream (seed sensitivity test). */
    std::uint64_t stream_digest = 0;
    std::vector<std::string> errors;
    /** Extra human-readable lines (per-step ladder results). */
    std::vector<std::string> notes;

    double sim_value(const std::string &name) const;
};

/**
 * Per-layer metrics common to every workload, from the counters at
 * the start (@p a) and end (@p b) of the measured phase, normalised
 * per operation (@p ops) and per moved page (@p pages). Appends to
 * @p out.sim.
 */
void layer_metrics(const Snapshot &a, const Snapshot &b, std::uint64_t ops,
                   std::uint64_t pages, Round &out);

/** Latency distributions of the memif request stages (virtual us). */
void stage_metrics(const std::vector<OpTiming> &ops, Round &out);

/** Record the four spans of one operation (sim clock). */
void trace_op(Tracer &tracer, std::uint64_t op, const OpTiming &t);

/** Counter snapshot as named values, for Tracer::counters. */
std::vector<Metric> snapshot_values(const Snapshot &s);

/** FNV-1a over raw bytes, chained through @p h. */
std::uint64_t fnv(std::uint64_t h, const void *data, std::size_t n);

}  // namespace memifbench
