#include "check/reference_model.h"

#include <cstring>

namespace memif::check {

using core::MovError;
using core::MovOp;
using core::MovStatus;
using core::RacePolicy;

namespace {

MovError
expected_malform_error(const MovSpec &m)
{
    switch (m.malform) {
        case Malform::kUnmappedSrc: return MovError::kBadAddress;
        case Malform::kZeroPages: return MovError::kBadRequest;
        case Malform::kTooManyPages: return MovError::kBadRequest;
        case Malform::kBadNode: return MovError::kBadNode;
        case Malform::kOverlap: return MovError::kBadRequest;
        case Malform::kZeroRowBytes: return MovError::kBadRequest;
        case Malform::kPitchUnderRow: return MovError::kBadRequest;
        case Malform::kNone: break;
    }
    return MovError::kNone;
}

}  // namespace

ReferenceModel::ReferenceModel(const Workload &w) : w_(w)
{
    for (const RegionSpec &r : w.regions) {
        const std::uint64_t bytes = r.pages * vm::page_bytes(r.psize);
        std::vector<std::uint8_t> mem(bytes);
        for (std::uint64_t i = 0; i < bytes; ++i)
            mem[i] = pat_byte(r.pattern, i);
        mem_.push_back(std::move(mem));
    }

    // Flatten requests in submission order and collect per-phase
    // touches; then mark each migration that shares a phase (and
    // pages) with a touch as possibly raced.
    struct Touch {
        std::uint32_t phase, region, page;
    };
    std::vector<Touch> touches;
    std::uint32_t phase = 0;
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
        const WorkloadOp &op = w.ops[i];
        switch (op.kind) {
            case OpKind::kBarrier: ++phase; break;
            case OpKind::kTouch:
                touches.push_back(
                    Touch{phase, op.touch.region, op.touch.page});
                break;
            case OpKind::kMov:
            case OpKind::kMovMany:
                for (const MovSpec &m : op.movs)
                    movs_.push_back(MovRecord{
                        m, i, phase, expected_malform_error(m), false});
                break;
        }
    }
    for (MovRecord &rec : movs_) {
        if (rec.spec.op != MovOp::kMigrate ||
            rec.spec.malform != Malform::kNone)
            continue;
        for (const Touch &t : touches) {
            if (t.phase == rec.phase &&
                t.region == rec.spec.src_region &&
                t.page >= rec.spec.src_page &&
                t.page < rec.spec.src_page + rec.spec.num_pages) {
                rec.may_race = true;
                break;
            }
        }
    }
}

bool
ReferenceModel::outcome_allowed(std::size_t id, MovStatus st,
                                MovError err, const OutcomeContext &ctx,
                                std::string *why) const
{
    const MovRecord &rec = movs_[id];
    auto reject = [&](const char *reason) {
        if (why) {
            *why += "mov #" + std::to_string(id) + " (op " +
                    std::to_string(rec.op_index) + "): got " +
                    status_name(st) + "/" + error_name(err) + ", " +
                    reason;
        }
        return false;
    };

    // Admission backpressure (multi_tenant): a quota rejection is a
    // legal terminal for ANY request — it fires at submit, before
    // validation, so even malformed requests can see it. The runner
    // normally retries these instead of recording them, but a client
    // that gives up on kNoSpace is within its rights.
    if (ctx.multi_tenant && st == MovStatus::kFailed &&
        err == MovError::kNoSpace)
        return true;

    if (rec.spec.malform != Malform::kNone) {
        if (st == MovStatus::kFailed && err == rec.expect_error)
            return true;
        return reject(
            ("malformed request must fail with " +
             std::string(error_name(rec.expect_error)))
                .c_str());
    }

    // Managed mode: any valid request can collide with a
    // device-originated daemon mov and fail fast with kBusy
    // (validation precedes the gate, so malformed requests never see
    // it). The runner retries these like quota backpressure, but a
    // client that gives up is within its rights — a bounced request
    // moves no memory.
    if (ctx.auto_migrate && st == MovStatus::kFailed &&
        err == MovError::kBusy)
        return true;

    const bool dma_fault_visible =
        ctx.faults_armed && !ctx.cpu_copy_fallback;
    if (rec.spec.op == MovOp::kMigrate) {
        if (st == MovStatus::kDone) return true;
        // Destination-node exhaustion (or an injected allocation
        // failure) can strike any migration; content is preserved.
        if (st == MovStatus::kFailed && err == MovError::kNoMemory)
            return true;
        if (st == MovStatus::kRaceDetected &&
            ctx.policy == RacePolicy::kDetect && rec.may_race)
            return true;
        if (st == MovStatus::kAborted &&
            ctx.policy == RacePolicy::kRecover && rec.may_race)
            return true;
        if (st == MovStatus::kFailed && dma_fault_visible &&
            (err == MovError::kDmaError || err == MovError::kTimeout))
            return true;
        return reject("not an acceptable migration outcome here");
    }

    // Replication: never raced, never aborted.
    if (st == MovStatus::kDone) return true;
    if (st == MovStatus::kFailed && dma_fault_visible &&
        (err == MovError::kDmaError || err == MovError::kTimeout))
        return true;
    if (st == MovStatus::kFailed && err == MovError::kNoMemory &&
        ctx.faults_armed)
        return true;  // injected alloc failure on the bounce path
    return reject("not an acceptable replication outcome here");
}

void
ReferenceModel::commit(std::size_t id, MovStatus st)
{
    const MovRecord &rec = movs_[id];
    if (rec.spec.op != MovOp::kReplicate ||
        rec.spec.malform != Malform::kNone || st != MovStatus::kDone)
        return;
    const MovSpec &m = rec.spec;
    const std::uint64_t src_pb =
        vm::page_bytes(w_.regions[m.src_region].psize);
    const std::uint64_t dst_pb =
        vm::page_bytes(w_.regions[m.dst_region].psize);
    if (m.rows != 0) {
        // Strided replication: rows land row_bytes at a time, pitches
        // apart — the naive per-row oracle the 2D descriptors must
        // match byte-for-byte.
        const std::uint64_t src0 = m.src_page * src_pb;
        const std::uint64_t dst0 = m.dst_page * dst_pb;
        for (std::uint32_t r = 0; r < m.rows; ++r)
            std::memcpy(
                mem_[m.dst_region].data() + dst0 + r * m.dst_pitch,
                mem_[m.src_region].data() + src0 + r * m.src_pitch,
                m.row_bytes);
        return;
    }
    const std::uint64_t bytes = m.num_pages * src_pb;
    std::memcpy(mem_[m.dst_region].data() + m.dst_page * dst_pb,
                mem_[m.src_region].data() + m.src_page * src_pb,
                bytes);
}

const char *
status_name(MovStatus st)
{
    switch (st) {
        case MovStatus::kFree: return "kFree";
        case MovStatus::kOwned: return "kOwned";
        case MovStatus::kSubmitted: return "kSubmitted";
        case MovStatus::kInFlight: return "kInFlight";
        case MovStatus::kDone: return "kDone";
        case MovStatus::kRaceDetected: return "kRaceDetected";
        case MovStatus::kAborted: return "kAborted";
        case MovStatus::kFailed: return "kFailed";
    }
    return "?";
}

const char *
error_name(MovError err)
{
    switch (err) {
        case MovError::kNone: return "kNone";
        case MovError::kBadAddress: return "kBadAddress";
        case MovError::kBadNode: return "kBadNode";
        case MovError::kNoMemory: return "kNoMemory";
        case MovError::kBadRequest: return "kBadRequest";
        case MovError::kRace: return "kRace";
        case MovError::kAborted: return "kAborted";
        case MovError::kBusy: return "kBusy";
        case MovError::kFileBacked: return "kFileBacked";
        case MovError::kDmaError: return "kDmaError";
        case MovError::kTimeout: return "kTimeout";
        case MovError::kNoSpace: return "kNoSpace";
    }
    return "?";
}

}  // namespace memif::check
