#include "memif/heat_policy.h"

namespace memif::core {

namespace {

/** Demote when the aging vector falls strictly below this value
 *  (idle for four epochs). */
constexpr std::uint8_t kAgingDemoteThreshold = 0x10;
/** Third band (tiered_memory): enter the cold set at or below this
 *  aging value... */
constexpr std::uint8_t kAgingColdEnter = 0x02;
/** ...and leave it at or above this one. */
constexpr std::uint8_t kAgingColdExit = 0x08;
/** Hot-state flips closer than this many epochs count as ping-pong. */
constexpr std::uint32_t kPingPongWindow = 4;

}  // namespace

RegionHeat::RegionHeat(const HeatConfig &config, std::uint64_t num_pages)
    : config_(config), num_pages_(num_pages)
{
    buckets_.resize((num_pages + kHeatBucketPages - 1) / kHeatBucketPages);
}

std::uint32_t
RegionHeat::pages_in(std::uint64_t bucket) const
{
    const std::uint64_t first = first_page(bucket);
    const std::uint64_t left = num_pages_ - first;
    return left < kHeatBucketPages ? static_cast<std::uint32_t>(left)
                                   : kHeatBucketPages;
}

void
RegionHeat::fold(std::uint64_t bucket, std::uint32_t accessed,
                 std::uint32_t written, std::uint32_t sampled)
{
    HeatBucket &b = buckets_[bucket];
    const bool any = sampled > 0 && accessed > 0;

    b.age = static_cast<std::uint8_t>((b.age >> 1) | (any ? 0x80 : 0));
    if (any) ++b.accessed_epochs;
    if (sampled > 0 && written > 0) ++b.written_epochs;

    bool hot = b.hot;
    if (b.age >= config_.aging_promote_threshold)
        hot = true;
    else if (b.age < kAgingDemoteThreshold)
        hot = false;
    // In between: keep the previous classification (hysteresis).
    if (hot != b.hot) {
        if (b.epochs_since_flip < kPingPongWindow) ++ping_pongs_;
        b.hot = hot;
        b.epochs_since_flip = 0;
    } else if (b.epochs_since_flip < ~0u) {
        ++b.epochs_since_flip;
    }

    // Third band (only classify_tiered() reads it): independent
    // hysteresis at the bottom of the scale. A hot bucket is never
    // cold, whatever the thresholds say — the bands must not overlap.
    bool cold = b.cold;
    if (b.age <= kAgingColdEnter)
        cold = true;
    else if (b.age >= kAgingColdExit)
        cold = false;
    b.cold = cold && !b.hot;
}

TierVerdict
RegionHeat::classify_tiered(std::uint64_t bucket, HeatTier resident,
                            bool slow_has_room) const
{
    const HeatBucket &b = buckets_[bucket];
    if (b.hot)
        return resident == HeatTier::kFast ? TierVerdict::kStay
                                           : TierVerdict::kToFast;
    if (b.cold && slow_has_room)
        return resident == HeatTier::kFast ? TierVerdict::kToSlow
                                           : TierVerdict::kStay;
    if (b.cold)
        return resident == HeatTier::kFar ? TierVerdict::kStay
                                          : TierVerdict::kToFar;
    return resident == HeatTier::kSlow ? TierVerdict::kStay
                                       : TierVerdict::kToSlow;
}

HeatVerdict
RegionHeat::classify(std::uint64_t bucket, bool resident_fast) const
{
    const HeatBucket &b = buckets_[bucket];
    if (b.hot && !resident_fast) return HeatVerdict::kPromote;
    if (!b.hot && resident_fast) return HeatVerdict::kDemote;
    return HeatVerdict::kStay;
}

std::vector<std::uint64_t>
RegionHeat::histogram() const
{
    std::vector<std::uint64_t> h(8, 0);
    for (const HeatBucket &b : buckets_) {
        // score = age / 255, binned into octiles.
        auto octile = static_cast<std::size_t>(b.age / 255.0 * 8.0);
        if (octile > 7) octile = 7;
        ++h[octile];
    }
    return h;
}

}  // namespace memif::core
