#include "memif/xlate_cache.h"

namespace memif {

const XlateCache::Entry *
XlateCache::lookup(const vm::Vma *vma, std::uint64_t first, std::uint64_t n)
{
    for (Entry &e : entries_) {
        if (e.covers(vma, first, n)) {
            e.tick = ++tick_;
            return &e;
        }
    }
    return nullptr;
}

void
XlateCache::record(const vm::Vma *vma, std::uint64_t first,
                   std::vector<vm::Pte> ptes)
{
    if (ptes.empty()) return;
    for (Entry &e : entries_) {
        if (e.vma == vma && e.first_page == first) {
            e.ptes = std::move(ptes);
            e.generation = generation_;
            e.tick = ++tick_;
            return;
        }
    }
    if (entries_.size() >= max_entries_) {
        std::size_t victim = 0;
        for (std::size_t i = 1; i < entries_.size(); ++i)
            if (entries_[i].tick < entries_[victim].tick) victim = i;
        entries_.erase(entries_.begin() +
                       static_cast<std::ptrdiff_t>(victim));
    }
    Entry e;
    e.vma = vma;
    e.first_page = first;
    e.ptes = std::move(ptes);
    e.generation = generation_;
    e.tick = ++tick_;
    entries_.push_back(std::move(e));
}

std::uint64_t
XlateCache::invalidate(const vm::Vma *vma, std::uint64_t first,
                       std::uint64_t n)
{
    ++generation_;
    std::uint64_t dropped = 0;
    for (std::size_t i = 0; i < entries_.size();) {
        const Entry &e = entries_[i];
        const bool overlaps = e.vma == vma && first < e.first_page + e.num_pages() &&
                              e.first_page < first + n;
        if (overlaps) {
            entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
            ++dropped;
        } else {
            ++i;
        }
    }
    return dropped;
}

}  // namespace memif
