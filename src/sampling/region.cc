#include "sampling/region.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace delorean::sampling
{

InstCount
RegionSchedule::scaleInterval(InstCount paper_value) const
{
    const double scaled = double(paper_value) / scaleFactor();
    return std::max<InstCount>(1, InstCount(std::llround(scaled)));
}

void
RegionSchedule::validate() const
{
    fatal_if(num_regions == 0, "schedule: need at least one region");
    fatal_if(region_len == 0, "schedule: empty detailed region");
    fatal_if(spacing <= region_len + detailed_warming,
             "schedule: spacing %llu too small for region %llu + "
             "warming %llu",
             (unsigned long long)spacing,
             (unsigned long long)region_len,
             (unsigned long long)detailed_warming);
    fatal_if(spacing > paper_spacing,
             "schedule: spacing beyond paper scale");
}

TraceCheckpointer::TraceCheckpointer(const workload::TraceSource &master)
    : origin_(master.clone())
{
    panic_if(origin_->position() != 0,
             "TraceCheckpointer requires a trace at position 0");
}

void
TraceCheckpointer::prepare(std::vector<InstCount> positions)
{
    std::sort(positions.begin(), positions.end());
    positions.erase(std::unique(positions.begin(), positions.end()),
                    positions.end());

    auto cursor = origin_->clone();
    for (const InstCount pos : positions) {
        panic_if(pos < cursor->position(),
                 "checkpoint positions must be non-decreasing");
        cursor->skip(pos - cursor->position());
        snaps_.emplace(pos, cursor->clone());
    }
}

std::unique_ptr<workload::TraceSource>
TraceCheckpointer::at(InstCount pos) const
{
    // Nearest checkpoint at or before pos, falling back to the origin.
    const workload::TraceSource *base = origin_.get();
    const auto it = snaps_.upper_bound(pos);
    if (it != snaps_.begin()) {
        const auto &[snap_pos, snap] = *std::prev(it);
        if (snap_pos <= pos)
            base = snap.get();
    }
    auto trace = base->clone();
    trace->skip(pos - trace->position());
    return trace;
}

std::shared_ptr<const TraceCheckpointer>
CheckpointMemo::get(const std::string &workload,
                    const workload::TraceSource &master,
                    std::vector<InstCount> positions)
{
    std::sort(positions.begin(), positions.end());
    positions.erase(std::unique(positions.begin(), positions.end()),
                    positions.end());
    Key key{workload, std::move(positions)};

    std::shared_future<Store> pending;
    std::promise<Store> promise;
    std::uint64_t serial = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            it->second.last_use = ++clock_;
            pending = it->second.store;
        } else {
            serial = ++clock_;
            entries_.emplace(
                key, Entry{promise.get_future().share(), serial, serial});
            ++prepares_;
            // Evict the least recently used store; the fresh entry is
            // the most recent, so it never goes.
            while (entries_.size() > capacity) {
                auto victim = entries_.begin();
                for (auto e = entries_.begin(); e != entries_.end(); ++e)
                    if (e->second.last_use < victim->second.last_use)
                        victim = e;
                entries_.erase(victim);
            }
        }
    }
    if (pending.valid())
        return pending.get(); // rethrows the preparer's exception

    try {
        auto store = std::make_shared<TraceCheckpointer>(master);
        store->prepare(key.second);
        promise.set_value(store);
        return store;
    } catch (...) {
        {
            // Drop our entry (unless already evicted and replaced) so
            // the next caller retries instead of inheriting the error.
            std::lock_guard<std::mutex> lock(mutex_);
            const auto it = entries_.find(key);
            if (it != entries_.end() && it->second.serial == serial)
                entries_.erase(it);
        }
        promise.set_exception(std::current_exception());
        throw;
    }
}

std::uint64_t
CheckpointMemo::prepares() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return prepares_;
}

std::size_t
CheckpointMemo::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::vector<InstCount>
checkpointPositions(const RegionSchedule &schedule,
                    const std::vector<InstCount> &horizons)
{
    std::vector<InstCount> positions;
    for (unsigned r = 0; r < schedule.num_regions; ++r) {
        const InstCount ds = schedule.detailedStart(r);
        positions.push_back(schedule.warmingStart(r));
        for (const InstCount h : horizons)
            positions.push_back(ds >= h ? ds - h : 0);
    }
    return positions;
}

} // namespace delorean::sampling
