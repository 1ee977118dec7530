/**
 * @file
 * The sampled-simulation region schedule and trace checkpointing.
 *
 * The paper evaluates 10 detailed regions of 10 k instructions spread
 * uniformly 1 B instructions apart, with 30 k instructions of detailed
 * warming before each. We keep the same structure at a reduced spacing
 * (default 5 M) and expose the implied scale factor S so all interval
 * parameters and host costs scale together (DESIGN.md §5).
 */

#ifndef DELOREAN_SAMPLING_REGION_HH
#define DELOREAN_SAMPLING_REGION_HH

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "workload/trace_source.hh"

namespace delorean::sampling
{

/** Placement of the detailed regions within the trace. */
struct RegionSchedule
{
    /** The paper's region spacing (1 B instructions). */
    static constexpr InstCount paper_spacing = 1'000'000'000;

    unsigned num_regions = 10;
    InstCount spacing = 5'000'000;
    InstCount region_len = 10'000;         //!< detailed region
    InstCount detailed_warming = 30'000;   //!< lukewarm window

    /** First instruction after region @p i (multiple of spacing). */
    InstCount regionEnd(unsigned i) const { return spacing * (i + 1); }

    /** First instruction of detailed region @p i. */
    InstCount
    detailedStart(unsigned i) const
    {
        return regionEnd(i) - region_len;
    }

    /** First instruction of the detailed-warming window of region @p i. */
    InstCount
    warmingStart(unsigned i) const
    {
        return detailedStart(i) - detailed_warming;
    }

    /** Total trace length covered by the schedule. */
    InstCount totalInstructions() const { return spacing * num_regions; }

    /** Interval scale factor S = paper spacing / spacing. */
    double
    scaleFactor() const
    {
        return double(paper_spacing) / double(spacing);
    }

    /** Scale a paper-scale interval parameter down by S (min 1). */
    InstCount scaleInterval(InstCount paper_value) const;

    void validate() const;
};

/**
 * Checkpoint store over a master trace — our stand-in for the library of
 * KVM snapshots the paper's passes boot from. prepare() makes one forward
 * pass and snapshots the generator at each requested position; at() hands
 * out clones positioned anywhere, advancing from the nearest checkpoint.
 */
class TraceCheckpointer
{
  public:
    explicit TraceCheckpointer(const workload::TraceSource &master);

    /** Snapshot the requested positions in one forward pass. */
    void prepare(std::vector<InstCount> positions);

    /** @return a fresh trace positioned exactly at @p pos. */
    std::unique_ptr<workload::TraceSource> at(InstCount pos) const;

    std::size_t checkpoints() const { return snaps_.size(); }

    /** @return whether prepare() snapshotted exactly @p pos. */
    bool has(InstCount pos) const { return snaps_.count(pos) != 0; }

    /** Name of the trace this store was built over. */
    const std::string &traceName() const { return origin_->name(); }

  private:
    std::unique_ptr<workload::TraceSource> origin_;
    std::map<InstCount, std::unique_ptr<workload::TraceSource>> snaps_;
};

/**
 * Prepared checkpoint stores shared across the cells, units and jobs
 * of one process, so each workload is fast-forwarded once rather than
 * once per cell (the batch runner, the daemon and fleet workers each
 * own one; docs/batch.md, "Co-scheduled windows").
 *
 * A store is keyed by the workload's identity and the sorted, deduped
 * positions it snapshots. The caller vouches that the identity names
 * the trace's content: a generated workload's normalized spec is a
 * pure function of it, a file path is not (a re-recorded file would be
 * served snapshots of its old bytes), so file-backed workloads must
 * not come here. Concurrent callers with one key wait for a single
 * prepare(); when it throws, every waiter gets the exception and the
 * entry is dropped, so a later call retries. At most `capacity` stores
 * are retained, least recently used evicted first; callers holding an
 * evicted store keep it alive until they are done. Thread-safe.
 */
class CheckpointMemo
{
  public:
    /** Stores retained; a 4-region set is about 28 KiB. */
    static constexpr std::size_t capacity = 64;

    /**
     * The store over @p master (identified by @p workload) with every
     * position in @p positions snapshotted, prepared on first use.
     */
    std::shared_ptr<const TraceCheckpointer>
    get(const std::string &workload, const workload::TraceSource &master,
        std::vector<InstCount> positions);

    /** prepare() calls made so far (tests pin the reuse with it). */
    std::uint64_t prepares() const;

    /** Stores currently retained (ready or being prepared). */
    std::size_t size() const;

  private:
    using Store = std::shared_ptr<const TraceCheckpointer>;
    using Key = std::pair<std::string, std::vector<InstCount>>;

    struct Entry
    {
        std::shared_future<Store> store;
        std::uint64_t serial = 0;   //!< unique per insertion
        std::uint64_t last_use = 0; //!< LRU clock
    };

    mutable std::mutex mutex_;
    std::map<Key, Entry> entries_;
    std::uint64_t clock_ = 0;
    std::uint64_t prepares_ = 0;
};

/** All positions the DeLorean passes need for @p schedule. */
std::vector<InstCount>
checkpointPositions(const RegionSchedule &schedule,
                    const std::vector<InstCount> &horizons);

} // namespace delorean::sampling

#endif // DELOREAN_SAMPLING_REGION_HH
