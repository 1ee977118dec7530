/**
 * @file
 * Tests for the sampling framework: region schedule, trace
 * checkpointing, the SMARTS and CoolSim methods, and metrics.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "sampling/coolsim.hh"
#include "sampling/metrics.hh"
#include "sampling/region.hh"
#include "sampling/smarts.hh"
#include "workload/spec_profiles.hh"

namespace
{

using namespace delorean;
using namespace delorean::sampling;

// -------------------------------------------------------------- schedule

TEST(RegionSchedule, PositionsAreConsistent)
{
    RegionSchedule s;
    s.num_regions = 10;
    s.spacing = 5'000'000;
    s.validate();
    for (unsigned r = 0; r < s.num_regions; ++r) {
        EXPECT_EQ(s.regionEnd(r), (r + 1) * s.spacing);
        EXPECT_EQ(s.detailedStart(r) + s.region_len, s.regionEnd(r));
        EXPECT_EQ(s.warmingStart(r) + s.detailed_warming,
                  s.detailedStart(r));
    }
    EXPECT_EQ(s.totalInstructions(), 50'000'000u);
    EXPECT_DOUBLE_EQ(s.scaleFactor(), 200.0);
}

TEST(RegionSchedule, ScaleInterval)
{
    RegionSchedule s;
    s.spacing = 5'000'000; // S = 200
    EXPECT_EQ(s.scaleInterval(1'000'000'000), 5'000'000u);
    EXPECT_EQ(s.scaleInterval(5'000'000), 25'000u);
    EXPECT_EQ(s.scaleInterval(100), 1u); // floored at 1
}

// ---------------------------------------------------------- checkpointer

TEST(TraceCheckpointer, ExactPositions)
{
    auto trace = workload::makeSpecTrace("bzip2");
    TraceCheckpointer cp(*trace);
    cp.prepare({1000, 5000, 20000});
    EXPECT_EQ(cp.checkpoints(), 3u);

    for (const InstCount pos : {0u, 1000u, 3000u, 5000u, 20001u}) {
        auto t = cp.at(pos);
        EXPECT_EQ(t->position(), pos);
    }
}

TEST(TraceCheckpointer, StreamsMatchDirectSkip)
{
    auto trace = workload::makeSpecTrace("namd");
    TraceCheckpointer cp(*trace);
    cp.prepare({10000, 40000});

    auto from_cp = cp.at(40000);
    auto direct = trace->clone();
    direct->skip(40000);
    for (int i = 0; i < 2000; ++i) {
        const auto a = from_cp->next();
        const auto b = direct->next();
        ASSERT_EQ(a.addr, b.addr);
        ASSERT_EQ(a.pc, b.pc);
    }
}

TEST(TraceCheckpointer, DuplicatePositionsDeduped)
{
    auto trace = workload::makeSpecTrace("namd");
    TraceCheckpointer cp(*trace);
    cp.prepare({100, 100, 200, 200, 200});
    EXPECT_EQ(cp.checkpoints(), 2u);
}

// ---------------------------------------------------------- memo

/**
 * A generated trace whose skip() throws while @p fail is set — the
 * stand-in for a fast-forward that fails (a truncated recording).
 */
class FlakyTrace : public workload::TraceSource
{
  public:
    FlakyTrace(std::unique_ptr<workload::TraceSource> inner,
               std::shared_ptr<std::atomic<bool>> fail)
        : inner_(std::move(inner)), fail_(std::move(fail))
    {}

    workload::Instruction next() override { return inner_->next(); }
    InstCount position() const override { return inner_->position(); }
    void reset() override { inner_->reset(); }
    const std::string &name() const override { return inner_->name(); }

    std::unique_ptr<workload::TraceSource>
    clone() const override
    {
        return std::make_unique<FlakyTrace>(inner_->clone(), fail_);
    }

    void
    skip(InstCount n) override
    {
        if (fail_->load()) {
            // Long enough for concurrent callers to queue behind it.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            throw std::runtime_error("fast-forward failed");
        }
        inner_->skip(n);
    }

  private:
    std::unique_ptr<workload::TraceSource> inner_;
    std::shared_ptr<std::atomic<bool>> fail_;
};

TEST(CheckpointMemo, ServedStoreMatchesAFreshPrepare)
{
    auto trace = workload::makeSpecTrace("namd");
    CheckpointMemo memo;
    const auto a = memo.get("spec:namd", *trace, {40000, 10000, 10000});
    // Order and duplicates do not change the key.
    const auto b = memo.get("spec:namd", *trace, {10000, 40000});
    EXPECT_EQ(a, b);
    EXPECT_EQ(memo.prepares(), 1u);
    EXPECT_EQ(a->checkpoints(), 2u);
    EXPECT_TRUE(a->has(10000));
    EXPECT_FALSE(a->has(20000));
    EXPECT_EQ(a->traceName(), "namd");

    TraceCheckpointer fresh(*trace);
    fresh.prepare({10000, 40000});
    auto from_memo = a->at(40000);
    auto from_fresh = fresh.at(40000);
    for (int i = 0; i < 2000; ++i) {
        const auto x = from_memo->next();
        const auto y = from_fresh->next();
        ASSERT_EQ(x.addr, y.addr);
        ASSERT_EQ(x.pc, y.pc);
    }

    // Another workload or position set is another store.
    auto other = workload::makeSpecTrace("bzip2");
    EXPECT_NE(memo.get("spec:bzip2", *other, {10000, 40000}), a);
    EXPECT_NE(memo.get("spec:namd", *trace, {10000}), a);
    EXPECT_EQ(memo.prepares(), 3u);
    EXPECT_EQ(memo.size(), 3u);
}

// Single flight: concurrent callers with one key share one prepare.
// Runs under the TSan CI job like every tier-1 test.
TEST(CheckpointMemo, ConcurrentCallersPrepareOnce)
{
    auto trace = workload::makeSpecTrace("bzip2");
    const std::vector<InstCount> positions = {100'000, 400'000, 900'000};
    CheckpointMemo memo;
    std::vector<std::shared_ptr<const TraceCheckpointer>> got(4);
    std::atomic<unsigned> ready{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t)
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < got.size())
                std::this_thread::yield();
            got[t] = memo.get("spec:bzip2", *trace, positions);
        });
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(memo.prepares(), 1u);
    for (const auto &store : got)
        EXPECT_EQ(store, got.front());
    EXPECT_EQ(got.front()->checkpoints(), positions.size());
}

TEST(CheckpointMemo, LeastRecentlyUsedEvictedPastCapacity)
{
    auto trace = workload::makeSpecTrace("namd");
    CheckpointMemo memo;
    const auto first = memo.get("spec:namd", *trace, {0});
    const auto second = memo.get("spec:namd", *trace, {1});
    for (InstCount i = 2; i < CheckpointMemo::capacity; ++i)
        (void)memo.get("spec:namd", *trace, {i});
    EXPECT_EQ(memo.size(), CheckpointMemo::capacity);

    // Touch the oldest, then overflow: the second-oldest goes.
    EXPECT_EQ(memo.get("spec:namd", *trace, {0}), first);
    (void)memo.get("spec:namd", *trace, {CheckpointMemo::capacity});
    EXPECT_EQ(memo.size(), CheckpointMemo::capacity);
    const auto prepared = memo.prepares();
    EXPECT_EQ(prepared, CheckpointMemo::capacity + 1);
    EXPECT_EQ(memo.get("spec:namd", *trace, {0}), first);
    EXPECT_EQ(memo.prepares(), prepared);

    // The evicted store is prepared again; its old holder keeps the
    // one it has.
    const auto again = memo.get("spec:namd", *trace, {1});
    EXPECT_NE(again, second);
    EXPECT_EQ(second->checkpoints(), 1u);
    EXPECT_EQ(memo.prepares(), prepared + 1);
    EXPECT_EQ(memo.size(), CheckpointMemo::capacity);
}

TEST(CheckpointMemo, FailedPrepareReachesEveryWaiterAndIsNotKept)
{
    auto fail = std::make_shared<std::atomic<bool>>(true);
    const FlakyTrace trace(workload::makeSpecTrace("bzip2"), fail);
    CheckpointMemo memo;
    std::atomic<unsigned> threw{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&] {
            try {
                (void)memo.get("spec:bzip2", trace, {1000, 2000});
            } catch (const std::runtime_error &) {
                threw.fetch_add(1);
            }
        });
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(threw.load(), 4u);
    EXPECT_GE(memo.prepares(), 1u);
    EXPECT_EQ(memo.size(), 0u);

    // The failure was not cached: the next caller prepares afresh.
    fail->store(false);
    const auto before = memo.prepares();
    const auto store = memo.get("spec:bzip2", trace, {1000, 2000});
    EXPECT_EQ(store->checkpoints(), 2u);
    EXPECT_EQ(memo.prepares(), before + 1);
    EXPECT_EQ(memo.size(), 1u);
}

TEST(CheckpointPositions, CoverAllRegionsAndHorizons)
{
    RegionSchedule s;
    s.num_regions = 3;
    s.spacing = 500'000;
    const auto positions =
        checkpointPositions(s, {100'000, 400'000});
    // 3 regions x (warmingStart + 2 horizons).
    EXPECT_EQ(positions.size(), 9u);
}

// ---------------------------------------------------------------- methods

MethodConfig
quickConfig()
{
    MethodConfig cfg;
    cfg.schedule.num_regions = 3;
    cfg.schedule.spacing = 500'000;
    cfg.hier.llc.size = 2 * MiB;
    return cfg;
}

TEST(Smarts, ProducesSaneResults)
{
    auto trace = workload::makeSpecTrace("gamess");
    const auto r = SmartsMethod::run(*trace, quickConfig());
    EXPECT_EQ(r.method, "SMARTS");
    EXPECT_EQ(r.benchmark, "gamess");
    EXPECT_EQ(r.regions.size(), 3u);
    EXPECT_GT(r.cpi(), 0.1);
    EXPECT_LT(r.cpi(), 10.0);
    EXPECT_EQ(r.total.instructions, 30'000u);
    EXPECT_GT(r.wall_seconds, 0.0);
    EXPECT_GT(r.mips, 0.0);
    EXPECT_EQ(r.reuse_samples, 0u); // SMARTS collects none
}

TEST(Smarts, Deterministic)
{
    auto trace = workload::makeSpecTrace("gamess");
    const auto a = SmartsMethod::run(*trace, quickConfig());
    const auto b = SmartsMethod::run(*trace, quickConfig());
    EXPECT_DOUBLE_EQ(a.cpi(), b.cpi());
    EXPECT_EQ(a.total.llcMisses(), b.total.llcMisses());
}

TEST(CoolSim, ProducesSaneResults)
{
    auto trace = workload::makeSpecTrace("gamess");
    const auto r = CoolSimMethod::run(*trace, quickConfig());
    EXPECT_EQ(r.method, "CoolSim");
    EXPECT_EQ(r.regions.size(), 3u);
    EXPECT_GT(r.cpi(), 0.1);
    EXPECT_GT(r.reuse_samples, 1000u);
    EXPECT_GT(r.traps, 0u);
    // No SMARTS-style real misses: every LLC decision is statistical.
    EXPECT_EQ(r.total.classCount(cpu::AccessClass::RealMiss), 0u);
}

TEST(CoolSim, FasterThanSmartsInModeledTime)
{
    auto trace = workload::makeSpecTrace("gamess");
    const auto s = SmartsMethod::run(*trace, quickConfig());
    const auto c = CoolSimMethod::run(*trace, quickConfig());
    EXPECT_GT(speedupOver(s, c), 2.0);
}

TEST(CoolSim, AccuracyWithinBounds)
{
    auto trace = workload::makeSpecTrace("gamess");
    const auto cfg = quickConfig();
    const auto s = SmartsMethod::run(*trace, cfg);
    const auto c = CoolSimMethod::run(*trace, cfg);
    EXPECT_LT(cpiErrorPct(s, c), 30.0);
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, RelativeError)
{
    EXPECT_NEAR(relativeErrorPct(2.0, 2.2), 10.0, 1e-9);
    EXPECT_NEAR(relativeErrorPct(2.0, 1.8), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(relativeErrorPct(0.0, 5.0), 0.0);
}

TEST(Metrics, Means)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 100.0}), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Metrics, Speedup)
{
    MethodResult slow, fast;
    slow.wall_seconds = 100.0;
    fast.wall_seconds = 10.0;
    EXPECT_DOUBLE_EQ(speedupOver(slow, fast), 10.0);
}

} // namespace
