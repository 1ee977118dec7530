/**
 * @file
 * google-benchmark microbenchmarks for the library's hot components:
 * trace generation (next(), and the skip()/memLines() block pipeline
 * on the dse_sweep profiles), cache simulation, reuse profiling, watchpoint
 * checks, StatStack construction/queries, and the OoO timing model.
 * These quantify the *real* (host) cost of the reproduction's
 * substrates, as opposed to the modeled costs in the figure benches.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "cache/cache.hh"
#include "cpu/ooo_core.hh"
#include "profiling/reuse_profiler.hh"
#include "profiling/watchpoint.hh"
#include "statmodel/statstack.hh"
#include "workload/spec_profiles.hh"

namespace
{

using namespace delorean;

void
BM_TraceGeneration(benchmark::State &state)
{
    auto trace = workload::makeSpecTrace("bzip2");
    for (auto _ : state)
        benchmark::DoNotOptimize(trace->next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration);

void
BM_TraceClone(benchmark::State &state)
{
    auto trace = workload::makeSpecTrace("mcf");
    trace->skip(100000);
    for (auto _ : state)
        benchmark::DoNotOptimize(trace->clone());
}
BENCHMARK(BM_TraceClone);

/** The dse_sweep profiles (perfbench), by benchmark argument. */
const char *const dse_profiles[] = {"bzip2", "mcf",   "gamess",
                                    "astar", "sjeng", "soplex"};

/** Fast-forward through the generator's block pipeline. */
void
BM_TraceSkip(benchmark::State &state)
{
    const char *name = dse_profiles[state.range(0)];
    auto trace = workload::makeSpecTrace(name);
    constexpr InstCount n = 1 << 16;
    for (auto _ : state)
        trace->skip(n);
    state.SetItemsProcessed(state.iterations() * n);
    state.SetLabel(name);
}
BENCHMARK(BM_TraceSkip)->DenseRange(0, 5);

/** Explorer replay: Explorer-sized memLines() chunks. */
void
BM_TraceMemLines(benchmark::State &state)
{
    const char *name = dse_profiles[state.range(0)];
    auto trace = workload::makeSpecTrace(name);
    constexpr InstCount n = 4096;
    std::vector<Addr> lines(n);
    for (auto _ : state)
        benchmark::DoNotOptimize(trace->memLines(lines.data(), n));
    state.SetItemsProcessed(state.iterations() * n);
    state.SetLabel(name);
}
BENCHMARK(BM_TraceMemLines)->DenseRange(0, 5);

void
BM_CacheAccess(benchmark::State &state)
{
    cache::CacheConfig cfg;
    cfg.size = std::uint64_t(state.range(0)) * MiB;
    cfg.assoc = 8;
    cache::Cache cache(cfg);
    Rng rng(1);
    const std::uint64_t lines = cfg.lines() * 4;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cache.access(rng.nextBounded(lines), false).hit);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(1)->Arg(8)->Arg(64);

void
BM_ReuseProfiler(benchmark::State &state)
{
    profiling::ReuseProfiler p;
    Rng rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(p.observe(rng.nextBounded(1 << 20)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReuseProfiler);

void
BM_WatchpointCheck(benchmark::State &state)
{
    profiling::WatchpointEngine e;
    for (Addr l = 0; l < 64; ++l)
        e.watchLine(l * 64); // 64 watched pages
    Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(e.access(rng.nextBounded(1 << 20)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WatchpointCheck);

void
BM_StatStackConstruct(benchmark::State &state)
{
    statmodel::ReuseHistogram h;
    Rng rng(4);
    for (int i = 0; i < state.range(0); ++i)
        h.addReuse(1 + rng.nextBounded(10'000'000));
    for (auto _ : state) {
        statmodel::StatStack s(h);
        benchmark::DoNotOptimize(s.totalWeight());
    }
}
BENCHMARK(BM_StatStackConstruct)->Arg(1000)->Arg(100000);

void
BM_StatStackQuery(benchmark::State &state)
{
    statmodel::ReuseHistogram h;
    Rng rng(5);
    for (int i = 0; i < 100000; ++i)
        h.addReuse(1 + rng.nextBounded(10'000'000));
    statmodel::StatStack s(h);
    std::uint64_t d = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(s.stackDistance(d));
        d = d * 7 % 10'000'000 + 1;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatStackQuery);

void
BM_OooDispatch(benchmark::State &state)
{
    cpu::OooCoreModel core{cpu::OooParams{}};
    core.reset();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core.dispatch(1.0, false, false, false));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OooDispatch);

} // namespace

BENCHMARK_MAIN();
