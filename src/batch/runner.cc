#include "batch/runner.hh"

#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "base/logging.hh"
#include "batch/error.hh"
#include "checkpoint/livepoint.hh"
#include "core/delorean.hh"
#include "core/parallel.hh"
#include "sampling/coolsim.hh"
#include "sampling/smarts.hh"
#include "workload/trace_registry.hh"

namespace delorean::batch
{

namespace
{

/**
 * Cells eligible for co-scheduled execution: exact-mode DeLorean with
 * no live-point file. Everything else runs solo through runCell.
 */
bool
coSchedulable(const BatchCell &cell)
{
    return cell.method == "delorean" && cell.config.confidence == 0.0 &&
           cell.config.livepoint_file.empty();
}

/**
 * Cells in one co-scheduled group must share everything that shapes
 * the group's decode pass: the trace, the region schedule, the
 * Explorer geometry and the thread fan-out
 * (core::DeloreanMethod::runGroup's contract). The hierarchy, detailed
 * simulator and cost model may differ freely — they are per-cell.
 */
std::string
groupKey(const BatchCell &cell)
{
    const auto &c = cell.config;
    const auto &s = c.schedule;
    std::string key = normalizeSpec(cell.workload);
    key += '|' + std::to_string(s.num_regions);
    key += '|' + std::to_string(s.spacing);
    key += '|' + std::to_string(s.region_len);
    key += '|' + std::to_string(s.detailed_warming);
    key += '|' + std::to_string(c.paper_vicinity_period);
    key += '|' + std::to_string(c.host_threads);
    for (const auto h : c.paper_horizons)
        key += ',' + std::to_string(h);
    return key;
}

} // namespace

std::vector<std::vector<std::size_t>>
planWorkUnits(const std::vector<const BatchCell *> &cells)
{
    std::vector<std::vector<std::size_t>> units;
    std::unordered_map<std::string, std::size_t> group_of;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!coSchedulable(*cells[i])) {
            units.push_back({i});
            continue;
        }
        const auto [it, fresh] =
            group_of.try_emplace(groupKey(*cells[i]), units.size());
        if (fresh)
            units.push_back({i});
        else
            units[it->second].push_back(i);
    }
    return units;
}

std::vector<sampling::MethodResult>
BatchRunner::runUnit(const std::vector<const BatchCell *> &cells)
{
    if (cells.empty())
        return {};
    if (cells.size() == 1)
        return {runCell(*cells.front())};

    // A multi-cell unit co-schedules only if every member still
    // qualifies and agrees on the group key — a unit straight from
    // planWorkUnits does by construction, but a unit that crossed the
    // wire (coordinator lease) is untrusted input and degrades to
    // solo execution rather than corrupting a group decode.
    bool groupable = coSchedulable(*cells.front());
    for (std::size_t i = 1; groupable && i < cells.size(); ++i)
        groupable = coSchedulable(*cells[i]) &&
                    groupKey(*cells[i]) == groupKey(*cells.front());
    if (!groupable) {
        std::vector<sampling::MethodResult> results;
        results.reserve(cells.size());
        for (const BatchCell *cell : cells)
            results.push_back(runCell(*cell));
        return results;
    }

    const BatchCell &lead = *cells.front();
    std::vector<core::DeloreanConfig> configs;
    configs.reserve(cells.size());
    for (const BatchCell *cell : cells)
        configs.push_back(cell->config);
    try {
        const auto trace = workload::makeTrace(lead.workload);
        return core::DeloreanMethod::runGroup(*trace, configs);
    } catch (const BatchError &) {
        throw;
    } catch (const std::exception &e) {
        throw BatchError(lead.workload + " [delorean, co-scheduled x" +
                         std::to_string(cells.size()) +
                         "]: " + e.what());
    }
}

std::vector<CellOutcome>
BatchRunner::runUnitCached(const ResultCache *cache,
                           const std::vector<const BatchCell *> &cells,
                           const UnitHooks &hooks)
{
    std::vector<CellOutcome> outcomes(cells.size());
    std::vector<std::size_t> misses;
    std::vector<const BatchCell *> to_run;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        outcomes[i].cell = cells[i]->index;
        if (cache) {
            if (auto hit = cache->load(cells[i]->key)) {
                outcomes[i].result = std::move(*hit);
                outcomes[i].from_cache = true;
                continue;
            }
        }
        misses.push_back(i);
        to_run.push_back(cells[i]);
    }
    if (hooks.probed)
        hooks.probed(cells, outcomes);
    if (to_run.empty())
        return outcomes;
    // Any subset of a unit is still a valid group, so the misses keep
    // co-scheduling.
    auto results = runUnit(to_run);
    for (std::size_t j = 0; j < misses.size(); ++j) {
        CellOutcome &outcome = outcomes[misses[j]];
        outcome.result = std::move(results[j]);
        if (!cache)
            continue;
        if (hooks.before_store)
            hooks.before_store(*to_run[j]);
        cache->store(to_run[j]->key, outcome.result);
    }
    return outcomes;
}

sampling::MethodResult
BatchRunner::runCell(const BatchCell &cell)
{
    try {
        auto trace = workload::makeTrace(cell.workload);
        if (cell.method == "smarts")
            return sampling::SmartsMethod::run(*trace, cell.config);
        if (cell.method == "coolsim")
            return sampling::CoolSimMethod::run(*trace, cell.config);
        if (cell.method == "delorean") {
            // Live-points are an accelerator, never a correctness
            // input: a missing/corrupt/mismatched file degrades to a
            // fresh warm-up (which produces bit-identical results).
            if (!cell.config.livepoint_file.empty()) {
                try {
                    const auto warm = checkpoint::loadForRun(
                        cell.workload, cell.config,
                        cell.config.livepoint_file);
                    return core::DeloreanMethod::run(*trace,
                                                     cell.config, &warm);
                } catch (const checkpoint::CheckpointError &e) {
                    warn("%s: %s; falling back to a fresh warm-up",
                         cell.workload.c_str(), e.what());
                }
            }
            return core::DeloreanMethod::run(*trace, cell.config);
        }
    } catch (const std::exception &e) {
        // E.g. a recording shorter than the schedule; tag with the
        // workload so batch CLIs report which cell failed.
        throw BatchError(cell.workload + " [" + cell.method +
                         "]: " + e.what());
    }
    throw BatchError("unknown method '" + cell.method + "'");
}

BatchReport
BatchRunner::run(const BatchPlan &plan, const BatchOptions &opt)
{
    if (opt.shard_count == 0 || opt.shard_index >= opt.shard_count)
        throw BatchError("invalid shard " +
                         std::to_string(opt.shard_index) + "/" +
                         std::to_string(opt.shard_count));

    std::unique_ptr<ResultCache> cache;
    if (opt.use_cache)
        cache = std::make_unique<ResultCache>(opt.cache_dir);

    // Execution-time workload identities, memoized per run: the
    // mid-run re-record check below re-digests each file-backed
    // workload once, not once per cell (a multi-config plan over one
    // big trace would otherwise re-read it per executed cell; the
    // residual TOCTOU window is inherent — the check is best-effort).
    std::mutex identity_mutex;
    std::unordered_map<std::string, CacheKey> identities;
    const auto identityNow = [&](const std::string &spec) {
        {
            std::lock_guard<std::mutex> lock(identity_mutex);
            const auto it = identities.find(spec);
            if (it != identities.end())
                return it->second;
        }
        const CacheKey id = workloadIdentity(spec);
        std::lock_guard<std::mutex> lock(identity_mutex);
        return identities.try_emplace(spec, id).first->second;
    };

    std::vector<const BatchCell *> mine;
    for (const auto &cell : plan.cells())
        if (cell.index % opt.shard_count == opt.shard_index)
            mine.push_back(&cell);

    BatchReport report;
    report.skipped = plan.cells().size() - mine.size();

    // Co-scheduling: cells that share a trace and Explorer geometry
    // execute as one unit — the group decodes each Explorer window
    // once and fans the reference stream out to every cell's profiler
    // (core::DeloreanMethod::runGroup). Grouping changes execution
    // only: each cell's result, and the key it is cached under, is
    // bit-identical to a solo runCell. Units preserve first-member
    // order, and outcomes scatter back by position, so report order
    // is unchanged for any grouping. The same planWorkUnits feeds the
    // fleet coordinator's leases, so a fleet run executes identical
    // groupings.
    const std::vector<std::vector<std::size_t>> units =
        planWorkUnits(mine);

    // Guards each store against a file-backed workload re-recorded
    // between plan keying and this execution: the store would file the
    // *new* content's result under the *old* content's key — poisoning
    // a future run whose file matches the old bytes again. Refuse
    // loudly instead.
    UnitHooks hooks;
    hooks.before_store = [&](const BatchCell &cell) {
        if (specIsFileBacked(normalizeSpec(cell.workload)) &&
            identityNow(cell.workload) != cell.workload_identity)
            throw BatchError(cell.workload +
                             ": file changed during the batch run; "
                             "result discarded — rerun the plan");
    };
    if (opt.verbose) {
        hooks.probed = [](const std::vector<const BatchCell *> &cells,
                          const std::vector<CellOutcome> &probed) {
            std::size_t misses = 0;
            for (const auto &outcome : probed)
                misses += !outcome.from_cache;
            for (std::size_t i = 0; i < cells.size(); ++i)
                std::fprintf(stderr, "[batch] %s %s (%s/%s): %s\n",
                             cells[i]->workload.c_str(),
                             cells[i]->method.c_str(),
                             cells[i]->config_name.c_str(),
                             cells[i]->schedule_name.c_str(),
                             probed[i].from_cache ? "cached"
                             : misses > 1 ? "run (co-scheduled)..."
                                          : "run...");
        };
    }

    std::vector<CellOutcome> outcomes(mine.size());
    core::parallelMap(units.size(), opt.threads, [&](std::size_t u) {
        std::vector<const BatchCell *> cells;
        cells.reserve(units[u].size());
        for (const std::size_t i : units[u])
            cells.push_back(mine[i]);
        auto done = runUnitCached(cache.get(), cells, hooks);
        for (std::size_t j = 0; j < done.size(); ++j)
            outcomes[units[u][j]] = std::move(done[j]);
        return 0;
    });

    report.outcomes = std::move(outcomes);
    for (const auto &outcome : report.outcomes) {
        if (outcome.from_cache)
            ++report.cache_hits;
        else
            ++report.executed;
    }
    if (cache)
        cache->recordRun(report.executed, report.cache_hits);
    return report;
}

} // namespace delorean::batch
