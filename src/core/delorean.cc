#include "core/delorean.hh"

#include <numeric>

#include "base/logging.hh"
#include "base/random.hh"
#include "core/parallel.hh"
#include "core/scout.hh"
#include "core/session.hh"
#include "sampling/confidence.hh"

namespace delorean::core
{

std::vector<InstCount>
DeloreanConfig::scaledHorizons() const
{
    // Naively dividing the paper's horizons by S would push Explorer-1
    // below the (unscaled) 30 k detailed-warming window, where it can
    // never resolve anything — every line accessed that recently is
    // still in the lukewarm cache. Horizons are therefore floored at a
    // few multiples of the lukewarm window (the *cost model* still
    // charges the paper-scale window lengths; see warmup()).
    const InstCount luke =
        schedule.detailed_warming + schedule.region_len;
    std::vector<InstCount> out;
    out.reserve(paper_horizons.size());
    for (std::size_t k = 0; k < paper_horizons.size(); ++k) {
        const InstCount scaled =
            schedule.scaleInterval(paper_horizons[k]);
        const InstCount floor = luke * (InstCount(4) << (2 * k));
        InstCount h = std::max(scaled, floor);
        // The deepest paper horizon (1 B) equals the region spacing;
        // clamp so no Explorer reaches past the previous region.
        h = std::min<InstCount>(h, schedule.spacing);
        out.push_back(h);
    }
    // Clamping can collapse neighbouring horizons; keep them strictly
    // increasing by dropping duplicates from the tail.
    for (std::size_t k = 1; k < out.size();) {
        if (out[k] <= out[k - 1]) {
            out.erase(out.begin() + long(k));
        } else {
            ++k;
        }
    }
    return out;
}

std::uint64_t
DeloreanConfig::scaledVicinityPeriod() const
{
    return schedule.scaleInterval(paper_vicinity_period);
}

std::vector<InstCount>
DeloreanMethod::checkpointPositions(const DeloreanConfig &config)
{
    return sampling::checkpointPositions(config.schedule,
                                         config.scaledHorizons());
}

WarmupArtifacts
DeloreanMethod::assembleArtifacts(const DeloreanConfig &config,
                                  std::vector<KeySet> keys_in,
                                  std::vector<ExplorerResult> explored_in)
{
    const auto &sched = config.schedule;
    const auto horizons = config.scaledHorizons();
    const auto cost_params = config.scaledCost();
    const std::size_t n_explorers = horizons.size();

    WarmupArtifacts art;
    art.keys = std::move(keys_in);
    art.explored = std::move(explored_in);
    art.cost = profiling::HostCostAccount(cost_params);
    art.passes.resize(n_explorers + 1);
    art.passes.front().name = "scout";
    for (std::size_t k = 0; k < n_explorers; ++k)
        art.passes[k + 1].name = "explorer-" + std::to_string(k + 1);

    const InstCount region_total =
        sched.detailed_warming + sched.region_len;
    unsigned engaged_total = 0;

    // Iterate the windows actually present: the full schedule for the
    // exact path, the replayed subset for an early-stopped run.
    const std::size_t n_windows = art.keys.size();
    for (std::size_t r = 0; r < n_windows; ++r) {
        const KeySet &keys = art.keys[r];
        const ExplorerResult &explored = art.explored[r];
        const auto need = keys.linesNeedingExploration();

        // ---------------- Scout ----------------------------------------
        profiling::HostCostAccount scout_cost(cost_params);
        scout_cost.chargeVffScaled(sched.spacing - region_total);
        scout_cost.chargeAtomicRaw(region_total);
        scout_cost.chargeStateTransfers(2);
        art.passes.front().per_region_seconds.push_back(
            scout_cost.seconds());
        art.cost.merge(scout_cost);

        // ---------------- Explorers ------------------------------------
        for (std::size_t k = 0; k < n_explorers; ++k) {
            profiling::HostCostAccount e_cost(cost_params);
            // Every pass keeps pace with the stream via VFF.
            e_cost.chargeVffScaled(sched.spacing);
            if (k < explored.engaged) {
                if (k == 0) {
                    // Explorer-1 profiles its window functionally
                    // (gem5 atomic); charged at the *paper-scale*
                    // window length (§3.3: 5 M instructions) —
                    // DESIGN.md §5 explains the scaling model.
                    const InstCount paper_h =
                        k < config.paper_horizons.size()
                            ? config.paper_horizons[k]
                            : config.paper_horizons.back();
                    const InstCount paper_window = std::min<InstCount>(
                        paper_h, InstCount(double(sched.spacing) *
                                           cost_params.scale));
                    e_cost.chargeAtomicRaw(paper_window);
                } else {
                    // Virtualized DP runs at native speed; the cost is
                    // the traps. Trap counts are charged unscaled: the
                    // scaled trace compresses both the window length
                    // (fewer accesses) and the structures' footprints
                    // (denser per-page traffic) by the same factor S,
                    // so the product — accesses hitting watched pages —
                    // is already at paper magnitude.
                    e_cost.chargeTraps(explored.dp_traps[k]);
                    e_cost.chargeTraps(explored.vicinity_traps[k]);
                }
                e_cost.chargeStateTransfers(2);
            }
            art.passes[k + 1].per_region_seconds.push_back(
                e_cost.seconds());
            art.cost.merge(e_cost);
        }

        // Measured wall-clock rides along with the modeled cost; the
        // per-region structs carried it out of the (possibly threaded)
        // passes, so attribution is exact under any execution mode.
        art.cost.measured().merge(keys.timing);
        art.cost.measured().merge(explored.timing);

        engaged_total += explored.engaged;
        for (std::size_t k = 0; k < 4 && k < n_explorers; ++k) {
            art.keys_by_explorer[k] += explored.found_by[k];
            art.traps += explored.dp_traps[k] +
                         explored.vicinity_traps[k];
            art.false_positives += explored.dp_false_positives[k] +
                                   explored.vicinity_false_positives[k];
        }
        art.keys_total += keys.uniqueLines();
        art.keys_explored += need.size();
        art.keys_unresolved += explored.unresolved.size();
        art.reuse_samples += explored.back_distance.size() +
                             explored.vicinity_samples;
    }

    art.avg_explorers =
        n_windows == 0 ? 0.0
                       : double(engaged_total) / double(n_windows);
    return art;
}

WarmupArtifacts
DeloreanMethod::warmup(const workload::TraceSource &master,
                       const DeloreanConfig &config,
                       const sampling::TraceCheckpointer &checkpoints,
                       const cache::HierarchyConfig &scout_hier)
{
    config.schedule.validate();
    scout_hier.validate();

    const auto &sched = config.schedule;
    ExplorerChain chain({config.scaledHorizons(), config.paper_horizons,
                         config.paper_vicinity_period,
                         std::hash<std::string>{}(master.name())},
                        checkpoints);

    // Regions are independent: each works from its own checkpoint clone
    // against the shared read-only checkpoint store, so they fan out
    // across host threads with bit-identical results (core/parallel.hh).
    auto per_region = parallelMap(
        sched.num_regions, config.host_threads, [&](std::size_t r) {
            return warmRegion(chain, checkpoints, config, scout_hier,
                              unsigned(r));
        });

    std::vector<KeySet> keys;
    std::vector<ExplorerResult> explored;
    keys.reserve(per_region.size());
    explored.reserve(per_region.size());
    for (auto &w : per_region) {
        keys.push_back(std::move(w.keys));
        explored.push_back(std::move(w.explored));
    }
    return assembleArtifacts(config, std::move(keys),
                             std::move(explored));
}

sampling::MethodResult
DeloreanMethod::analyze(const workload::TraceSource &master,
                        const DeloreanConfig &config,
                        const sampling::TraceCheckpointer &checkpoints,
                        const WarmupArtifacts &artifacts)
{
    config.hier.validate();
    const auto &sched = config.schedule;

    panic_if(artifacts.keys.size() != sched.num_regions,
             "warm-up artifacts cover %zu regions, schedule has %u",
             artifacts.keys.size(), sched.num_regions);

    // One Analyst per region, each with its own simulator state (the
    // paper boots every Analyst from its own checkpoint). Regions fan
    // out across host threads; folding below stays in region order, so
    // results are bit-identical to the serial path.
    auto per_region = parallelMap(
        sched.num_regions, config.host_threads, [&](std::size_t r) {
            return analyzeRegion(config, checkpoints, artifacts.keys[r],
                                 artifacts.explored[r], unsigned(r));
        });

    return finishResult(config, master.name(), artifacts, per_region,
                        sched.totalInstructions());
}

namespace
{

/**
 * Refuse a checkpoint store that was not built for @p master and
 * @p config: snapshots of another trace, or a missing position (which
 * at() would silently fast-forward from an earlier snapshot — of the
 * wrong trace if the key was wrong), must fail loudly, never feed a
 * result.
 */
void
checkStore(const workload::TraceSource &master,
           const DeloreanConfig &config,
           const sampling::TraceCheckpointer &checkpoints)
{
    fatal_if(checkpoints.traceName() != master.name(),
             "checkpoint store built over trace '%s', run over '%s'",
             checkpoints.traceName().c_str(), master.name().c_str());
    for (const InstCount pos : DeloreanMethod::checkpointPositions(config))
        fatal_if(!checkpoints.has(pos),
                 "checkpoint store for '%s' lacks position %llu the "
                 "schedule needs",
                 master.name().c_str(), (unsigned long long)pos);
}

/**
 * The confidence-driven driver (SMARTS live-points regime): replay
 * windows one at a time in a seeded-shuffled order, feed each window's
 * CPI to a running confidence interval, and stop once the relative
 * half-width at the requested confidence reaches the target error.
 * target_error == 0 never stops: the resulting shuffled full replay
 * assembles — via the same assembleArtifacts/finishResult the exact
 * path uses, over windows re-sorted into ascending region order — a
 * result bit-identical to exact mode except for the confidence/
 * ci_error report fields.
 */
sampling::MethodResult
runConfident(const workload::TraceSource &master,
             const DeloreanConfig &config,
             const sampling::TraceCheckpointer &checkpoints,
             const std::vector<RegionWarm> *warm)
{
    config.schedule.validate();
    config.hier.validate();
    fatal_if(config.target_error < 0.0,
             "DeloreanConfig::target_error must be >= 0, got %g",
             config.target_error);
    const double z = sampling::zForConfidence(config.confidence);

    const auto &sched = config.schedule;
    const unsigned n_regions = sched.num_regions;

    ExplorerChain chain({config.scaledHorizons(), config.paper_horizons,
                         config.paper_vicinity_period,
                         std::hash<std::string>{}(master.name())},
                        checkpoints);

    // Seeded Fisher-Yates shuffle: the window order is a pure function
    // of window_seed, never of time or thread scheduling.
    std::vector<unsigned> order(n_regions);
    std::iota(order.begin(), order.end(), 0u);
    Rng rng(config.window_seed);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBounded(i)]);

    std::vector<RegionWarm> warm_store(n_regions);
    std::vector<RegionAnalysis> analyses(n_regions);
    std::vector<bool> replayed(n_regions, false);
    sampling::RunningCI ci;
    const std::uint64_t need =
        std::max<std::uint64_t>(2, config.min_windows);

    for (const unsigned r : order) {
        RegionWarm w = warm
                           ? (*warm)[r]
                           : warmRegion(chain, checkpoints, config,
                                        config.hier, r);
        analyses[r] =
            analyzeRegion(config, checkpoints, w.keys, w.explored, r);
        warm_store[r] = std::move(w);
        replayed[r] = true;
        ci.add(analyses[r].stats.cpi());
        if (config.target_error > 0.0 && ci.count() >= need &&
            ci.relativeHalfWidth(z) <= config.target_error)
            break;
    }

    // Assemble over the replayed windows in ascending region order —
    // the exact path's folding order, which is what makes a full
    // confidence-mode replay bit-identical to exact mode.
    std::vector<KeySet> keys;
    std::vector<ExplorerResult> explored;
    std::vector<RegionAnalysis> per_region;
    for (unsigned r = 0; r < n_regions; ++r) {
        if (!replayed[r])
            continue;
        keys.push_back(std::move(warm_store[r].keys));
        explored.push_back(std::move(warm_store[r].explored));
        per_region.push_back(std::move(analyses[r]));
    }

    const WarmupArtifacts artifacts = DeloreanMethod::assembleArtifacts(
        config, std::move(keys), std::move(explored));
    sampling::MethodResult result = finishResult(
        config, master.name(), artifacts, per_region,
        sched.spacing * InstCount(per_region.size()));
    result.confidence = config.confidence;
    result.ci_error = ci.relativeHalfWidth(z);
    return result;
}

} // namespace

std::vector<sampling::MethodResult>
DeloreanMethod::runGroup(const workload::TraceSource &master,
                         const std::vector<DeloreanConfig> &configs)
{
    if (configs.empty())
        return {};
    // Positions derive from the schedule and Explorer geometry, which
    // the group must share (checked below).
    sampling::TraceCheckpointer checkpoints(master);
    checkpoints.prepare(checkpointPositions(configs.front()));
    return runGroup(master, configs, checkpoints);
}

std::vector<sampling::MethodResult>
DeloreanMethod::runGroup(const workload::TraceSource &master,
                         const std::vector<DeloreanConfig> &configs,
                         const sampling::TraceCheckpointer &checkpoints)
{
    if (configs.empty())
        return {};
    if (configs.size() == 1)
        return {run(master, configs.front(), checkpoints)};

    // Grouping is an execution strategy: everything that shapes the
    // shared decode — schedule, Explorer geometry, threading and the
    // exact (in-order) driver — must match across the group. The
    // caller (batch/runner.cc) groups by the same criteria; this is
    // the backstop for direct API users.
    const DeloreanConfig &lead = configs.front();
    for (const auto &c : configs) {
        const auto &a = lead.schedule, &b = c.schedule;
        fatal_if(a.num_regions != b.num_regions ||
                     a.spacing != b.spacing ||
                     a.region_len != b.region_len ||
                     a.detailed_warming != b.detailed_warming,
                 "runGroup: configs disagree on the region schedule");
        fatal_if(c.paper_horizons != lead.paper_horizons ||
                     c.paper_vicinity_period !=
                         lead.paper_vicinity_period,
                 "runGroup: configs disagree on Explorer geometry");
        fatal_if(c.host_threads != lead.host_threads,
                 "runGroup: configs disagree on host_threads");
        fatal_if(c.confidence > 0.0 || !c.livepoint_file.empty(),
                 "runGroup requires exact mode without live-points");
        c.schedule.validate();
        c.hier.validate();
    }

    checkStore(master, lead, checkpoints);

    const auto &sched = lead.schedule;
    const std::size_t n_cells = configs.size();

    // One checkpoint store and one Explorer chain for the whole group:
    // positions and chain geometry derive from the shared schedule.
    ExplorerChain chain({lead.scaledHorizons(), lead.paper_horizons,
                         lead.paper_vicinity_period,
                         std::hash<std::string>{}(master.name())},
                        checkpoints);

    // Per region: per-cell Scouts (key sets depend on the hierarchy),
    // then one co-scheduled Explorer replay for all cells.
    auto per_region = parallelMap(
        sched.num_regions, lead.host_threads, [&](std::size_t r) {
            std::vector<RegionWarm> warms(n_cells);
            std::vector<GroupExploreCell> gcells(n_cells);
            for (std::size_t i = 0; i < n_cells; ++i) {
                auto scout_trace =
                    checkpoints.at(sched.warmingStart(unsigned(r)));
                warms[i].keys = Scout::scan(
                    *scout_trace, configs[i].hier, configs[i].sim,
                    sched.detailed_warming, sched.region_len);
                gcells[i].keys = warms[i].keys.linesNeedingExploration();
            }
            chain.exploreGroup(gcells,
                               sched.detailedStart(unsigned(r)));
            for (std::size_t i = 0; i < n_cells; ++i)
                warms[i].explored = std::move(gcells[i].result);
            return warms;
        });

    // Per-cell Analyst passes through the session's warm-feed path,
    // exactly the solo resume path.
    std::vector<sampling::MethodResult> results;
    results.reserve(n_cells);
    for (std::size_t i = 0; i < n_cells; ++i) {
        std::vector<RegionWarm> cell_warm;
        cell_warm.reserve(per_region.size());
        for (auto &warms : per_region)
            cell_warm.push_back(std::move(warms[i]));
        DeloreanSession session(configs[i]);
        session.feedWarmWindows(master, checkpoints, cell_warm);
        results.push_back(session.finish());
    }
    return results;
}

sampling::MethodResult
DeloreanMethod::run(const workload::TraceSource &master,
                    const DeloreanConfig &config,
                    const std::vector<RegionWarm> *warm)
{
    sampling::TraceCheckpointer checkpoints(master);
    checkpoints.prepare(checkpointPositions(config));
    return run(master, config, checkpoints, warm);
}

sampling::MethodResult
DeloreanMethod::run(const workload::TraceSource &master,
                    const DeloreanConfig &config,
                    const sampling::TraceCheckpointer &checkpoints,
                    const std::vector<RegionWarm> *warm)
{
    checkStore(master, config, checkpoints);
    if (warm)
        fatal_if(warm->size() != config.schedule.num_regions,
                 "live-point warm state covers %zu regions, schedule "
                 "has %u",
                 warm->size(), config.schedule.num_regions);
    if (config.confidence > 0.0)
        return runConfident(master, config, checkpoints, warm);

    // The exact in-order driver is the resumable pipeline run to
    // completion in one sitting; goldens predating the session are
    // pinned against exactly this composition.
    DeloreanSession session(config);
    if (warm) {
        // Resume: the persisted warm state replaces Scout + Explorers;
        // analysis from it is bit-identical to a fresh warm-up.
        session.feedWarmWindows(master, checkpoints, *warm);
    } else {
        session.feedWindows(master, checkpoints,
                            config.schedule.num_regions);
    }
    return session.finish();
}

} // namespace delorean::core
