/**
 * @file
 * The traced mode. Every span is recorded here, around a call into a
 * module's public functions, so the program itself runs unmodified:
 *
 *  - workload: recordTrace, a FileTrace replay;
 *  - batch: BatchPlan::fromManifestText, workloadIdentity (content
 *    digest), ResultCache store/load, and batch_run's own wall;
 *  - sampling + core: the DeLorean driver decomposed into
 *    TraceCheckpointer::prepare, then warmRegion / analyzeRegion per
 *    region, then assembleArtifacts + finishResult; the results must
 *    equal batch_run's rows for the same cells;
 *  - profiling, statmodel, cpu: the PhaseTimings and counters inside
 *    those results;
 *  - core session: DeloreanSession::feedWindows window by window;
 *  - service: a daemon and a fleet, driven over ServiceClient.
 *
 * The workload picks the inputs: its own cells, traces, job mix or
 * fleet job, so each traced run attributes that workload's time.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <random>

#include "batch/cache_key.hh"
#include "batch/plan.hh"
#include "batch/result_cache.hh"
#include "core/delorean.hh"
#include "core/session.hh"
#include "profiling/hotpath.hh"
#include "sampling/region.hh"
#include "service/client.hh"
#include "workload/spec_profiles.hh"
#include "workload/trace_io.hh"
#include "workload/trace_registry.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using delorean::profiling::HotPhase;
using delorean::service::ServiceClient;
namespace batch = delorean::batch;
namespace core = delorean::core;

constexpr double poll_s = 0.0005;

/** The cells a traced run decomposes, as manifest pieces. */
struct CellSet
{
    std::vector<std::string> workloads;
    std::vector<std::string> config_lines; //!< "config NAME k=v..."
    std::string schedule_line;

    std::string
    manifest() const
    {
        std::string text;
        for (const auto &w : workloads)
            text += "workload " + w + "\n";
        for (const auto &c : config_lines)
            text += c + "\n";
        return text + schedule_line + "\nmethods delorean\n";
    }

    /** Single-cell manifest for workload @p w, config @p c. */
    std::string
    single(std::size_t w, std::size_t c) const
    {
        return "workload " + workloads[w] + "\n" + config_lines[c] + "\n" +
               schedule_line + "\nmethods delorean\n";
    }
};

/** The first 19 TSV fields (the row without --timings columns). */
std::string
stripTimings(const std::string &row)
{
    std::size_t from = 0, pos = 0;
    for (int i = 0; i < 19; ++i) {
        pos = row.find('\t', from);
        if (pos == std::string::npos)
            return row;
        from = pos + 1;
    }
    return row.substr(0, pos);
}

/** Sum of the --timings phase nanoseconds of one row. */
double
rowPhaseNs(const std::string &row)
{
    double ns = 0.0;
    for (std::size_t p = 0; p < delorean::profiling::hot_phase_count; ++p)
        ns += rowField(row, 19 + 2 * p);
    return ns;
}

double
ms(const delorean::profiling::PhaseTimings &t, HotPhase p)
{
    return t.ns[std::size_t(p)] / 1e6;
}

/**
 * One traced run. The steps run in order and share the inputs, the
 * offline rows and the span recorder; each step reports its metrics.
 */
class LayerProbe
{
  public:
    explicit LayerProbe(const Options &opt) : opt_(opt), w_(opt.workload) {}

    Report run();

  private:
    bool chooseInputs();
    void probeWorkload();
    void probeBatch();
    void decompose();
    void probeCache();
    void probeSession();
    void probeService();
    void probeFleet();

    const Options &opt_;
    const std::string &w_;
    Report rep_;
    Tracer tr_;

    CellSet cells_;
    std::vector<std::string> stream_files_;
    const std::string probe_ = "probe.dlt"; //!< stream-sized trace
    std::optional<batch::BatchPlan> plan_;

    /** batch_run's rows of plan_ (without timings), by rowId(). */
    std::map<std::string, std::string> offline_;
    double untraced_s_ = 0.0; //!< untraced runs, outside the traced wall
    std::vector<delorean::sampling::MethodResult> results_;

    std::string stream_file_; //!< the session and first stream's trace
    std::string session_row_;
    Samples feed_ms_;
};

Report
LayerProbe::run()
{
    const double t_begin = now();
    if (!chooseInputs())
        return rep_;
    probeWorkload();
    probeBatch();
    decompose();
    probeCache();
    probeSession();
    probeService();
    probeFleet();
    const double wall_ms = 1e3 * (now() - t_begin - untraced_s_);
    rep_.set("trace.coverage_pct", 100.0 * tr_.allSelfMs() / wall_ms);
    std::printf("# traced %s: %zu cells, traced wall %.3f s\n", w_.c_str(),
                plan_->cells().size(), wall_ms / 1e3);
    return rep_;
}

bool
LayerProbe::chooseInputs()
{
    std::mt19937_64 rng(opt_.seed);
    if (w_ == "dse_sweep" || w_ == "fleet_sweep") {
        cells_.workloads = dse_profiles;
        for (const auto &[name, mib] : dse_llcs_mib)
            cells_.config_lines.push_back("config " + name + " llc=" +
                                         std::to_string(mib) + "MiB");
        cells_.schedule_line = "schedule quick spacing=" +
                              std::to_string(dse_spacing) + " regions=" +
                              std::to_string(dse_regions);
    } else if (w_ == "service_mix") {
        std::vector<std::string> profiles =
            delorean::workload::specBenchmarkNames();
        std::shuffle(profiles.begin(), profiles.end(), rng);
        cells_.workloads.assign(profiles.begin(), profiles.begin() + 3);
        cells_.config_lines = {"config l2a16 llc=2MiB assoc=16",
                              "config l8a8 llc=8MiB assoc=8"};
        cells_.schedule_line = "schedule svc spacing=" +
                              std::to_string(mix_spacing) + " regions=" +
                              std::to_string(mix_regions);
    } else if (w_ == "trace_stream") {
        for (std::size_t i = 0; i < 4; ++i) {
            stream_files_.push_back(std::string("t") + std::to_string(i) +
                                   ".dlt");
            recordSeededTrace(stream_profiles[i], opt_.seed,
                              stream_files_.back());
            cells_.workloads.push_back("file:" + stream_files_.back());
        }
        cells_.config_lines = {"config s llc=2MiB"};
        cells_.schedule_line = "schedule st spacing=" +
                              std::to_string(stream_spacing) + " regions=" +
                              std::to_string(stream_regions);
    } else {
        rep_.fail("unknown workload " + w_);
        return false;
    }
    stream_file_ = stream_files_.empty() ? probe_ : stream_files_.front();
    return true;
}

void
LayerProbe::probeWorkload()
{
    {
        Span s(tr_, "workload.record");
        recordSeededTrace("mcf", opt_.seed, probe_);
    }
    rep_.set("workload.record_s", tr_.totalMs("workload.record") / 1e3);
    {
        delorean::workload::FileTrace trace(probe_);
        std::uint64_t sink = 0;
        {
            Span s(tr_, "workload.replay");
            for (delorean::InstCount i = 0; i < trace.instCount(); ++i)
                sink += trace.next().pc;
        }
        if (sink == 0)
            rep_.fail("probe trace replay read nothing");
        rep_.set("workload.replay_minst_per_s",
                 double(trace.instCount()) / 1e3 /
                     tr_.totalMs("workload.replay"));
    }
}

void
LayerProbe::probeBatch()
{
    writeFile("cells.plan", cells_.manifest());
        {
        Span s(tr_, "batch.plan");
        plan_.emplace(batch::BatchPlan::fromManifestText(cells_.manifest(),
                                                        "cells"));
    }
    rep_.set("batch.plan_ms", tr_.totalMs("batch.plan"));
    {
        Span s(tr_, "batch.digest");
        batch::workloadIdentity("file:" + probe_);
    }
    rep_.set("batch.digest_ms", tr_.totalMs("batch.digest"));

    // The untraced run of the same cells: the rows the decomposition
    // must reproduce, and the wall the tracing overhead compares with.
    const auto untraced = runCapture({opt_.batchRun(), "run", "cells.plan",
                                      "--no-cache", "--quiet", "--threads",
                                      "1", "--timings"},
                                     170.0);
    double phase_ns = 0.0;
    for (const auto &row : tsvRows(untraced.out)) {
        offline_[rowId(row)] = stripTimings(row);
        phase_ns += rowPhaseNs(row);
    }
    if (untraced.exit.status != 0 || offline_.empty())
        rep_.fail("untraced batch_run of the traced cells");
    if (opt_.wrong_reference && !offline_.empty())
        offline_.begin()->second = wrongCpi(offline_.begin()->second);
    const double untraced_wall = untraced.end - untraced.start;
    untraced_s_ += untraced_wall;
    rep_.set("batch.runner_overhead_ms",
             1e3 * untraced_wall - phase_ns / 1e6);
    std::printf("# untraced batch_run of the same cells: %.3f s\n",
                untraced_wall);
}

void
LayerProbe::decompose()
{
    delorean::profiling::PhaseTimings phases;
    double scout_ns = 0.0;
    std::uint64_t traps = 0, false_pos = 0, keys_total = 0,
                  keys_explored = 0, keys_unresolved = 0, reuse = 0;
    const double t_decomp = now();
    double unit_traced_s = 0.0;
    for (const auto &cell : plan_->cells()) {
        const double t_cell = now();
        const core::DeloreanConfig &cfg = cell.config;
        const auto &sched = cfg.schedule;
        auto trace = delorean::workload::makeTrace(cell.workload);
        delorean::sampling::TraceCheckpointer checkpoints(*trace);
        {
            Span s(tr_, "sampling.prepare");
            checkpoints.prepare(
                core::DeloreanMethod::checkpointPositions(cfg));
        }
        core::ExplorerChain chain({cfg.scaledHorizons(), cfg.paper_horizons,
                                   cfg.paper_vicinity_period,
                                   std::hash<std::string>{}(trace->name())},
                                  checkpoints);
        std::vector<core::KeySet> keys;
        std::vector<core::ExplorerResult> explored;
        std::vector<core::RegionAnalysis> analyses;
        for (unsigned r = 0; r < sched.num_regions; ++r) {
            core::RegionWarm warm;
            {
                Span s(tr_, "core.warm");
                warm = core::warmRegion(chain, checkpoints, cfg, cfg.hier, r);
            }
            {
                Span s(tr_, "core.analyst");
                analyses.push_back(core::analyzeRegion(
                    cfg, checkpoints, warm.keys, warm.explored, r));
            }
            scout_ns += warm.keys.timing.ns[std::size_t(HotPhase::Scout)];
            keys.push_back(std::move(warm.keys));
            explored.push_back(std::move(warm.explored));
        }
        delorean::sampling::MethodResult result;
        {
            Span s(tr_, "core.assemble");
            const auto artifacts = core::DeloreanMethod::assembleArtifacts(
                cfg, std::move(keys), std::move(explored));
            result = core::finishResult(cfg, trace->name(), artifacts,
                                        analyses,
                                        sched.totalInstructions());
        }
        const std::string row =
            tsvRow(cell.workload, cell.config_name, cell.schedule_name,
                   cell.method, result);
        const auto it = offline_.find(rowId(row));
        if (it == offline_.end() || it->second != row)
            rep_.fail("decomposed " + cell.workload + "/" + cell.config_name +
                      " differs from batch_run");
        else
            rep_.op(true);
        phases.merge(result.cost.measured());
        traps += result.traps;
        false_pos += result.false_positives;
        keys_total += result.keys_total;
        keys_explored += result.keys_explored;
        keys_unresolved += result.keys_unresolved;
        reuse += result.reuse_samples;
        results_.push_back(std::move(result));
        if (results_.size() <= cells_.config_lines.size())
            unit_traced_s += now() - t_cell;
    }
    std::printf("# decomposed %zu cells in %.3f s\n", results_.size(),
                now() - t_decomp);

    // Tracing overhead: the first co-scheduled unit's cells again,
    // through DeloreanMethod::run without spans, against the same
    // cells' traced decomposition.
    const std::size_t unit_cells =
        std::min(plan_->cells().size(), cells_.config_lines.size());
    const double t_plain = now();
    for (std::size_t i = 0; i < unit_cells; ++i) {
        const auto &cell = plan_->cells()[i];
        const auto trace = delorean::workload::makeTrace(cell.workload);
        rep_.op(core::DeloreanMethod::run(*trace, cell.config) == results_[i]);
    }
    const double plain_wall = now() - t_plain;
    untraced_s_ += plain_wall;
    rep_.set("sampling.fast_forward_ms", tr_.totalMs("sampling.prepare"));
    rep_.set("core.scout_ms", scout_ns / 1e6);
    rep_.set("core.warm_ms", tr_.totalMs("core.warm"));
    rep_.set("core.analyst_ms", tr_.totalMs("core.analyst"));
    rep_.set("core.assemble_ms", tr_.totalMs("core.assemble"));
    rep_.set("profiling.explorer_replay_ms",
             ms(phases, HotPhase::ExplorerReplay));
    rep_.set("profiling.vicinity_ms", ms(phases, HotPhase::Vicinity));
    rep_.set("statmodel.solve_ms", ms(phases, HotPhase::StatStackSolve));
    rep_.set("cpu.analyze_ms", ms(phases, HotPhase::Analyze));
    rep_.set("cpu.minst_per_s",
             phases.itemsPerSecond(HotPhase::Analyze) / 1e6);
    rep_.set("profiling.traps", double(traps));
    rep_.set("profiling.false_positive_ratio",
             double(false_pos) / double(std::max<std::uint64_t>(traps, 1)));
    rep_.set("core.keys_explored_ratio",
             double(keys_explored) /
                 double(std::max<std::uint64_t>(keys_total, 1)));
    rep_.set("core.keys_unresolved", double(keys_unresolved));
    rep_.set("statmodel.reuse_samples", double(reuse));
    rep_.set("trace.overhead_pct",
             100.0 * (unit_traced_s - plain_wall) / plain_wall);
}

void
LayerProbe::probeCache()
{
    {
        batch::ResultCache cache("layer_cache");
        Samples store_ms, load_ms;
        for (std::size_t i = 0; i < results_.size(); ++i) {
            const auto &key = plan_->cells()[i].key;
            double t = now();
            {
                Span s(tr_, "batch.cache_store");
                cache.store(key, results_[i]);
            }
            store_ms.add(1e3 * (now() - t));
            t = now();
            std::optional<delorean::sampling::MethodResult> back;
            {
                Span s(tr_, "batch.cache_load");
                back = cache.load(key);
            }
            load_ms.add(1e3 * (now() - t));
            rep_.op(back && *back == results_[i]);
        }
        rep_.set("batch.cache_load_ms", load_ms.median());
        rep_.set("batch.cache_store_ms", store_ms.median());
    }
}

void
LayerProbe::probeSession()
{
    // The probe stream's cell, fed in-process window by window.
    const auto stream_plan = batch::BatchPlan::fromManifestText(
        "workload file:" + stream_file_ + "\n" + streamDirectives(), "stream");
    const auto &stream_cell = stream_plan.cells()[0];
        {
        core::DeloreanSession session(stream_cell.config);
        delorean::workload::FileTrace master(stream_file_);
        for (unsigned r = 0; r < session.windowsTotal(); ++r) {
            const double t = now();
            {
                Span s(tr_, "core.session_feed");
                session.feedWindows(master, 1);
            }
            feed_ms_.add(1e3 * (now() - t));
        }
        session_row_ = tsvRow(stream_cell.workload, stream_cell.config_name,
                             stream_cell.schedule_name, "delorean",
                             session.finish());
    }
    if (!stream_files_.empty()) {
        const auto it = offline_.find(rowId(session_row_));
        rep_.op(it != offline_.end() && it->second == session_row_);
    }
    rep_.set("core.session_feed_ms", feed_ms_.median());
}

void
LayerProbe::probeService()
{
    Daemon daemon;
    Samples submit_ms, status_ms, result_ms, queue_ms, spool_ms, window_ms;
    if (!daemon.start(opt_,
                      {"serve", "--socket", "layer.sock", "--cache-dir",
                       "layer_svc", "--threads", "2", "--stream-threads",
                       "1", "--quiet"},
                      "layer.sock", opt_.work_dir + "/layer.log")) {
        rep_.fail("daemon start");
        return;
    }
    try {
        ServiceClient client("layer.sock");
        // Jobs: every (workload, config) once, the first one twice in a
        // row (deduped in flight), then a resubmit (a cache hit).
        struct Job
        {
            std::string text;
            const batch::BatchCell *cell;
        };
        std::vector<Job> jobs;
        const std::size_t n_jobs =
            std::min<std::size_t>(plan_->cells().size(),
                                  w_ == "service_mix" ? 6 : 3);
        for (std::size_t i = 0; i < n_jobs; ++i) {
            const std::size_t wi = i / cells_.config_lines.size();
            const std::size_t ci = i % cells_.config_lines.size();
            jobs.push_back({cells_.single(wi, ci), &plan_->cells()[i]});
        }
        const auto timedSubmit = [&](const std::string &text) {
            Span s(tr_, "service.submit");
            const double t = now();
            const auto info = client.submit(text);
            submit_ms.add(1e3 * (now() - t));
            return info.job;
        };
        const auto finish = [&](std::uint64_t id, const batch::BatchCell &c,
                                double t_submitted) {
            bool running_seen = false;
            for (;;) {
                if (!running_seen) {
                    const auto st = client.status();
                    if (st.running > 0) {
                        queue_ms.add(1e3 * (now() - t_submitted));
                        running_seen = true;
                    }
                }
                delorean::service::JobStatus js;
                {
                    Span s(tr_, "service.status");
                    const double t = now();
                    js = client.jobStatus(id);
                    status_ms.add(1e3 * (now() - t));
                }
                if (js.complete()) {
                    if (!running_seen)
                        queue_ms.add(1e3 * (now() - t_submitted));
                    break;
                }
                sleepFor(poll_s);
            }
            Span s(tr_, "service.result");
            const double t = now();
            const auto r = client.result(c.key);
            result_ms.add(1e3 * (now() - t));
            const std::string row = tsvRow(c.workload, c.config_name,
                                           c.schedule_name, c.method, r);
            const auto it = offline_.find(rowId(row));
            rep_.op(it != offline_.end() && it->second == row);
        };
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const std::uint64_t a = timedSubmit(jobs[i].text);
            const double ta = now();
            if (i == 0) {
                const std::uint64_t b = timedSubmit(jobs[i].text);
                const double tb = now();
                finish(a, *jobs[i].cell, ta);
                finish(b, *jobs[i].cell, tb);
            } else {
                finish(a, *jobs[i].cell, ta);
            }
        }
        const std::uint64_t again = timedSubmit(jobs[0].text);
        finish(again, *jobs[0].cell, now());
        const auto st = client.stats();
        rep_.set("service.cells_deduped", double(st.cells_deduped));
        rep_.set("service.cache_hit_ratio",
                 double(st.cells_cached) /
                     double(std::max<std::uint64_t>(
                        st.cells_cached + st.cells_executed, 1)));

        // Streams: each append timed apart by whether it fed a window.
        const std::vector<std::string> streamed =
            stream_files_.empty() ? std::vector<std::string>{probe_}
                                 : stream_files_;
        for (const auto &file : streamed) {
            const std::string bytes = readFile(file);
            const auto id = client.streamOpen(streamDirectives());
            unsigned fed = 0;
            for (std::size_t off = 0; off < bytes.size();
                 off += stream_chunk) {
                const std::string chunk = bytes.substr(off, stream_chunk);
                tr_.begin("service.append");
                const double t = now();
                const auto info = client.streamAppend(id, chunk);
                const double dt = 1e3 * (now() - t);
                tr_.end();
                (info.windows_fed > fed ? window_ms : spool_ms).add(dt);
                fed = info.windows_fed;
            }
            Span s(tr_, "service.close");
            const auto closed = client.streamClose(id);
            const auto r = client.result(closed.key);
            const auto fp = batch::BatchPlan::fromManifestText(
                "workload file:" + file + "\n" + streamDirectives(), "s");
            const std::string row =
                tsvRow(fp.cells()[0].workload, "s", "st", "delorean", r);
            const auto it = offline_.find(rowId(row));
            const std::string want = file == stream_file_ ? session_row_
                                     : it == offline_.end() ? ""
                                                           : it->second;
            rep_.op(closed.key == fp.cells()[0].key && row == want);
        }
    } catch (const std::exception &e) {
        rep_.fail(std::string("service probe: ") + e.what());
    }
    daemon.stop();
    rep_.set("service.submit_rtt_ms", submit_ms.median());
    rep_.set("service.status_rtt_ms", status_ms.median());
    rep_.set("service.result_rtt_ms", result_ms.median());
    rep_.set("service.queue_wait_ms", queue_ms.median());
    rep_.set("service.append_spool_ms", spool_ms.median());
    rep_.set("service.append_overhead_ms",
             window_ms.median() - feed_ms_.median());
}

void
LayerProbe::probeFleet()
{
    Daemon coord, workers[2];
    bool up = coord.start(opt_,
                          {"coordinate", "--socket", "layer_fleet.sock",
                           "--cache-dir", "layer_fleet", "--quiet"},
                          "layer_fleet.sock", opt_.work_dir + "/layer.log");
    for (int k = 0; k < 2 && up; ++k) {
        const std::string name = std::string("lw") + std::to_string(k);
        up = workers[k].start(opt_,
                              {"serve", "--worker", "layer_fleet.sock",
                               "--name", name, "--threads", "1",
                               "--cache-dir", name + "_cache", "--quiet"},
                              "", opt_.work_dir + "/layer.log");
    }
    if (!up) {
        rep_.fail("fleet start");
    } else {
        try {
            ServiceClient client("layer_fleet.sock");
            // fleet_sweep leases the whole traced plan; the others a
            // two-cell job.
            std::string text = cells_.manifest();
            if (w_ != "fleet_sweep")
                text = "workload " + cells_.workloads[0] + "\n" +
                       cells_.config_lines[0] + "\n" +
                       (cells_.config_lines.size() > 1
                            ? cells_.config_lines[1] + "\n"
                            : std::string()) +
                       cells_.schedule_line + "\nmethods delorean\n";
            const auto fplan = batch::BatchPlan::fromManifestText(text, "f");
            const std::uint64_t granted0 =
                client.stats().fleet_stats.leases_granted;
            Span s(tr_, "service.fleet_job");
            const double t0 = now();
            const auto info = client.submit(text);
            bool leased = false;
            const double deadline = t0 + 150.0;
            for (;;) {
                if (!leased &&
                    client.status().fleet_stats.leases_granted > granted0) {
                    rep_.set("service.fleet_queue_wait_ms",
                             1e3 * (now() - t0));
                    leased = true;
                }
                const auto js = client.jobStatus(info.job);
                if (js.complete() || now() > deadline)
                    break;
                sleepFor(poll_s);
            }
            if (!leased)
                rep_.set("service.fleet_queue_wait_ms", 1e3 * (now() - t0));
            for (const auto &c : fplan.cells()) {
                const std::string row =
                    tsvRow(c.workload, c.config_name, c.schedule_name,
                           c.method, client.result(c.key));
                const auto it = offline_.find(rowId(row));
                rep_.op(it != offline_.end() && it->second == row);
            }
            const auto fs = client.stats().fleet_stats;
            rep_.set("service.fleet_leases", double(fs.leases_granted));
            rep_.set("service.fleet_leases_expired",
                     double(fs.leases_expired));
        } catch (const std::exception &e) {
            rep_.fail(std::string("fleet probe: ") + e.what());
        }
    }
    for (auto &wk : workers)
        wk.stop();
    coord.stop();
}

} // namespace

Report
traceLayers(const Options &opt)
{
    return LayerProbe(opt).run();
}

} // namespace perfbench
