#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <random>
#include <thread>

#include "batch/plan.hh"
#include "service/client.hh"
#include "workload/spec_profiles.hh"
#include "workload/synthetic_trace.hh"
#include "workload/trace_io.hh"

namespace perfbench
{

using delorean::service::ServiceClient;

const std::vector<std::string> dse_profiles = {"bzip2", "mcf",   "gamess",
                                               "astar", "sjeng", "soplex"};
const std::vector<std::pair<std::string, unsigned>> dse_llcs_mib = {
    {"llc2", 2}, {"llc4", 4}, {"llc8", 8}};

namespace
{

/** Set-ups repeated per run; setup_s reports their median. */
constexpr int setup_reps = 3;

/** Client-side poll period of job completion (fixed, <= 1 ms). */
constexpr double poll_s = 0.0005;

/** Give up on one job after this long (counts as failed). */
constexpr double job_timeout_s = 120.0;

/**
 * Set-up time: the one-off part (inputs and offline references),
 * plus the median of the repeated program start-ups (start until
 * ready, then one untimed warm-up operation).
 */
struct SetupClock
{
    double once = 0.0;
    Samples reps;

    void
    report(Report &rep) const
    {
        rep.set("setup_s", once + reps.median());
        std::printf("# setup: once=%.3f s, start-up+warm-up reps:", once);
        for (const double r : reps.v)
            std::printf(" %.3f", r);
        std::printf(" s\n");
    }
};

std::string
llcConfigLine(const std::string &name, unsigned mib, std::uint64_t key_seed)
{
    std::string line = "config " + name + " llc=" + std::to_string(mib) +
                       "MiB";
    if (key_seed)
        line += " seed=" + std::to_string(key_seed);
    return line + "\n";
}

/** Poll one job's STATUS at a fixed period until it completes. */
bool
pollUntilDone(ServiceClient &client, std::uint64_t job)
{
    const double deadline = now() + job_timeout_s;
    for (;;) {
        const auto st = client.jobStatus(job);
        if (st.complete())
            return st.failed == 0;
        if (now() > deadline)
            return false;
        sleepFor(poll_s);
    }
}

std::string
logPath(const Options &opt, const std::string &name)
{
    return opt.work_dir + "/" + name + ".log";
}

} // namespace

std::string
dseManifest(const std::string &methods, std::uint64_t key_seed)
{
    std::string text;
    for (const auto &p : dse_profiles)
        text += "workload " + p + "\n";
    for (const auto &[name, mib] : dse_llcs_mib)
        text += llcConfigLine(name, mib, key_seed);
    text += "schedule quick spacing=" + std::to_string(dse_spacing) +
            " regions=" + std::to_string(dse_regions) + "\n";
    return text + "methods " + methods + "\n";
}

std::string
mixManifest(const MixCell &cell)
{
    return "workload " + cell.profile + "\nconfig " + cell.config +
           " llc=" + std::to_string(cell.llc_mib) +
           "MiB assoc=" + std::to_string(cell.assoc) +
           "\nschedule svc spacing=" + std::to_string(mix_spacing) +
           " regions=" + std::to_string(mix_regions) +
           "\nmethods delorean\n";
}

std::string
streamDirectives()
{
    return "config s llc=2MiB\nschedule st spacing=" +
           std::to_string(stream_spacing) +
           " regions=" + std::to_string(stream_regions) + "\n";
}

void
recordSeededTrace(const std::string &profile, std::uint64_t seed,
                  const std::string &path)
{
    auto p = delorean::workload::specProfile(profile);
    // Derive the profile seed from the run seed (splitmix64 step), so
    // each seed gives different trace bytes for the same profile.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (p.seed + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    p.seed = z ^ (z >> 31);
    delorean::workload::SyntheticTrace trace(p);
    delorean::workload::recordTrace(trace, stream_spacing * stream_regions,
                                    path);
}

// ---------------------------------------------------------------- dse

Report
dseSweep(const Options &opt)
{
    Report rep;
    SetupClock setup;
    const double t_setup = now();
    writeFile("dse.plan", dseManifest("delorean"));
    writeFile("dse_ref.plan", dseManifest("smarts,delorean"));
    Reference ref;
    if (!runReference(opt, "dse_ref.plan", 4, ref)) {
        rep.fail("dse reference");
        return rep;
    }
    setup.once = now() - t_setup;

    // Warm-up operation: one cold cell through batch_run.
    writeFile("warm.plan", "workload bzip2\nconfig llc2 llc=2MiB\n"
                           "schedule quick spacing=1000000 regions=10\n");
    for (int k = 0; k < setup_reps; ++k) {
        const auto warm = runCapture({opt.batchRun(), "run", "warm.plan",
                                      "--no-cache", "--quiet"},
                                     60.0);
        setup.reps.add(warm.end - warm.start);
        if (warm.exit.status != 0)
            rep.fail("dse warm-up");
    }

    const double cells = double(dse_profiles.size() * dse_llcs_mib.size());
    const double insts = cells * scheduleInsts(dse_spacing, dse_regions);
    Samples job_ms, window_ms, close_ms, minst, jobs_s, mb_s;
    // Per co-scheduled unit (a profile): its windows and, per sweep,
    // the unit's wall over its windows.
    struct UnitWindows
    {
        std::size_t windows = 0;
        Samples ms;
    };
    std::map<std::string, UnitWindows> unit_window;
    double rss = 0.0;
    Accuracy acc;
    const double t0 = now();
    // At least three sweeps, so each unit's window median has three.
    for (int sweep = 0; sweep < 3 || now() - t0 < opt.seconds; ++sweep) {
        const auto run = runCapture({opt.batchRun(), "run", "dse.plan",
                                     "--no-cache", "--threads", "1"},
                                    170.0);
        rss = std::max(rss, run.exit.max_rss_mib);
        if (!run.exit.exited || run.exit.status != 0) {
            rep.fail("dse sweep exited abnormally", std::size_t(cells));
            continue;
        }
        // Rows: every cell present and identical to the reference.
        std::map<std::string, std::string> rows;
        for (const auto &row : tsvRows(run.out))
            rows[rowId(row)] = row;
        for (const auto &p : dse_profiles) {
            for (const auto &c : dse_llcs_mib) {
                const std::string want =
                    ref.find(p, c.first, "quick", "delorean");
                const auto it =
                    rows.find(p + "\t" + c.first + "\tquick\tdelorean");
                const bool ok = it != rows.end() && it->second == want;
                if (!ok)
                    rep.fail("dse cell " + p + "/" + c.first +
                             " differs from the reference");
                else
                    rep.op(true);
                if (ok && sweep == 0)
                    acc.add(it->second,
                            ref.find(p, c.first, "quick", "smarts"));
            }
        }
        // Co-scheduled units: verbose stderr announces each unit as it
        // starts; a unit ends when the next starts, the last when the
        // TSV is in hand.
        std::vector<double> unit_start;
        std::vector<std::size_t> unit_cells;
        std::vector<std::string> unit_workload;
        std::string last_workload;
        for (const auto &line : run.err) {
            if (line.text.rfind("[batch] ", 0) != 0 ||
                line.text.find(": run") == std::string::npos)
                continue;
            const std::string w =
                line.text.substr(8, line.text.find(' ', 8) - 8);
            if (w != last_workload) {
                unit_start.push_back(line.t);
                unit_cells.push_back(0);
                unit_workload.push_back(w);
                last_workload = w;
            }
            ++unit_cells.back();
        }
        for (std::size_t u = 0; u < unit_start.size(); ++u) {
            const double end =
                u + 1 < unit_start.size() ? unit_start[u + 1] : run.end;
            for (std::size_t c = 0; c < unit_cells[u]; ++c)
                job_ms.add(1e3 * (end - run.start));
            const std::size_t windows = unit_cells[u] * dse_regions;
            auto &uw = unit_window[unit_workload[u]];
            uw.windows = windows;
            uw.ms.add(1e3 * (end - unit_start[u]) / double(windows));
        }
        if (!unit_start.empty())
            close_ms.add(1e3 * (run.end - unit_start.back()));
        const double wall = run.end - run.start;
        minst.add(insts / wall / 1e6);
        jobs_s.add(cells / wall);
        mb_s.add(insts * record_bytes / wall / 1e6);
    }
    // Every window of a unit, charged the median over sweeps of the
    // unit's mean, so one slow sweep of a unit does not set the tail.
    for (const auto &uw : unit_window)
        for (std::size_t k = 0; k < uw.second.windows; ++k)
            window_ms.add(uw.second.ms.median());

    setup.report(rep);
    rep.set("peak_rss_mb", rss);
    rep.set("sim_minst_per_s", minst.median());
    acc.report(rep);
    rep.latency("job", job_ms);
    rep.set("jobs_per_s", jobs_s.median());
    rep.latency("window", window_ms);
    rep.set("close_ms", close_ms.median());
    rep.set("stream_mb_per_s", mb_s.median());
    std::printf("# dse_sweep: %zu sweeps of %.0f cells\n", minst.size(),
                cells);
    return rep;
}

// -------------------------------------------------------- service_mix

Report
serviceMix(const Options &opt)
{
    Report rep;
    SetupClock setup;
    const double t_setup = now();

    // The pool of distinct cells (profile x LLC), sized so that the 2
    // daemon threads stay busy about --seconds. The pool depends only
    // on --seconds; the seed draws the job order and the mix below.
    std::mt19937_64 rng(opt.seed);
    std::vector<std::string> profiles =
        delorean::workload::specBenchmarkNames();
    std::vector<std::pair<unsigned, unsigned>> llcs; // (MiB, assoc)
    for (const unsigned assoc : {16u, 8u})
        for (const unsigned mib : {2u, 8u, 1u, 4u, 16u, 32u})
            llcs.emplace_back(mib, assoc);
    const std::size_t want =
        std::clamp<std::size_t>(std::size_t(opt.seconds * 15.0), 8,
                                profiles.size() * llcs.size());
    const std::size_t n_llc = (want + profiles.size() - 1) / profiles.size();
    const std::size_t n_prof = (want + n_llc - 1) / n_llc;
    profiles.resize(std::min(n_prof, profiles.size()));
    llcs.resize(n_llc);

    std::vector<MixCell> pool;
    std::string ref_text;
    for (const auto &p : profiles)
        ref_text += "workload " + p + "\n";
    for (const auto &[mib, assoc] : llcs) {
        const std::string name =
            std::string("l") + std::to_string(mib) + "a" +
            std::to_string(assoc);
        ref_text += "config " + name + " llc=" + std::to_string(mib) +
                    "MiB assoc=" + std::to_string(assoc) + "\n";
        for (const auto &p : profiles)
            pool.push_back({p, name, mib, assoc});
    }
    ref_text += "schedule svc spacing=" + std::to_string(mix_spacing) +
                " regions=" + std::to_string(mix_regions) +
                "\nmethods smarts,delorean\n";
    std::shuffle(pool.begin(), pool.end(), rng);

    // The job list: every pool cell once (executed), ~1 in 4 a
    // resubmit of an earlier manifest (cache hit), ~1 in 20 a
    // duplicate right behind its original (deduped in flight).
    std::vector<std::size_t> jobs;
    std::uniform_real_distribution<double> u01(0.0, 1.0);
    for (std::size_t i = 0; i < pool.size(); ++i) {
        jobs.push_back(i);
        if (u01(rng) < 0.05)
            jobs.push_back(i);
        if (i >= 4 && u01(rng) < 0.33)
            jobs.push_back(std::size_t(u01(rng) * double(i - 3)));
    }

    writeFile("mix_ref.plan", ref_text);
    Reference ref;
    if (!runReference(opt, "mix_ref.plan", 4, ref)) {
        rep.fail("service_mix reference");
        return rep;
    }
    std::vector<std::string> texts, expect;
    std::vector<delorean::batch::BatchPlan> plans;
    Accuracy acc;
    for (const auto &c : pool) {
        texts.push_back(mixManifest(c));
        plans.push_back(
            delorean::batch::BatchPlan::fromManifestText(texts.back(), "job"));
        expect.push_back(ref.find(c.profile, c.config, "svc", "delorean"));
        acc.add(expect.back(), ref.find(c.profile, c.config, "svc", "smarts"));
    }
    setup.once = now() - t_setup;

    const MixCell warm_cell{"bzip2", "warm", 64, 16};
    const std::string warm_text = mixManifest(warm_cell);
    const auto warm_plan =
        delorean::batch::BatchPlan::fromManifestText(warm_text, "warm");
    Daemon daemon;
    for (int k = 0; k < setup_reps; ++k) {
        if (k > 0)
            daemon.stop();
        const double t = now();
        const std::string cache = "svc_cache" + std::to_string(k);
        if (!daemon.start(opt,
                          {"serve", "--socket", "svc.sock", "--cache-dir",
                           cache, "--threads", "2", "--quiet"},
                          "svc.sock", logPath(opt, "svc"))) {
            rep.fail("daemon start");
            return rep;
        }
        try {
            ServiceClient client("svc.sock");
            const auto info = client.submit(warm_text);
            if (!pollUntilDone(client, info.job))
                rep.fail("warm-up job");
            client.result(warm_plan.cells()[0].key);
        } catch (const std::exception &e) {
            rep.fail(std::string("warm-up: ") + e.what());
        }
        setup.reps.add(now() - t);
    }

    // Closed loop: two clients, each submits its next job only after
    // the previous one's results are in hand.
    std::mutex mu;
    std::size_t next = 0;
    Samples job_ms, window_ms, close_ms;
    std::uint64_t ok_jobs = 0, bad_jobs = 0;
    const auto client_loop = [&]() {
        std::unique_ptr<ServiceClient> client;
        try {
            client = std::make_unique<ServiceClient>("svc.sock");
        } catch (const std::exception &) {
        }
        for (;;) {
            std::size_t j;
            {
                std::lock_guard<std::mutex> lock(mu);
                if (next >= jobs.size())
                    return;
                j = jobs[next++];
            }
            const auto &cell = plans[j].cells()[0];
            bool ok = false;
            double t_done = 0.0;
            const double t0 = now();
            try {
                if (client) {
                    const auto info = client->submit(texts[j]);
                    ok = pollUntilDone(*client, info.job);
                    t_done = now();
                    ok &= tsvRow(cell.workload, cell.config_name,
                                 cell.schedule_name, cell.method,
                                 client->result(cell.key)) == expect[j];
                }
            } catch (const std::exception &e) {
                std::fprintf(stderr, "perfbench: job error: %s\n",
                             e.what());
                ok = false;
            }
            const double t_end = now();
            std::lock_guard<std::mutex> lock(mu);
            if (!ok) {
                ++bad_jobs;
                continue;
            }
            ++ok_jobs;
            job_ms.add(1e3 * (t_end - t0));
            close_ms.add(1e3 * (t_end - t_done));
            for (unsigned k = 0; k < mix_regions; ++k)
                window_ms.add(1e3 * (t_done - t0) / double(mix_regions));
        }
    };
    const double t0 = now();
    std::thread a(client_loop), b(client_loop);
    a.join();
    b.join();
    const double wall = now() - t0;
    if (bad_jobs)
        rep.fail(std::to_string(bad_jobs) + " service jobs failed or "
                 "differ from the reference", bad_jobs);
    rep.op(true, ok_jobs);

    try {
        const auto st = ServiceClient("svc.sock").stats();
        std::printf("# service_mix: %zu jobs (%zu fresh), executed=%llu "
                    "cached=%llu deduped=%llu\n",
                    jobs.size(), pool.size(),
                    (unsigned long long)st.cells_executed,
                    (unsigned long long)st.cells_cached,
                    (unsigned long long)st.cells_deduped);
    } catch (const std::exception &e) {
        rep.fail(std::string("stats: ") + e.what());
    }
    const ExitInfo ex = daemon.stop();

    const double insts =
        double(jobs.size()) * scheduleInsts(mix_spacing, mix_regions);
    setup.report(rep);
    rep.set("peak_rss_mb", ex.max_rss_mib);
    rep.set("sim_minst_per_s", insts / wall / 1e6);
    acc.report(rep);
    rep.latency("job", job_ms);
    rep.set("jobs_per_s", double(jobs.size()) / wall);
    rep.latency("window", window_ms);
    rep.set("close_ms", close_ms.median());
    rep.set("stream_mb_per_s", insts * record_bytes / wall / 1e6);
    return rep;
}

// ------------------------------------------------------- trace_stream

const std::vector<std::string> stream_profiles = {
    "mcf",     "soplex",     "astar",     "bzip2",    "sjeng",  "omnetpp",
    "libquantum", "xalancbmk", "perlbench", "gamess", "gobmk", "hmmer",
    "h264ref", "lbm",        "povray",    "GemsFDTD"};

Report
traceStream(const Options &opt)
{
    Report rep;
    SetupClock setup;
    const double t_setup = now();

    std::vector<std::string> files, expect;
    std::vector<delorean::batch::CacheKey> keys;
    std::string ref_text;
    for (std::size_t i = 0; i < stream_profiles.size(); ++i) {
        files.push_back(std::string("t") + std::to_string(i) + ".dlt");
        recordSeededTrace(stream_profiles[i], opt.seed, files.back());
        ref_text += "workload file:" + files.back() + "\n";
    }
    ref_text += streamDirectives();
    writeFile("stream_ref.plan", ref_text + "methods smarts,delorean\n");
    Reference ref;
    if (!runReference(opt, "stream_ref.plan", 4, ref)) {
        rep.fail("stream reference");
        return rep;
    }
    const auto plan =
        delorean::batch::BatchPlan::fromManifestText(ref_text, "streams");
    Accuracy acc;
    for (const auto &cell : plan.cells()) {
        keys.push_back(cell.key);
        expect.push_back(ref.find(cell.workload, "s", "st", "delorean"));
        acc.add(expect.back(), ref.find(cell.workload, "s", "st", "smarts"));
    }
    setup.once = now() - t_setup;

    Samples job_ms, window_ms, close_ms, spool_ms, mb_s, minst;
    // Repeats of each window, keyed by (trace, windows_fed after it):
    // the feed is synchronous, so a trace's windows advance at the
    // same APPENDs on every pass.
    std::map<std::pair<std::size_t, unsigned>, Samples> window_reps;
    double stream_time = 0.0;
    // One stream of trace @p i; @p timed adds its samples.
    const auto stream = [&](ServiceClient &client, std::size_t i,
                            bool timed) {
        const std::string b = readFile(files[i]);
        const double t_open = now();
        const auto id = client.streamOpen(streamDirectives());
        unsigned fed = 0;
        for (std::size_t off = 0; off < b.size(); off += stream_chunk) {
            const double t = now();
            const auto info =
                client.streamAppend(id, b.substr(off, stream_chunk));
            const double ms = 1e3 * (now() - t);
            if (!timed)
                continue;
            if (info.windows_fed > fed)
                window_reps[{i, info.windows_fed}].add(ms);
            else
                spool_ms.add(ms);
            fed = info.windows_fed;
        }
        const double t_close = now();
        const auto closed = client.streamClose(id);
        const auto result = client.result(closed.key);
        const double t_end = now();
        const bool ok =
            closed.key == keys[i] &&
            tsvRow(plan.cells()[i].workload, "s", "st", "delorean",
                   result) == expect[i];
        if (!timed)
            return ok;
        close_ms.add(1e3 * (t_end - t_close));
        job_ms.add(1e3 * (t_end - t_open));
        mb_s.add(double(b.size()) / 1e6 / (t_end - t_open));
        minst.add(scheduleInsts(stream_spacing, stream_regions) / 1e6 /
                  (t_end - t_open));
        stream_time += t_end - t_open;
        return ok;
    };

    Daemon daemon;
    for (int k = 0; k < setup_reps; ++k) {
        if (k > 0)
            daemon.stop();
        const double t = now();
        if (!daemon.start(opt,
                          {"serve", "--socket", "st.sock", "--cache-dir",
                           "st_cache" + std::to_string(k), "--threads", "1",
                           "--stream-threads", "1", "--quiet"},
                          "st.sock", logPath(opt, "stream"))) {
            rep.fail("daemon start");
            return rep;
        }
        try {
            ServiceClient client("st.sock");
            if (!stream(client, 0, false))
                rep.fail("warm-up stream differs from the reference");
        } catch (const std::exception &e) {
            rep.fail(std::string("warm-up stream: ") + e.what());
        }
        setup.reps.add(now() - t);
    }

    try {
        ServiceClient client("st.sock");
        const double t0 = now();
        // At least five passes over the traces: every window gets five
        // repeats for its median, and the per-stream tail its 11
        // samples.
        for (std::size_t s = 0;
             s < 5 * files.size() || now() - t0 < opt.seconds; ++s) {
            const std::size_t i = s % files.size();
            const bool ok = stream(client, i, true);
            if (!ok)
                rep.fail("stream of " + files[i] +
                         " differs from the reference");
            else
                rep.op(true);
        }
    } catch (const std::exception &e) {
        rep.fail(std::string("stream: ") + e.what());
    }
    const ExitInfo ex = daemon.stop();
    // A window's time is the median of its repeats, so a preempted
    // APPEND moves neither the p50 nor the tail unless most repeats of
    // its window were preempted.
    for (const auto &w : window_reps)
        window_ms.add(w.second.median());

    setup.report(rep);
    rep.set("peak_rss_mb", ex.max_rss_mib);
    rep.set("sim_minst_per_s", minst.median());
    acc.report(rep);
    rep.latency("job", job_ms);
    rep.set("jobs_per_s", double(job_ms.size()) / stream_time);
    rep.latency("window", window_ms);
    rep.set("close_ms", close_ms.median());
    rep.set("stream_mb_per_s", mb_s.median());
    std::printf("# trace_stream: %zu streams, %zu spool-only appends "
                "(p50 %.4f ms)\n",
                mb_s.size(), spool_ms.size(), spool_ms.median());
    return rep;
}

// -------------------------------------------------------- fleet_sweep

Report
fleetSweep(const Options &opt)
{
    Report rep;
    SetupClock setup;
    const double t_setup = now();
    writeFile("dse_ref.plan", dseManifest("smarts,delorean"));
    Reference ref;
    if (!runReference(opt, "dse_ref.plan", 4, ref)) {
        rep.fail("fleet reference");
        return rep;
    }
    Accuracy acc;
    for (const auto &p : dse_profiles)
        for (const auto &c : dse_llcs_mib)
            acc.add(ref.find(p, c.first, "quick", "delorean"),
                    ref.find(p, c.first, "quick", "smarts"));
    setup.once = now() - t_setup;

    const std::string warm_text = mixManifest({"bzip2", "warm", 64, 16});
    const auto warm_plan =
        delorean::batch::BatchPlan::fromManifestText(warm_text, "warm");
    Daemon coord, workers[2];
    const auto stopFleet = [&]() {
        ExitInfo sum;
        for (auto &w : workers)
            sum.max_rss_mib += w.stop().max_rss_mib;
        sum.max_rss_mib += coord.stop().max_rss_mib;
        return sum;
    };
    for (int k = 0; k < setup_reps; ++k) {
        if (k > 0)
            stopFleet();
        const double t = now();
        const std::string ks = std::to_string(k);
        bool up = coord.start(opt,
                              {"coordinate", "--socket", "fleet.sock",
                               "--cache-dir", "fleet_cache" + ks, "--quiet"},
                              "fleet.sock", logPath(opt, "coordinator"));
        for (int w = 0; w < 2 && up; ++w) {
            const std::string name = std::string("w") + std::to_string(w);
            up = workers[w].start(
                opt,
                {"serve", "--worker", "fleet.sock", "--name", name,
                 "--threads", "1", "--cache-dir", name + "_cache" + ks,
                 "--quiet"},
                "", logPath(opt, name));
        }
        if (!up) {
            rep.fail("fleet start");
            return rep;
        }
        try {
            ServiceClient client("fleet.sock");
            const auto info = client.submit(warm_text);
            if (!pollUntilDone(client, info.job))
                rep.fail("fleet warm-up job");
            client.result(warm_plan.cells()[0].key);
        } catch (const std::exception &e) {
            rep.fail(std::string("fleet warm-up: ") + e.what());
        }
        setup.reps.add(now() - t);
    }

    const double cells = double(dse_profiles.size() * dse_llcs_mib.size());
    const double insts = cells * scheduleInsts(dse_spacing, dse_regions);
    Samples job_ms, window_ms, close_ms, minst, jobs_s, mb_s;
    try {
        ServiceClient client("fleet.sock");
        const double t0 = now();
        for (int sweep = 0; sweep < 2 || now() - t0 < opt.seconds;
             ++sweep) {
            // A per-sweep key seed keeps every sweep cold in the
            // coordinator's and workers' caches.
            const std::string text =
                dseManifest("delorean", std::uint64_t(sweep) + 1);
            const auto plan =
                delorean::batch::BatchPlan::fromManifestText(text, "fleet");
            const double t_submit = now();
            const auto info = client.submit(text);
            std::size_t done = 0;
            const double deadline = t_submit + job_timeout_s;
            delorean::service::JobStatus st;
            std::uint64_t leases = 0;
            double t_last_lease = t_submit;
            for (;;) {
                st = client.jobStatus(info.job);
                const double t = now();
                for (; done < st.done; ++done)
                    job_ms.add(1e3 * (t - t_submit));
                if (st.complete() || t > deadline)
                    break;
                const auto granted =
                    client.status().fleet_stats.leases_granted;
                if (granted != leases) {
                    leases = granted;
                    t_last_lease = now();
                }
                sleepFor(poll_s);
            }
            std::size_t ok = 0;
            if (st.complete() && st.failed == 0) {
                for (const auto &c : plan.cells()) {
                    if (tsvRow(c.workload, c.config_name, c.schedule_name,
                               c.method, client.result(c.key)) ==
                        ref.find(c.workload, c.config_name,
                                 c.schedule_name, c.method))
                        ++ok;
                }
            }
            const double t_end = now();
            close_ms.add(1e3 * (t_end - t_last_lease));
            rep.op(true, ok);
            if (ok < plan.cells().size())
                rep.fail("fleet sweep cells missing, failed or differing",
                         plan.cells().size() - ok);
            const double wall = t_end - t_submit;
            // Every window of the sweep, charged the sweep's mean.
            const double windows = cells * dse_regions;
            for (int k = 0; k < int(windows); ++k)
                window_ms.add(1e3 * wall / windows);
            minst.add(insts / wall / 1e6);
            jobs_s.add(cells / wall);
            mb_s.add(insts * record_bytes / wall / 1e6);
        }
    } catch (const std::exception &e) {
        rep.fail(std::string("fleet sweep: ") + e.what());
    }
    const ExitInfo ex = stopFleet();

    setup.report(rep);
    rep.set("peak_rss_mb", ex.max_rss_mib);
    rep.set("sim_minst_per_s", minst.median());
    acc.report(rep);
    rep.latency("job", job_ms);
    rep.set("jobs_per_s", jobs_s.median());
    rep.latency("window", window_ms);
    rep.set("close_ms", close_ms.median());
    rep.set("stream_mb_per_s", mb_s.median());
    std::printf("# fleet_sweep: %zu sweeps of %.0f cells\n", minst.size(),
                cells);
    return rep;
}

} // namespace perfbench
