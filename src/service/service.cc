#include "service/service.hh"

#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "base/logging.hh"
#include "batch/error.hh"
#include "batch/runner.hh"
#include "core/parallel.hh"
#include "service/server.hh"

namespace delorean::service
{

BatchService::BatchService(ServiceConfig config)
    : config_(std::move(config)), cache_(config_.cache_dir),
      queue_(cache_),
      streams_(cache_, {.spool_dir = cache_.dir() + "/streams",
                        .source = WindowSource::Local,
                        .host_threads = config_.stream_threads,
                        .tail_poll_ms = config_.tail_poll_ms,
                        .tag = "service",
                        .verbose = config_.verbose})
{
    if (config_.socket_path.empty())
        throw ServiceError("service: no socket path");
    if (config_.poll_ms == 0)
        throw ServiceError("service: poll period must be non-zero");
    if (!config_.spool_dir.empty())
        watcher_ = std::make_unique<ManifestWatcher>(config_.spool_dir);
}

void
BatchService::requestShutdown()
{
    {
        std::lock_guard<std::mutex> lock(shutdown_mutex_);
        shutdown_ = true;
    }
    shutdown_cv_.notify_all();
}

void
BatchService::run()
{
    // Workers first: each drain-loop thunk occupies one pool worker
    // until the queue closes, so sizes must match exactly.
    core::ThreadPool pool(core::resolveThreads(config_.threads));
    for (unsigned i = 0; i < pool.size(); ++i)
        pool.submit([this] { drainLoop(); });

    std::thread watch_thread;
    if (watcher_) {
        watch_thread = std::thread([this] {
            std::unique_lock<std::mutex> lock(shutdown_mutex_);
            while (!shutdown_) {
                lock.unlock();
                for (auto &pickup : watcher_->scan()) {
                    try {
                        JobSpec spec;
                        spec.name = pickup.name;
                        spec.source = JobSource::Spool;
                        spec.priority = spool_priority;
                        spec.spool_path = pickup.path;
                        const auto admitted =
                            queue_.addJob(pickup.plan, std::move(spec));
                        if (config_.verbose)
                            std::fprintf(stderr,
                                         "[service] spool pickup %s "
                                         "-> job %llu (%zu cells)\n",
                                         pickup.name.c_str(),
                                         (unsigned long long)admitted.job,
                                         pickup.plan.cells().size());
                        if (admitted.finished)
                            finishJobs({*admitted.finished});
                    } catch (const ServiceError &) {
                        break; // closed under us: shutting down
                    }
                }
                lock.lock();
                shutdown_cv_.wait_for(
                    lock, std::chrono::milliseconds(config_.poll_ms),
                    [&] { return shutdown_; });
            }
        });
    }

    // From here on the workers block in queue_.pop() and the watch
    // thread in its timed wait: every exit path — including a failed
    // server start (socket already taken) — must unblock both before
    // the pool/thread destructors join, or run() deadlocks on its own
    // stack unwind.
    std::exception_ptr error;
    try {
        SocketServer server(config_.socket_path,
                            [this](const protocol::Request &request,
                                   std::uint64_t) {
                                return handle(request);
                            });
        server.start();
        if (config_.verbose)
            std::fprintf(stderr,
                         "[service] listening on %s (cache %s, %u "
                         "workers%s%s)\n",
                         config_.socket_path.c_str(),
                         cache_.dir().c_str(), pool.size(),
                         watcher_ ? ", spool " : "",
                         watcher_ ? watcher_->dir().c_str() : "");

        std::unique_lock<std::mutex> lock(shutdown_mutex_);
        shutdown_cv_.wait(lock, [&] { return shutdown_; });
        // ~SocketServer stops accepting and joins connections.
    } catch (...) {
        error = std::current_exception();
    }

    // Graceful drain: no new connections or pickups, abandon queued
    // tasks, let in-flight cells finish and publish their results.
    requestShutdown();
    if (watch_thread.joinable())
        watch_thread.join();
    // No new tailers start once the server is down.
    streams_.stop();
    queue_.close();
    // ~ThreadPool joins the workers once their drain loops return.
    if (error)
        std::rethrow_exception(error);
}

void
BatchService::drainLoop()
{
    while (auto unit = queue_.pop()) {
        const auto cells = unit->cells();
        if (config_.verbose)
            std::fprintf(stderr, "[service] run %s %s (%s/%s)%s\n",
                         cells.front()->workload.c_str(),
                         cells.front()->method.c_str(),
                         cells.front()->config_name.c_str(),
                         cells.front()->schedule_name.c_str(),
                         cells.size() > 1 ? " (co-scheduled)" : "");
        finishJobs(queue_.complete(*unit, runMembers(unit->job, cells)));
    }
}

std::vector<Resolution>
BatchService::runMembers(std::uint64_t job,
                         const std::vector<const batch::BatchCell *> &cells)
{
    // Same mid-run re-record guard as BatchRunner::run: a file
    // workload whose content changed between keying and execution
    // must not publish under the stale key.
    batch::UnitHooks hooks;
    hooks.before_store = [&](const batch::BatchCell &cell) {
        if (batch::specIsFileBacked(batch::normalizeSpec(cell.workload)) &&
            workloadIdentityFor(job, cell.workload) !=
                cell.workload_identity)
            throw batch::BatchError(
                cell.workload +
                ": file changed while the job was queued; result "
                "discarded — resubmit the plan");
    };
    try {
        std::vector<Resolution> results;
        for (const auto &outcome :
             batch::BatchRunner::runUnitCached(&cache_, cells, memo_,
                                               hooks)) {
            results.push_back({true, !outcome.from_cache, {}});
            (outcome.from_cache ? cache_hits_ : executed_).fetch_add(1);
        }
        return results;
    } catch (const std::exception &e) {
        if (cells.size() == 1) {
            warn("service cell %s [%s] failed: %s",
                 cells.front()->workload.c_str(),
                 cells.front()->method.c_str(), e.what());
            return {{false, false, e.what()}};
        }
    }
    // A co-scheduled unit fails as one. Rerun its members alone so a
    // failure fails only the cells it belongs to; members stored
    // before the failure come back as cache hits.
    std::vector<Resolution> results;
    for (const batch::BatchCell *cell : cells)
        results.push_back(runMembers(job, {cell}).front());
    return results;
}

batch::CacheKey
BatchService::workloadIdentityFor(std::uint64_t job,
                                  const std::string &spec)
{
    {
        std::lock_guard<std::mutex> lock(identity_mutex_);
        const auto jt = identities_.find(job);
        if (jt != identities_.end()) {
            const auto it = jt->second.find(spec);
            if (it != jt->second.end())
                return it->second;
        }
    }
    // Digest outside the lock — big traces must not serialize every
    // worker behind one file read.
    const batch::CacheKey id = batch::workloadIdentity(spec);
    std::lock_guard<std::mutex> lock(identity_mutex_);
    return identities_[job].try_emplace(spec, id).first->second;
}

void
BatchService::finishJobs(const std::vector<FinishedJob> &finished)
{
    for (const auto &job : finished) {
        {
            // The job's workload-identity memo dies with it.
            std::lock_guard<std::mutex> lock(identity_mutex_);
            identities_.erase(job.status.id);
        }
        // Mirror batch_run's per-invocation counters: one job = one
        // logical "run" against the shared cache.
        cache_.recordRun(job.executed, job.cached);
        if (config_.verbose)
            std::fprintf(stderr,
                         "[service] job %llu %s: executed=%llu "
                         "cached=%llu failed=%zu\n",
                         (unsigned long long)job.status.id,
                         job.status.state(),
                         (unsigned long long)job.executed,
                         (unsigned long long)job.cached,
                         job.status.failed);

        if (job.spool_path.empty())
            continue;
        if (job.status.failed > 0)
            watcher_->moveFailed(job.spool_path,
                                 job.status.first_error);
        else
            watcher_->moveDone(job.spool_path);
    }
}

protocol::Reply
BatchService::handle(const protocol::Request &request)
{
    switch (request.op) {
      case protocol::Opcode::Submit:
        return handleSubmit(request.body);
      case protocol::Opcode::Status:
        return handleStatus(request.body);
      case protocol::Opcode::Result:
        return protocol::resultReply(cache_, request.body);
      case protocol::Opcode::Stats:
        return handleStats();
      case protocol::Opcode::Shutdown: {
        // The drain starts only after "ok" is on the wire (see
        // Reply::after_send) — the shutdown client must always get
        // its acknowledgment.
        protocol::Reply reply{true, "ok\n", nullptr};
        reply.after_send = [this] { requestShutdown(); };
        return reply;
      }
      case protocol::Opcode::StreamOpen:
        return streams_.open(request.body);
      case protocol::Opcode::StreamAppend:
        return streams_.append(request.body);
      case protocol::Opcode::StreamClose:
        return streams_.close(request.body);
      case protocol::Opcode::Lease:
      case protocol::Opcode::Renew:
      case protocol::Opcode::Complete:
      case protocol::Opcode::StreamLease:
      case protocol::Opcode::StreamHandoff:
        // A worker pointed at a plain batch service, not a fleet
        // coordinator: tell it precisely what went wrong.
        return protocol::Reply::error(
            "this is a batch service socket, not a fleet coordinator; "
            "start one with 'batch_service coordinate'");
      case protocol::Opcode::ResultPart:
      case protocol::Opcode::ResultEnd:
        // readRequest() rejects these standalone; belt and braces.
        return protocol::Reply::error(
            "continuation frame outside a COMPLETE stream");
    }
    return protocol::Reply::error("unhandled opcode");
}

protocol::Reply
BatchService::handleSubmit(const std::string &body)
{
    const auto submit = protocol::parseSubmit(body);
    const auto plan =
        batch::BatchPlan::fromManifestText(submit.manifest, "submit");
    JobSpec spec;
    spec.priority = submit.priority;
    const auto admitted = queue_.addJob(plan, std::move(spec));
    if (config_.verbose)
        std::fprintf(stderr, "[service] submit -> job %llu (%zu cells)\n",
                     (unsigned long long)admitted.job, plan.cells().size());
    if (admitted.finished)
        finishJobs({*admitted.finished});

    std::ostringstream os;
    os << "job=" << admitted.job << " cells=" << plan.cells().size()
       << "\n";
    return protocol::Reply::success(os.str());
}

protocol::Reply
BatchService::handleStatus(const std::string &body)
{
    if (body.rfind("stream=", 0) == 0)
        return streams_.status(body);
    if (!body.empty()) {
        const std::uint64_t id = batch::parseCount(body);
        const auto job = queue_.job(id);
        if (!job)
            return protocol::Reply::error("unknown job " + body);
        return protocol::Reply::success(jobStatusLine(*job));
    }

    const auto c = queue_.counters();
    std::ostringstream os;
    os << "jobs=" << c.jobs_submitted
       << " completed=" << c.jobs_completed
       << " job_failures=" << c.jobs_failed
       << " queue_depth=" << c.queue_depth << " running=" << c.running
       << " cells_enqueued=" << c.cells_enqueued
       << " cells_deduped=" << c.cells_deduped
       << " cells_executed=" << cellsExecuted()
       << " cells_cached=" << c.cells_cached + cache_hits_.load()
       << " checkpoint_prepares=" << memo_.prepares() << "\n";
    for (const auto &job : queue_.jobs())
        os << jobStatusLine(job);
    return protocol::Reply::success(os.str());
}

protocol::Reply
BatchService::handleStats()
{
    const auto stats = cache_.stats();
    const auto c = queue_.counters();
    std::ostringstream os;
    os << "last_run_executed=" << stats.last_run_executed
       << " last_run_cached=" << stats.last_run_cached
       << " total_executed=" << stats.total_executed
       << " total_cached=" << stats.total_cached << "\n"
       << "cells_executed=" << cellsExecuted()
       << " cells_cached=" << c.cells_cached + cache_hits_.load()
       << " cells_enqueued=" << c.cells_enqueued
       << " cells_deduped=" << c.cells_deduped
       << " queue_depth=" << c.queue_depth << " running=" << c.running
       << " jobs=" << c.jobs_submitted
       << " completed=" << c.jobs_completed
       << " job_failures=" << c.jobs_failed << " spool_processed="
       << (watcher_ ? watcher_->processed() : 0)
       << " checkpoint_prepares=" << memo_.prepares() << "\n";
    return protocol::Reply::success(os.str());
}

} // namespace delorean::service
