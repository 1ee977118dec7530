#include "service/service.hh"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "base/logging.hh"
#include "batch/error.hh"
#include "batch/runner.hh"
#include "core/parallel.hh"
#include "service/server.hh"
#include "workload/trace_io.hh"

namespace delorean::service
{

BatchService::BatchService(ServiceConfig config)
    : config_(std::move(config)), cache_(config_.cache_dir),
      queue_(cache_)
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
    {
        // No new tailers start once the server is down; join the
        // survivors (they observe shutdown_ within one poll).
        std::lock_guard<std::mutex> lock(tailers_mutex_);
        for (auto &tailer : tailers_)
            if (tailer.joinable())
                tailer.join();
        tailers_.clear();
    }
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
             batch::BatchRunner::runUnitCached(&cache_, cells, hooks)) {
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
        return handleStreamOpen(request.body);
      case protocol::Opcode::StreamAppend:
        return handleStreamAppend(request.body);
      case protocol::Opcode::StreamClose:
        return handleStreamClose(request.body);
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
    std::ostringstream os;
    if (body.rfind("stream=", 0) == 0)
        return handleStreamStatus(body);
    if (!body.empty()) {
        const std::uint64_t id = batch::parseCount(body);
        const auto job = queue_.job(id);
        if (!job)
            return protocol::Reply::error("unknown job " + body);
        return protocol::Reply::success(jobStatusLine(*job));
    }

    const auto c = queue_.counters();
    os << "jobs=" << c.jobs_submitted
       << " completed=" << c.jobs_completed
       << " job_failures=" << c.jobs_failed
       << " queue_depth=" << c.queue_depth << " running=" << c.running
       << " cells_enqueued=" << c.cells_enqueued
       << " cells_deduped=" << c.cells_deduped
       << " cells_executed=" << executed_.load()
       << " cells_cached=" << c.cells_cached + cache_hits_.load() << "\n";
    for (const auto &job : queue_.jobs())
        os << jobStatusLine(job);
    return protocol::Reply::success(os.str());
}

std::shared_ptr<BatchService::StreamEntry>
BatchService::findStream(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(streams_mutex_);
    const auto it = streams_.find(id);
    if (it == streams_.end())
        throw ServiceError("unknown stream " + std::to_string(id));
    return it->second;
}

void
BatchService::eraseStream(std::uint64_t id)
{
    std::shared_ptr<StreamEntry> doomed;
    {
        std::lock_guard<std::mutex> lock(streams_mutex_);
        const auto it = streams_.find(id);
        if (it == streams_.end())
            return;
        doomed = std::move(it->second);
        streams_.erase(it);
    }
    // The entry (and its spool file) dies here — outside the map lock,
    // and after any concurrent holder drops its reference.
}

protocol::Reply
BatchService::handleStreamOpen(const std::string &body)
{
    // An optional "tail=<path>" first line puts the stream in tail
    // mode: the service itself follows the named (growing) trace file
    // and feeds it, instead of the client shipping bytes over the
    // socket. The remaining lines are the usual directives.
    std::string directives = body;
    std::string tail_path;
    if (body.rfind("tail=", 0) == 0) {
        const std::size_t eol = body.find('\n');
        tail_path = body.substr(5, eol == std::string::npos
                                       ? std::string::npos
                                       : eol - 5);
        directives =
            eol == std::string::npos ? "" : body.substr(eol + 1);
        if (tail_path.empty())
            throw ServiceError("STREAM-OPEN: tail= needs a file path");
    }

    const std::string dir = cache_.dir() + "/streams";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        throw ServiceError("STREAM-OPEN: cannot create spool "
                           "directory '" + dir + "': " + ec.message());

    std::uint64_t id;
    {
        std::lock_guard<std::mutex> lock(streams_mutex_);
        id = ++next_stream_;
    }
    // Construct outside the map lock: directive parsing and spool
    // creation must not stall unrelated streams.
    auto entry = std::make_shared<StreamEntry>(
        id, dir + "/" + std::to_string(id) + ".dlt", directives,
        config_.stream_threads);
    {
        std::lock_guard<std::mutex> lock(streams_mutex_);
        streams_.emplace(id, std::move(entry));
    }
    if (!tail_path.empty()) {
        std::lock_guard<std::mutex> lock(tailers_mutex_);
        tailers_.emplace_back(
            [this, id, tail_path] { tailLoop(id, tail_path); });
    }
    if (config_.verbose)
        std::fprintf(stderr, "[service] stream %llu opened%s%s\n",
                     (unsigned long long)id,
                     tail_path.empty() ? "" : ", tailing ",
                     tail_path.c_str());
    return protocol::Reply::success("stream=" + std::to_string(id) +
                                    "\n");
}

TraceStream::AppendInfo
BatchService::appendToStream(std::uint64_t id, const std::string &bytes)
{
    auto entry = findStream(id);
    try {
        std::lock_guard<std::mutex> lock(entry->mutex);
        return entry->stream.append(bytes);
    } catch (const ServiceError &) {
        // Malformed header, overflow, spool I/O: the stream's state
        // is unrecoverable. Drop it so its spool is reclaimed.
        eraseStream(id);
        throw;
    } catch (const workload::TraceError &e) {
        // Garbage record bytes surfaced from a window feed.
        eraseStream(id);
        throw ServiceError("stream " + std::to_string(id) + ": " +
                           e.what());
    }
}

protocol::Reply
BatchService::handleStreamAppend(const std::string &body)
{
    const std::size_t eol = body.find('\n');
    if (eol == std::string::npos)
        throw ServiceError(
            "STREAM-APPEND: missing stream=<id> header line");
    const std::uint64_t id =
        protocol::parseStreamId(body.substr(0, eol), "STREAM-APPEND");
    const TraceStream::AppendInfo info =
        appendToStream(id, body.substr(eol + 1));

    std::ostringstream os;
    os << "received=" << info.received << " records=" << info.records
       << " windows_fed=" << info.windows_fed << "\n";
    return protocol::Reply::success(os.str());
}

void
BatchService::tailLoop(std::uint64_t id, const std::string &path)
{
    std::uint64_t offset = 0;
    std::uint64_t prev_size = 0;
    bool have_prev = false;
    bool seen_file = false;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(shutdown_mutex_);
            if (shutdown_)
                return;
        }
        std::error_code ec;
        const std::uint64_t size =
            std::filesystem::file_size(path, ec);
        if (ec) {
            if (seen_file) {
                // The recording vanished under us; the stream cannot
                // complete, so reclaim it (status polls then report
                // an unknown stream).
                eraseStream(id);
                return;
            }
            // Not created yet: tailing may legitimately start before
            // the recorder's first write. Keep polling.
            std::unique_lock<std::mutex> lock(shutdown_mutex_);
            shutdown_cv_.wait_for(
                lock,
                std::chrono::milliseconds(config_.tail_poll_ms),
                [&] { return shutdown_; });
            if (shutdown_)
                return;
            continue;
        }
        seen_file = true;
        // Stability gate: only bytes that already existed at the
        // previous poll are ingested, so a recorder's half-flushed
        // tail is never fed. A file that stopped growing drains
        // completely on the next poll.
        const std::uint64_t target =
            have_prev ? std::min(size, prev_size) : 0;
        prev_size = size;
        have_prev = true;
        if (target > offset) {
            std::ifstream in(path, std::ios::binary);
            std::string bytes(std::size_t(target - offset), '\0');
            in.seekg(std::streamoff(offset));
            in.read(bytes.data(), std::streamsize(bytes.size()));
            if (!in || std::uint64_t(in.gcount()) != bytes.size()) {
                eraseStream(id);
                return;
            }
            try {
                appendToStream(id, bytes);
            } catch (const ServiceError &e) {
                // Stream discarded (poisoned bytes) or already gone.
                if (config_.verbose)
                    std::fprintf(stderr, "[service] tail of %s: %s\n",
                                 path.c_str(), e.what());
                return;
            }
            offset = target;
        }
        // Stop following once every declared byte is in: the client
        // observes complete=1 via STATUS and issues the CLOSE.
        try {
            const auto entry = findStream(id);
            std::lock_guard<std::mutex> lock(entry->mutex);
            if (entry->stream.complete())
                return;
        } catch (const ServiceError &) {
            return; // closed or discarded under us
        }
        std::unique_lock<std::mutex> lock(shutdown_mutex_);
        shutdown_cv_.wait_for(
            lock, std::chrono::milliseconds(config_.tail_poll_ms),
            [&] { return shutdown_; });
        if (shutdown_)
            return;
    }
}

protocol::Reply
BatchService::handleStreamClose(const std::string &body)
{
    const std::uint64_t id = protocol::parseStreamId(body, "STREAM-CLOSE");
    auto entry = findStream(id);

    TraceStream::CloseInfo info;
    try {
        std::lock_guard<std::mutex> lock(entry->mutex);
        info = entry->stream.close();
    } catch (const workload::TraceError &e) {
        eraseStream(id);
        throw ServiceError("stream " + std::to_string(id) + ": " +
                           e.what());
    }
    // A ServiceError close (incomplete stream, livepoint write
    // failure) propagates WITHOUT erasing: the stream stays open for
    // the missing appends or a retried close.

    cache_.store(info.key, info.result);
    executed_.fetch_add(1);
    eraseStream(id);
    if (config_.verbose)
        std::fprintf(stderr,
                     "[service] stream %llu closed -> key %s "
                     "(%u windows)\n",
                     (unsigned long long)id, info.key.hex().c_str(),
                     info.windows);
    return protocol::Reply::success(
        "key=" + info.key.hex() +
        " windows=" + std::to_string(info.windows) + "\n");
}

protocol::Reply
BatchService::handleStreamStatus(const std::string &body)
{
    const std::uint64_t id = protocol::parseStreamId(body, "STATUS");
    auto entry = findStream(id);
    std::lock_guard<std::mutex> lock(entry->mutex);
    return protocol::Reply::success(entry->stream.statusLine());
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
       << "cells_executed=" << executed_.load()
       << " cells_cached=" << c.cells_cached + cache_hits_.load()
       << " cells_enqueued=" << c.cells_enqueued
       << " cells_deduped=" << c.cells_deduped
       << " queue_depth=" << c.queue_depth << " running=" << c.running
       << " jobs=" << c.jobs_submitted
       << " completed=" << c.jobs_completed
       << " job_failures=" << c.jobs_failed << " spool_processed="
       << (watcher_ ? watcher_->processed() : 0) << "\n";
    return protocol::Reply::success(os.str());
}

} // namespace delorean::service
