#include "service/coordinator.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>

#include "base/logging.hh"
#include "batch/error.hh"
#include "batch/result_io.hh"
#include "checkpoint/livepoint.hh"
#include "service/server.hh"

namespace delorean::service
{

namespace
{

/**
 * Expired leases kept around so a zombie's COMPLETE can still be
 * interpreted (stored if it wins the first write, discarded
 * otherwise). Beyond this, a zombie is acked blind — harmless, the
 * re-lease re-executes.
 */
constexpr std::size_t max_retained_expired = 1024;

/** Split one header line into its space-separated k=v tokens. */
std::vector<std::string>
headerTokens(const std::string &body)
{
    const std::size_t eol = body.find('\n');
    const std::string line =
        eol == std::string::npos ? body : body.substr(0, eol);
    std::vector<std::string> tokens;
    std::istringstream is(line);
    std::string token;
    while (is >> token)
        tokens.push_back(token);
    return tokens;
}

/** The value of the first "<key>=" token, or nullopt. */
std::optional<std::string>
tokenValue(const std::vector<std::string> &tokens,
           const std::string &key)
{
    const std::string prefix = key + "=";
    for (const auto &token : tokens)
        if (token.rfind(prefix, 0) == 0)
            return token.substr(prefix.size());
    return std::nullopt;
}

} // namespace

Coordinator::Coordinator(CoordinatorConfig config)
    : config_(std::move(config)), cache_(config_.cache_dir),
      queue_(cache_, config_.max_ready_units)
{
    if (config_.socket_path.empty())
        throw ServiceError("coordinator: no socket path");
    if (config_.lease_ms == 0)
        throw ServiceError("coordinator: lease period must be non-zero");
    if (config_.close_wait_ms == 0)
        throw ServiceError(
            "coordinator: close wait period must be non-zero");
}

Coordinator::~Coordinator()
{
    for (const auto &[id, stream] : streams_)
        removeStreamArtifacts(stream);
}

void
Coordinator::requestShutdown()
{
    {
        std::lock_guard<std::mutex> lock(shutdown_mutex_);
        shutdown_ = true;
    }
    shutdown_cv_.notify_all();
}

void
Coordinator::run()
{
    SocketServer server(config_.socket_path,
                        [this](const protocol::Request &request,
                               std::uint64_t client) {
                            return handle(request, client);
                        });
    server.start();
    if (config_.verbose)
        std::fprintf(stderr,
                     "[coordinator] listening on %s (cache %s, "
                     "lease %u ms)\n",
                     config_.socket_path.c_str(), cache_.dir().c_str(),
                     config_.lease_ms);
    std::unique_lock<std::mutex> lock(shutdown_mutex_);
    shutdown_cv_.wait(lock, [&] { return shutdown_; });
    // ~SocketServer stops accepting and joins connections.
}

Coordinator::Counters
Coordinator::counters() const
{
    Counters c;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        c = counters_;
    }
    const auto q = queue_.counters();
    c.jobs_submitted = q.jobs_submitted;
    c.jobs_completed = q.jobs_completed;
    c.jobs_failed = q.jobs_failed;
    c.cells_total = q.cells_enqueued + q.cells_deduped + q.cells_cached;
    c.cells_cached = q.cells_cached;
    c.cells_deduped = q.cells_deduped;
    c.units_ready = q.units_queued;
    return c;
}

protocol::Reply
Coordinator::handle(const protocol::Request &request,
                    std::uint64_t client)
{
    switch (request.op) {
      case protocol::Opcode::Submit:
        return handleSubmit(request.body, client);
      case protocol::Opcode::Status:
        return handleStatus(request.body);
      case protocol::Opcode::Result:
        return protocol::resultReply(cache_, request.body);
      case protocol::Opcode::Stats:
        return handleStats();
      case protocol::Opcode::Lease:
        return handleLease(request.body);
      case protocol::Opcode::Renew:
        return handleRenew(request.body);
      case protocol::Opcode::Complete:
        return handleComplete(request.body);
      case protocol::Opcode::Shutdown: {
        protocol::Reply reply{true, "ok\n", nullptr};
        reply.after_send = [this] { requestShutdown(); };
        return reply;
      }
      case protocol::Opcode::ResultPart:
      case protocol::Opcode::ResultEnd:
        // readRequest() rejects these standalone; belt and braces.
        return protocol::Reply::error(
            "continuation frame outside a COMPLETE stream");
      case protocol::Opcode::StreamOpen:
        return handleStreamOpen(request.body);
      case protocol::Opcode::StreamAppend:
        return handleStreamAppend(request.body);
      case protocol::Opcode::StreamClose:
        return handleStreamClose(request.body);
      case protocol::Opcode::StreamLease:
        return handleStreamLease(request.body);
      case protocol::Opcode::StreamHandoff:
        return handleStreamHandoff(request.body);
    }
    return protocol::Reply::error("unhandled opcode");
}

protocol::Reply
Coordinator::handleSubmit(const std::string &body,
                          std::uint64_t client)
{
    const auto submit = protocol::parseSubmit(body);
    const auto plan =
        batch::BatchPlan::fromManifestText(submit.manifest, "submit");

    std::lock_guard<std::mutex> lock(mutex_);
    if (config_.submit_quota != 0 &&
        queue_.inFlight(client) >= config_.submit_quota) {
        ++counters_.quota_rejections;
        return protocol::Reply::error(
            "submit quota exceeded (" +
            std::to_string(config_.submit_quota) +
            " jobs in flight for this connection); retry when one "
            "completes");
    }
    JobSpec spec;
    spec.priority = submit.priority;
    spec.manifest = submit.manifest;
    spec.client = client;
    JobQueue::Admission admitted;
    try {
        admitted = queue_.addJob(plan, std::move(spec));
    } catch (const QueueFull &e) {
        ++counters_.quota_rejections;
        return protocol::Reply::error(std::string("coordinator ") +
                                      e.what());
    }
    if (config_.verbose)
        std::fprintf(stderr, "[coordinator] submit -> job %llu (%zu cells)\n",
                     (unsigned long long)admitted.job,
                     plan.cells().size());
    if (admitted.finished)
        finishJobs({*admitted.finished});

    std::ostringstream os;
    os << "job=" << admitted.job << " cells=" << plan.cells().size()
       << "\n";
    return protocol::Reply::success(os.str());
}

protocol::Reply
Coordinator::handleLease(const std::string &body)
{
    const auto tokens = headerTokens(body);
    const std::string worker =
        tokenValue(tokens, "worker").value_or("");

    std::lock_guard<std::mutex> lock(mutex_);
    sweepExpiredLocked(Clock::now());

    auto unit = queue_.tryPop();
    if (!unit)
        return protocol::Reply::success("none\n");

    Lease lease;
    lease.id = next_lease_++;
    lease.unit = std::move(*unit);
    lease.worker = worker;
    lease.deadline =
        Clock::now() + std::chrono::milliseconds(config_.lease_ms);
    deadlines_.emplace(lease.deadline, lease.id);
    ++counters_.leases_granted;
    ++counters_.units_leased;

    const WorkUnit &leased = lease.unit;
    std::ostringstream os;
    os << "lease=" << lease.id << " deadline-ms=" << config_.lease_ms
       << " job=" << leased.job << " cells=";
    for (std::size_t i = 0; i < leased.size(); ++i)
        os << (i ? "," : "") << leased.indices[i];
    os << " keys=";
    for (std::size_t i = 0; i < leased.size(); ++i)
        os << (i ? "," : "") << leased.cell(i).key.hex();
    os << "\n" << leased.input->manifest;
    if (config_.verbose)
        std::fprintf(stderr,
                     "[coordinator] lease %llu -> %s (job %llu, "
                     "%zu cells)\n",
                     (unsigned long long)lease.id,
                     worker.empty() ? "worker" : worker.c_str(),
                     (unsigned long long)leased.job, leased.size());
    const std::uint64_t lease_id = lease.id;
    leases_.emplace(lease_id, std::move(lease));
    return protocol::Reply::success(os.str());
}

protocol::Reply
Coordinator::handleRenew(const std::string &body)
{
    const auto tokens = headerTokens(body);
    const auto id_text = tokenValue(tokens, "lease");
    if (!id_text)
        return protocol::Reply::error("RENEW: missing lease id");
    const std::uint64_t id = batch::parseCount(*id_text);

    std::lock_guard<std::mutex> lock(mutex_);
    sweepExpiredLocked(Clock::now());
    const auto it = leases_.find(id);
    if (it == leases_.end() || it->second.expired)
        return protocol::Reply::error("RENEW: lease " + *id_text +
                                      " is not active");
    it->second.deadline =
        Clock::now() + std::chrono::milliseconds(config_.lease_ms);
    deadlines_.emplace(it->second.deadline, id);
    ++counters_.leases_renewed;
    return protocol::Reply::success(
        "deadline-ms=" + std::to_string(config_.lease_ms) + "\n");
}

protocol::Reply
Coordinator::handleComplete(const std::string &body)
{
    const auto tokens = headerTokens(body);
    const auto id_text = tokenValue(tokens, "lease");
    const auto status = tokenValue(tokens, "status");
    if (!id_text || !status ||
        (*status != "ok" && *status != "error"))
        return protocol::Reply::error(
            "COMPLETE: malformed header (want lease=<id> "
            "status=ok|error)");
    const std::uint64_t id = batch::parseCount(*id_text);
    const std::size_t eol = body.find('\n');
    const std::string payload =
        eol == std::string::npos ? "" : body.substr(eol + 1);

    std::lock_guard<std::mutex> lock(mutex_);
    sweepExpiredLocked(Clock::now());

    const auto it = leases_.find(id);
    if (it == leases_.end()) {
        // A zombie so stale its lease record is gone. Ack: the
        // worker did nothing wrong, and the work was re-run anyway.
        return protocol::Reply::success("stored=0 discarded=0\n");
    }
    if (it->second.kind != LeaseKind::Cell)
        return protocol::Reply::error(
            "COMPLETE: lease " + *id_text +
            " is a stream lease; use STREAM-HANDOFF");
    Lease lease = std::move(it->second);
    leases_.erase(it);
    if (!lease.expired)
        --counters_.units_leased;

    const WorkUnit &unit = lease.unit;
    std::uint64_t stored = 0, discarded = 0;
    std::vector<Resolution> results(unit.size());
    if (*status == "ok") {
        // Parse every record up front: a malformed payload must not
        // resolve a prefix of the unit and then fail the rest.
        std::vector<sampling::MethodResult> records;
        try {
            std::istringstream is(payload, std::ios::binary);
            for (std::size_t i = 0; i < unit.size(); ++i)
                records.push_back(
                    batch::readMethodResult(is, /*expect_end=*/false));
            if (is.peek() != std::char_traits<char>::eof())
                throw batch::BatchError(
                    "trailing bytes after the last record");
        } catch (const batch::BatchError &e) {
            if (!lease.expired) {
                for (auto &result : results)
                    result = {false, false,
                              std::string("worker returned a malformed "
                                          "result payload: ") +
                                  e.what()};
                finishJobs(queue_.complete(unit, results));
            }
            return protocol::Reply::error(
                std::string("COMPLETE: malformed payload: ") +
                e.what());
        }
        for (std::size_t i = 0; i < unit.size(); ++i) {
            const batch::CacheKey &key = unit.cell(i).key;
            if (!queue_.pending(key)) {
                // First write won already: ack and discard (the
                // zombie-duplicate contract).
                ++discarded;
                ++counters_.results_discarded;
                continue;
            }
            cache_.store(key, records[i]);
            ++stored;
            ++counters_.results_stored;
            results[i].executed = true;
            // A zombie's unit was already re-queued: resolve its keys
            // one by one; an active lease completes as a whole below.
            if (lease.expired)
                finishJobs(queue_.resolve(key, results[i]));
        }
        if (!lease.expired)
            finishJobs(queue_.complete(unit, results));
    } else if (!lease.expired) {
        // Execution failed on the worker. Only an *active* lease may
        // fail cells — a zombie's error must not poison a re-lease
        // that might still succeed.
        for (auto &result : results)
            result = {false, false, payload};
        finishJobs(queue_.complete(unit, results));
    } else {
        discarded += unit.size();
        counters_.results_discarded += unit.size();
    }
    if (config_.verbose)
        std::fprintf(stderr,
                     "[coordinator] complete lease %llu: %s "
                     "stored=%llu discarded=%llu\n",
                     (unsigned long long)id, status->c_str(),
                     (unsigned long long)stored,
                     (unsigned long long)discarded);
    return protocol::Reply::success(
        "stored=" + std::to_string(stored) +
        " discarded=" + std::to_string(discarded) + "\n");
}

void
Coordinator::sweepExpiredLocked(Clock::time_point now)
{
    while (!deadlines_.empty() && deadlines_.top().first <= now) {
        const auto [deadline, id] = deadlines_.top();
        deadlines_.pop();
        const auto it = leases_.find(id);
        if (it == leases_.end() || it->second.expired ||
            it->second.deadline != deadline)
            continue; // completed, already expired, or renewed
        Lease &lease = it->second;
        lease.expired = true;
        ++counters_.leases_expired;
        if (config_.verbose)
            std::fprintf(stderr,
                         "[coordinator] lease %llu expired; "
                         "re-queueing\n",
                         (unsigned long long)id);

        if (lease.kind == LeaseKind::Stream) {
            // The stream becomes leasable again from its committed
            // prefix. The record stays (bounded) so the zombie's
            // eventual handoff is understood — and can even win the
            // commit if it strictly extends the prefix.
            const auto st = streams_.find(lease.stream);
            if (st != streams_.end() && st->second.leased &&
                st->second.lease_id == id)
                st->second.leased = false;
            retainExpiredLocked(id);
            continue;
        }
        --counters_.units_leased;

        // Re-queue what is still unresolved; the lease record stays
        // (bounded) so the zombie's eventual COMPLETE is understood.
        queue_.requeue(lease.unit);
        retainExpiredLocked(id);
    }
}

void
Coordinator::retainExpiredLocked(std::uint64_t id)
{
    expired_order_.push_back(id);
    while (expired_order_.size() > max_retained_expired) {
        const std::uint64_t old = expired_order_.front();
        expired_order_.pop_front();
        const auto ot = leases_.find(old);
        if (ot != leases_.end() && ot->second.expired)
            leases_.erase(ot);
    }
}

void
Coordinator::finishJobs(const std::vector<FinishedJob> &finished)
{
    for (const auto &job : finished) {
        cache_.recordRun(job.executed, job.cached);
        if (config_.verbose)
            std::fprintf(stderr,
                         "[coordinator] job %llu %s: executed=%llu "
                         "cached=%llu failed=%zu\n",
                         (unsigned long long)job.status.id,
                         job.status.state(),
                         (unsigned long long)job.executed,
                         (unsigned long long)job.cached,
                         job.status.failed);
    }
}

protocol::Reply
Coordinator::handleStatus(const std::string &body)
{
    if (body.rfind("stream=", 0) == 0) {
        const std::uint64_t id = protocol::parseStreamId(body, "STATUS");
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = streams_.find(id);
        if (it == streams_.end())
            return protocol::Reply::error("unknown stream " +
                                          std::to_string(id));
        const FleetStream &s = it->second;
        return protocol::Reply::success(streamStatusLine(
            id, s.spool->records(), s.committed,
            s.config.schedule.num_regions, s.est_cpi, s.ci_error,
            s.mpki, s.spool->complete(), s.mrc));
    }
    if (!body.empty()) {
        const auto job = queue_.job(batch::parseCount(body));
        if (!job)
            return protocol::Reply::error("unknown job " + body);
        return protocol::Reply::success(jobStatusLine(*job));
    }
    std::ostringstream os;
    const Counters c = counters();
    os << "jobs=" << c.jobs_submitted
       << " completed=" << c.jobs_completed
       << " job_failures=" << c.jobs_failed
       << " units_ready=" << c.units_ready
       << " units_leased=" << c.units_leased
       << " leases_granted=" << c.leases_granted
       << " leases_expired=" << c.leases_expired
       << " cells_total=" << c.cells_total
       << " cells_cached=" << c.cells_cached
       << " cells_deduped=" << c.cells_deduped
       << " streams=" << c.streams_opened
       << " stream_leases=" << c.stream_leases
       << " stream_windows=" << c.stream_windows
       << " streams_finished=" << c.streams_finished
       << " streams_failed=" << c.streams_failed << "\n";
    for (const auto &job : queue_.jobs())
        os << jobStatusLine(job);
    return protocol::Reply::success(os.str());
}

protocol::Reply
Coordinator::handleStats()
{
    const auto stats = cache_.stats();
    const Counters c = counters();
    std::ostringstream os;
    os << "last_run_executed=" << stats.last_run_executed
       << " last_run_cached=" << stats.last_run_cached
       << " total_executed=" << stats.total_executed
       << " total_cached=" << stats.total_cached << "\n"
       << "jobs=" << c.jobs_submitted
       << " completed=" << c.jobs_completed
       << " job_failures=" << c.jobs_failed
       << " cells_total=" << c.cells_total
       << " cells_cached=" << c.cells_cached
       << " cells_deduped=" << c.cells_deduped
       << " units_ready=" << c.units_ready
       << " units_leased=" << c.units_leased
       << " leases_granted=" << c.leases_granted
       << " leases_renewed=" << c.leases_renewed
       << " leases_expired=" << c.leases_expired
       << " results_stored=" << c.results_stored
       << " results_discarded=" << c.results_discarded
       << " quota_rejections=" << c.quota_rejections
       << " streams=" << c.streams_opened
       << " stream_leases=" << c.stream_leases
       << " stream_handoffs=" << c.stream_handoffs
       << " stream_windows=" << c.stream_windows
       << " streams_finished=" << c.streams_finished
       << " streams_failed=" << c.streams_failed << "\n";
    return protocol::Reply::success(os.str());
}

void
Coordinator::removeStreamArtifacts(const FleetStream &stream)
{
    // The committed prefix plus any orphaned worker prefixes share
    // the "<spool>.lvp" name prefix; the spool file itself is removed
    // by ~TraceSpool.
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path spool(stream.spool->path());
    const std::string stem = spool.filename().string() + ".lvp";
    for (const auto &entry : fs::directory_iterator(
             spool.parent_path(), ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind(stem, 0) == 0)
            fs::remove(entry.path(), ec);
    }
}

protocol::Reply
Coordinator::handleStreamOpen(const std::string &body)
{
    if (body.rfind("tail=", 0) == 0)
        return protocol::Reply::error(
            "STREAM-OPEN: tail following reads a local file; it needs "
            "a batch service ('batch_service serve'), not a fleet "
            "coordinator");

    const std::string dir = cache_.dir() + "/fleet-streams";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        throw ServiceError("STREAM-OPEN: cannot create spool "
                           "directory '" + dir + "': " + ec.message());

    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t id = ++next_stream_;
    FleetStream stream;
    stream.id = id;
    stream.directives = body;
    stream.config = streamConfig(id, body, 1);
    stream.spool = std::make_unique<TraceSpool>(
        id, dir + "/" + std::to_string(id) + ".dlt",
        stream.config.schedule.totalInstructions());
    ++counters_.streams_opened;
    streams_.emplace(id, std::move(stream));
    if (config_.verbose)
        std::fprintf(stderr, "[coordinator] stream %llu opened\n",
                     (unsigned long long)id);
    return protocol::Reply::success("stream=" + std::to_string(id) +
                                    "\n");
}

protocol::Reply
Coordinator::handleStreamAppend(const std::string &body)
{
    const std::size_t eol = body.find('\n');
    if (eol == std::string::npos)
        throw ServiceError(
            "STREAM-APPEND: missing stream=<id> header line");
    const std::uint64_t id =
        protocol::parseStreamId(body.substr(0, eol), "STREAM-APPEND");

    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = streams_.find(id);
    if (it == streams_.end())
        return protocol::Reply::error("unknown stream " +
                                      std::to_string(id));
    FleetStream &stream = it->second;
    if (stream.failed) {
        // A worker failed the stream since the last append; surface
        // that now and reclaim the stream.
        const std::string error = stream.error;
        removeStreamArtifacts(stream);
        streams_.erase(it);
        streams_cv_.notify_all();
        return protocol::Reply::error("stream " + std::to_string(id) +
                                      ": " + error);
    }
    if (stream.closing)
        return protocol::Reply::error("stream " + std::to_string(id) +
                                      " is closing");
    try {
        stream.spool->append(body.substr(eol + 1));
    } catch (const ServiceError &) {
        // Malformed header, overflow, spool I/O: the stream's state
        // is unrecoverable. Drop it so its spool is reclaimed; an
        // outstanding lease's handoff finds the stream gone and is
        // acked-and-discarded.
        removeStreamArtifacts(stream);
        streams_.erase(it);
        streams_cv_.notify_all();
        throw;
    }

    std::ostringstream os;
    os << "received=" << stream.spool->received()
       << " records=" << stream.spool->records()
       << " windows_fed=" << stream.committed << "\n";
    return protocol::Reply::success(os.str());
}

protocol::Reply
Coordinator::handleStreamClose(const std::string &body)
{
    const std::uint64_t id = protocol::parseStreamId(body, "STREAM-CLOSE");

    std::unique_lock<std::mutex> lock(mutex_);
    {
        const auto it = streams_.find(id);
        if (it == streams_.end())
            return protocol::Reply::error("unknown stream " +
                                          std::to_string(id));
        // Incomplete bytes are the client's error and leave the
        // stream open, exactly like the local service.
        it->second.spool->requireComplete();
        it->second.spool->flush();
        it->second.closing = true;
    }

    // The finish lease is now grantable; wait for its handoff.
    const bool settled = streams_cv_.wait_for(
        lock, std::chrono::milliseconds(config_.close_wait_ms), [&] {
            const auto it = streams_.find(id);
            return it == streams_.end() || it->second.finished ||
                   it->second.failed;
        });
    const auto it = streams_.find(id);
    if (it == streams_.end())
        return protocol::Reply::error("stream " + std::to_string(id) +
                                      " was discarded during close");
    if (!settled)
        return protocol::Reply::error(
            "STREAM-CLOSE: timed out after " +
            std::to_string(config_.close_wait_ms) +
            " ms waiting for the fleet to finish stream " +
            std::to_string(id) + "; retry");
    if (it->second.failed) {
        auto node = streams_.extract(it);
        lock.unlock();
        removeStreamArtifacts(node.mapped());
        return protocol::Reply::error("stream " + std::to_string(id) +
                                      ": " + node.mapped().error);
    }

    // Finished: the stream is ours now. Compute the content key
    // outside the lock — it digests the whole spool, and the spool is
    // byte-identical to the trace the client streamed, so the key
    // equals an offline run's key for the original file.
    auto node = streams_.extract(it);
    lock.unlock();
    FleetStream &stream = node.mapped();
    std::string manifest = stream.directives;
    if (!manifest.empty() && manifest.back() != '\n')
        manifest += '\n';
    manifest += "workload file:" + stream.spool->path() + "\n";
    batch::CacheKey key;
    try {
        const batch::BatchPlan plan = batch::BatchPlan::fromManifestText(
            manifest, "stream-" + std::to_string(id));
        key = plan.cells().at(0).key;
    } catch (const batch::BatchError &e) {
        removeStreamArtifacts(stream);
        throw ServiceError("stream " + std::to_string(id) + ": " +
                           e.what());
    }
    cache_.store(key, stream.result);
    removeStreamArtifacts(stream);
    if (config_.verbose)
        std::fprintf(stderr,
                     "[coordinator] stream %llu closed -> key %s "
                     "(%u windows)\n",
                     (unsigned long long)id, key.hex().c_str(),
                     stream.windows);
    return protocol::Reply::success(
        "key=" + key.hex() +
        " windows=" + std::to_string(stream.windows) + "\n");
}

protocol::Reply
Coordinator::handleStreamLease(const std::string &body)
{
    const auto tokens = headerTokens(body);
    const std::string worker =
        tokenValue(tokens, "worker").value_or("");

    std::lock_guard<std::mutex> lock(mutex_);
    sweepExpiredLocked(Clock::now());

    for (auto &[sid, stream] : streams_) {
        if (stream.leased || stream.finished || stream.failed)
            continue;
        if (!stream.spool->headerDone())
            continue;
        const auto &sched = stream.config.schedule;
        const unsigned feedable = unsigned(std::min<std::uint64_t>(
            sched.num_regions, stream.spool->records() / sched.spacing));
        const bool finish = stream.closing && stream.spool->complete();
        if (!finish && feedable <= stream.committed)
            continue;
        const unsigned to = finish ? sched.num_regions : feedable;

        stream.spool->flush();
        Lease lease;
        lease.id = next_lease_++;
        lease.kind = LeaseKind::Stream;
        lease.worker = worker;
        lease.stream = sid;
        lease.from = stream.committed;
        lease.to = to;
        lease.finish = finish;
        lease.deadline =
            Clock::now() + std::chrono::milliseconds(config_.lease_ms);
        deadlines_.emplace(lease.deadline, lease.id);
        stream.leased = true;
        stream.lease_id = lease.id;
        ++counters_.stream_leases;

        std::ostringstream os;
        os << "lease=" << lease.id
           << " deadline-ms=" << config_.lease_ms << " stream=" << sid
           << " from=" << lease.from << " to=" << lease.to
           << " finish=" << (finish ? 1 : 0)
           << " records=" << stream.spool->records()
           << " trace=" << stream.spool->path() << " prefix="
           << (stream.committed > 0 ? stream.prefix_path : "-") << "\n"
           << stream.directives;
        if (config_.verbose)
            std::fprintf(stderr,
                         "[coordinator] stream lease %llu -> %s "
                         "(stream %llu, windows [%u, %u)%s)\n",
                         (unsigned long long)lease.id,
                         worker.empty() ? "worker" : worker.c_str(),
                         (unsigned long long)sid, lease.from, lease.to,
                         finish ? ", finish" : "");
        const std::uint64_t lease_id = lease.id;
        leases_.emplace(lease_id, std::move(lease));
        return protocol::Reply::success(os.str());
    }
    return protocol::Reply::success("none\n");
}

protocol::Reply
Coordinator::handleStreamHandoff(const std::string &body)
{
    const auto tokens = headerTokens(body);
    const auto id_text = tokenValue(tokens, "lease");
    const auto status = tokenValue(tokens, "status");
    if (!id_text || !status ||
        (*status != "ok" && *status != "error"))
        return protocol::Reply::error(
            "STREAM-HANDOFF: malformed header (want lease=<id> "
            "status=ok|error)");
    const std::uint64_t id = batch::parseCount(*id_text);
    const std::string prefix =
        tokenValue(tokens, "prefix").value_or("-");
    const std::string mrc = tokenValue(tokens, "mrc").value_or("");
    const std::size_t eol = body.find('\n');
    const std::string payload =
        eol == std::string::npos ? "" : body.substr(eol + 1);

    // A handoff the coordinator does not commit must not leak the
    // worker's prefix file.
    const auto dropPrefix = [&] {
        if (prefix != "-")
            std::remove(prefix.c_str());
    };

    std::lock_guard<std::mutex> lock(mutex_);
    sweepExpiredLocked(Clock::now());
    ++counters_.stream_handoffs;

    const auto lt = leases_.find(id);
    if (lt == leases_.end()) {
        // A zombie so stale its lease record is gone; the stream was
        // re-run anyway.
        dropPrefix();
        return protocol::Reply::success(
            "committed=0 stored=0 discarded=1\n");
    }
    if (lt->second.kind != LeaseKind::Stream)
        return protocol::Reply::error(
            "STREAM-HANDOFF: lease " + *id_text +
            " is a work-unit lease; use COMPLETE");
    const Lease lease = std::move(lt->second);
    leases_.erase(lt);

    const auto st = streams_.find(lease.stream);
    if (st == streams_.end()) {
        dropPrefix();
        return protocol::Reply::success(
            "committed=0 stored=0 discarded=1\n");
    }
    FleetStream &stream = st->second;
    if (stream.leased && stream.lease_id == id)
        stream.leased = false;

    const auto ack = [&](std::uint64_t stored,
                         std::uint64_t discarded) {
        return protocol::Reply::success(
            "committed=" + std::to_string(stream.committed) +
            " stored=" + std::to_string(stored) +
            " discarded=" + std::to_string(discarded) + "\n");
    };

    if (*status == "error") {
        dropPrefix();
        // Only an *active* lease may fail the stream — a zombie's
        // error must not poison a re-lease that might still succeed.
        if (!lease.expired && !stream.finished && !stream.failed) {
            stream.failed = true;
            stream.error = payload.empty()
                               ? "worker reported an execution error"
                               : payload;
            ++counters_.streams_failed;
            streams_cv_.notify_all();
            return ack(0, 0);
        }
        return ack(0, 1);
    }

    if (stream.finished || stream.failed) {
        dropPrefix();
        return ack(0, 1);
    }

    // Parsed only now, so a bad number fails this handoff alone: the
    // lease is spent and the stream is leasable again.
    unsigned windows = 0;
    double est_cpi = 0.0, ci_error = 0.0, mpki = 0.0;
    try {
        if (const auto text = tokenValue(tokens, "windows"))
            windows = batch::parseU32(*text);
        if (const auto text = tokenValue(tokens, "est_cpi"))
            est_cpi = batch::parseReal(*text);
        if (const auto text = tokenValue(tokens, "ci_error"))
            ci_error = batch::parseReal(*text);
        if (const auto text = tokenValue(tokens, "mpki"))
            mpki = batch::parseReal(*text);
    } catch (const batch::BatchError &e) {
        dropPrefix();
        return protocol::Reply::error(
            std::string("STREAM-HANDOFF: malformed header: ") + e.what());
    }

    if (lease.finish) {
        dropPrefix();
        if (windows != stream.config.schedule.num_regions)
            return protocol::Reply::error(
                "STREAM-HANDOFF: finish handoff covers " +
                std::to_string(windows) + " of " +
                std::to_string(stream.config.schedule.num_regions) +
                " windows");
        sampling::MethodResult result;
        try {
            std::istringstream is(payload, std::ios::binary);
            result = batch::readMethodResult(is);
        } catch (const batch::BatchError &e) {
            // The stream stays leasable; another worker can finish.
            return protocol::Reply::error(
                std::string("STREAM-HANDOFF: malformed result "
                            "payload: ") +
                e.what());
        }
        counters_.stream_windows += windows - stream.committed;
        stream.committed = windows;
        stream.result = std::move(result);
        stream.finished = true;
        stream.windows = windows;
        stream.est_cpi = est_cpi;
        stream.ci_error = ci_error;
        stream.mpki = mpki;
        stream.mrc = mrc;
        ++counters_.streams_finished;
        streams_cv_.notify_all();
        if (config_.verbose)
            std::fprintf(stderr,
                         "[coordinator] stream %llu finished by "
                         "lease %llu\n",
                         (unsigned long long)lease.stream,
                         (unsigned long long)id);
        return ack(1, 0);
    }

    // Prefix handoff: first write per window count wins. Accept any
    // strict extension of the committed prefix — even from an expired
    // lease: a window's warm state is a pure function of the trace
    // bytes and the config, so duplicates are bit-identical.
    if (windows <= stream.committed) {
        dropPrefix();
        return ack(0, 1);
    }
    if (prefix == "-")
        return protocol::Reply::error(
            "STREAM-HANDOFF: prefix handoff without a prefix file");
    try {
        const auto warm = checkpoint::loadPrefixForRun(
            "stream:" + std::to_string(lease.stream), stream.config,
            prefix);
        if (warm.size() != windows)
            throw checkpoint::CheckpointError(
                "prefix file covers " + std::to_string(warm.size()) +
                " windows, header claims " + std::to_string(windows));
    } catch (const checkpoint::CheckpointError &e) {
        dropPrefix();
        // The stream stays leasable from the old prefix.
        return protocol::Reply::error(
            std::string("STREAM-HANDOFF: invalid prefix: ") + e.what());
    }
    const std::string dest = stream.spool->path() + ".lvp";
    if (std::rename(prefix.c_str(), dest.c_str()) != 0) {
        dropPrefix();
        return protocol::Reply::error(
            "STREAM-HANDOFF: cannot install prefix file '" + prefix +
            "'");
    }
    counters_.stream_windows += windows - stream.committed;
    stream.committed = windows;
    stream.prefix_path = dest;
    stream.est_cpi = est_cpi;
    stream.ci_error = ci_error;
    stream.mpki = mpki;
    stream.mrc = mrc;
    if (config_.verbose)
        std::fprintf(stderr,
                     "[coordinator] stream %llu prefix -> %u windows "
                     "(lease %llu%s)\n",
                     (unsigned long long)lease.stream, windows,
                     (unsigned long long)id,
                     lease.expired ? ", zombie won" : "");
    return ack(1, 0);
}

} // namespace delorean::service
