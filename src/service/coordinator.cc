#include "service/coordinator.hh"

#include <cstdio>
#include <sstream>

#include "base/logging.hh"
#include "batch/error.hh"
#include "batch/result_io.hh"
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

} // namespace

Coordinator::Coordinator(CoordinatorConfig config)
    : config_(std::move(config)), cache_(config_.cache_dir),
      queue_(cache_, config_.max_ready_units),
      // A daemon may share this cache directory: distinct spools.
      streams_(cache_, {.spool_dir = cache_.dir() + "/fleet-streams",
                        .source = WindowSource::Leased,
                        .tag = "coordinator",
                        .verbose = config_.verbose})
{
    if (config_.socket_path.empty())
        throw ServiceError("coordinator: no socket path");
    if (config_.lease_ms == 0)
        throw ServiceError("coordinator: lease period must be non-zero");
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
    // Release CLOSEs waiting for the fleet, so ~SocketServer can stop
    // accepting and join connections.
    streams_.stop();
}

Coordinator::Counters
Coordinator::counters() const
{
    Counters c;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        c = counters_;
    }
    const auto s = streams_.counters();
    c.streams_opened = s.opened;
    c.stream_windows = s.windows;
    c.streams_finished = s.finished;
    c.streams_failed = s.failed;
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
        return streams_.open(request.body);
      case protocol::Opcode::StreamAppend:
        return streams_.append(request.body);
      case protocol::Opcode::StreamClose:
        return streams_.close(request.body);
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
    const auto tokens = protocol::headerTokens(body);
    const std::string worker =
        protocol::tokenValue(tokens, "worker").value_or("");

    std::lock_guard<std::mutex> lock(mutex_);
    sweepExpiredLocked(Clock::now());

    auto unit = queue_.tryPop();
    if (!unit)
        return protocol::Reply::success("none\n");

    Lease lease;
    lease.id = next_lease_++;
    lease.unit = std::move(*unit);
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
    const auto tokens = protocol::headerTokens(body);
    const auto id_text = protocol::tokenValue(tokens, "lease");
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
    const auto tokens = protocol::headerTokens(body);
    const auto id_text = protocol::tokenValue(tokens, "lease");
    const auto status = protocol::tokenValue(tokens, "status");
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
            streams_.release(lease.stream, id);
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
    if (body.rfind("stream=", 0) == 0)
        return streams_.status(body);
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

protocol::Reply
Coordinator::handleStreamLease(const std::string &body)
{
    const std::string worker =
        protocol::tokenValue(protocol::headerTokens(body), "worker")
            .value_or("");

    std::lock_guard<std::mutex> lock(mutex_);
    sweepExpiredLocked(Clock::now());

    const auto grant = streams_.grant(next_lease_, worker);
    if (!grant)
        return protocol::Reply::success("none\n");
    Lease lease;
    lease.id = next_lease_++;
    lease.kind = LeaseKind::Stream;
    lease.stream = grant->stream;
    lease.finish = grant->finish;
    lease.deadline =
        Clock::now() + std::chrono::milliseconds(config_.lease_ms);
    deadlines_.emplace(lease.deadline, lease.id);
    ++counters_.stream_leases;
    const std::uint64_t lease_id = lease.id;
    leases_.emplace(lease_id, std::move(lease));
    return protocol::Reply::success(
        "lease=" + std::to_string(lease_id) + " deadline-ms=" +
        std::to_string(config_.lease_ms) + " " + grant->reply);
}

protocol::Reply
Coordinator::handleStreamHandoff(const std::string &body)
{
    const auto tokens = protocol::headerTokens(body);
    const auto id_text = protocol::tokenValue(tokens, "lease");
    const auto status = protocol::tokenValue(tokens, "status");
    if (!id_text || !status ||
        (*status != "ok" && *status != "error"))
        return protocol::Reply::error(
            "STREAM-HANDOFF: malformed header (want lease=<id> "
            "status=ok|error)");
    const std::uint64_t id = batch::parseCount(*id_text);

    // A lease record so stale it is gone keeps stream 0, which names
    // no stream: the handoff is acked as discarded (the stream was
    // re-run anyway).
    Lease lease;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        sweepExpiredLocked(Clock::now());
        ++counters_.stream_handoffs;
        const auto lt = leases_.find(id);
        if (lt != leases_.end()) {
            if (lt->second.kind != LeaseKind::Stream)
                return protocol::Reply::error(
                    "STREAM-HANDOFF: lease " + *id_text +
                    " is a work-unit lease; use COMPLETE");
            lease = std::move(lt->second);
            leases_.erase(lt);
        }
    }
    return streams_.handoff(lease.stream, id, lease.expired, lease.finish,
                            body);
}

} // namespace delorean::service
