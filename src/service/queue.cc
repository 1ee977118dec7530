#include "service/queue.hh"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "batch/error.hh"
#include "batch/runner.hh"
#include "service/protocol.hh"

namespace delorean::service
{

namespace
{

/**
 * Heap order: highest priority first, lowest sequence number (oldest)
 * within a priority. std::push_heap builds a max-heap on this "less
 * than" relation, so a is below b when b has strictly higher priority
 * or the same priority and an earlier arrival.
 */
bool
unitBelow(const WorkUnit &a, const WorkUnit &b)
{
    if (a.priority != b.priority)
        return a.priority < b.priority;
    return a.seq > b.seq;
}

} // namespace

std::vector<const batch::BatchCell *>
WorkUnit::cells() const
{
    std::vector<const batch::BatchCell *> out;
    out.reserve(indices.size());
    for (const std::size_t i : indices)
        out.push_back(&input->plan.cells()[i]);
    return out;
}

std::string
jobStatusLine(const JobStatus &status)
{
    std::ostringstream os;
    os << "job=" << status.id << " state=" << status.state()
       << " cells=" << status.cells << " done=" << status.done
       << " failed=" << status.failed
       << " priority=" << status.priority << " source="
       << (status.source == JobSource::Socket ? "socket" : "spool")
       << " name=" << status.name << "\n";
    if (!status.first_error.empty())
        os << "  error: " << status.first_error << "\n";
    return os.str();
}

JobStatus
parseJobStatusLine(const std::string &text)
{
    const std::size_t eol = text.find('\n');
    std::string line =
        eol == std::string::npos ? text : text.substr(0, eol);

    JobStatus status;
    // The name echoes a client-controlled string that may contain
    // spaces (or even key=value lookalikes), so split it off before
    // tokenizing: every token ahead of it is space-free, which makes
    // the *first* " name=" the genuine marker.
    const std::size_t name_at = line.find(" name=");
    if (name_at == std::string::npos)
        throw ServiceError("STATUS: no name= in job line '" + line +
                           "'");
    status.name = line.substr(name_at + 6);
    line.resize(name_at);

    std::string state;
    bool have_job = false, have_state = false;
    bool have_cells = false, have_done = false;
    try {
        std::istringstream is(line);
        std::string token;
        while (is >> token) {
            if (token.rfind("job=", 0) == 0) {
                status.id = batch::parseCount(token.substr(4));
                have_job = true;
            } else if (token.rfind("state=", 0) == 0) {
                state = token.substr(6);
                have_state = true;
            } else if (token.rfind("cells=", 0) == 0) {
                status.cells =
                    std::size_t(batch::parseCount(token.substr(6)));
                have_cells = true;
            } else if (token.rfind("done=", 0) == 0) {
                status.done =
                    std::size_t(batch::parseCount(token.substr(5)));
                have_done = true;
            } else if (token.rfind("failed=", 0) == 0) {
                status.failed =
                    std::size_t(batch::parseCount(token.substr(7)));
            } else if (token.rfind("priority=", 0) == 0) {
                status.priority =
                    int(batch::parseCount(token.substr(9)));
            } else if (token.rfind("source=", 0) == 0) {
                const std::string v = token.substr(7);
                if (v == "socket")
                    status.source = JobSource::Socket;
                else if (v == "spool")
                    status.source = JobSource::Spool;
                else
                    throw batch::BatchError("unknown source '" + v +
                                            "'");
            }
        }
    } catch (const batch::BatchError &e) {
        throw ServiceError("STATUS: malformed job line '" + line +
                           "': " + e.what());
    }
    if (!have_job || !have_state || !have_cells || !have_done)
        throw ServiceError("STATUS: malformed job line '" + line +
                           "'");
    // The state token is redundant with the counters; insisting they
    // agree catches truncated or reassembled lines that still happen
    // to tokenize.
    if (state != status.state())
        throw ServiceError("STATUS: job line state '" + state +
                           "' contradicts its counters ('" +
                           status.state() + "')");

    if (eol != std::string::npos && eol + 1 < text.size()) {
        const std::string rest = text.substr(eol + 1);
        if (rest.rfind("  error: ", 0) != 0)
            throw ServiceError(
                "STATUS: unexpected job continuation '" + rest + "'");
        status.first_error = rest.substr(9);
        if (!status.first_error.empty() &&
            status.first_error.back() == '\n')
            status.first_error.pop_back();
    }
    return status;
}

JobQueue::JobQueue(const batch::ResultCache &cache,
                   std::size_t max_queued_units)
    : cache_(cache), max_queued_units_(max_queued_units)
{}

JobQueue::Admission
JobQueue::addJob(const batch::BatchPlan &plan, JobSpec spec)
{
    const auto &cells = plan.cells();
    // Probe the cache before taking the lock, so disk reads never
    // stall pops and completions. A hit stays a hit; a miss that turns
    // into a hit meanwhile only costs a unit whose runner probes again.
    std::vector<bool> hit(cells.size(), false);
    for (std::size_t i = 0; i < cells.size(); ++i)
        hit[i] = cache_.load(cells[i].key).has_value();

    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_)
        throw ServiceError("service is shutting down");

    // Classify every cell before mutating anything, so a backlog
    // refusal leaves no half-registered job behind.
    std::vector<bool> attach(cells.size(), false);
    std::vector<const batch::BatchCell *> fresh;
    std::unordered_set<std::string> fresh_hexes;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string hex = cells[i].key.hex();
        if (pending_.count(hex) || fresh_hexes.count(hex))
            attach[i] = true;
        else if (!hit[i]) {
            fresh_hexes.insert(hex);
            fresh.push_back(&cells[i]);
        }
    }
    const auto units = batch::planWorkUnits(fresh);
    if (heap_.size() + units.size() > max_queued_units_)
        throw QueueFull("backlog full (" + std::to_string(heap_.size()) +
                        " units awaiting workers); retry later");

    const std::uint64_t id = next_job_++;
    JobRecord &job = jobs_[id];
    job.status.id = id;
    job.status.name = std::move(spec.name);
    job.status.source = spec.source;
    job.status.priority = spec.priority;
    job.status.cells = cells.size();
    job.spool_path = std::move(spec.spool_path);
    job.client = spec.client;
    job_order_.push_back(id);
    ++counters_.jobs_submitted;

    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (hit[i] && !attach[i]) {
            ++job.status.done;
            ++job.cached;
            ++counters_.cells_cached;
            continue;
        }
        // Fresh and attached cells alike wait on the key: one
        // execution serves every submitter.
        pending_[cells[i].key.hex()].push_back(id);
        if (attach[i])
            ++counters_.cells_deduped;
    }

    // Only jobs that own a unit keep a copy of their input.
    const auto input = units.empty()
                           ? nullptr
                           : std::make_shared<const JobInput>(JobInput{
                                 plan, std::move(spec.manifest)});
    for (const auto &members : units) {
        WorkUnit unit;
        unit.job = id;
        unit.input = input;
        unit.priority = spec.priority;
        unit.seq = next_seq_++;
        for (const std::size_t j : members)
            unit.indices.push_back(fresh[j]->index);
        counters_.cells_enqueued += unit.size();
        ++counters_.units_enqueued;
        pushUnitLocked(std::move(unit));
    }

    ++in_flight_[job.client];
    Admission admission;
    admission.job = id;
    if (job.status.complete()) {
        std::vector<FinishedJob> finished;
        finishLocked(job, finished);
        admission.finished = std::move(finished.front());
    }
    if (units.size() == 1)
        ready_.notify_one();
    else if (units.size() > 1)
        ready_.notify_all();
    return admission;
}

void
JobQueue::pushUnitLocked(WorkUnit unit)
{
    counters_.queue_depth += unit.size();
    heap_.push_back(std::move(unit));
    std::push_heap(heap_.begin(), heap_.end(), unitBelow);
    counters_.units_queued = heap_.size();
}

std::optional<WorkUnit>
JobQueue::popLocked()
{
    while (!heap_.empty()) {
        std::pop_heap(heap_.begin(), heap_.end(), unitBelow);
        WorkUnit unit = std::move(heap_.back());
        heap_.pop_back();
        counters_.units_queued = heap_.size();
        counters_.queue_depth -= unit.size();
        // Drop members resolved while queued (a late fleet result
        // that won the first write).
        std::erase_if(unit.indices, [&](std::size_t i) {
            return !pending_.count(unit.input->plan.cells()[i].key.hex());
        });
        if (unit.indices.empty())
            continue;
        counters_.running += unit.size();
        return unit;
    }
    return std::nullopt;
}

std::optional<WorkUnit>
JobQueue::pop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        ++idle_;
        ready_.wait(lock, [&] { return closed_ || !heap_.empty(); });
        --idle_;
        if (heap_.empty())
            return std::nullopt; // closed and drained (or abandoned)
        if (auto unit = popLocked()) {
            splitForIdleLocked(*unit);
            return unit;
        }
    }
}

void
JobQueue::splitForIdleLocked(WorkUnit &unit)
{
    // Idle threads beyond the queued units would otherwise wait while
    // this one runs every member alone.
    if (unit.size() < 2 || idle_ <= heap_.size())
        return;
    const std::size_t share = idle_ - heap_.size() + 1;
    const std::size_t keep = (unit.size() + share - 1) / share;
    WorkUnit rest = unit;
    rest.indices.erase(rest.indices.begin(),
                       rest.indices.begin() + std::ptrdiff_t(keep));
    unit.indices.resize(keep);
    counters_.running -= rest.size();
    // Same priority and sequence number: the rest keeps the unit's
    // place at the head of the queue.
    pushUnitLocked(std::move(rest));
    ready_.notify_one();
}

std::optional<WorkUnit>
JobQueue::tryPop()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return popLocked();
}

std::vector<FinishedJob>
JobQueue::complete(const WorkUnit &unit,
                   const std::vector<Resolution> &results)
{
    std::vector<FinishedJob> finished;
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.running -= unit.size();
    for (std::size_t i = 0; i < unit.size(); ++i)
        resolveLocked(unit.cell(i).key.hex(), results.at(i), finished);
    return finished;
}

std::vector<FinishedJob>
JobQueue::resolve(const batch::CacheKey &key, const Resolution &result)
{
    std::vector<FinishedJob> finished;
    std::lock_guard<std::mutex> lock(mutex_);
    resolveLocked(key.hex(), result, finished);
    return finished;
}

void
JobQueue::requeue(const WorkUnit &unit)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.running -= unit.size();
    WorkUnit retry = unit;
    std::erase_if(retry.indices, [&](std::size_t i) {
        return !pending_.count(retry.input->plan.cells()[i].key.hex());
    });
    if (retry.indices.empty())
        return;
    pushUnitLocked(std::move(retry));
    ready_.notify_one();
}

bool
JobQueue::pending(const batch::CacheKey &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return pending_.count(key.hex()) != 0;
}

void
JobQueue::resolveLocked(const std::string &hex, const Resolution &result,
                        std::vector<FinishedJob> &finished)
{
    const auto it = pending_.find(hex);
    if (it == pending_.end())
        return;
    const std::vector<std::uint64_t> waiting = std::move(it->second);
    pending_.erase(it);

    bool first = true;
    for (const std::uint64_t id : waiting) {
        const auto jt = jobs_.find(id);
        if (jt == jobs_.end())
            continue;
        JobRecord &job = jt->second;
        ++job.status.done;
        if (!result.ok) {
            ++job.status.failed;
            if (job.status.first_error.empty())
                job.status.first_error = result.error;
        } else if (result.executed && first) {
            // Only the first waiter "owns" the execution; everyone
            // else got the cell cache-hit-equivalent.
            ++job.executed;
        } else {
            ++job.cached;
        }
        first = false;
        if (job.status.complete())
            finishLocked(job, finished);
    }
}

void
JobQueue::finishLocked(JobRecord &job, std::vector<FinishedJob> &finished)
{
    ++counters_.jobs_completed;
    if (job.status.failed > 0)
        ++counters_.jobs_failed;
    finished.push_back(
        {job.status, job.executed, job.cached, job.spool_path});
    const auto ct = in_flight_.find(job.client);
    if (ct != in_flight_.end() && --ct->second == 0)
        in_flight_.erase(ct);
    finished_order_.push_back(job.status.id);
    while (finished_order_.size() > max_finished_jobs) {
        jobs_.erase(finished_order_.front());
        finished_order_.pop_front();
    }
    // job_order_ keeps evicted ids until they dominate, then one
    // linear compaction — O(1) amortized, and jobs() never shows
    // evicted entries either way.
    if (job_order_.size() > 2 * jobs_.size() + 16) {
        std::deque<std::uint64_t> kept;
        for (const std::uint64_t id : job_order_)
            if (jobs_.count(id))
                kept.push_back(id);
        job_order_ = std::move(kept);
    }
}

void
JobQueue::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    // Queued-but-unstarted units are abandoned: their spool manifests
    // stay put and are rescanned by the next serve. In-flight units
    // (popped, keys still pending) drain through complete() as usual.
    for (const auto &unit : heap_)
        for (std::size_t i = 0; i < unit.size(); ++i)
            pending_.erase(unit.cell(i).key.hex());
    heap_.clear();
    counters_.queue_depth = 0;
    counters_.units_queued = 0;
    ready_.notify_all();
}

bool
JobQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
}

std::optional<JobStatus>
JobQueue::job(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    return it->second.status;
}

std::vector<JobStatus>
JobQueue::jobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<JobStatus> out;
    out.reserve(jobs_.size());
    for (const std::uint64_t id : job_order_) {
        const auto it = jobs_.find(id);
        if (it != jobs_.end()) // evicted ids may linger in the order
            out.push_back(it->second.status);
    }
    return out;
}

std::size_t
JobQueue::inFlight(std::uint64_t client) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = in_flight_.find(client);
    return it == in_flight_.end() ? 0 : it->second;
}

JobQueue::Counters
JobQueue::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

} // namespace delorean::service
