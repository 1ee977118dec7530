/**
 * @file
 * Tests for the batch service (src/service/): DLRNSRV1 frame protocol
 * (round trip, malformed-input rejection), the priority JobQueue both
 * front ends share (ordering, in-flight and leased dedupe, requeue,
 * submit-time cache hits, idle-thread unit splits, close semantics),
 * the spool ManifestWatcher (stability gate, pickup, failure handling
 * — all via manual scan() calls, no timing dependence), and the
 * end-to-end daemon: a SUBMIT → STATUS → RESULT round trip over a real Unix
 * socket is bit-identical (MethodResult::operator==) to a direct
 * serial BatchRunner run, concurrent submitters of the same plan
 * execute each cell once, and re-submitting the same manifest content
 * executes zero cells.
 *
 * Fleet layer (src/service/coordinator.hh, worker.hh): a randomized
 * frame fuzzer (500+ seeded corrupt/truncated frames, every one a
 * ServiceError, never a crash — and no leaked connection slots on
 * the real server), chunked-frame boundary round trips (one byte
 * under, at, and over the 64 MiB frame cap in both directions), a
 * coordinator + two-worker run that is bit-identical to a serial
 * local run, fault injection (expired leases re-queue; a worker
 * killed mid-plan does not change the merged result; a zombie's
 * duplicate COMPLETE is acked and discarded with first write
 * winning), SUBMIT quota/backlog backpressure, JobQueue edge cases
 * (exact eviction boundary, concurrent same-priority submits,
 * close() racing an in-flight completion), and the capped
 * exponential poll backoff.
 *
 * Streaming warming (TRACE-STREAM, src/service/stream.hh): the
 * streamed-equals-offline pin — a recorded trace streamed at several
 * chunk boundaries (mid-header, mid-record, mid-window; serial and
 * stream_threads=3) closes to a MethodResult bit-identical to the
 * offline run, under the offline content key — plus an abuse suite
 * (corrupt ids, bad headers, overflow, garbage records, mid-record
 * close, append after close) where every case is an error reply and
 * the service stays fully usable. The abuse suite and server-side
 * tailing run against both StreamHost owners: the daemon and a
 * coordinator with one worker.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <mutex>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "base/units.hh"
#include "batch/result_io.hh"
#include "batch/runner.hh"
#include "checkpoint/livepoint.hh"
#include "service/client.hh"
#include "service/coordinator.hh"
#include "service/queue.hh"
#include "service/server.hh"
#include "service/service.hh"
#include "service/watcher.hh"
#include "service/worker.hh"
#include "workload/endian.hh"
#include "workload/trace_io.hh"
#include "workload/trace_registry.hh"

namespace
{

using namespace delorean;
using namespace delorean::service;
namespace proto = delorean::service::protocol;

// ------------------------------------------------------------- helpers

/** Unique temp path, removed (recursively) on scope exit. */
struct TempPath
{
    std::string path;
    ::pid_t owner;

    explicit TempPath(const std::string &tag) : owner(::getpid())
    {
        static int counter = 0;
        const auto dir = std::filesystem::temp_directory_path();
        path = (dir / ("delorean_service_" + tag + "_" +
                       std::to_string(owner) + "_" +
                       std::to_string(counter++)))
                   .string();
    }

    ~TempPath()
    {
        if (::getpid() != owner)
            return;
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

/** An empty result cache in its own temporary directory. */
struct ColdCache
{
    TempPath root{"queue_cache"};
    batch::ResultCache cache{root.path};
};

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
}

/** The tiny manifest every end-to-end test runs (fast under ASan). */
constexpr const char *tiny_manifest =
    "workload bzip2\n"
    "config c llc=2MiB\n"
    "schedule s spacing=200000 regions=2\n"
    "methods delorean\n";

/** A 2-cell flavour for multi-cell checks. */
constexpr const char *two_cell_manifest =
    "workload bzip2\n"
    "config small llc=2MiB\n"
    "config big llc=8MiB\n"
    "schedule s spacing=200000 regions=2\n"
    "methods delorean\n";

batch::BatchPlan
tinyPlan(const char *text = tiny_manifest)
{
    return batch::BatchPlan::fromManifestText(text, "test");
}

/** A JobSpec with just the fields the queue tests vary. */
JobSpec
jobSpec(const std::string &name, JobSource source, int priority)
{
    JobSpec spec;
    spec.name = name;
    spec.source = source;
    spec.priority = priority;
    return spec;
}

/** Complete every member of a popped @p unit with one outcome. */
std::vector<FinishedJob>
completeAll(JobQueue &queue, const WorkUnit &unit, bool ok,
            const std::string &error, bool executed)
{
    return queue.complete(
        unit, std::vector<Resolution>(unit.size(),
                                      Resolution{ok, executed, error}));
}

/** Both ends of a socketpair, closed on scope exit. */
struct FdPair
{
    int fds[2] = {-1, -1};

    FdPair()
    {
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    }

    ~FdPair()
    {
        for (const int fd : fds)
            if (fd >= 0)
                ::close(fd);
    }
};

/**
 * A BatchService running on its own thread against temp directories,
 * joined (via client SHUTDOWN or requestShutdown) on scope exit.
 */
struct ServiceFixture
{
    TempPath root{"svc"};
    ServiceConfig config;
    std::unique_ptr<BatchService> service;
    std::thread runner;

    explicit ServiceFixture(bool with_spool = false,
                            unsigned stream_threads = 1,
                            unsigned threads = 2,
                            const std::string &cache_name = "cache")
    {
        std::filesystem::create_directories(root.path);
        config.socket_path = root.path + "/srv.sock";
        config.cache_dir = root.path + "/" + cache_name;
        if (with_spool)
            config.spool_dir = root.path + "/spool";
        config.threads = threads;
        config.stream_threads = stream_threads;
        config.poll_ms = 20; // fast spool polls keep tests snappy
        config.tail_poll_ms = 25; // ...and fast trace-tail polls
        service = std::make_unique<BatchService>(config);
        runner = std::thread([this] { service->run(); });
        waitFor([&] { return ServiceClient::ping(config.socket_path); },
                "socket to come up");
    }

    ~ServiceFixture()
    {
        service->requestShutdown();
        runner.join();
    }

    /** Poll @p done (with a generous deadline: CI + ASan are slow). */
    static void waitFor(const std::function<bool()> &done,
                        const char *what)
    {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(120);
        while (!done()) {
            ASSERT_LT(std::chrono::steady_clock::now(), deadline)
                << "timed out waiting for " << what;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
    }
};

// ------------------------------------------------------------- protocol

TEST(Protocol, RequestAndReplyRoundTrip)
{
    FdPair pair;
    proto::Request request;
    request.op = proto::Opcode::Submit;
    request.body = std::string("priority") + '\0' + "and text";
    proto::writeRequest(pair.fds[0], request);

    const auto got = proto::readRequest(pair.fds[1]);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->op, proto::Opcode::Submit);
    EXPECT_EQ(got->body, request.body);

    proto::writeReply(pair.fds[1], proto::Reply::success("payload"));
    const auto reply = proto::readReply(pair.fds[0]);
    EXPECT_TRUE(reply.ok);
    EXPECT_EQ(reply.body, "payload");

    proto::writeReply(pair.fds[1], proto::Reply::error("boom"));
    const auto error = proto::readReply(pair.fds[0]);
    EXPECT_FALSE(error.ok);
    EXPECT_EQ(error.body, "boom");
}

TEST(Protocol, CleanEofBetweenFramesIsHangupNotError)
{
    FdPair pair;
    ::close(pair.fds[0]);
    pair.fds[0] = -1;
    EXPECT_FALSE(proto::readRequest(pair.fds[1]).has_value());
}

TEST(Protocol, RejectsMalformedFrames)
{
    // Bad magic.
    {
        FdPair pair;
        proto::writeAll(pair.fds[0], "DLRNTRC1\0\0\0\0\0\0\0\0", 16);
        EXPECT_THROW((void)proto::readRequest(pair.fds[1]),
                     ServiceError);
    }
    // Unknown opcode.
    {
        FdPair pair;
        std::uint8_t frame[16] = {};
        std::memcpy(frame, proto::magic, 8);
        frame[8] = 0x7f; // opcode 127
        proto::writeAll(pair.fds[0], frame, sizeof(frame));
        EXPECT_THROW((void)proto::readRequest(pair.fds[1]),
                     ServiceError);
    }
    // Oversized body length: must throw before allocating it.
    {
        FdPair pair;
        std::uint8_t frame[16] = {};
        std::memcpy(frame, proto::magic, 8);
        frame[8] = 2; // STATUS
        frame[12] = frame[13] = frame[14] = frame[15] = 0xff;
        proto::writeAll(pair.fds[0], frame, sizeof(frame));
        EXPECT_THROW((void)proto::readRequest(pair.fds[1]),
                     ServiceError);
    }
    // Truncated body: header promises more bytes than ever arrive.
    {
        FdPair pair;
        std::uint8_t frame[16] = {};
        std::memcpy(frame, proto::magic, 8);
        frame[8] = 1;  // SUBMIT
        frame[12] = 8; // body length 8, but we send nothing more
        proto::writeAll(pair.fds[0], frame, sizeof(frame));
        ::close(pair.fds[0]);
        pair.fds[0] = -1;
        EXPECT_THROW((void)proto::readRequest(pair.fds[1]),
                     ServiceError);
    }
    // Reply truncated mid-header.
    {
        FdPair pair;
        proto::writeAll(pair.fds[0], proto::magic, 8);
        ::close(pair.fds[0]);
        pair.fds[0] = -1;
        EXPECT_THROW((void)proto::readReply(pair.fds[1]),
                     ServiceError);
    }
}

std::string rawFrame(std::uint32_t code, const std::string &body);

// Regression: a clean EOF *between* frames is only a benign hangup
// before the first frame. Once status_part chunks of a multi-frame
// reply have arrived, the terminator never coming means the body is
// truncated — that must surface as a ServiceError carrying the
// frames-so-far count, never as a silently short reply.
TEST(Protocol, CleanEofDuringPartialReplyIsTruncationError)
{
    for (const std::size_t parts : {std::size_t(1), std::size_t(2)}) {
        FdPair pair;
        for (std::size_t p = 0; p < parts; ++p) {
            const std::string frame =
                rawFrame(proto::status_part, "chunk");
            proto::writeAll(pair.fds[0], frame.data(), frame.size());
        }
        ::close(pair.fds[0]);
        pair.fds[0] = -1;
        try {
            (void)proto::readReply(pair.fds[1]);
            FAIL() << "expected ServiceError after " << parts
                   << " partial frames";
        } catch (const ServiceError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("mid-reassembly"), std::string::npos)
                << what;
            EXPECT_NE(what.find(std::to_string(parts) +
                                " partial frame"),
                      std::string::npos)
                << what;
        }
    }
}

// ------------------------------------------------------------ job queue

TEST(Queue, PriorityThenFifoOrder)
{
    ColdCache cold;
    JobQueue queue(cold.cache);
    const auto plan_a = tinyPlan();         // 1 cell (llc=2MiB)
    const auto plan_b = tinyPlan(
        "workload bzip2\n"
        "config c llc=4MiB\n"
        "schedule s spacing=200000 regions=2\n");
    const auto plan_c = tinyPlan(
        "workload bzip2\n"
        "config c llc=8MiB\n"
        "schedule s spacing=200000 regions=2\n");

    const auto low =
        queue.addJob(plan_a, jobSpec("low", JobSource::Spool, 0)).job;
    const auto mid =
        queue.addJob(plan_b, jobSpec("mid", JobSource::Spool, 0)).job;
    const auto high =
        queue.addJob(plan_c, jobSpec("high", JobSource::Socket, 10)).job;

    // Highest priority first; FIFO within equal priority.
    const auto t1 = queue.pop();
    const auto t2 = queue.pop();
    const auto t3 = queue.pop();
    ASSERT_TRUE(t1 && t2 && t3);
    EXPECT_EQ(t1->job, high);
    EXPECT_EQ(t2->job, low);
    EXPECT_EQ(t3->job, mid);

    for (const auto *t : {&*t1, &*t2, &*t3})
        (void)completeAll(queue, *t, true, "", true);
    EXPECT_EQ(queue.counters().jobs_completed, 3u);
}

TEST(Queue, ConcurrentKeysDedupeToOneTask)
{
    // Inputs: a one-cell plan drained locally (pop), and a two-LLC
    // plan — one co-scheduled unit, as batch_run forms it — leased
    // through the fleet's non-blocking tryPop.
    for (const bool leased : {false, true}) {
        ColdCache cold;
        JobQueue queue(cold.cache);
        const auto plan = leased ? tinyPlan(two_cell_manifest) : tinyPlan();
        const std::uint64_t n = plan.cells().size();
        const auto a =
            queue.addJob(plan, jobSpec("a", JobSource::Socket, 10)).job;
        const auto b =
            queue.addJob(plan, jobSpec("b", JobSource::Socket, 10)).job;

        // Identical content: one unit, two attached jobs.
        auto counters = queue.counters();
        EXPECT_EQ(counters.units_enqueued, 1u);
        EXPECT_EQ(counters.cells_enqueued, n);
        EXPECT_EQ(counters.cells_deduped, n);

        auto task = leased ? queue.tryPop() : queue.pop();
        ASSERT_TRUE(task.has_value());
        EXPECT_EQ(task->size(), n);
        EXPECT_EQ(queue.counters().running, n);

        // Dedupe also applies while the unit is *running* or leased
        // (popped but not completed): a third submitter attaches.
        const auto c =
            queue.addJob(plan, jobSpec("c", JobSource::Socket, 10)).job;
        EXPECT_EQ(queue.counters().cells_deduped, 2 * n);
        EXPECT_EQ(queue.counters().units_enqueued, 1u);

        const auto finished = completeAll(queue, *task, true, "", true);
        ASSERT_EQ(finished.size(), 3u);
        for (const auto &job : finished) {
            EXPECT_TRUE(job.status.complete());
            EXPECT_EQ(job.status.failed, 0u);
        }
        // Exactly one of the three owns the execution.
        std::uint64_t executed = 0, cached = 0;
        for (const auto &job : finished) {
            executed += job.executed;
            cached += job.cached;
        }
        EXPECT_EQ(executed, n);
        EXPECT_EQ(cached, 2 * n);
        EXPECT_EQ(queue.counters().running, 0u);

        for (const auto id : {a, b, c})
            EXPECT_TRUE(queue.job(id)->complete());
    }
}

TEST(Queue, RequeueKeepsPlaceAndPrunesKeysResolvedWhileLeased)
{
    ColdCache cold;
    JobQueue queue(cold.cache);
    const auto pair = tinyPlan(two_cell_manifest);
    const auto solo = tinyPlan(
        "workload bzip2\n"
        "config c llc=4MiB\n"
        "schedule s spacing=300000 regions=2\n");
    const auto first =
        queue.addJob(pair, jobSpec("pair", JobSource::Socket, 5)).job;
    const auto later =
        queue.addJob(solo, jobSpec("later", JobSource::Socket, 5)).job;

    // The pair's unit is leased; the lease expires, but a late result
    // for one of its keys lands first (a zombie winning the write).
    auto leased = queue.tryPop();
    ASSERT_TRUE(leased.has_value());
    ASSERT_EQ(leased->size(), 2u);
    EXPECT_TRUE(queue.pending(leased->cell(0).key));
    (void)queue.resolve(leased->cell(0).key, {true, true, ""});
    EXPECT_FALSE(queue.pending(leased->cell(0).key));
    queue.requeue(*leased);
    EXPECT_EQ(queue.counters().running, 0u);
    EXPECT_EQ(queue.counters().units_queued, 2u);

    // The retry keeps its original place (ahead of the later job at
    // the same priority) and carries only the unresolved key.
    auto retry = queue.tryPop();
    ASSERT_TRUE(retry.has_value());
    EXPECT_EQ(retry->job, first);
    ASSERT_EQ(retry->size(), 1u);
    EXPECT_EQ(retry->cell(0).key, leased->cell(1).key);
    const auto finished = completeAll(queue, *retry, true, "", true);
    ASSERT_EQ(finished.size(), 1u);
    EXPECT_EQ(finished[0].status.id, first);
    EXPECT_EQ(finished[0].executed, 2u);

    // A unit whose every key resolved while queued is skipped.
    auto next = queue.tryPop();
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->job, later);
    (void)queue.resolve(next->cell(0).key, {true, true, ""});
    queue.requeue(*next);
    EXPECT_FALSE(queue.tryPop().has_value());
    EXPECT_TRUE(queue.job(later)->complete());
}

TEST(Queue, CacheHitsCompleteAtSubmitAndBacklogRefusesWhole)
{
    TempPath root("queue_cache");
    const batch::ResultCache cache(root.path);
    const auto pair = tinyPlan(two_cell_manifest);
    sampling::MethodResult stored;
    stored.method = "delorean";
    cache.store(pair.cells()[1].key, stored);

    // One cell cached: counted at submit, the other forms the unit.
    JobQueue queue(cache, /*max_queued_units=*/1);
    const auto partly =
        queue.addJob(pair, jobSpec("partly", JobSource::Socket, 0));
    EXPECT_FALSE(partly.finished.has_value());
    EXPECT_EQ(queue.job(partly.job)->done, 1u);
    EXPECT_EQ(queue.counters().cells_cached, 1u);
    EXPECT_EQ(queue.counters().queue_depth, 1u);

    // The ceiling is full: a plan needing another unit is refused
    // whole, with nothing registered.
    const auto other = tinyPlan("workload bzip2\n"
                                "config c llc=16MiB\n"
                                "schedule s spacing=200000 regions=2\n");
    EXPECT_THROW(
        (void)queue.addJob(other, jobSpec("over", JobSource::Socket, 0)),
        QueueFull);
    EXPECT_EQ(queue.counters().jobs_submitted, 1u);
    EXPECT_EQ(queue.jobs().size(), 1u);

    // A pending key wins over a cache hit: the same plan attaches to
    // the queued cell instead of completing it twice.
    cache.store(pair.cells()[0].key, stored);
    const auto twin =
        queue.addJob(pair, jobSpec("twin", JobSource::Socket, 0));
    EXPECT_FALSE(twin.finished.has_value());
    EXPECT_EQ(queue.counters().cells_deduped, 1u);
    EXPECT_EQ(queue.inFlight(0), 2u);

    // Fully cached and nothing pending: finished on the spot, with no
    // unit and no in-flight entry left behind.
    JobQueue idle(cache);
    const auto hit =
        idle.addJob(pair, jobSpec("hit", JobSource::Spool, 0));
    ASSERT_TRUE(hit.finished.has_value());
    EXPECT_STREQ(hit.finished->status.state(), "done");
    EXPECT_EQ(hit.finished->executed, 0u);
    EXPECT_EQ(hit.finished->cached, 2u);
    EXPECT_EQ(idle.counters().units_enqueued, 0u);
    EXPECT_EQ(idle.counters().jobs_completed, 1u);
    EXPECT_EQ(idle.inFlight(0), 0u);
}

TEST(Queue, IdleDrainThreadsSplitAUnitBusyOnesRunItWhole)
{
    const auto plan = tinyPlan("workload bzip2\n"
                               "config a llc=2MiB\n"
                               "config b llc=4MiB\n"
                               "config c llc=8MiB\n"
                               "config d llc=16MiB\n"
                               "schedule s spacing=200000 regions=2\n"
                               "methods delorean\n");

    // Nobody else waiting: the popper takes the unit whole, as does a
    // fleet lease.
    for (const bool leased : {false, true}) {
        ColdCache cold;
        JobQueue queue(cold.cache);
        (void)queue.addJob(plan, jobSpec("whole", JobSource::Socket, 0));
        const auto unit = leased ? queue.tryPop() : queue.pop();
        ASSERT_TRUE(unit.has_value());
        EXPECT_EQ(unit->size(), 4u);
        EXPECT_EQ(queue.counters().units_queued, 0u);
    }

    // Three drain threads blocked in pop() when the job arrives: the
    // unit spreads over all of them instead of running on one. Each
    // runs its share as a daemon drain thread does; sharing the
    // daemon's checkpoint memo, the shares fast-forward the trace once
    // between them, and every result equals its serial runCell.
    ColdCache cold;
    JobQueue queue(cold.cache);
    sampling::CheckpointMemo memo;
    std::vector<std::size_t> sizes(3, 0);
    std::vector<std::optional<sampling::MethodResult>> results(
        plan.cells().size());
    std::mutex results_mutex;
    std::vector<std::thread> poppers;
    for (std::size_t t = 0; t < sizes.size(); ++t)
        poppers.emplace_back([&, t] {
            const auto unit = queue.pop();
            if (!unit)
                return;
            sizes[t] = unit->size();
            auto outcomes = batch::BatchRunner::runUnitCached(
                nullptr, unit->cells(), memo);
            std::lock_guard<std::mutex> lock(results_mutex);
            for (auto &outcome : outcomes)
                results[outcome.cell] = std::move(outcome.result);
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const auto job =
        queue.addJob(plan, jobSpec("spread", JobSource::Socket, 0)).job;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (queue.counters().running < 4 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    queue.close(); // frees a popper that got nothing, failing the test
    for (auto &popper : poppers)
        popper.join();
    std::sort(sizes.begin(), sizes.end());
    EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 1, 2}));
    const auto counters = queue.counters();
    EXPECT_EQ(counters.units_enqueued, 1u);
    EXPECT_EQ(counters.running, 4u);
    EXPECT_EQ(counters.queue_depth, 0u);
    EXPECT_EQ(queue.job(job)->done, 0u);
    EXPECT_EQ(memo.prepares(), 1u);
    for (const auto &cell : plan.cells()) {
        ASSERT_TRUE(results[cell.index].has_value()) << cell.index;
        EXPECT_EQ(*results[cell.index], batch::BatchRunner::runCell(cell))
            << cell.config_name;
    }
}

TEST(Queue, FailureFansOutToEveryAttachedJob)
{
    ColdCache cold;
    JobQueue queue(cold.cache);
    const auto plan = tinyPlan();
    (void)queue.addJob(plan, jobSpec("a", JobSource::Socket, 0));
    (void)queue.addJob(plan, jobSpec("b", JobSource::Spool, 0));

    auto task = queue.pop();
    ASSERT_TRUE(task.has_value());
    const auto finished =
        completeAll(queue, *task, false, "cell exploded", false);
    ASSERT_EQ(finished.size(), 2u);
    for (const auto &job : finished) {
        EXPECT_STREQ(job.status.state(), "failed");
        EXPECT_EQ(job.status.first_error, "cell exploded");
    }
    EXPECT_EQ(queue.counters().jobs_failed, 2u);
}

TEST(Queue, CloseAbandonsQueuedAndUnblocksPop)
{
    ColdCache cold;
    JobQueue queue(cold.cache);
    (void)queue.addJob(tinyPlan(), jobSpec("a", JobSource::Socket, 0));

    std::thread blocked([&] {
        // Drain the one queued task, then block until close().
        auto task = queue.pop();
        ASSERT_TRUE(task.has_value());
        (void)completeAll(queue, *task, true, "", true);
        EXPECT_FALSE(queue.pop().has_value());
    });
    // Give the thread time to reach the blocking pop, then close.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    queue.close();
    blocked.join();

    EXPECT_TRUE(queue.closed());
    EXPECT_THROW(
        (void)queue.addJob(tinyPlan(),
                           jobSpec("late", JobSource::Socket, 0)),
        ServiceError);
    EXPECT_EQ(queue.counters().queue_depth, 0u);
}

TEST(Queue, FinishedJobHistoryIsBounded)
{
    // A long-running daemon must not grow job records forever: only
    // the newest max_finished_jobs completed jobs are queryable.
    ColdCache cold;
    JobQueue queue(cold.cache);
    const auto plan = tinyPlan();
    const std::size_t total = JobQueue::max_finished_jobs + 50;
    std::uint64_t first = 0, last = 0;
    for (std::size_t i = 0; i < total; ++i) {
        last = queue.addJob(plan, jobSpec("j", JobSource::Socket, 0)).job;
        if (first == 0)
            first = last;
    }

    // All cells share one content key: one task, `total` attached
    // jobs, one completion finishing all of them at once.
    auto task = queue.pop();
    ASSERT_TRUE(task.has_value());
    const auto finished = completeAll(queue, *task, true, "", true);
    EXPECT_EQ(finished.size(), total);

    // The oldest 50 fell off; the newest max_finished_jobs remain.
    EXPECT_FALSE(queue.job(first).has_value());
    ASSERT_TRUE(queue.job(last).has_value());
    EXPECT_TRUE(queue.job(last)->complete());
    EXPECT_EQ(queue.jobs().size(), JobQueue::max_finished_jobs);
    // Lifetime counters are unaffected by eviction.
    EXPECT_EQ(queue.counters().jobs_completed, total);
}

// -------------------------------------------------------------- watcher

TEST(Watcher, PicksUpStableManifestsOnly)
{
    TempPath spool("spool");
    ManifestWatcher watcher(spool.path);

    writeFile(spool.path + "/job.plan", tiny_manifest);
    // First sight registers the file; nothing is ready yet (it could
    // still be mid-write).
    EXPECT_TRUE(watcher.scan().empty());
    // Second scan: (mtime, size) unchanged -> stable -> picked up.
    auto ready = watcher.scan();
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0].name, "job.plan");
    EXPECT_EQ(ready[0].plan.cells().size(), 1u);

    // In-flight: not picked up again while the job runs.
    EXPECT_TRUE(watcher.scan().empty());

    watcher.moveDone(ready[0].path);
    EXPECT_TRUE(
        std::filesystem::exists(spool.path + "/done/job.plan"));
    EXPECT_FALSE(std::filesystem::exists(ready[0].path));
    EXPECT_TRUE(watcher.scan().empty());
    EXPECT_EQ(watcher.processed(), 1u);
}

TEST(Watcher, NonPlanFilesAreIgnored)
{
    TempPath spool("spool_ignore");
    ManifestWatcher watcher(spool.path);
    writeFile(spool.path + "/notes.txt", "not a manifest");
    writeFile(spool.path + "/.plan", "suffix only");
    EXPECT_TRUE(watcher.scan().empty());
    EXPECT_TRUE(watcher.scan().empty());
    EXPECT_EQ(watcher.processed(), 0u);
}

TEST(Watcher, MalformedManifestMovesToFailedWithDiagnostic)
{
    TempPath spool("spool_bad");
    ManifestWatcher watcher(spool.path);
    writeFile(spool.path + "/bad.plan", "frobnicate bzip2\n");

    EXPECT_TRUE(watcher.scan().empty()); // register
    EXPECT_TRUE(watcher.scan().empty()); // stable -> parse -> failed/
    EXPECT_TRUE(
        std::filesystem::exists(spool.path + "/failed/bad.plan"));

    std::ifstream err(spool.path + "/failed/bad.plan.err");
    std::string diagnostic((std::istreambuf_iterator<char>(err)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(diagnostic.find("unknown directive"), std::string::npos);
    EXPECT_EQ(watcher.processed(), 1u);
}

TEST(Watcher, EditedWhileInFlightIsNotArchived)
{
    TempPath spool("spool_edit");
    ManifestWatcher watcher(spool.path);

    writeFile(spool.path + "/job.plan", tiny_manifest);
    (void)watcher.scan();
    auto ready = watcher.scan();
    ASSERT_EQ(ready.size(), 1u);

    // The manifest is edited while its job runs. Archiving would file
    // the new, never-executed content under done/ — the move must be
    // refused and the new content picked up on a later scan.
    writeFile(spool.path + "/job.plan", two_cell_manifest);
    setLogQuiet(true);
    watcher.moveDone(ready[0].path);
    setLogQuiet(false);
    EXPECT_FALSE(
        std::filesystem::exists(spool.path + "/done/job.plan"));
    EXPECT_TRUE(std::filesystem::exists(ready[0].path));

    (void)watcher.scan(); // re-stabilize the edited file
    auto again = watcher.scan();
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again[0].plan.cells().size(), 2u);
    watcher.moveDone(again[0].path);
    EXPECT_TRUE(
        std::filesystem::exists(spool.path + "/done/job.plan"));
}

TEST(Watcher, DoneCollisionsGetNumericSuffixes)
{
    TempPath spool("spool_collide");
    ManifestWatcher watcher(spool.path);

    for (int round = 0; round < 2; ++round) {
        writeFile(spool.path + "/same.plan", tiny_manifest);
        (void)watcher.scan();
        auto ready = watcher.scan();
        ASSERT_EQ(ready.size(), 1u) << "round " << round;
        watcher.moveDone(ready[0].path);
    }
    EXPECT_TRUE(
        std::filesystem::exists(spool.path + "/done/same.plan"));
    EXPECT_TRUE(
        std::filesystem::exists(spool.path + "/done/same.plan.1"));
}

// ------------------------------------------------- service, end to end

// The acceptance bar: a SUBMIT -> STATUS -> RESULT round trip over the
// real socket parses into a MethodResult equal (operator==, doubles
// bitwise) to a direct serial BatchRunner::runCell of the same cell.
TEST(Service, SocketRoundTripIsBitIdenticalToDirectRun)
{
    const auto plan = tinyPlan(two_cell_manifest);
    std::vector<sampling::MethodResult> direct;
    for (const auto &cell : plan.cells())
        direct.push_back(batch::BatchRunner::runCell(cell));

    // One trace and schedule, two LLC sizes: the daemon forms the one
    // co-scheduled unit batch_run forms. A single drain thread runs it
    // whole; two idle ones split it. Either way each result equals
    // its serial runCell.
    for (const unsigned threads : {1u, 2u}) {
        ServiceFixture fixture(false, 1, threads);
        ServiceClient client(fixture.config.socket_path);
        const auto info = client.submit(two_cell_manifest);
        EXPECT_EQ(info.cells, 2u);

        ServiceFixture::waitFor([&] { return client.jobDone(info.job); },
                                "job completion");
        EXPECT_STREQ(client.jobStatus(info.job).state(), "done");
        EXPECT_EQ(fixture.service->counters().units_enqueued, 1u);
        EXPECT_EQ(fixture.service->cellsExecuted(), 2u);

        for (std::size_t i = 0; i < plan.cells().size(); ++i) {
            const auto fetched = client.result(plan.cells()[i].key);
            EXPECT_EQ(fetched, direct[i])
                << "cell " << i << ", threads " << threads;
        }

        // The raw bytes are the canonical serialization of the
        // *service's* producing run: parsing and re-encoding
        // reproduces them exactly. (Re-encoding `direct` would NOT
        // match byte-for-byte — the measured phase timings of two
        // separate runs differ, which is precisely why they are
        // excluded from operator==.)
        const std::string bytes = client.resultBytes(plan.cells()[0].key);
        std::istringstream parse(bytes, std::ios::binary);
        std::ostringstream reencoded(std::ios::binary);
        batch::writeMethodResult(reencoded, batch::readMethodResult(parse));
        EXPECT_EQ(reencoded.str(), bytes);
    }
}

TEST(Service, FailingCellOfUnitFailsOnlyItself)
{
    const auto plan = tinyPlan(two_cell_manifest);
    const auto golden = batch::BatchRunner::runCell(plan.cells()[0]);

    // One drain thread, so the two cells run as one unit. A directory
    // squatting on the second cell's cache entry makes its store
    // fail; the unit fails as a whole, and the daemon reruns each
    // member alone so the first cell still succeeds.
    ServiceFixture fixture(false, 1, 1);
    std::filesystem::create_directories(fixture.config.cache_dir + "/" +
                                        plan.cells()[1].key.hex() +
                                        ".res/squat");
    ServiceClient client(fixture.config.socket_path);
    const auto info = client.submit(two_cell_manifest);
    ServiceFixture::waitFor([&] { return client.jobDone(info.job); },
                            "job completion");

    const JobStatus status = client.jobStatus(info.job);
    EXPECT_STREQ(status.state(), "failed");
    EXPECT_EQ(status.done, 2u);
    EXPECT_EQ(status.failed, 1u);
    EXPECT_NE(status.first_error.find("cache entry"), std::string::npos)
        << status.first_error;
    EXPECT_EQ(client.result(plan.cells()[0].key), golden);
}

TEST(Service, ResubmittedManifestExecutesZeroCells)
{
    ServiceFixture fixture;
    ServiceClient client(fixture.config.socket_path);

    const auto first = client.submit(tiny_manifest);
    ServiceFixture::waitFor([&] { return client.jobDone(first.job); },
                            "first job");
    EXPECT_EQ(fixture.service->cellsExecuted(), 1u);

    // Same manifest content again: served entirely from the result
    // cache, zero additional executions (the BatchPlan re-submission
    // contract, service path).
    const auto second = client.submit(tiny_manifest);
    ServiceFixture::waitFor([&] { return client.jobDone(second.job); },
                            "second job");
    EXPECT_EQ(fixture.service->cellsExecuted(), 1u);
    EXPECT_EQ(fixture.service->cellsFromCache(), 1u);

    // recordRun happens just *after* the job flips to done; poll the
    // stats until the second (fully cached) run is folded in.
    ServiceFixture::waitFor(
        [&] {
            return client.stats().last_run_executed == 0 &&
                   client.stats().last_run_cached == 1;
        },
        "run counters to settle");
    const ServiceStats stats = client.stats();
    EXPECT_FALSE(stats.fleet);
    EXPECT_EQ(stats.cells_executed, 1u);
    EXPECT_EQ(stats.jobs_submitted, 2u);
}

// The daemon's checkpoint memo lives as long as the process: one
// profile served under two LLC configs, in two separate jobs (two
// units), is fast-forwarded once.
TEST(Service, DaemonPreparesOncePerProfileAcrossJobs)
{
    const auto plan = tinyPlan(two_cell_manifest);
    ServiceFixture fixture;
    ServiceClient client(fixture.config.socket_path);
    for (const char *llc : {"2MiB", "8MiB"}) {
        const auto info = client.submit(
            std::string("workload bzip2\nconfig c llc=") + llc +
            "\nschedule s spacing=200000 regions=2\n"
            "methods delorean\n");
        ServiceFixture::waitFor([&] { return client.jobDone(info.job); },
                                "job completion");
    }
    EXPECT_EQ(fixture.service->cellsExecuted(), 2u);
    // Read over the wire: the STATS counter line, and the same token
    // in the STATUS header.
    EXPECT_EQ(client.stats().checkpoint_prepares, 1u);
    EXPECT_NE(client.statusText().find(" checkpoint_prepares=1\n"),
              std::string::npos);
    for (const auto &cell : plan.cells())
        EXPECT_EQ(client.result(cell.key),
                  batch::BatchRunner::runCell(cell))
            << cell.config_name;
}

TEST(Service, ConcurrentSubmittersExecuteEachCellOnce)
{
    ServiceFixture fixture;

    // Several clients race the same plan into a cold cache; dedupe
    // (queue attach for in-flight cells, content cache for the rest)
    // must keep the execution count at exactly one per distinct cell.
    constexpr int clients = 6;
    std::vector<std::uint64_t> jobs(clients, 0);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            ServiceClient client(fixture.config.socket_path);
            jobs[std::size_t(c)] = client.submit(two_cell_manifest).job;
        });
    }
    for (auto &t : threads)
        t.join();

    ServiceClient client(fixture.config.socket_path);
    for (const auto job : jobs) {
        ASSERT_NE(job, 0u);
        ServiceFixture::waitFor([&] { return client.jobDone(job); },
                                "concurrent job");
        EXPECT_STREQ(client.jobStatus(job).state(), "done");
    }
    EXPECT_EQ(fixture.service->cellsExecuted(), 2u);
}

TEST(Service, SpoolManifestRunsAndMovesToDone)
{
    ServiceFixture fixture(/*with_spool=*/true);
    const std::string spool = fixture.config.spool_dir;
    writeFile(spool + "/drop.plan", tiny_manifest);

    ServiceFixture::waitFor(
        [&] {
            return std::filesystem::exists(spool + "/done/drop.plan");
        },
        "spool manifest to finish");

    // The result landed in the cache under the same content key a
    // local expansion computes.
    const auto plan = tinyPlan();
    ServiceClient client(fixture.config.socket_path);
    const auto fetched = client.result(plan.cells()[0].key);
    EXPECT_EQ(fetched,
              batch::BatchRunner::runCell(plan.cells()[0]));
}

TEST(Service, SpoolManifestWithBadCellMovesToFailed)
{
    ServiceFixture fixture(/*with_spool=*/true);
    const std::string spool = fixture.config.spool_dir;

    // Parses fine, but the recording is too short for the schedule:
    // the *cell* fails at execution time, so the manifest must land in
    // failed/ with the cell diagnostic.
    TempPath trace("short_trace");
    auto source = workload::makeTrace("spec:bzip2");
    workload::recordTrace(*source, 1000, trace.path);
    writeFile(spool + "/short.plan",
              "workload file:" + trace.path +
                  "\n"
                  "config c llc=2MiB\n"
                  "schedule s spacing=200000 regions=2\n");

    setLogQuiet(true);
    ServiceFixture::waitFor(
        [&] {
            return std::filesystem::exists(spool +
                                           "/failed/short.plan");
        },
        "failing spool manifest");
    setLogQuiet(false);
    std::ifstream err(spool + "/failed/short.plan.err");
    std::string diagnostic((std::istreambuf_iterator<char>(err)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(diagnostic.find("file:"), std::string::npos);
}

TEST(Service, SecondServerOnLiveSocketRefusesPromptly)
{
    ServiceFixture fixture;
    // Two daemons on one socket (and so one spool/queue) would
    // double-execute; the second must refuse. Regression: the failed
    // start must also unwind past the already-running worker pool
    // without deadlocking on threads blocked in the queue.
    setLogQuiet(true);
    BatchService second(fixture.config);
    EXPECT_THROW(second.run(), ServiceError);
    setLogQuiet(false);

    // The incumbent is unharmed (and identifies as a plain daemon).
    ServiceClient client(fixture.config.socket_path);
    EXPECT_FALSE(client.status().fleet);
}

TEST(Service, ErrorRepliesForBadRequests)
{
    ServiceFixture fixture;
    ServiceClient client(fixture.config.socket_path);

    // Malformed manifest in SUBMIT.
    EXPECT_THROW((void)client.submit("frobnicate bzip2\n"),
                 ServiceError);
    // Unknown job id.
    EXPECT_THROW((void)client.jobStatus(999), ServiceError);
    // RESULT for a key nobody computed.
    batch::CacheKey missing;
    missing.hi = 0x1234;
    missing.lo = 0x5678;
    EXPECT_THROW((void)client.result(missing), ServiceError);

    // RESULT whose body is not a key at all (raw frame: the typed
    // client cannot even express this). The server answers with an
    // error reply and keeps the connection usable.
    const int fd = connectToServer(fixture.config.socket_path);
    proto::Request request;
    request.op = proto::Opcode::Result;
    request.body = "definitely-not-32-hex-digits";
    proto::writeRequest(fd, request);
    const auto reply = proto::readReply(fd);
    EXPECT_FALSE(reply.ok);
    EXPECT_NE(reply.body.find("not 32 hex digits"), std::string::npos);

    request.op = proto::Opcode::Stats;
    request.body.clear();
    proto::writeRequest(fd, request);
    EXPECT_TRUE(proto::readReply(fd).ok);
    ::close(fd);
}

// ------------------------------------------------------ trace streaming

/** The stream directives matching tiny_manifest minus its workload. */
constexpr const char *stream_directives =
    "config c llc=2MiB\n"
    "schedule s spacing=200000 regions=2\n"
    "methods delorean\n";

/** Record @p insts of bzip2 to @p path, return the file's raw bytes. */
std::string
recordTraceBytes(const std::string &path, std::uint64_t insts)
{
    auto source = workload::makeTrace("spec:bzip2");
    workload::recordTrace(*source, insts, path);
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return buffer.str();
}

// The tentpole acceptance pin: streaming a recorded trace in chunks —
// cut mid-header, mid-record, and mid-window — produces a final
// MethodResult bit-identical (operator==, doubles bitwise) to an
// offline DeloreanMethod run of the same file, cached under the very
// key an offline plan expansion computes. Checked serially and with
// stream_threads=3 (window fan-out must not change any bit).
TEST(Stream, StreamedEqualsOfflineAcrossChunkSplits)
{
    TempPath trace("stream_trace");
    const std::string bytes = recordTraceBytes(trace.path, 400000);
    const std::string plan_text =
        "workload file:" + trace.path + "\n" + stream_directives;
    const auto plan = tinyPlan(plan_text.c_str());
    ASSERT_EQ(plan.cells().size(), 1u);
    const auto golden = batch::BatchRunner::runCell(plan.cells()[0]);

    // Record layout: 32-byte fixed header + name, then 32-byte
    // records. All cut positions below are deliberately unaligned.
    const std::size_t records_at = bytes.size() - 400000ull * 32;
    const std::vector<std::vector<std::size_t>> splits = {
        // Mid-header: the fixed header itself arrives in two pieces.
        {13},
        // Mid-record inside window 1, rest in one piece.
        {records_at + 17},
        // Window boundary + 5 bytes (mid-record), then mid-window-2.
        {records_at + 200000ull * 32 + 5, records_at + 300000ull * 32},
        // Byte-count thirds: both cuts land mid-record, mid-window.
        {bytes.size() / 3, 2 * bytes.size() / 3},
    };

    for (const unsigned threads : {1u, 3u}) {
        for (std::size_t s = 0; s < splits.size(); ++s) {
            // A fresh fixture per split: every run must produce (not
            // merely fetch) its result, so a drifting split could
            // never hide behind an earlier run's cache entry.
            ServiceFixture fixture(false, threads);
            ServiceClient client(fixture.config.socket_path);
            const std::uint64_t id =
                client.streamOpen(stream_directives);

            std::size_t at = 0;
            unsigned last_fed = 0;
            for (const std::size_t cut : splits[s]) {
                ASSERT_LT(at, cut);
                const auto info = client.streamAppend(
                    id, bytes.substr(at, cut - at));
                EXPECT_EQ(info.received, cut);
                EXPECT_GE(info.windows_fed, last_fed);
                last_fed = info.windows_fed;
                const auto st = client.streamStatus(id);
                EXPECT_EQ(st.windows_fed, last_fed);
                EXPECT_EQ(st.windows_total, 2u);
                at = cut;
            }
            client.streamAppend(id, bytes.substr(at));

            const auto closed = client.streamClose(id);
            EXPECT_EQ(closed.windows, 2u)
                << "split " << s << " threads " << threads;
            // The content key equals the offline plan's cell key...
            EXPECT_EQ(closed.key, plan.cells()[0].key);
            // ...and the cached result is bit-identical to the
            // offline run over the same bytes.
            EXPECT_EQ(client.result(closed.key), golden)
                << "split " << s << " threads " << threads;

            // The stream is gone: further appends are an error.
            EXPECT_THROW((void)client.streamAppend(id, "x"),
                         ServiceError);
        }
    }
}

// --------------------------------------------- malformed server replies

/**
 * A SocketServer that answers every request with the next canned reply
 * body, regardless of the request — the harness for exercising the
 * typed client's *reply* parsing against a server it cannot trust.
 */
struct ScriptedServer
{
    TempPath root{"scripted"};
    std::mutex mutex;
    std::deque<std::string> replies;
    SocketServer server;

    ScriptedServer()
        : server(root.path + "/srv.sock",
                 [this](const proto::Request &, std::uint64_t) {
                     std::lock_guard<std::mutex> lock(mutex);
                     if (replies.empty())
                         return proto::Reply::error("script exhausted");
                     proto::Reply reply =
                         proto::Reply::success(std::move(replies.front()));
                     replies.pop_front();
                     return reply;
                 })
    {
        std::filesystem::create_directories(root.path);
        server.start();
    }

    ~ScriptedServer() { server.stop(); }

    void
    push(std::string body)
    {
        std::lock_guard<std::mutex> lock(mutex);
        replies.push_back(std::move(body));
    }
};

TEST(Service, MalformedSubmitReplyFieldsAreRejected)
{
    ScriptedServer scripted;
    ServiceClient client(scripted.server.path());

    // Every malformed job=/cells= value must surface as a ServiceError
    // from the strict parser — not whatever a raw std::stoull would
    // improvise ("-1" accepted by wraparound, "12x" silently truncated,
    // "abc" escaping as std::invalid_argument) — and must not poison
    // the connection for the next exchange.
    for (const char *reply : {
             "job=abc cells=2\n",                     // non-numeric
             "job=-1 cells=2\n",                      // signed
             "job=12x cells=2\n",                     // trailing junk
             "job=99999999999999999999999 cells=1\n", // overflow
             "job=7 cells=2x\n",                      // junk in cells=
             "cells=2\n",                             // job= missing
         }) {
        scripted.push(reply);
        EXPECT_THROW((void)client.submit(tiny_manifest), ServiceError)
            << reply;
    }

    // The same connection still completes a well-formed exchange.
    scripted.push("job=7 cells=3\n");
    const auto info = client.submit(tiny_manifest);
    EXPECT_EQ(info.job, 7u);
    EXPECT_EQ(info.cells, 3u);
}

TEST(Service, StreamLeaseCountsPastU32AreRejectedNotWrapped)
{
    ScriptedServer scripted;
    ServiceClient client(scripted.server.path());

    // Window counts are 32-bit on both ends. A from= of 2^32 must be
    // a malformed reply, not window 0 by silent truncation (which
    // would also slip past the to >= from check).
    scripted.push("lease=3 deadline-ms=100 stream=1 from=4294967296 "
                  "to=1 finish=0 records=9 trace=/t.dlt prefix=-\n");
    EXPECT_THROW((void)client.streamLease("w"), ServiceError);

    // The same connection still parses a well-formed lease.
    scripted.push("lease=3 deadline-ms=100 stream=1 from=0 to=1 "
                  "finish=0 records=9 trace=/t.dlt prefix=-\n");
    const auto lease = client.streamLease("w");
    EXPECT_FALSE(lease.idle);
    EXPECT_EQ(lease.from, 0u);
    EXPECT_EQ(lease.to, 1u);
}

TEST(Service, JobDoneParsesStateTokenNotSubstring)
{
    ScriptedServer scripted;
    ServiceClient client(scripted.server.path());

    // Regression: the status line ends with the client-controlled job
    // name. A manifest named "state=done.plan" must not spoof
    // completion of its still-running job via substring search.
    scripted.push("job=9 state=queued cells=4 done=0 failed=0 "
                  "priority=100 source=spool name=state=done.plan\n");
    EXPECT_FALSE(client.jobDone(9));

    scripted.push("job=9 state=done cells=4 done=4 failed=0 "
                  "priority=100 source=spool name=state=done.plan\n");
    EXPECT_TRUE(client.jobDone(9));

    scripted.push("job=9 state=failed cells=4 done=4 failed=1 "
                  "priority=100 source=socket name=short.plan\n");
    EXPECT_TRUE(client.jobDone(9));

    // A reply with no state token at all is malformed, not "not done":
    // treating it as false would spin a polling loop forever.
    scripted.push("job=9 cells=4\n");
    EXPECT_THROW((void)client.jobDone(9), ServiceError);

    // The state token is redundant with the counters; a line where
    // they disagree is truncated or reassembled, never canonical.
    scripted.push("job=9 state=done cells=4 done=2 failed=0 "
                  "priority=100 source=socket name=short.plan\n");
    EXPECT_THROW((void)client.jobDone(9), ServiceError);
}

// -------------------------------------------------------- frame fuzzer

/** splitmix64: tiny, seedable, good enough to drive a fuzz corpus. */
struct FuzzRng
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
};

/** A well-formed frame (request opcode or reply status @p code). */
std::string
rawFrame(std::uint32_t code, const std::string &body)
{
    std::string frame(16 + body.size(), '\0');
    std::memcpy(frame.data(), proto::magic, 8);
    workload::le::putU32(
        reinterpret_cast<std::uint8_t *>(frame.data()) + 8, code);
    workload::le::putU32(
        reinterpret_cast<std::uint8_t *>(frame.data()) + 12,
        std::uint32_t(body.size()));
    std::memcpy(frame.data() + 16, body.data(), body.size());
    return frame;
}

/**
 * The fuzz corpus: 600+ seeded-random frames, each corrupted in a way
 * that *guarantees* invalidity (so "throws ServiceError" is a stable
 * assertion under any refactoring of the parser). Every case must
 * throw — never crash, never hang, never allocate from the corrupted
 * length. Runs under ASan/UBSan in the sanitize CI job like the rest
 * of this binary.
 */
TEST(ProtocolFuzz, CorruptFramesAlwaysThrowNeverCrash)
{
    FuzzRng rng{0xd15ea5ef0221ull};
    int request_cases = 0, reply_cases = 0;

    for (int i = 0; i < 640; ++i) {
        const bool fuzz_request = (rng.next() & 1) != 0;
        // A random but structurally valid starting frame (every
        // client-originated opcode, including the TRACE-STREAM trio
        // and the stream-migration pair STREAM-LEASE/STREAM-HANDOFF).
        static constexpr std::uint32_t request_codes[] = {
            1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15};
        const std::uint32_t good_code =
            fuzz_request ? request_codes[rng.next() %
                                         std::size(request_codes)]
                         : std::uint32_t(rng.next() % 3);
        std::string body(rng.next() % 48, '\0');
        for (auto &c : body)
            c = char(rng.next() & 0xff);
        // A COMPLETE whose random body happens to say more=1 would
        // legitimately wait for continuation frames; pin more=0 so the
        // base frame is self-contained and only our corruption breaks
        // it.
        if (fuzz_request && good_code == 8)
            body = "lease=1 status=ok more=0\n" + body;
        std::string frame = rawFrame(good_code, body);

        enum
        {
            BadMagic,
            BadCode,
            OversizedLength,
            Truncated,
            StrayContinuation,
            BrokenStream,
            Corruptions
        };
        const auto corruption = int(rng.next() % Corruptions);
        bool stray_is_request = fuzz_request;
        switch (corruption) {
          case BadMagic: {
            const std::size_t at = rng.next() % 8;
            frame[at] = char(frame[at] ^ (1 + (rng.next() % 255)));
            break;
          }
          case BadCode: {
            // Requests: opcodes past STREAM-HANDOFF are unknown.
            // Replies: statuses past status_part are unknown.
            const std::uint32_t bad =
                (fuzz_request ? 16 : 3) +
                std::uint32_t(rng.next() % 100000);
            workload::le::putU32(
                reinterpret_cast<std::uint8_t *>(frame.data()) + 8,
                bad);
            break;
          }
          case OversizedLength: {
            const std::uint32_t bad =
                proto::max_body + 1 +
                std::uint32_t(rng.next() % 100000);
            workload::le::putU32(
                reinterpret_cast<std::uint8_t *>(frame.data()) + 12,
                bad);
            // No body follows: the reader must reject the length
            // *before* trying to allocate or read it.
            frame.resize(16);
            break;
          }
          case Truncated: {
            // Any strict, non-empty prefix: a cut header, or a body
            // shorter than the header promised. (A zero-byte prefix
            // would be a clean EOF, which is legal between frames.)
            if (body.empty()) // make sure there is a body to cut
                frame = rawFrame(good_code, "x");
            frame.resize(1 + rng.next() % (frame.size() - 1));
            break;
          }
          case StrayContinuation: {
            // RESULT-PART/RESULT-END outside a COMPLETE stream is a
            // protocol violation even though the frame is well-formed.
            frame = rawFrame(9 + std::uint32_t(rng.next() % 2), body);
            stray_is_request = true;
            break;
          }
          case BrokenStream: {
            // A COMPLETE that opens a stream, then violates it: a
            // non-continuation opcode mid-stream or EOF before
            // RESULT-END.
            frame = rawFrame(8, "lease=1 status=ok more=1\n");
            if (rng.next() & 1)
                frame += rawFrame(1 + std::uint32_t(rng.next() % 5),
                                  "not a continuation");
            stray_is_request = true;
            break;
          }
        }

        FdPair pair;
        proto::writeAll(pair.fds[0], frame.data(), frame.size());
        ::close(pair.fds[0]);
        pair.fds[0] = -1;
        const bool as_request =
            corruption == StrayContinuation ||
            corruption == BrokenStream ? stray_is_request
                                       : fuzz_request;
        if (as_request) {
            EXPECT_THROW((void)proto::readRequest(pair.fds[1]),
                         ServiceError)
                << "case " << i << " corruption " << corruption;
            ++request_cases;
        } else {
            EXPECT_THROW((void)proto::readReply(pair.fds[1]),
                         ServiceError)
                << "case " << i << " corruption " << corruption;
            ++reply_cases;
        }
    }
    // The corpus genuinely exercised both directions at scale.
    EXPECT_GE(request_cases + reply_cases, 500);
    EXPECT_GE(request_cases, 100);
    EXPECT_GE(reply_cases, 100);
}

TEST(ProtocolFuzz, GarbageConnectionsDoNotLeakServerSlots)
{
    // Hammer a live daemon with malformed openings; every connection
    // must be dropped and its slot reclaimed, leaving the server fully
    // usable for a well-formed client afterwards.
    ServiceFixture fixture;
    FuzzRng rng{42};
    for (int i = 0; i < 32; ++i) {
        const int fd = connectToServer(fixture.config.socket_path);
        std::string garbage(1 + rng.next() % 64, '\0');
        for (auto &c : garbage)
            c = char(rng.next() & 0xff);
        garbage[0] = 'X'; // never a valid magic
        try {
            proto::writeAll(fd, garbage.data(), garbage.size());
            // Half-close so a server still waiting for header bytes
            // sees EOF at once (instead of its read timeout), then
            // drain until it drops us — the write is known-delivered
            // before the next round.
            ::shutdown(fd, SHUT_WR);
            char sink[64];
            while (::read(fd, sink, sizeof(sink)) > 0) {}
        } catch (const ServiceError &) {
            // Server already dropped us mid-write: equally fine.
        }
        ::close(fd);
    }

    ServiceClient client(fixture.config.socket_path);
    const auto info = client.submit(tiny_manifest);
    ServiceFixture::waitFor([&] { return client.jobDone(info.job); },
                            "job after garbage storm");
    EXPECT_EQ(client.status().jobs_submitted, 1u);
}

// --------------------------------------------- chunked frame boundaries

/**
 * Reply bodies one byte under, at, and over the frame cap round-trip
 * through writeReply/readReply; past the cap they travel as
 * status_part chunks. A writer thread keeps the socketpair from
 * deadlocking on its finite buffer.
 */
TEST(ProtocolChunk, ReplyBoundariesRoundTrip)
{
    for (const std::size_t size :
         {std::size_t(proto::max_body) - 1,
          std::size_t(proto::max_body),
          std::size_t(proto::max_body) + 1,
          2 * std::size_t(proto::max_body) + 5}) {
        FdPair pair;
        std::string body(size, '\0');
        for (std::size_t i = 0; i < size; i += 4096)
            body[i] = char('a' + (i / 4096) % 26);
        body.back() = 'z';

        std::thread writer([&] {
            proto::writeReply(pair.fds[0],
                              proto::Reply::success(body));
        });
        const auto reply = proto::readReply(pair.fds[1]);
        writer.join();
        EXPECT_TRUE(reply.ok);
        ASSERT_EQ(reply.body.size(), size);
        EXPECT_EQ(reply.body, body);
    }
}

TEST(ProtocolChunk, CompleteRequestBoundariesRoundTrip)
{
    // The COMPLETE header is part of the frame, so the inline/chunked
    // switch happens at max_body - |header + " more=0\n"|: probe one
    // byte under, at, and over that exact point, plus a payload past
    // the cap itself (two continuation frames).
    const std::string header = "lease=7 status=ok more=0\n";
    const std::size_t inline_max =
        std::size_t(proto::max_body) - header.size();
    for (const std::size_t size :
         {inline_max - 1, inline_max, inline_max + 1,
          std::size_t(proto::max_body) + 3}) {
        FdPair pair;
        std::string payload(size, '\0');
        for (std::size_t i = 0; i < size; i += 4096)
            payload[i] = char('A' + (i / 4096) % 26);
        payload.back() = 'Z';

        std::thread writer([&] {
            proto::writeCompleteRequest(pair.fds[0], 7, true, payload);
        });
        const auto request = proto::readRequest(pair.fds[1]);
        writer.join();
        ASSERT_TRUE(request.has_value());
        EXPECT_EQ(request->op, proto::Opcode::Complete);

        // Header line intact (modulo the more= transport detail), the
        // payload byte-identical.
        const std::size_t eol = request->body.find('\n');
        ASSERT_NE(eol, std::string::npos);
        EXPECT_NE(request->body.substr(0, eol).find("lease=7"),
                  std::string::npos);
        EXPECT_NE(request->body.substr(0, eol).find("status=ok"),
                  std::string::npos);
        const std::string got = request->body.substr(eol + 1);
        ASSERT_EQ(got.size(), size);
        EXPECT_EQ(got, payload);
    }
}

// ------------------------------------------------------- poll backoff

TEST(Client, PollBackoffIsCappedDeterministicAndGrows)
{
    constexpr unsigned base = 25, cap = 1000;
    for (const std::uint64_t seed : {0ull, 1ull, 42ull, 0xdeadull}) {
        for (unsigned attempt = 0; attempt < 64; ++attempt) {
            const unsigned delay =
                pollBackoffMs(attempt, base, cap, seed);
            // Nominal (pre-jitter) delay: base doubling, saturating.
            std::uint64_t nominal = base;
            for (unsigned i = 0; i < attempt && nominal < cap; ++i)
                nominal *= 2;
            if (nominal > cap)
                nominal = cap;
            // The cap is a *cap*: jitter only subtracts (regression —
            // additive jitter would overshoot it).
            EXPECT_LE(delay, cap) << "attempt " << attempt;
            EXPECT_LE(delay, nominal) << "attempt " << attempt;
            EXPECT_GE(delay, nominal - nominal / 4)
                << "attempt " << attempt;
            // Deterministic: same (attempt, seed) -> same delay.
            EXPECT_EQ(delay, pollBackoffMs(attempt, base, cap, seed));
        }
    }
    // Degenerate parameters stay sane: huge attempts don't overflow
    // past the cap, zero base is bumped to 1 ms (jitter span 1 ->
    // exactly 1), an inverted cap clamps to the base.
    EXPECT_LE(pollBackoffMs(100000, base, cap, 7), cap);
    EXPECT_EQ(pollBackoffMs(0, 0, cap, 7), 1u);
    EXPECT_LE(pollBackoffMs(9, 100, 1, 3), 100u);
}

// ----------------------------------------------- JobQueue edge cases

TEST(Queue, EvictionBoundaryIsExact)
{
    // Job #1 must survive exactly max_finished_jobs completions
    // (itself included) and fall off on completion number
    // max_finished_jobs + 1 — an off-by-one here silently shrinks or
    // grows the STATUS window.
    ColdCache cold;
    JobQueue queue(cold.cache);
    const auto plan_a = tinyPlan();
    const auto plan_b = tinyPlan(
        "workload bzip2\n"
        "config c llc=4MiB\n"
        "schedule s spacing=200000 regions=2\n");
    const auto plan_c = tinyPlan(
        "workload bzip2\n"
        "config c llc=8MiB\n"
        "schedule s spacing=200000 regions=2\n");

    const auto first =
        queue.addJob(plan_a, jobSpec("first", JobSource::Socket, 0)).job;
    auto task = queue.pop();
    ASSERT_TRUE(task.has_value());
    ASSERT_EQ(completeAll(queue, *task, true, "", true).size(), 1u);

    // max_finished_jobs - 1 more completions (one fan-out): total
    // finished is now exactly max_finished_jobs -> first still there.
    std::uint64_t second = 0;
    for (std::size_t i = 0; i < JobQueue::max_finished_jobs - 1; ++i) {
        const auto id =
            queue.addJob(plan_b, jobSpec("bulk", JobSource::Socket, 0))
                .job;
        if (second == 0)
            second = id;
    }
    task = queue.pop();
    ASSERT_TRUE(task.has_value());
    ASSERT_EQ(completeAll(queue, *task, true, "", true).size(),
              JobQueue::max_finished_jobs - 1);
    EXPECT_TRUE(queue.job(first).has_value())
        << "evicted at the boundary, one completion too early";

    // One more completed job pushes the count to max_finished_jobs + 1:
    // now (and only now) the oldest falls off.
    (void)queue.addJob(plan_c, jobSpec("straw", JobSource::Socket, 0));
    task = queue.pop();
    ASSERT_TRUE(task.has_value());
    (void)completeAll(queue, *task, true, "", true);
    EXPECT_FALSE(queue.job(first).has_value());
    EXPECT_TRUE(queue.job(second).has_value());
    EXPECT_EQ(queue.jobs().size(), JobQueue::max_finished_jobs);
}

TEST(Queue, ConcurrentEqualPrioritySubmitsPopCompletely)
{
    // Three distinct plans race in from three threads, two of them at
    // the same priority, while a popped task is in flight. Every task
    // must pop exactly once, the high-priority one first and the tied
    // pair in submission (seq/job-id) order.
    ColdCache cold;
    JobQueue queue(cold.cache);
    const auto plan_hot = tinyPlan();
    const auto plan_a = tinyPlan(
        "workload bzip2\n"
        "config c llc=4MiB\n"
        "schedule s spacing=200000 regions=2\n");
    const auto plan_b = tinyPlan(
        "workload bzip2\n"
        "config c llc=8MiB\n"
        "schedule s spacing=200000 regions=2\n");

    // An in-flight task keeps the queue "running" while the threads
    // attach and add.
    (void)queue.addJob(plan_hot, jobSpec("hot", JobSource::Socket, 0));
    auto running = queue.pop();
    ASSERT_TRUE(running.has_value());

    std::vector<std::uint64_t> tie_jobs(2, 0);
    std::uint64_t high_job = 0;
    std::thread t1([&] {
        tie_jobs[0] =
            queue.addJob(plan_a, jobSpec("tie-a", JobSource::Spool, 5))
                .job;
    });
    std::thread t2([&] {
        tie_jobs[1] =
            queue.addJob(plan_b, jobSpec("tie-b", JobSource::Spool, 5))
                .job;
    });
    std::thread t3([&] {
        // Same content as the in-flight task: attaches, enqueues
        // nothing.
        high_job = queue
                       .addJob(plan_hot,
                               jobSpec("attach", JobSource::Socket, 9))
                       .job;
    });
    t1.join();
    t2.join();
    t3.join();
    EXPECT_EQ(queue.counters().cells_deduped, 1u);

    const auto p1 = queue.pop();
    const auto p2 = queue.pop();
    ASSERT_TRUE(p1 && p2);
    EXPECT_EQ(p1->priority, 5);
    EXPECT_EQ(p2->priority, 5);
    // FIFO within the tie: whichever thread won addJob's mutex got
    // the lower job id *and* the lower seq, so pop order follows ids.
    EXPECT_LT(p1->job, p2->job);

    (void)completeAll(queue, *p1, true, "", true);
    (void)completeAll(queue, *p2, true, "", true);
    const auto finished = completeAll(queue, *running, true, "", true);
    ASSERT_EQ(finished.size(), 2u); // "hot" + the attached job
    EXPECT_EQ(queue.counters().jobs_completed, 4u);
    EXPECT_TRUE(queue.job(high_job)->complete());
}

TEST(Queue, CloseRacingInFlightCompletionIsSafe)
{
    // close() abandons *queued* tasks but must let a popped (running)
    // task drain through complete() from another thread — in any
    // interleaving, without deadlock or lost fan-out.
    for (int round = 0; round < 32; ++round) {
        ColdCache cold;
        JobQueue queue(cold.cache);
        (void)queue.addJob(tinyPlan(),
                           jobSpec("inflight", JobSource::Socket, 0));
        (void)queue.addJob(tinyPlan(
                               "workload bzip2\n"
                               "config c llc=4MiB\n"
                               "schedule s spacing=200000 regions=2\n"),
                           jobSpec("doomed", JobSource::Socket, 0));
        auto task = queue.pop();
        ASSERT_TRUE(task.has_value());

        std::vector<FinishedJob> finished;
        std::thread completer([&] {
            finished = completeAll(queue, *task, true, "", true);
        });
        std::thread closer([&] { queue.close(); });
        completer.join();
        closer.join();

        ASSERT_EQ(finished.size(), 1u);
        EXPECT_TRUE(finished[0].status.complete());
        EXPECT_EQ(queue.counters().queue_depth, 0u);
        EXPECT_FALSE(queue.pop().has_value());
    }
}

// -------------------------------------------------- fleet coordinator

/**
 * A four-cell plan that forms exactly TWO work units. Co-scheduling
 * groups by trace + schedule (geometry is per-cell — one decode pass
 * covers many cache sizes), so the two geometries share a unit while
 * the two schedules split them: unit A = {c1/s1, c2/s1}, unit B =
 * {c1/s2, c2/s2}. Two units give two workers real concurrent leases.
 */
constexpr const char *fleet_manifest =
    "workload bzip2\n"
    "config c1 llc=2MiB\n"
    "config c2 llc=8MiB\n"
    "schedule s1 spacing=200000 regions=2\n"
    "schedule s2 spacing=300000 regions=2\n"
    "methods delorean\n";

/** SUBMIT body: u32 LE priority + manifest text. */
std::string
submitBody(const std::string &text, std::uint32_t priority = 10)
{
    std::string body(4, '\0');
    workload::le::putU32(reinterpret_cast<std::uint8_t *>(body.data()),
                         priority);
    return body + text;
}

proto::Request
makeRequest(proto::Opcode op, std::string body)
{
    proto::Request request;
    request.op = op;
    request.body = std::move(body);
    return request;
}

/** First "<key>=" token value on the first line of @p text ("" if
 *  absent). */
std::string
tokenOf(const std::string &text, const std::string &key)
{
    const std::size_t eol = text.find('\n');
    std::istringstream is(
        eol == std::string::npos ? text : text.substr(0, eol));
    std::string token;
    const std::string prefix = key + "=";
    while (is >> token)
        if (token.rfind(prefix, 0) == 0)
            return token.substr(prefix.size());
    return "";
}

/**
 * A Coordinator serving on its own thread against temp directories,
 * shut down on scope exit. Workers attach via workerConfig().
 */
struct CoordinatorFixture
{
    TempPath root{"coord"};
    CoordinatorConfig config;
    std::unique_ptr<Coordinator> coordinator;
    std::thread runner;

    explicit CoordinatorFixture(unsigned lease_ms = 10000,
                                const std::string &cache_name = "cache")
    {
        std::filesystem::create_directories(root.path);
        config.socket_path = root.path + "/coord.sock";
        config.cache_dir = root.path + "/" + cache_name;
        config.lease_ms = lease_ms;
        coordinator = std::make_unique<Coordinator>(config);
        runner = std::thread([this] { coordinator->run(); });
        ServiceFixture::waitFor(
            [&] { return ServiceClient::ping(config.socket_path); },
            "coordinator socket to come up");
    }

    ~CoordinatorFixture()
    {
        coordinator->requestShutdown();
        runner.join();
    }

    WorkerConfig
    workerConfig(const std::string &name) const
    {
        WorkerConfig worker;
        worker.coordinator = config.socket_path;
        worker.cache_dir = root.path + "/wcache_" + name;
        worker.threads = 1;
        worker.idle_ms = 5;
        worker.name = name;
        return worker;
    }
};

// The fleet acceptance bar: a coordinator + two workers produce
// results bit-identical (MethodResult::operator==) to a direct serial
// run of the same plan.
TEST(Coordinator, TwoWorkerFleetIsBitIdenticalToSerialRun)
{
    const auto plan = tinyPlan(fleet_manifest);
    std::vector<sampling::MethodResult> direct;
    for (const auto &cell : plan.cells())
        direct.push_back(batch::BatchRunner::runCell(cell));

    // A lease long enough that even a sanitizer-slowed unit cannot
    // expire: this test pins the *no-fault* counters exactly
    // (executed == 4, discarded == 0), so no unit may ever re-queue.
    CoordinatorFixture fixture(/*lease_ms=*/120000);
    WorkerLoop alpha(fixture.workerConfig("alpha"));
    WorkerLoop beta(fixture.workerConfig("beta"));
    alpha.start();
    beta.start();

    ServiceClient client(fixture.config.socket_path);
    const auto info = client.submit(fleet_manifest);
    EXPECT_EQ(info.cells, 4u);
    ASSERT_TRUE(client.waitForJob(info.job, 120.0));
    ASSERT_STREQ(client.jobStatus(info.job).state(), "done")
        << jobStatusLine(client.jobStatus(info.job));

    for (std::size_t i = 0; i < plan.cells().size(); ++i)
        EXPECT_EQ(client.result(plan.cells()[i].key), direct[i])
            << "cell " << i;

    alpha.stop();
    beta.stop();
    const auto counters = fixture.coordinator->counters();
    EXPECT_EQ(counters.jobs_completed, 1u);
    EXPECT_EQ(counters.results_stored, 4u);
    EXPECT_EQ(counters.results_discarded, 0u);
    // Both workers' pull loops participated... or one raced ahead;
    // either way every cell ran exactly once across the fleet.
    const auto a = alpha.counters(), b = beta.counters();
    EXPECT_EQ(a.cells_executed + b.cells_executed, 4u);

    // Re-submission is served from the coordinator's cache: zero new
    // leases needed.
    const auto again = client.submit(fleet_manifest);
    ASSERT_TRUE(client.waitForJob(again.job, 120.0));
    const auto after = fixture.coordinator->counters();
    EXPECT_EQ(after.cells_cached, 4u);
    EXPECT_EQ(after.results_stored, 4u);
}

TEST(Coordinator, WorkerKilledMidPlanDoesNotChangeResults)
{
    const auto plan = tinyPlan(fleet_manifest);
    std::vector<sampling::MethodResult> direct;
    for (const auto &cell : plan.cells())
        direct.push_back(batch::BatchRunner::runCell(cell));

    // Short leases so the victim's abandoned unit re-queues quickly.
    CoordinatorFixture fixture(/*lease_ms=*/400);
    ServiceClient client(fixture.config.socket_path);
    const auto info = client.submit(fleet_manifest);

    // The victim pulls at least one lease, then "crashes": its
    // in-flight unit is never COMPLETEd, the lease expires, and the
    // survivor re-runs it.
    WorkerLoop victim(fixture.workerConfig("victim"));
    victim.start();
    ServiceFixture::waitFor(
        [&] {
            return fixture.coordinator->counters().leases_granted >= 1;
        },
        "victim to take a lease");
    victim.kill();

    WorkerLoop survivor(fixture.workerConfig("survivor"));
    survivor.start();
    ASSERT_TRUE(client.waitForJob(info.job, 120.0));
    ASSERT_STREQ(client.jobStatus(info.job).state(), "done")
        << jobStatusLine(client.jobStatus(info.job));
    survivor.stop();

    // Bit-identical merged results despite the mid-plan crash.
    for (std::size_t i = 0; i < plan.cells().size(); ++i)
        EXPECT_EQ(client.result(plan.cells()[i].key), direct[i])
            << "cell " << i;
    EXPECT_EQ(fixture.coordinator->counters().jobs_completed, 1u);
}

// In-process fault injection: drive Coordinator::handle() directly so
// lease expiry, re-leasing and zombie COMPLETEs are exercised without
// real sockets or worker threads — fully deterministic.
TEST(Coordinator, ExpiredLeaseRequeuesAndZombieDuplicateIsDiscarded)
{
    TempPath root("coord_zombie");
    std::filesystem::create_directories(root.path);
    CoordinatorConfig config;
    config.socket_path = root.path + "/coord.sock"; // never served
    config.cache_dir = root.path + "/cache";
    // Short enough for a quick test, long enough that the in-memory
    // submit/lease/renew calls cannot straddle it even under ASan.
    config.lease_ms = 200;
    Coordinator coordinator(config);

    const auto submitted = coordinator.handle(
        makeRequest(proto::Opcode::Submit, submitBody(tiny_manifest)),
        /*client=*/1);
    ASSERT_TRUE(submitted.ok) << submitted.body;
    const std::string job = tokenOf(submitted.body, "job");

    // Worker A takes the lease... and dies (never COMPLETEs).
    const auto leased_a = coordinator.handle(
        makeRequest(proto::Opcode::Lease, "worker=a\n"), 2);
    ASSERT_TRUE(leased_a.ok);
    ASSERT_NE(leased_a.body, "none\n");
    const std::string lease_a = tokenOf(leased_a.body, "lease");
    // The lease carries the expected content keys for verification.
    EXPECT_FALSE(tokenOf(leased_a.body, "keys").empty());

    // RENEW works while the lease lives...
    EXPECT_TRUE(coordinator
                    .handle(makeRequest(proto::Opcode::Renew,
                                        "lease=" + lease_a),
                            2)
                    .ok);

    // ...but past the deadline the unit re-queues and worker B gets it.
    std::this_thread::sleep_for(std::chrono::milliseconds(450));
    const auto leased_b = coordinator.handle(
        makeRequest(proto::Opcode::Lease, "worker=b\n"), 3);
    ASSERT_TRUE(leased_b.ok);
    ASSERT_NE(leased_b.body, "none\n") << "expired unit not re-leased";
    const std::string lease_b = tokenOf(leased_b.body, "lease");
    EXPECT_NE(lease_a, lease_b);
    EXPECT_GE(coordinator.counters().leases_expired, 1u);
    // A zombie's RENEW is refused.
    EXPECT_FALSE(coordinator
                     .handle(makeRequest(proto::Opcode::Renew,
                                         "lease=" + lease_a),
                             2)
                     .ok);

    // Worker B executes the cell and COMPLETEs: stored.
    const auto plan = tinyPlan();
    std::ostringstream payload(std::ios::binary);
    batch::writeMethodResult(
        payload, batch::BatchRunner::runCell(plan.cells()[0]));
    const auto done_b = coordinator.handle(
        makeRequest(proto::Opcode::Complete,
                    "lease=" + lease_b + " status=ok more=0\n" +
                        payload.str()),
        3);
    ASSERT_TRUE(done_b.ok) << done_b.body;
    EXPECT_EQ(tokenOf(done_b.body, "stored"), "1");
    EXPECT_EQ(tokenOf(done_b.body, "discarded"), "0");

    // The zombie's late duplicate: acked (ok reply), discarded, and
    // the stored result untouched (first write wins).
    const auto done_a = coordinator.handle(
        makeRequest(proto::Opcode::Complete,
                    "lease=" + lease_a + " status=ok more=0\n" +
                        payload.str()),
        2);
    ASSERT_TRUE(done_a.ok) << done_a.body;
    EXPECT_EQ(tokenOf(done_a.body, "stored"), "0");
    EXPECT_EQ(tokenOf(done_a.body, "discarded"), "1");

    const auto status = coordinator.handle(
        makeRequest(proto::Opcode::Status, job), 1);
    EXPECT_NE(status.body.find("state=done"), std::string::npos);
    const auto counters = coordinator.counters();
    EXPECT_EQ(counters.results_stored, 1u);
    EXPECT_EQ(counters.results_discarded, 1u);
    EXPECT_EQ(counters.jobs_completed, 1u);

    // And the merged result equals a direct serial run bit-for-bit.
    const auto fetched = coordinator.handle(
        makeRequest(proto::Opcode::Result, plan.cells()[0].key.hex()),
        1);
    ASSERT_TRUE(fetched.ok);
    std::istringstream parse(fetched.body, std::ios::binary);
    EXPECT_EQ(batch::readMethodResult(parse),
              batch::BatchRunner::runCell(plan.cells()[0]));
}

TEST(Coordinator, ZombieErrorCannotFailRescuedCells)
{
    // A zombie that comes back with status=error must not mark cells
    // failed: its lease already expired and a re-lease may (and here
    // does) still succeed.
    TempPath root("coord_zerr");
    std::filesystem::create_directories(root.path);
    CoordinatorConfig config;
    config.socket_path = root.path + "/coord.sock";
    config.cache_dir = root.path + "/cache";
    config.lease_ms = 200;
    Coordinator coordinator(config);

    (void)coordinator.handle(
        makeRequest(proto::Opcode::Submit, submitBody(tiny_manifest)),
        1);
    const auto leased_a = coordinator.handle(
        makeRequest(proto::Opcode::Lease, "worker=a\n"), 2);
    const std::string lease_a = tokenOf(leased_a.body, "lease");
    std::this_thread::sleep_for(std::chrono::milliseconds(450));
    const auto leased_b = coordinator.handle(
        makeRequest(proto::Opcode::Lease, "worker=b\n"), 3);
    ASSERT_NE(leased_b.body, "none\n");

    // Zombie error arrives while B is still working: discarded.
    const auto zerr = coordinator.handle(
        makeRequest(proto::Opcode::Complete,
                    "lease=" + lease_a +
                        " status=error more=0\nworker a exploded"),
        2);
    ASSERT_TRUE(zerr.ok);
    EXPECT_EQ(tokenOf(zerr.body, "stored"), "0");

    // B succeeds; the job must come out clean.
    const auto plan = tinyPlan();
    std::ostringstream payload(std::ios::binary);
    batch::writeMethodResult(
        payload, batch::BatchRunner::runCell(plan.cells()[0]));
    ASSERT_TRUE(coordinator
                    .handle(makeRequest(
                                proto::Opcode::Complete,
                                "lease=" +
                                    tokenOf(leased_b.body, "lease") +
                                    " status=ok more=0\n" +
                                    payload.str()),
                            3)
                    .ok);
    const auto status =
        coordinator.handle(makeRequest(proto::Opcode::Status, ""), 1);
    EXPECT_NE(status.body.find("state=done"), std::string::npos);
    EXPECT_EQ(status.body.find("state=failed"), std::string::npos);
}

TEST(Coordinator, ActiveErrorFailsCellsAndQuotaBackpressures)
{
    TempPath root("coord_quota");
    std::filesystem::create_directories(root.path);
    CoordinatorConfig config;
    config.socket_path = root.path + "/coord.sock";
    config.cache_dir = root.path + "/cache";
    config.submit_quota = 2;
    Coordinator coordinator(config);

    // An *active* lease's status=error fails the cells for real.
    (void)coordinator.handle(
        makeRequest(proto::Opcode::Submit, submitBody(tiny_manifest)),
        1);
    const auto leased = coordinator.handle(
        makeRequest(proto::Opcode::Lease, ""), 2);
    ASSERT_NE(leased.body, "none\n");
    const auto failed = coordinator.handle(
        makeRequest(proto::Opcode::Complete,
                    "lease=" + tokenOf(leased.body, "lease") +
                        " status=error more=0\nsimulator exploded"),
        2);
    ASSERT_TRUE(failed.ok);
    const auto status =
        coordinator.handle(makeRequest(proto::Opcode::Status, ""), 1);
    EXPECT_NE(status.body.find("state=failed"), std::string::npos);
    EXPECT_NE(status.body.find("simulator exploded"),
              std::string::npos);

    // Per-client SUBMIT quota: the first job completed (failed counts
    // as complete), so two more in-flight jobs fit; the third bounces
    // with a quota diagnostic, while another client is unaffected.
    ASSERT_TRUE(coordinator
                    .handle(makeRequest(proto::Opcode::Submit,
                                        submitBody(two_cell_manifest)),
                            1)
                    .ok);
    ASSERT_TRUE(
        coordinator
            .handle(makeRequest(proto::Opcode::Submit,
                                submitBody(fleet_manifest)),
                    1)
            .ok);
    const auto bounced = coordinator.handle(
        makeRequest(proto::Opcode::Submit,
                    submitBody(
                        "workload bzip2\n"
                        "config c llc=16MiB\n"
                        "schedule s spacing=200000 regions=2\n")),
        1);
    EXPECT_FALSE(bounced.ok);
    EXPECT_NE(bounced.body.find("quota"), std::string::npos);
    EXPECT_EQ(coordinator.counters().quota_rejections, 1u);
    EXPECT_TRUE(
        coordinator
            .handle(makeRequest(proto::Opcode::Submit,
                                submitBody(
                                    "workload bzip2\n"
                                    "config c llc=16MiB\n"
                                    "schedule s spacing=200000 "
                                    "regions=2\n")),
                    /*client=*/99)
            .ok);
}

TEST(Coordinator, ReadyBacklogCeilingRejectsWholeSubmit)
{
    TempPath root("coord_backlog");
    std::filesystem::create_directories(root.path);
    CoordinatorConfig config;
    config.socket_path = root.path + "/coord.sock";
    config.cache_dir = root.path + "/cache";
    config.max_ready_units = 2;
    Coordinator coordinator(config);

    // Units are co-scheduled groups, one per distinct schedule here,
    // so three schedules = three units: too many for a 2-unit
    // ceiling. Rejected atomically — no half-registered job, no
    // stranded units, no dangling waiters.
    const auto bounced = coordinator.handle(
        makeRequest(proto::Opcode::Submit,
                    submitBody("workload bzip2\n"
                               "config c llc=2MiB\n"
                               "schedule s1 spacing=200000 regions=2\n"
                               "schedule s2 spacing=300000 regions=2\n"
                               "schedule s3 spacing=400000 regions=2\n"
                               "methods delorean\n")),
        1);
    EXPECT_FALSE(bounced.ok) << bounced.body;
    EXPECT_NE(bounced.body.find("backlog"), std::string::npos);
    const auto counters = coordinator.counters();
    EXPECT_EQ(counters.jobs_submitted, 0u);
    EXPECT_EQ(counters.units_ready, 0u);
    // Nor any quota entry: a bounced SUBMIT from a connection with no
    // job in flight leaves the per-client accounting empty.
    EXPECT_EQ(coordinator.queue().inFlight(1), 0u);

    // The two-unit fleet plan exactly fills the ceiling: accepted.
    EXPECT_TRUE(coordinator
                    .handle(makeRequest(proto::Opcode::Submit,
                                        submitBody(fleet_manifest)),
                            1)
                    .ok);
    EXPECT_EQ(coordinator.counters().units_ready, 2u);
    EXPECT_EQ(coordinator.queue().inFlight(1), 1u);
}

// ---------------------------------------------- typed status replies

TEST(Queue, JobStatusLineRoundTripsThroughTypedParse)
{
    JobStatus status;
    status.id = 42;
    // A hostile name full of key=value lookalikes: the name is the
    // last token, so none of these may leak into other fields.
    status.name = "state=done cells=9 name=trap .plan";
    status.source = JobSource::Spool;
    status.priority = 7;
    status.cells = 5;
    status.done = 3;
    status.failed = 1;
    status.first_error = "cell 2: simulator exploded";

    const JobStatus parsed = parseJobStatusLine(jobStatusLine(status));
    EXPECT_EQ(parsed.id, 42u);
    EXPECT_EQ(parsed.name, status.name);
    EXPECT_EQ(parsed.source, JobSource::Spool);
    EXPECT_EQ(parsed.priority, 7);
    EXPECT_EQ(parsed.cells, 5u);
    EXPECT_EQ(parsed.done, 3u);
    EXPECT_EQ(parsed.failed, 1u);
    EXPECT_EQ(parsed.first_error, status.first_error);
    EXPECT_STREQ(parsed.state(), "running");
    // Exact round trip: re-rendering the parse reproduces the line.
    EXPECT_EQ(jobStatusLine(parsed), jobStatusLine(status));

    // Malformed lines are errors, never silently-zero statuses.
    const char *bad[] = {
        "",
        // No name token (everything after it would be ambiguous).
        "job=1 state=queued cells=1 done=0",
        // Missing required keys.
        "job=1 cells=1 done=0 name=x\n",
        "job=1 state=queued done=0 name=x\n",
        // Unparseable numbers / unknown enum values.
        "job=zzz state=queued cells=1 done=0 name=x\n",
        "job=1 state=queued cells=1 done=0 source=mars name=x\n",
        // State token contradicting the counters (truncated or
        // reassembled line that still tokenizes).
        "job=1 state=done cells=2 done=1 failed=0 priority=1 "
        "source=socket name=x\n",
        "job=1 state=queued cells=2 done=2 failed=0 priority=1 "
        "source=socket name=x\n",
        // Stray continuation line.
        "job=1 state=done cells=1 done=1 failed=0 priority=1 "
        "source=socket name=x\nnot an error line\n",
    };
    for (const char *text : bad)
        EXPECT_THROW((void)parseJobStatusLine(text), ServiceError)
            << "'" << text << "'";
}

TEST(Service, TypedStatusAndStatsMatchDaemonCounters)
{
    ServiceFixture fixture;
    ServiceClient client(fixture.config.socket_path);
    const auto info = client.submit(tiny_manifest);
    ASSERT_TRUE(client.waitForJob(info.job, 120.0));

    const ServiceStatus status = client.status();
    EXPECT_FALSE(status.fleet);
    EXPECT_EQ(status.jobs_submitted, 1u);
    EXPECT_EQ(status.jobs_completed, 1u);
    EXPECT_EQ(status.job_failures, 0u);
    EXPECT_EQ(status.cells_executed, 1u);
    EXPECT_EQ(status.queue_depth, 0u);
    ASSERT_EQ(status.jobs.size(), 1u);
    EXPECT_EQ(status.jobs[0].id, info.job);
    EXPECT_TRUE(status.jobs[0].complete());
    EXPECT_STREQ(status.jobs[0].state(), "done");

    const ServiceStats stats = client.stats();
    EXPECT_FALSE(stats.fleet);
    EXPECT_EQ(stats.last_run_executed, 1u);
    EXPECT_EQ(stats.last_run_cached, 0u);
    EXPECT_EQ(stats.total_executed, 1u);
    EXPECT_EQ(stats.jobs_submitted, 1u);
    EXPECT_EQ(stats.cells_executed, 1u);

    // The human renderings survive for the CLI; the typed accessors
    // parse exactly those texts, so the counters must agree.
    EXPECT_NE(client.statusText().find("jobs=1"), std::string::npos);
    EXPECT_NE(client.statsText().find("total_executed=1"),
              std::string::npos);
}

// ------------------------------------------------- stream migration

TEST(Coordinator, StreamMigratesAcrossWorkerKillBitIdentically)
{
    TempPath trace("mig_trace");
    const std::string bytes = recordTraceBytes(trace.path, 400000);
    const std::string plan_text =
        "workload file:" + trace.path + "\n" + stream_directives;
    const auto plan = tinyPlan(plan_text.c_str());
    ASSERT_EQ(plan.cells().size(), 1u);
    const auto golden = batch::BatchRunner::runCell(plan.cells()[0]);

    // Long leases: the victim commits window 1 and is killed while
    // *idle*, so nothing here depends on expiry timing — the handoff
    // sequence is fully deterministic.
    CoordinatorFixture fixture(/*lease_ms=*/120000);
    ServiceClient client(fixture.config.socket_path);
    EXPECT_TRUE(client.status().fleet);

    const std::uint64_t id = client.streamOpen(stream_directives);
    const std::size_t records_at = bytes.size() - 400000ull * 32;
    const std::size_t w1_end = records_at + 200000ull * 32;
    client.streamAppend(id, bytes.substr(0, w1_end));

    WorkerLoop victim(fixture.workerConfig("victim"));
    victim.start();
    ServiceFixture::waitFor(
        [&] {
            return fixture.coordinator->counters().stream_windows >= 1;
        },
        "victim to commit window 1");
    // The half-fed stream now carries a running estimate: STATUS
    // publishes CPI, CI and the miss-ratio curve mid-recording.
    const auto running = client.streamStatus(id);
    EXPECT_EQ(running.windows_fed, 1u);
    EXPECT_EQ(running.windows_total, 2u);
    EXPECT_FALSE(running.complete);
    EXPECT_GT(running.est_cpi, 0.0);
    EXPECT_FALSE(running.mrc.empty());
    victim.kill();

    WorkerLoop survivor(fixture.workerConfig("survivor"));
    survivor.start();
    client.streamAppend(id, bytes.substr(w1_end));
    const auto closed = client.streamClose(id);
    survivor.stop();

    // The migrated stream's CLOSE is bit-identical to the offline
    // run, under the offline content key.
    EXPECT_EQ(closed.windows, 2u);
    EXPECT_EQ(closed.key, plan.cells()[0].key);
    EXPECT_EQ(client.result(closed.key), golden);

    const auto counters = fixture.coordinator->counters();
    EXPECT_EQ(counters.streams_finished, 1u);
    EXPECT_EQ(counters.streams_failed, 0u);
    EXPECT_EQ(counters.stream_windows, 2u);
    EXPECT_GE(counters.stream_leases, 2u);
    // The victim warmed window 1; the survivor resumed from the
    // committed DLRNLVP1 prefix and warmed ONLY window 2 — never
    // from byte zero.
    EXPECT_EQ(victim.counters().windows_warmed, 1u);
    EXPECT_EQ(survivor.counters().windows_warmed, 1u);

    // The fleet STATS surface the stream counters in typed form.
    const ServiceStats stats = client.stats();
    EXPECT_TRUE(stats.fleet);
    EXPECT_EQ(stats.fleet_stats.streams_finished, 1u);
    EXPECT_EQ(stats.fleet_stats.stream_windows, 2u);
    EXPECT_GE(stats.fleet_stats.stream_handoffs, 2u);
}

TEST(Coordinator, WorkerKilledHoldingStreamLeaseStillFinishes)
{
    TempPath trace("mig_kill_trace");
    const std::string bytes = recordTraceBytes(trace.path, 400000);
    const std::string plan_text =
        "workload file:" + trace.path + "\n" + stream_directives;
    const auto plan = tinyPlan(plan_text.c_str());
    const auto golden = batch::BatchRunner::runCell(plan.cells()[0]);

    // Short leases: the victim is killed while *holding* a stream
    // lease (the kill -9 analogue — its handoff is never sent), the
    // lease expires, and the survivor re-leases the windows.
    CoordinatorFixture fixture(/*lease_ms=*/400);
    ServiceClient client(fixture.config.socket_path);
    const std::uint64_t id = client.streamOpen(stream_directives);
    const std::size_t records_at = bytes.size() - 400000ull * 32;
    client.streamAppend(
        id, bytes.substr(0, records_at + 200000ull * 32));

    WorkerLoop victim(fixture.workerConfig("victim"));
    victim.start();
    ServiceFixture::waitFor(
        [&] {
            return fixture.coordinator->counters().stream_leases >= 1;
        },
        "victim to take the stream lease");
    victim.kill(); // usually mid-warm; either way no double commit

    WorkerLoop survivor(fixture.workerConfig("survivor"));
    survivor.start();
    client.streamAppend(id,
                        bytes.substr(records_at + 200000ull * 32));
    const auto closed = client.streamClose(id);
    survivor.stop();

    EXPECT_EQ(closed.windows, 2u);
    EXPECT_EQ(closed.key, plan.cells()[0].key);
    EXPECT_EQ(client.result(closed.key), golden);
    const auto counters = fixture.coordinator->counters();
    EXPECT_EQ(counters.streams_finished, 1u);
    EXPECT_EQ(counters.streams_failed, 0u);
}

TEST(Coordinator, UnmigratedStreamWarmsEachWindowOnce)
{
    // The no-migration control: one worker, no faults. Exactly two
    // windows exist and exactly two windows are warmed across the
    // fleet — no window is ever warmed twice, so migration (the
    // previous tests) and normal operation share one accounting.
    TempPath trace("solo_trace");
    const std::string bytes = recordTraceBytes(trace.path, 400000);
    const std::string plan_text =
        "workload file:" + trace.path + "\n" + stream_directives;
    const auto plan = tinyPlan(plan_text.c_str());
    const auto golden = batch::BatchRunner::runCell(plan.cells()[0]);

    CoordinatorFixture fixture(/*lease_ms=*/120000);
    ServiceClient client(fixture.config.socket_path);
    const std::uint64_t id = client.streamOpen(stream_directives);

    WorkerLoop solo(fixture.workerConfig("solo"));
    solo.start();
    // Feed window 1, let it commit, then the rest: the suspended
    // stream is resumed by the *same* worker from its own prefix.
    const std::size_t records_at = bytes.size() - 400000ull * 32;
    client.streamAppend(
        id, bytes.substr(0, records_at + 200000ull * 32));
    ServiceFixture::waitFor(
        [&] {
            return fixture.coordinator->counters().stream_windows >= 1;
        },
        "window 1 to commit");
    client.streamAppend(id,
                        bytes.substr(records_at + 200000ull * 32));
    const auto closed = client.streamClose(id);

    EXPECT_EQ(closed.windows, 2u);
    EXPECT_EQ(client.result(closed.key), golden);
    solo.stop();
    EXPECT_EQ(solo.counters().windows_warmed, 2u);
    EXPECT_EQ(solo.counters().stream_leases_failed, 0u);
    const auto counters = fixture.coordinator->counters();
    EXPECT_EQ(counters.stream_windows, 2u);
    EXPECT_EQ(counters.streams_finished, 1u);
    EXPECT_EQ(counters.streams_failed, 0u);
}

TEST(Coordinator, StreamMigrationOpcodeAbuseIsSafe)
{
    TempPath root("coord_mig_abuse");
    std::filesystem::create_directories(root.path);
    CoordinatorConfig config;
    config.socket_path = root.path + "/coord.sock"; // never served
    config.cache_dir = root.path + "/cache";
    Coordinator coordinator(config);
    // The socket server converts thrown ServiceError/BatchError into
    // error replies; mirror that so every abuse case below asserts
    // "error reply, never a crash".
    const auto safeHandle = [&](proto::Opcode op,
                                const std::string &body) {
        try {
            return coordinator.handle(makeRequest(op, body), 1);
        } catch (const std::exception &e) {
            return proto::Reply::error(e.what());
        }
    };

    // No streams: STREAM-LEASE is idle, whatever the body says.
    for (const char *body : {"", "worker=w\n", "garbage tokens\n"}) {
        const auto reply =
            safeHandle(proto::Opcode::StreamLease, body);
        ASSERT_TRUE(reply.ok) << body;
        EXPECT_EQ(reply.body, "none\n") << body;
    }

    // Malformed STREAM-HANDOFF headers are error replies.
    for (const char *body :
         {"", "lease=1\n", "status=ok\n", "lease=1 status=maybe\n",
          "lease=zzz status=ok\n"}) {
        EXPECT_FALSE(
            safeHandle(proto::Opcode::StreamHandoff, body).ok)
            << "'" << body << "'";
    }

    // Host a real stream (one cheap window) and lease it.
    constexpr const char *directives =
        "config c llc=2MiB\n"
        "schedule s spacing=41000 regions=1\n";
    TempPath trace("mig_abuse_trace");
    const std::string bytes = recordTraceBytes(trace.path, 41000);
    const auto opened =
        safeHandle(proto::Opcode::StreamOpen, directives);
    ASSERT_TRUE(opened.ok) << opened.body;
    const std::string sid = tokenOf(opened.body, "stream");
    ASSERT_TRUE(
        safeHandle(proto::Opcode::StreamAppend,
                   "stream=" + sid + "\n" + bytes)
            .ok);

    const auto leased =
        safeHandle(proto::Opcode::StreamLease, "worker=w\n");
    ASSERT_TRUE(leased.ok);
    ASSERT_NE(leased.body, "none\n");
    EXPECT_EQ(tokenOf(leased.body, "from"), "0");
    EXPECT_EQ(tokenOf(leased.body, "to"), "1");
    EXPECT_EQ(tokenOf(leased.body, "finish"), "0");
    EXPECT_EQ(tokenOf(leased.body, "prefix"), "-");
    // A leased stream is not leased twice.
    EXPECT_EQ(safeHandle(proto::Opcode::StreamLease, "").body,
              "none\n");

    // A prefix handoff must ship a prefix file...
    const std::string lease1 = tokenOf(leased.body, "lease");
    EXPECT_FALSE(safeHandle(proto::Opcode::StreamHandoff,
                            "lease=" + lease1 +
                                " status=ok windows=1 prefix=-\n")
                     .ok);
    // ...and the error left the stream leasable again.
    const auto leased2 =
        safeHandle(proto::Opcode::StreamLease, "worker=w\n");
    ASSERT_NE(leased2.body, "none\n");
    const std::string lease2 = tokenOf(leased2.body, "lease");

    // A corrupt prefix file is an error reply, the worker file is
    // reclaimed, and the stream is (again) leasable.
    const std::string garbage = root.path + "/garbage.lvp";
    { std::ofstream(garbage, std::ios::binary) << "not a livepoint"; }
    EXPECT_FALSE(safeHandle(proto::Opcode::StreamHandoff,
                            "lease=" + lease2 +
                                " status=ok windows=1 prefix=" +
                                garbage + "\n")
                     .ok);
    EXPECT_FALSE(std::filesystem::exists(garbage));
    const auto leased3 =
        safeHandle(proto::Opcode::StreamLease, "worker=w\n");
    ASSERT_NE(leased3.body, "none\n");
    const std::string lease3 = tokenOf(leased3.body, "lease");

    // Cross-kind confusion: a work-unit lease cannot STREAM-HANDOFF,
    // a stream lease cannot COMPLETE. Both error without consuming
    // the lease.
    ASSERT_TRUE(safeHandle(proto::Opcode::Submit,
                           submitBody(tiny_manifest))
                    .ok);
    const auto cell_leased =
        safeHandle(proto::Opcode::Lease, "worker=w\n");
    ASSERT_NE(cell_leased.body, "none\n");
    const std::string cell_lease = tokenOf(cell_leased.body, "lease");
    EXPECT_FALSE(safeHandle(proto::Opcode::StreamHandoff,
                            "lease=" + cell_lease +
                                " status=ok windows=1 prefix=-\n")
                     .ok);
    EXPECT_FALSE(safeHandle(proto::Opcode::Complete,
                            "lease=" + lease3 + " status=ok more=0\n")
                     .ok);

    // A handoff under a vanished lease id is acked and discarded —
    // the worker did nothing wrong — and its prefix file is dropped.
    const std::string stale = root.path + "/stale.lvp";
    { std::ofstream(stale, std::ios::binary) << "whatever"; }
    const auto zombie = safeHandle(proto::Opcode::StreamHandoff,
                                   "lease=999999 status=ok windows=3 "
                                   "prefix=" +
                                       stale + "\n");
    ASSERT_TRUE(zombie.ok) << zombie.body;
    EXPECT_EQ(tokenOf(zombie.body, "discarded"), "1");
    EXPECT_FALSE(std::filesystem::exists(stale));

    // An *active* lease's error handoff fails the stream for real;
    // the next append surfaces the diagnostic and reclaims it.
    const auto failed = safeHandle(proto::Opcode::StreamHandoff,
                                   "lease=" + lease3 +
                                       " status=error\n"
                                       "worker exploded");
    ASSERT_TRUE(failed.ok) << failed.body;
    const auto append = safeHandle(proto::Opcode::StreamAppend,
                                   "stream=" + sid + "\nx");
    EXPECT_FALSE(append.ok);
    EXPECT_NE(append.body.find("worker exploded"), std::string::npos);
    EXPECT_FALSE(safeHandle(proto::Opcode::Status, "stream=" + sid).ok);
    EXPECT_EQ(coordinator.counters().streams_failed, 1u);

    // A finish handoff whose window count only matches num_regions
    // after 32-bit truncation (2^32 + 1), or that carries a malformed
    // estimate, is an error reply, never a finished stream; the lease
    // is spent and the stream stays leasable.
    const auto opened_b =
        safeHandle(proto::Opcode::StreamOpen, directives);
    ASSERT_TRUE(opened_b.ok) << opened_b.body;
    const std::string sid_b = tokenOf(opened_b.body, "stream");
    ASSERT_TRUE(safeHandle(proto::Opcode::StreamAppend,
                           "stream=" + sid_b + "\n" + bytes)
                    .ok);
    proto::Reply close_reply;
    std::thread closer([&] {
        close_reply = safeHandle(proto::Opcode::StreamClose,
                                 "stream=" + sid_b);
    });
    // An empty append is refused exactly once the close has begun,
    // so the next lease is the finish lease.
    ServiceFixture::waitFor(
        [&] {
            return !safeHandle(proto::Opcode::StreamAppend,
                               "stream=" + sid_b + "\n")
                        .ok;
        },
        "stream close to begin");
    // A well-formed result rides along, so only the header is wrong.
    std::ostringstream result(std::ios::binary);
    const sampling::MethodResult empty;
    batch::writeMethodResult(result, empty);
    for (const char *bad : {"windows=4294967297", "windows=1 mpki=zz"}) {
        const auto finish_leased =
            safeHandle(proto::Opcode::StreamLease, "worker=w\n");
        EXPECT_EQ(tokenOf(finish_leased.body, "finish"), "1")
            << bad << ": " << finish_leased.body;
        EXPECT_FALSE(safeHandle(proto::Opcode::StreamHandoff,
                                "lease=" +
                                    tokenOf(finish_leased.body, "lease") +
                                    " status=ok " + bad + " prefix=-\n" +
                                    result.str())
                         .ok)
            << bad;
    }
    const auto finish_again =
        safeHandle(proto::Opcode::StreamLease, "worker=w\n");
    EXPECT_EQ(tokenOf(finish_again.body, "finish"), "1")
        << finish_again.body;
    EXPECT_EQ(coordinator.counters().streams_finished, 0u);
    // Release the blocked close by failing the stream (no EXPECT above
    // may skip this, or the close would outlive the test).
    (void)safeHandle(proto::Opcode::StreamHandoff,
                     "lease=" + tokenOf(finish_again.body, "lease") +
                         " status=error\ngiving up");
    closer.join();
    EXPECT_FALSE(close_reply.ok);
    EXPECT_NE(close_reply.body.find("giving up"), std::string::npos);
}

// ----------------------------------------- streams through both owners

/** The two owners of a StreamHost (service/stream.hh). */
enum class StreamOwner
{
    Daemon,      //!< BatchService: windows fed in-process
    Coordinator, //!< Coordinator + one WorkerLoop: leased windows
};

/**
 * One stream owner serving on a temp socket. Both hand TRACE-STREAM
 * requests to the same StreamHost, so the front-end cases run
 * unchanged against each; only the window source differs.
 */
class HostedStream : public ::testing::TestWithParam<StreamOwner>
{
  protected:
    void
    SetUp() override
    {
        if (GetParam() == StreamOwner::Daemon) {
            daemon_ = std::make_unique<ServiceFixture>();
            return;
        }
        // Long leases: no stream lease may expire under a sanitizer.
        fleet_ = std::make_unique<CoordinatorFixture>(120000);
        worker_ =
            std::make_unique<WorkerLoop>(fleet_->workerConfig("worker"));
        worker_->start();
    }

    const std::string &
    socket() const
    {
        return daemon_ ? daemon_->config.socket_path
                       : fleet_->config.socket_path;
    }

    std::unique_ptr<ServiceFixture> daemon_;
    std::unique_ptr<CoordinatorFixture> fleet_;
    std::unique_ptr<WorkerLoop> worker_; //!< stops before fleet_ dies
};

INSTANTIATE_TEST_SUITE_P(
    Stream, HostedStream,
    ::testing::Values(StreamOwner::Daemon, StreamOwner::Coordinator),
    [](const ::testing::TestParamInfo<StreamOwner> &info) {
        return std::string(info.param == StreamOwner::Daemon
                               ? "Daemon"
                               : "Coordinator");
    });

TEST_P(HostedStream, AbusiveStreamsErrorCleanlyAndReclaimState)
{
    // One window is enough to exercise every failure path cheaply:
    // spacing just over the region+warming floor keeps the trace and
    // the (single) window feed small.
    constexpr const char *directives =
        "config c llc=2MiB\n"
        "schedule s spacing=41000 regions=1\n";
    TempPath trace("abuse_trace");
    const std::string bytes = recordTraceBytes(trace.path, 41000);

    ServiceClient client(socket());

    // Unknown / corrupt stream ids.
    EXPECT_THROW((void)client.streamAppend(999, "x"), ServiceError);
    EXPECT_THROW((void)client.streamStatus(999), ServiceError);
    EXPECT_THROW((void)client.streamClose(999), ServiceError);
    {
        const int fd = connectToServer(socket());
        for (const char *body :
             {"stream=-1", "stream=abc", "stream=", "strea",
              "stream=1x"}) {
            proto::Request request;
            request.op = proto::Opcode::StreamClose;
            request.body = body;
            proto::writeRequest(fd, request);
            EXPECT_FALSE(proto::readReply(fd).ok) << body;
        }
        // STREAM-APPEND with no id line at all.
        proto::Request request;
        request.op = proto::Opcode::StreamAppend;
        request.body = "no newline anywhere";
        proto::writeRequest(fd, request);
        EXPECT_FALSE(proto::readReply(fd).ok);
        ::close(fd);
    }

    // Directives the session layer would fatal() on must be rejected
    // as error replies at open.
    EXPECT_THROW((void)client.streamOpen("workload bzip2\n"),
                 ServiceError);
    EXPECT_THROW((void)client.streamOpen("config c confidence=95\n"),
                 ServiceError);
    EXPECT_THROW((void)client.streamOpen("methods smarts\n"),
                 ServiceError);
    EXPECT_THROW((void)client.streamOpen("gibberish line\n"),
                 ServiceError);

    // Garbage header bytes poison the stream: the append errors and
    // the id is reclaimed.
    {
        const std::uint64_t id = client.streamOpen(directives);
        EXPECT_THROW((void)client.streamAppend(id, std::string(64, 'Z')),
                     ServiceError);
        EXPECT_THROW((void)client.streamStatus(id), ServiceError);
    }

    // A header declaring fewer records than the schedule needs.
    {
        const std::uint64_t id = client.streamOpen(directives);
        std::string small = bytes;
        workload::le::putU64(
            reinterpret_cast<std::uint8_t *>(small.data()) + 16, 7);
        EXPECT_THROW((void)client.streamAppend(id, small),
                     ServiceError);
    }

    // Overflow: bytes past the declared record count, delivered in
    // one oversized append. Must error before any window feed.
    {
        const std::uint64_t id = client.streamOpen(directives);
        EXPECT_THROW((void)client.streamAppend(
                         id, bytes + std::string(32, '\0')),
                     ServiceError);
        EXPECT_THROW((void)client.streamStatus(id), ServiceError);
    }

    // Garbage record bytes poison the stream where its windows advance.
    // The daemon feeds before the APPEND replies, so that APPEND
    // errors. A coordinator spools them; the worker's lease fails, and
    // the next request reports that. Either way the stream is gone.
    {
        const std::uint64_t id = client.streamOpen(directives);
        std::string garbage = bytes;
        for (std::size_t at = bytes.size() - 41000ull * 32;
             at < garbage.size(); at += 32)
            garbage[at + 31] = '\x01'; // a reserved record byte
        std::string error;
        if (GetParam() == StreamOwner::Daemon) {
            try {
                (void)client.streamAppend(id, garbage);
                ADD_FAILURE() << "garbage records were fed";
            } catch (const ServiceError &e) {
                error = e.what();
            }
        } else {
            (void)client.streamAppend(id, garbage);
            ServiceFixture::waitFor(
                [&] {
                    try {
                        (void)client.streamStatus(id);
                        return false;
                    } catch (const ServiceError &e) {
                        error = e.what();
                        return true;
                    }
                },
                "the worker to fail the stream");
        }
        EXPECT_NE(error.find("garbage record"), std::string::npos)
            << error;
        EXPECT_THROW((void)client.streamStatus(id), ServiceError);
    }

    // Mid-record tail at close: the close errors but the stream stays
    // open, and completing the record lets it close cleanly.
    {
        const std::uint64_t id = client.streamOpen(directives);
        client.streamAppend(id, bytes.substr(0, bytes.size() - 13));
        EXPECT_THROW((void)client.streamClose(id), ServiceError);
        const auto st = client.streamStatus(id); // still alive
        EXPECT_EQ(st.windows_total, 1u);
        client.streamAppend(id, bytes.substr(bytes.size() - 13));
        const auto closed = client.streamClose(id);
        EXPECT_EQ(closed.windows, 1u);
        // Append after close: the id no longer exists.
        EXPECT_THROW((void)client.streamAppend(id, "x"), ServiceError);
        EXPECT_THROW((void)client.streamClose(id), ServiceError);
    }

    // After all that abuse the service still runs normal work: no
    // leaked state, no poisoned connection slots.
    const auto info = client.submit(tiny_manifest);
    ServiceFixture::waitFor([&] { return client.jobDone(info.job); },
                            "job after stream abuse");
    EXPECT_STREQ(client.jobStatus(info.job).state(), "done");
}

TEST_P(HostedStream, TailFollowsGrowingTraceFile)
{
    TempPath trace("tail_trace");
    const std::string bytes = recordTraceBytes(trace.path, 400000);
    const std::string plan_text =
        "workload file:" + trace.path + "\n" + stream_directives;
    const auto plan = tinyPlan(plan_text.c_str());
    const auto golden = batch::BatchRunner::runCell(plan.cells()[0]);

    // Re-grow the file from scratch while the host tails it. The cut
    // points are unaligned (mid-header, mid-record) on purpose: the
    // stability gate must still never feed a half-written tail.
    std::filesystem::remove(trace.path);
    ServiceClient client(socket());

    const auto append = [&](std::size_t from, std::size_t to) {
        std::ofstream out(trace.path,
                          std::ios::binary | std::ios::app);
        out.write(bytes.data() + from, std::streamoff(to - from));
    };
    // The tail opens BEFORE the recorder's first write: a file that
    // does not exist yet is "not started", not "vanished" — the
    // host polls until it appears.
    const std::uint64_t id = client.streamOpen(
        "tail=" + trace.path + "\n" + std::string(stream_directives));
    EXPECT_EQ(client.streamStatus(id).records, 0u);
    append(0, 13);

    const std::size_t records_at = bytes.size() - 400000ull * 32;
    append(13, records_at + 17);
    append(records_at + 17, records_at + 200000ull * 32 + 5);
    ServiceFixture::waitFor(
        [&] { return client.streamStatus(id).windows_fed >= 1; },
        "the tail to feed window 1");
    append(records_at + 200000ull * 32 + 5, bytes.size());

    // The host notices the file stopped growing, drains it, and
    // STATUS flips complete=1 — the signal to CLOSE.
    ServiceFixture::waitFor(
        [&] { return client.streamStatus(id).complete; },
        "the tail to drain the file");
    const auto closed = client.streamClose(id);
    EXPECT_EQ(closed.windows, 2u);
    EXPECT_EQ(closed.key, plan.cells()[0].key);
    EXPECT_EQ(client.result(closed.key), golden);
}

// The close key is batch::cellKey over the spool path, not a
// manifest line naming it, so a cache directory whose path holds
// whitespace and a '#' still closes under the offline key.
TEST(Stream, CacheDirWithWhitespaceClosesUnderOfflineKey)
{
    TempPath trace("ws_trace");
    const std::string bytes = recordTraceBytes(trace.path, 400000);
    const std::string plan_text =
        "workload file:" + trace.path + "\n" + stream_directives;
    const auto plan = tinyPlan(plan_text.c_str());
    const auto golden = batch::BatchRunner::runCell(plan.cells()[0]);

    ServiceFixture fixture(false, 1, 2, "cache dir #1");
    ServiceClient client(fixture.config.socket_path);
    const std::uint64_t id = client.streamOpen(stream_directives);
    client.streamAppend(id, bytes);
    const auto closed = client.streamClose(id);
    EXPECT_EQ(closed.windows, 2u);
    EXPECT_EQ(closed.key, plan.cells()[0].key);
    EXPECT_EQ(client.result(closed.key), golden);
}

// STREAM-LEASE carries the spool path as a space-separated token, so a
// coordinator refuses a stream whose spool path holds whitespace at
// open, instead of leasing a path no worker can read.
TEST(Coordinator, StreamOpenRefusesSpoolPathWithWhitespace)
{
    CoordinatorFixture fixture(10000, "cache dir #1");
    ServiceClient client(fixture.config.socket_path);
    try {
        (void)client.streamOpen(stream_directives);
        ADD_FAILURE() << "the open succeeded";
    } catch (const ServiceError &e) {
        EXPECT_NE(std::string(e.what()).find("whitespace"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(fixture.coordinator->counters().streams_opened, 0u);
    EXPECT_TRUE(std::filesystem::is_empty(fixture.config.cache_dir +
                                          "/fleet-streams"));
}

// A daemon stream whose directives name a livepoints= file writes the
// session's warm state at close. The file is keyed to the trace's
// content, so it validates against the original recording, and an
// offline run resumed from it equals the streamed result.
TEST(Stream, LivePointsWrittenAtCloseResumeOffline)
{
    TempPath trace("lvp_trace");
    TempPath lvp("lvp_file");
    const std::string bytes = recordTraceBytes(trace.path, 400000);
    const std::string directives = "config c llc=2MiB livepoints=" +
                                   lvp.path +
                                   "\n"
                                   "schedule s spacing=200000 regions=2\n"
                                   "methods delorean\n";
    const std::string plan_text =
        "workload file:" + trace.path + "\n" + directives;
    const auto plan = tinyPlan(plan_text.c_str());

    ServiceFixture fixture;
    ServiceClient client(fixture.config.socket_path);
    const std::uint64_t id = client.streamOpen(directives);
    client.streamAppend(id, bytes);
    const auto closed = client.streamClose(id);
    EXPECT_EQ(closed.key, plan.cells()[0].key);
    const auto streamed = client.result(closed.key);

    const auto warm = checkpoint::loadForRun(
        "file:" + trace.path, plan.cells()[0].config, lvp.path);
    EXPECT_EQ(warm.size(), 2u);
    EXPECT_EQ(batch::BatchRunner::runCell(plan.cells()[0]), streamed);
}

// Fleet workers key their prefixes to "stream:<id>", not to the trace
// content, so a coordinator cannot write a livepoints= file and
// refuses the open rather than ignore it.
TEST(Coordinator, StreamOpenRefusesLivePoints)
{
    TempPath lvp("fleet_lvp");
    CoordinatorFixture fixture;
    ServiceClient client(fixture.config.socket_path);
    try {
        (void)client.streamOpen("config c llc=2MiB livepoints=" +
                                lvp.path +
                                "\nschedule s spacing=200000 regions=2\n");
        ADD_FAILURE() << "the open succeeded";
    } catch (const ServiceError &e) {
        EXPECT_NE(std::string(e.what()).find("livepoints="),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(fixture.coordinator->counters().streams_opened, 0u);
}

} // namespace
