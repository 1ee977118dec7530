#include "service/worker.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>

#include "base/logging.hh"
#include "batch/error.hh"
#include "batch/plan.hh"
#include "batch/result_io.hh"
#include "batch/runner.hh"
#include "checkpoint/livepoint.hh"
#include "core/session.hh"
#include "service/client.hh"
#include "service/stream.hh"
#include "workload/trace_io.hh"

namespace delorean::service
{

WorkerLoop::WorkerLoop(WorkerConfig config)
    : config_(std::move(config)), cache_(config_.cache_dir)
{
    if (config_.coordinator.empty())
        throw ServiceError("worker: no coordinator socket path");
    if (config_.threads == 0)
        throw ServiceError("worker: thread count must be non-zero");
    if (config_.idle_ms == 0)
        config_.idle_ms = 1;
}

WorkerLoop::~WorkerLoop()
{
    stop();
}

void
WorkerLoop::start()
{
    if (started_.exchange(true))
        throw ServiceError("worker: already started");
    threads_.reserve(config_.threads);
    for (unsigned i = 0; i < config_.threads; ++i)
        threads_.emplace_back([this, i] { pullLoop(i); });
}

void
WorkerLoop::stop()
{
    stop_.store(true);
    for (auto &thread : threads_)
        if (thread.joinable())
            thread.join();
    threads_.clear();
}

void
WorkerLoop::kill()
{
    killed_.store(true);
    stop();
}

WorkerLoop::Counters
WorkerLoop::counters() const
{
    return {units_completed_.load(),       units_failed_.load(),
            cells_executed_.load(),        cells_from_cache_.load(),
            stream_leases_completed_.load(),
            stream_leases_failed_.load(),  windows_warmed_.load()};
}

void
WorkerLoop::pullLoop(unsigned thread_index)
{
    const std::string name =
        (config_.name.empty() ? "worker" : config_.name) + "/" +
        std::to_string(thread_index);
    std::unique_ptr<ServiceClient> client;
    unsigned idle_attempt = 0;

    // Sleep in short slices so stop()/kill() joins promptly even from
    // a long idle backoff.
    const auto nap = [&](unsigned attempt) {
        unsigned left = pollBackoffMs(attempt, config_.idle_ms,
                                      8 * config_.idle_ms,
                                      0x776f726bull + thread_index);
        while (left > 0 && !stop_.load()) {
            const unsigned slice = std::min(left, 10u);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(slice));
            left -= slice;
        }
    };

    while (!stop_.load()) {
        try {
            if (!client)
                client = std::make_unique<ServiceClient>(
                    config_.coordinator);
            const auto lease = client->lease(name);
            if (lease.idle) {
                // No work unit; a suspended stream may still have
                // windows to feed (docs/service.md, "Stream
                // migration").
                const auto stream = client->streamLease(name);
                if (stream.idle) {
                    nap(idle_attempt++);
                    continue;
                }
                idle_attempt = 0;
                runStreamLease(*client, stream, name);
                continue;
            }
            idle_attempt = 0;

            // Re-expand the manifest and verify the leased cells
            // against the coordinator's keys: expansion order is part
            // of the BatchPlan API, so a mismatch means a file-backed
            // workload changed since submit — results must not
            // publish under the coordinator's (now stale) keys.
            try {
                const auto plan = batch::BatchPlan::fromManifestText(
                    lease.manifest, "lease");
                std::vector<const batch::BatchCell *> unit;
                for (std::size_t i = 0; i < lease.cells.size(); ++i) {
                    const std::size_t index = lease.cells[i];
                    if (index >= plan.cells().size() ||
                        !(plan.cells()[index].key == lease.keys[i]))
                        throw batch::BatchError(
                            "leased cell " + std::to_string(index) +
                            ": key mismatch after re-expansion; plan "
                            "changed between submit and lease — "
                            "resubmit");
                    unit.push_back(&plan.cells()[index]);
                }

                // Refresh the lease before the expensive part so a
                // long unit is not re-queued under us.
                (void)client->renew(lease.lease);
                const auto outcomes =
                    batch::BatchRunner::runUnitCached(&cache_, unit);
                const std::size_t ran = std::size_t(std::count_if(
                    outcomes.begin(), outcomes.end(),
                    [](const auto &o) { return !o.from_cache; }));
                cells_executed_.fetch_add(ran);
                cells_from_cache_.fetch_add(unit.size() - ran);
                if (config_.verbose)
                    std::fprintf(stderr,
                                 "[%s] lease %llu: ran %zu of %zu "
                                 "cells\n",
                                 name.c_str(),
                                 (unsigned long long)lease.lease, ran,
                                 unit.size());

                // Serialize from the cache, not the in-memory
                // results: loadBytes is the canonical byte form, so
                // the coordinator's re-store is bit-identical.
                std::string payload;
                for (const auto *cell : unit) {
                    auto bytes = cache_.loadBytes(cell->key);
                    if (!bytes)
                        throw batch::BatchError(
                            "result for " + cell->workload +
                            " vanished from the local cache");
                    payload += *bytes;
                }

                if (killed_.load())
                    return; // crashed: never COMPLETE, lease expires
                (void)client->complete(lease.lease, payload);
                units_completed_.fetch_add(1);
            } catch (const batch::BatchError &e) {
                if (killed_.load())
                    return;
                (void)client->completeError(lease.lease, e.what());
                units_failed_.fetch_add(1);
            }
        } catch (const ServiceError &e) {
            // Coordinator gone or mid-exchange failure: drop the
            // connection and retry with backoff.
            client.reset();
            if (stop_.load())
                return;
            if (config_.verbose)
                std::fprintf(stderr, "[%s] %s\n", name.c_str(),
                             e.what());
            nap(idle_attempt++);
        }
    }
}

void
WorkerLoop::runStreamLease(ServiceClient &client,
                           const ServiceClient::StreamLeaseInfo &lease,
                           const std::string &name)
{
    try {
        const std::string spec =
            "stream:" + std::to_string(lease.stream);
        // host_threads stays at 1: it is excluded from content keys
        // and every fan-out is bit-identical, so this is purely a
        // local latency knob — and stream leases are already one per
        // stream.
        const core::DeloreanConfig config =
            streamConfig(lease.stream, lease.directives, 1);

        // Resume from the committed prefix instead of re-warming from
        // byte zero — the point of migration.
        std::vector<core::RegionWarm> warm;
        if (lease.prefix != "-")
            warm = checkpoint::loadPrefixForRun(spec, config,
                                                lease.prefix);
        if (warm.size() > lease.from) {
            // A zombie's first-write-wins handoff extended the
            // committed prefix after this lease was granted. The
            // extra windows are still correct warm state (pure
            // function of trace bytes + config), but the lease
            // contract is [from, to) — truncate rather than fail a
            // healthy stream.
            warm.resize(lease.from);
        }
        if (warm.size() < lease.from)
            throw batch::BatchError(
                "committed prefix covers " +
                std::to_string(warm.size()) +
                " windows but the lease starts at window " +
                std::to_string(lease.from));

        if (config_.verbose)
            std::fprintf(stderr,
                         "[%s] stream lease %llu: stream %llu windows "
                         "[%u, %u)%s\n",
                         name.c_str(), (unsigned long long)lease.lease,
                         (unsigned long long)lease.stream, lease.from,
                         lease.to, lease.finish ? ", finish" : "");

        // The spool may still be growing; present exactly the records
        // the lease covers so every worker sees the same snapshot.
        workload::FileTrace master(lease.trace, false, lease.records);
        core::DeloreanSession session(config);
        if (!warm.empty())
            session.feedWarmWindows(master, warm);

        // Refresh the lease before the expensive part so a long warm
        // stretch is not re-leased under us.
        (void)client.renew(lease.lease);

        // A finish lease granted after every window was already
        // committed has nothing left to warm.
        if (lease.to > session.windowsFed())
            session.feedWindows(master,
                                lease.to - session.windowsFed());
        windows_warmed_.fetch_add(lease.to - lease.from);

        const core::SessionEstimate est = session.estimate();
        const std::string mrc = formatMrcPoints(est.mrc);

        if (lease.finish) {
            const sampling::MethodResult result = session.finish();
            std::ostringstream os(std::ios::binary);
            batch::writeMethodResult(os, result);
            if (killed_.load())
                return; // crashed: lease expires, stream re-leases
            (void)client.streamHandoff(lease.lease, lease.to, "-",
                                       est.mean_cpi, est.ci_error,
                                       est.mpki, mrc, os.str());
        } else {
            // Suspend: ship the fed prefix as a live-point file next
            // to the spool (shared filesystem); the coordinator
            // validates and installs it, or deletes it on rejection.
            const checkpoint::LivePointFile file =
                checkpoint::sessionLivePoints(session, spec);
            const std::string path = lease.trace + ".lvp." +
                                     std::to_string(lease.lease);
            checkpoint::writeLivePointFile(path, file);
            if (killed_.load())
                return;
            (void)client.streamHandoff(lease.lease, lease.to, path,
                                       est.mean_cpi, est.ci_error,
                                       est.mpki, mrc, "");
        }
        stream_leases_completed_.fetch_add(1);
    } catch (const ServiceError &) {
        throw; // transport: reconnect in pullLoop
    } catch (const std::exception &e) {
        if (killed_.load())
            return;
        (void)client.streamHandoffError(lease.lease, e.what());
        stream_leases_failed_.fetch_add(1);
    }
}

} // namespace delorean::service
