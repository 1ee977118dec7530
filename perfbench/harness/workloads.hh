/**
 * @file
 * The benchmark's workloads. Each one builds its inputs from the
 * seed, sets up (offline references, program start-up, one untimed
 * warm-up operation), then drives the shipped binaries for about
 * --seconds and reports every end-to-end metric (README.md in this
 * directory defines them per workload). traceLayers() is the traced
 * mode: it times the calls into each module's public functions from
 * outside, over the workload's own inputs.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench
{

/** The dse_sweep workloads, configs and schedule (shared by fleet). */
extern const std::vector<std::string> dse_profiles;
extern const std::vector<std::pair<std::string, unsigned>> dse_llcs_mib;
constexpr std::uint64_t dse_spacing = 1'000'000;
constexpr unsigned dse_regions = 10;

/**
 * The dse manifest. @p methods is the methods line; @p key_seed > 0
 * adds seed=<key_seed> to every config, which changes the cells'
 * content keys (so a fleet re-run is not a cache hit) but not their
 * exact-mode results.
 */
std::string dseManifest(const std::string &methods,
                        std::uint64_t key_seed = 0);

/** One single-cell job of the service mix. */
struct MixCell
{
    std::string profile;
    std::string config; //!< config name
    unsigned llc_mib = 0;
    unsigned assoc = 16;
};

/** The service_mix schedule (short, so jobs are many). */
constexpr std::uint64_t mix_spacing = 500'000;
constexpr unsigned mix_regions = 4;

/** Manifest text of one service_mix job. */
std::string mixManifest(const MixCell &cell);

/** Profiles of the recorded trace_stream traces (seeded). */
extern const std::vector<std::string> stream_profiles;

/** Recorded stream traces of trace_stream (and the traced probes). */
constexpr std::uint64_t stream_spacing = 125'000;
constexpr unsigned stream_regions = 8;
constexpr std::size_t stream_chunk = 1u << 20;

/** STREAM-OPEN directives of every stream. */
std::string streamDirectives();

/**
 * Record the trace of @p profile with its seed derived from
 * @p seed into @p path (stream_spacing x stream_regions
 * instructions).
 */
void recordSeededTrace(const std::string &profile, std::uint64_t seed,
                         const std::string &path);

Report dseSweep(const Options &opt);
Report serviceMix(const Options &opt);
Report traceStream(const Options &opt);
Report fleetSweep(const Options &opt);

/** The traced mode: every per-layer metric. */
Report traceLayers(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
