/**
 * @file
 * Declarative description of a synthetic benchmark.
 *
 * A BenchmarkProfile is the recipe the SyntheticTrace generator executes:
 * instruction mix, branch behaviour, code footprint, and a weighted set of
 * memory access kernels (optionally re-weighted per phase). The 24 SPEC
 * CPU2006-like profiles used in the paper's figures live in
 * spec_profiles.cc.
 */

#ifndef DELOREAN_WORKLOAD_BENCHMARK_PROFILE_HH
#define DELOREAN_WORKLOAD_BENCHMARK_PROFILE_HH

#include <memory>
#include <string>
#include <vector>

#include "base/units.hh"
#include "workload/kernels.hh"

namespace delorean::workload
{

/** Parameters for one access kernel inside a profile. */
struct KernelSpec
{
    enum class Kind
    {
        Stream,
        Stride,
        Random,
        Chase,
        Block,
        HotCold,
        Epoch,
    };

    Kind kind = Kind::Random;

    /** Footprint in bytes (hot-set size for HotCold). */
    std::uint64_t ws = 1 * MiB;

    /** Element stride for Stream/Stride kernels. */
    std::uint64_t stride = 64;

    /** Block size and per-block repeat count for Block kernels. */
    std::uint64_t block = 4 * KiB;
    unsigned repeats = 4;

    /** Cold-set size, hot fraction and page interleaving for HotCold. */
    std::uint64_t cold = 0;
    double hot_frac = 0.9;
    bool interleaved = false;

    /** Sub-region count and rotation period for Epoch kernels. */
    unsigned regions = 4;
    std::uint64_t epoch_len = 1'000'000;

    /** Fraction of memory accesses served by this kernel. */
    double weight = 1.0;

    /** Number of static load/store PCs attributed to this kernel. */
    unsigned num_pcs = 4;
};

/** A phase: kernel weights that apply for a window of instructions. */
struct Phase
{
    InstCount length = 0;          //!< phase duration in instructions
    std::vector<double> weights;   //!< one weight per kernel spec
};

/**
 * Full description of one synthetic benchmark.
 */
struct BenchmarkProfile
{
    std::string name = "anonymous";

    /** Fraction of instructions that are memory references. */
    double mem_ratio = 0.35;

    /** Fraction of memory references that are stores. */
    double store_frac = 0.30;

    /** Fraction of instructions that are conditional branches. */
    double branch_ratio = 0.15;

    /** Number of static branch PCs. */
    unsigned num_branch_pcs = 64;

    /**
     * Fraction of branch PCs that are inherently hard to predict
     * (bias ~0.5); the rest are strongly biased loop-style branches.
     */
    double hard_branch_frac = 0.10;

    /** Fraction of non-memory ALU work that is long-latency (FP). */
    double fp_frac = 0.20;

    /** Static code footprint (drives the L1-I working set). */
    std::uint64_t code_footprint = 32 * KiB;

    /**
     * Most kernels a profile may weight together. The generator's
     * block pipeline tags each access with its kernel in one byte and
     * keeps per-kernel cursors on the stack; the SPEC-like profiles
     * use at most six.
     */
    static constexpr std::size_t max_kernels = 64;

    /** Weighted access kernels. */
    std::vector<KernelSpec> kernels;

    /** Optional phases (cycled); empty means stationary weights. */
    std::vector<Phase> phases;

    /** Master seed; every derived RNG stream is salted from it. */
    std::uint64_t seed = 1;

    /**
     * Validate internal consistency (ratios in range, weights usable,
     * phase weight vectors matching the kernel count). Calls fatal() on
     * user error.
     */
    void validate() const;

    /** Sum of kernel footprints (approximate data footprint). */
    std::uint64_t dataFootprint() const;
};

/**
 * Instantiate the kernel described by @p spec at address @p base.
 *
 * @param spec  kernel parameters
 * @param base  first byte of the kernel's private region
 * @param seed  RNG salt for stochastic kernels
 */
std::unique_ptr<AccessKernel> makeKernel(const KernelSpec &spec, Addr base,
                                         std::uint64_t seed);

} // namespace delorean::workload

#endif // DELOREAN_WORKLOAD_BENCHMARK_PROFILE_HH
