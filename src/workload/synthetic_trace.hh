/**
 * @file
 * The synthetic trace generator: executes a BenchmarkProfile.
 *
 * SyntheticTrace turns a profile into a deterministic dynamic instruction
 * stream. It is the workhorse TraceSource of the library and supports
 * cheap snapshots (deep copies of a few hundred bytes of state), which is
 * what makes multi-pass Time Traveling affordable in this reproduction.
 */

#ifndef DELOREAN_WORKLOAD_SYNTHETIC_TRACE_HH
#define DELOREAN_WORKLOAD_SYNTHETIC_TRACE_HH

#include <memory>
#include <vector>

#include "base/fastdiv.hh"
#include "workload/benchmark_profile.hh"
#include "workload/trace_source.hh"

namespace delorean::workload
{

/**
 * Deterministic instruction stream generated from a BenchmarkProfile.
 *
 * Layout decisions:
 *  - each kernel gets a page-aligned private data region, allocated
 *    sequentially from data_base with one guard page between regions;
 *  - code lives at code_base; branch and load/store PCs are drawn from
 *    the profile's code footprint so the L1-I sees a realistic working
 *    set; non-memory instructions sweep the code region sequentially.
 */
class SyntheticTrace : public TraceSource
{
  public:
    /** Start of the data address space used by kernels. */
    static constexpr Addr data_base = 0x1000'0000;

    /** Start of the code address space. */
    static constexpr Addr code_base = 0x40'0000;

    explicit SyntheticTrace(BenchmarkProfile profile);

    Instruction next() override;
    InstCount position() const override { return pos_; }
    std::unique_ptr<TraceSource> clone() const override;
    void reset() override;
    const std::string &name() const override { return profile_->name; }

    /**
     * Fast-forward: the block pipeline (see advance()), writing
     * nothing. Leaves the generator in exactly the state n x next()
     * would — the stream is path-dependent, so a synthetic trace
     * cannot seek — which the SpecProfileDeterminism suite and the
     * generator goldens pin against next() on every profile.
     */
    void skip(InstCount n) override;

    /**
     * Explorer replay fast path: the same block pipeline as skip(),
     * writing the cacheline number of each memory access in stream
     * order. Pinned against next()-filtering like skip().
     */
    InstCount memLines(Addr *lines, InstCount n) override;

    /** The profile this trace executes. */
    const BenchmarkProfile &profile() const { return *profile_; }

    /** Base address assigned to kernel @p idx (testing hook). */
    Addr kernelBase(std::size_t idx) const;

  private:
    SyntheticTrace(const SyntheticTrace &other);

    /**
     * Generate one instruction: the reference semantics of the stream,
     * which next() returns directly. @p draws supplies the main-stream
     * raw values through next(): rng_ itself, or the block pipeline's
     * draw buffer (which holds the next values of the same stream) for
     * the rare instructions its fast loop hands back.
     */
    template <class Draws>
    Instruction step(Draws &draws);

    /**
     * The block pipeline behind skip() and memLines(): advance @p n
     * instructions, writing memory-access lines to @p lines when
     * @p Lines. Per block it (1) fills the main-RNG draws the block is
     * certain to consume, (2) classifies them against exact integer
     * thresholds in a branch-free loop, then picks each memory
     * access's kernel, and (3) steps each kernel through its accesses
     * in a tight loop. Blocks end at phase boundaries; branch-rejection and
     * call-path instructions, and profiles whose draw count per
     * instruction is not fixed, go through step().
     *
     * @return the number of lines written
     */
    template <bool Lines>
    InstCount advance(InstCount n, Addr *lines);

    /** Immutable per-branch-PC behaviour, shared across clones. */
    struct BranchInfo
    {
        Addr pc;
        Addr target;
        double taken_bias;
    };

    /** Immutable tables shared by all clones of this trace. */
    struct Tables
    {
        std::vector<BranchInfo> branches;
        /** Load/store PCs, one table per kernel. */
        std::vector<std::vector<Addr>> mem_pcs;
        /** Per-phase cumulative kernel weights (index 0 = stationary). */
        std::vector<std::vector<double>> cum_weights;
        /** Phase end positions within one cycle; empty = stationary. */
        std::vector<InstCount> phase_ends;
        InstCount phase_cycle = 0;
        std::uint64_t code_slots = 1;
        // Precomputed reciprocals for every loop-invariant divisor the
        // per-instruction step() touches; a hardware divide here is
        // one of the most expensive instructions in Explorer replay.
        FastDiv branch_div;            //!< bound = branches.size()
        FastDiv code_slots_div;        //!< divisor = code_slots
        std::vector<FastDiv> pc_divs;  //!< divisor = mem_pcs[k].size()
        FastDiv n_funcs_div;           //!< bound = call targets
        FastDiv hot_funcs_div;         //!< bound = hot call targets
        // Loop-invariant pieces of the non-memory path (see step()
        // for the equivalence argument).
        double mem_plus_branch = 0.0;  //!< mem_ratio + branch_ratio
        std::uint64_t call_m_bound = 0; //!< chance(call) as integer cmp
        bool fp_draws = false;         //!< chance(fp_frac) draws at all
        // The block pipeline's integer forms of the double
        // comparisons step() makes on a draw's top 53 bits m:
        // "m * 2^-53 < p" is "m < ceil(p * 2^53)" and
        // "c < m * 2^-53" is "floor(c * 2^53) < m" (both sides of each
        // scaling are exact).
        std::uint64_t mem_m_bound = 0;    //!< u < mem_ratio
        std::uint64_t branch_m_bound = 0; //!< u < mem_plus_branch
        /** Per weight set (as cum_weights), floor(cum * 2^53). */
        std::vector<std::vector<std::uint64_t>> pick_bounds;
        /**
         * Every instruction draws exactly three main-stream values
         * outside the rare paths: store_frac and fp_frac lie strictly
         * inside (0,1), so the store and FP draws always happen.
         */
        bool fixed_layout = false;
    };

    /** Index of the active weight set (0 = stationary). */
    std::size_t
    weightSet() const
    {
        return tables_->phase_ends.empty() ? 0 : phase_idx_ + 1;
    }

    /** Pick a kernel index from the active weight vector. */
    std::size_t pickKernel(double u) const;

    std::shared_ptr<const BenchmarkProfile> profile_;
    std::shared_ptr<const Tables> tables_;

    /**
     * Advance the position and the phase cursor together by @p n
     * instructions, none of them past the active phase's end (see
     * untilPhaseEnd()): in_cycle_ can then only reach the end on the
     * last of them, so one update equals n single steps.
     */
    void
    advanceBy(InstCount n)
    {
        pos_ += n;
        const auto &t = *tables_;
        if (t.phase_cycle != 0) {
            in_cycle_ += n;
            if (in_cycle_ == t.phase_cycle) {
                in_cycle_ = 0;
                phase_idx_ = 0;
            }
            syncPhase();
        }
    }

    /** Move phase_idx_ to the phase containing in_cycle_. */
    void
    syncPhase()
    {
        const auto &ends = tables_->phase_ends;
        while (phase_idx_ + 1 < ends.size() &&
               in_cycle_ >= ends[phase_idx_])
            ++phase_idx_;
    }

    /** Instructions left in the active phase (all, when stationary). */
    InstCount
    untilPhaseEnd() const
    {
        const auto &t = *tables_;
        return t.phase_cycle == 0 ? ~InstCount(0)
                                  : t.phase_ends[phase_idx_] - in_cycle_;
    }

    std::vector<std::unique_ptr<AccessKernel>> kernels_;
    std::vector<std::uint32_t> pc_cursor_; //!< round-robin per kernel
    Rng rng_;
    InstCount pos_;
    /**
     * pos_ % tables_->phase_cycle, maintained incrementally (0 when
     * the profile is stationary): phased profiles would otherwise pay
     * a 64-bit division per memory access in weightSet(), one of the
     * hottest single instructions in Explorer replay.
     */
    InstCount in_cycle_ = 0;
    /**
     * Index into tables_->phase_ends of the phase containing
     * in_cycle_ (0 when stationary), maintained incrementally by
     * advanceBy() so weightSet() is a table lookup instead of a scan.
     */
    std::size_t phase_idx_ = 0;
    std::uint64_t code_cursor_;
    std::uint64_t func_pos_ = 0;
};

} // namespace delorean::workload

#endif // DELOREAN_WORKLOAD_SYNTHETIC_TRACE_HH
