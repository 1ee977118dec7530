/**
 * @file
 * Memory access kernels: the building blocks of synthetic workloads.
 *
 * Each kernel owns a private region of the address space and generates a
 * deterministic stream of byte addresses with a characteristic reuse
 * structure. Benchmark profiles (spec_profiles.cc) weight several kernels
 * together to imitate the locality behaviour of the SPEC CPU2006 programs
 * the paper evaluates. All state is deep-copied by clone() so traces can
 * be checkpointed.
 *
 * Reuse structure summary (distances in kernel-local accesses):
 *  - StreamKernel:   sequential sweep; line reuse every ws/line accesses
 *                    (plus immediate same-line reuses for sub-line strides)
 *  - StrideKernel:   like Stream but with a large stride; exercises the
 *                    limited-associativity (set imbalance) model
 *  - RandomKernel:   uniform over working set; geometric reuse distances
 *  - ChaseKernel:    pseudo-random permutation walk; every line reused
 *                    exactly once per full cycle (sharp reuse peak)
 *  - BlockKernel:    repeated passes over a small block, then advance;
 *                    bimodal short/long reuses
 *  - HotColdKernel:  mostly-hot accesses with rare cold lines; optionally
 *                    interleaves cold lines into hot pages to provoke
 *                    watchpoint false positives (the povray effect)
 *  - EpochKernel:    rotates between sub-regions on a long period; first
 *                    accesses after rotation have very long reuses
 */

#ifndef DELOREAN_WORKLOAD_KERNELS_HH
#define DELOREAN_WORKLOAD_KERNELS_HH

#include <memory>
#include <vector>

#include "base/addr.hh"
#include "base/fastdiv.hh"
#include "base/random.hh"
#include "base/types.hh"

namespace delorean::workload
{

/**
 * Abstract address generator with private RNG and deep-copy cloning.
 */
class AccessKernel
{
  public:
    virtual ~AccessKernel() = default;

    /** Generate the next byte address in this kernel's region. */
    virtual Addr nextAddr() = 0;

    /** Deep-copy the kernel state (checkpoint support). */
    virtual std::unique_ptr<AccessKernel> clone() const = 0;

    /** Rewind to the initial state. */
    virtual void reset() = 0;

    /** First byte of this kernel's address region. */
    virtual Addr base() const = 0;

    /** Size of this kernel's address region in bytes. */
    virtual std::uint64_t footprint() const = 0;
};

/** Sequential sweep over [base, base+ws) with a fixed element stride. */
class StreamKernel final : public AccessKernel
{
  public:
    StreamKernel(Addr base, std::uint64_t ws_bytes, std::uint64_t stride);

    Addr nextAddr() override;
    std::unique_ptr<AccessKernel> clone() const override;
    void reset() override;
    Addr base() const override { return base_; }
    std::uint64_t footprint() const override { return ws_; }

  private:
    Addr base_;
    std::uint64_t ws_;
    std::uint64_t stride_;
    std::uint64_t offset_;
};

/** Large-stride sweep; touches only every stride-th cacheline. */
class StrideKernel final : public AccessKernel
{
  public:
    StrideKernel(Addr base, std::uint64_t ws_bytes, std::uint64_t stride);

    Addr nextAddr() override;
    std::unique_ptr<AccessKernel> clone() const override;
    void reset() override;
    Addr base() const override { return base_; }
    std::uint64_t footprint() const override { return ws_; }

  private:
    Addr base_;
    std::uint64_t ws_;
    std::uint64_t stride_;
    std::uint64_t offset_;
};

/** Uniform random line accesses within the working set. */
class RandomKernel final : public AccessKernel
{
  public:
    RandomKernel(Addr base, std::uint64_t ws_bytes, std::uint64_t seed);

    Addr nextAddr() override;
    std::unique_ptr<AccessKernel> clone() const override;
    void reset() override;
    Addr base() const override { return base_; }
    std::uint64_t footprint() const override { return ws_; }

  private:
    Addr base_;
    std::uint64_t ws_;
    std::uint64_t lines_;
    FastDiv lines_div_;
    std::uint64_t seed_;
    Rng rng_;
};

/**
 * Pointer-chase over a full-period LCG permutation of the working set's
 * cachelines: storage-free stand-in for linked data structures (mcf,
 * omnetpp, xalancbmk).
 */
class ChaseKernel final : public AccessKernel
{
  public:
    ChaseKernel(Addr base, std::uint64_t ws_bytes, std::uint64_t seed);

    Addr nextAddr() override;
    std::unique_ptr<AccessKernel> clone() const override;
    void reset() override;
    Addr base() const override { return base_; }
    std::uint64_t footprint() const override { return ws_; }

    /** Number of distinct lines in the cycle. */
    std::uint64_t cycleLength() const { return lines_; }

  private:
    Addr base_;
    std::uint64_t ws_;
    std::uint64_t lines_;
    std::uint64_t mult_;  //!< LCG multiplier (a ≡ 1 mod 4)
    std::uint64_t inc_;   //!< LCG increment (odd)
    std::uint64_t cur_;
    std::uint64_t start_;
};

/**
 * Blocked loop nest: sweep a small block @p repeats times, then move to
 * the next block; wraps around the working set.
 */
class BlockKernel final : public AccessKernel
{
  public:
    BlockKernel(Addr base, std::uint64_t ws_bytes,
                std::uint64_t block_bytes, unsigned repeats);

    Addr nextAddr() override;
    std::unique_ptr<AccessKernel> clone() const override;
    void reset() override;
    Addr base() const override { return base_; }
    std::uint64_t footprint() const override { return ws_; }

  private:
    Addr base_;
    std::uint64_t ws_;
    std::uint64_t block_;
    unsigned repeats_;
    std::uint64_t block_start_;
    std::uint64_t offset_;
    unsigned pass_;
};

/**
 * Hot/cold mixture. With probability @p hot_frac the access goes to a
 * small hot set, otherwise to a large cold set walked sequentially.
 * When @p interleaved is true the cold lines are spread through the hot
 * pages (one cold line per hot page) so that a watchpoint on a cold line
 * traps on every hot access to the page — the paper's povray pathology.
 */
class HotColdKernel final : public AccessKernel
{
  public:
    HotColdKernel(Addr base, std::uint64_t hot_bytes,
                  std::uint64_t cold_bytes, double hot_frac,
                  bool interleaved, std::uint64_t seed);

    Addr nextAddr() override;
    std::unique_ptr<AccessKernel> clone() const override;
    void reset() override;
    Addr base() const override { return base_; }
    std::uint64_t footprint() const override;

  private:
    Addr base_;
    std::uint64_t hot_bytes_;
    std::uint64_t cold_bytes_;
    double hot_frac_;
    bool interleaved_;
    std::uint64_t seed_;
    Rng rng_;
    std::uint64_t cold_cursor_;
    FastDiv pages_div_;     //!< bound = hot pages
    FastDiv line_pick_div_; //!< bound = pickable lines per page
    FastDiv cold_div_;      //!< cold-cursor wrap divisor
};

/**
 * Epoch rotation: the working set is divided into @p regions sub-regions;
 * accesses stay within the active sub-region (uniform random) and the
 * active sub-region advances every @p epoch_len accesses. Re-references
 * after a full rotation produce very long reuse distances (calculix's
 * single outlier region; GemsFDTD's long tails).
 */
class EpochKernel final : public AccessKernel
{
  public:
    EpochKernel(Addr base, std::uint64_t ws_bytes, unsigned regions,
                std::uint64_t epoch_len, std::uint64_t seed);

    Addr nextAddr() override;
    std::unique_ptr<AccessKernel> clone() const override;
    void reset() override;
    Addr base() const override { return base_; }
    std::uint64_t footprint() const override { return ws_; }

  private:
    Addr base_;
    std::uint64_t ws_;
    unsigned regions_;
    std::uint64_t epoch_len_;
    std::uint64_t seed_;
    Rng rng_;
    std::uint64_t count_;
    FastDiv epoch_div_;   //!< divisor = epoch_len
    FastDiv regions_div_; //!< divisor = regions
    FastDiv lines_div_;   //!< bound = lines per sub-region
};

// The nextAddr bodies live in the header: the synthetic trace
// generator calls one of them per generated memory access, and it
// dispatches on the profile's kernel kind (the classes are final)
// precisely so these inline — into next()'s step, and into the block
// pipeline's per-kernel loops behind skip() and memLines() — instead
// of going through the vtable.

inline Addr
StreamKernel::nextAddr()
{
    const Addr a = base_ + offset_;
    offset_ += stride_;
    if (offset_ >= ws_)
        offset_ = 0;
    return a;
}

inline Addr
StrideKernel::nextAddr()
{
    const Addr a = base_ + offset_;
    offset_ += stride_;
    if (offset_ >= ws_)
        offset_ = 0;
    return a;
}

inline Addr
RandomKernel::nextAddr()
{
    const std::uint64_t line = rng_.nextBounded(lines_div_);
    return base_ + line * line_size;
}

inline Addr
ChaseKernel::nextAddr()
{
    const Addr a = base_ + cur_ * line_size;
    cur_ = (cur_ * mult_ + inc_) & (lines_ - 1);
    return a;
}

inline Addr
BlockKernel::nextAddr()
{
    const Addr a = base_ + block_start_ + offset_;
    offset_ += line_size;
    if (offset_ >= block_) {
        offset_ = 0;
        if (++pass_ >= repeats_) {
            pass_ = 0;
            block_start_ += block_;
            if (block_start_ + block_ > ws_)
                block_start_ = 0;
        }
    }
    return a;
}

inline Addr
HotColdKernel::nextAddr()
{
    if (rng_.chance(hot_frac_)) {
        // Hot access: any line in a hot page except the reserved cold
        // line (line 0 of each page) when interleaved.
        const std::uint64_t pg = rng_.nextBounded(pages_div_);
        const std::uint64_t first = interleaved_ ? 1 : 0;
        const std::uint64_t ln = first + rng_.nextBounded(line_pick_div_);
        return base_ + pg * page_size + ln * line_size;
    }
    if (interleaved_) {
        // Cold lines live at line 0 of each hot page, visited round-robin
        // so each has a long, regular reuse distance but shares its page
        // with constant hot traffic (watchpoint false-positive storm).
        const std::uint64_t pg = cold_div_.mod(cold_cursor_);
        ++cold_cursor_;
        return base_ + pg * page_size;
    }
    // Separate cold region, swept sequentially.
    const std::uint64_t ln = cold_div_.mod(cold_cursor_);
    ++cold_cursor_;
    return base_ + hot_bytes_ + ln * line_size;
}

inline Addr
EpochKernel::nextAddr()
{
    const std::uint64_t region_bytes = ws_ / regions_;
    const unsigned active =
        unsigned(regions_div_.mod(epoch_div_.div(count_)));
    ++count_;
    const std::uint64_t ln = rng_.nextBounded(lines_div_);
    return base_ + Addr(active) * region_bytes + ln * line_size;
}

} // namespace delorean::workload

#endif // DELOREAN_WORKLOAD_KERNELS_HH
