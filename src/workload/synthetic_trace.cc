#include "workload/synthetic_trace.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "base/intmath.hh"
#include "base/logging.hh"

namespace delorean::workload
{

namespace
{

/** Probability per non-branch, non-memory instruction of a call/return
 *  to a different function (see the fetch-locality comment in step). */
constexpr double step_call_prob = 0.001;

/** Instruction slots per synthetic "function" (4 KiB of code). */
constexpr std::uint64_t step_func_slots = 1024;

/**
 * ceil(p * 2^53): "(r >> 11) * 2^-53 < p" — a chance(p) draw — is
 * exactly "(r >> 11) < ceilScaled(p)". The left side is an integer
 * scaled by a power of two, so the double comparison is an integer
 * one (pinned for every threshold-adjacent draw in test_workload.cc).
 */
std::uint64_t
ceilScaled(double p)
{
    return std::uint64_t(std::ceil(p * 0x1.0p53));
}

} // namespace

SyntheticTrace::SyntheticTrace(BenchmarkProfile profile)
    : profile_(std::make_shared<const BenchmarkProfile>(std::move(profile))),
      rng_(profile_->seed),
      pos_(0),
      code_cursor_(0),
      func_pos_(0)
{
    profile_->validate();

    const auto &prof = *profile_;
    auto tables = std::make_shared<Tables>();

    // --- code layout -----------------------------------------------------
    tables->code_slots = prof.code_footprint / 4;

    // Branch PCs are spread over the code footprint. A hard_branch_frac
    // of them get a near-random bias; the rest behave like loop
    // back-edges with strong taken bias.
    Rng layout_rng(prof.seed ^ 0x9d5f);
    tables->branches.reserve(prof.num_branch_pcs);
    for (unsigned i = 0; i < prof.num_branch_pcs; ++i) {
        BranchInfo info;
        const std::uint64_t slot =
            layout_rng.nextBounded(tables->code_slots);
        info.pc = code_base + slot * 4;
        const bool hard =
            layout_rng.nextDouble() < prof.hard_branch_frac;
        if (hard) {
            info.taken_bias = 0.4 + 0.2 * layout_rng.nextDouble();
            info.target = info.pc + 4 * (8 + layout_rng.nextBounded(64));
        } else {
            // Loop-style branch: strongly taken, backward target.
            info.taken_bias = 0.90 + 0.08 * layout_rng.nextDouble();
            const Addr span = 4 * (4 + layout_rng.nextBounded(256));
            info.target = info.pc > span ? info.pc - span : code_base;
        }
        tables->branches.push_back(info);
    }

    // Load/store PCs per kernel, also inside the code footprint.
    tables->mem_pcs.resize(prof.kernels.size());
    for (std::size_t k = 0; k < prof.kernels.size(); ++k) {
        auto &pcs = tables->mem_pcs[k];
        pcs.reserve(prof.kernels[k].num_pcs);
        for (unsigned i = 0; i < prof.kernels[k].num_pcs; ++i) {
            const std::uint64_t slot =
                layout_rng.nextBounded(tables->code_slots);
            pcs.push_back(code_base + slot * 4);
        }
    }

    // --- kernel weights (stationary + per phase) --------------------------
    const auto cumulate = [&](const std::vector<double> &raw) {
        std::vector<double> cum(raw.size());
        double acc = 0.0;
        for (std::size_t i = 0; i < raw.size(); ++i) {
            acc += raw[i];
            cum[i] = acc;
        }
        for (auto &c : cum)
            c /= acc;
        return cum;
    };

    std::vector<double> stationary;
    stationary.reserve(prof.kernels.size());
    for (const auto &k : prof.kernels)
        stationary.push_back(k.weight);
    tables->cum_weights.push_back(cumulate(stationary));

    InstCount cycle = 0;
    for (const auto &ph : prof.phases) {
        tables->cum_weights.push_back(cumulate(ph.weights));
        cycle += ph.length;
        tables->phase_ends.push_back(cycle);
    }
    tables->phase_cycle = cycle;

    // --- precomputed reciprocals ------------------------------------------
    if (!tables->branches.empty())
        tables->branch_div = FastDiv(tables->branches.size());
    tables->code_slots_div = FastDiv(tables->code_slots);
    tables->pc_divs.reserve(tables->mem_pcs.size());
    for (const auto &pcs : tables->mem_pcs)
        tables->pc_divs.emplace_back(pcs.empty() ? FastDiv()
                                                 : FastDiv(pcs.size()));

    // --- non-memory fast-path invariants ----------------------------------
    tables->mem_plus_branch = prof.mem_ratio + prof.branch_ratio;
    // chance(call_prob) compares (r >> 11) * 2^-53 < call_prob. The
    // left side is exact (an integer scaled by a power of two), so the
    // whole predicate is an integer comparison against
    // ceil(call_prob * 2^53): equality with the double comparison for
    // every r is pinned in test_workload.cc.
    tables->call_m_bound = ceilScaled(step_call_prob);
    const std::uint64_t n_funcs =
        std::max<std::uint64_t>(1, tables->code_slots / step_func_slots);
    tables->n_funcs_div = FastDiv(n_funcs);
    tables->hot_funcs_div = FastDiv(std::min<std::uint64_t>(
        n_funcs, 48 * KiB / (4 * step_func_slots)));
    tables->fp_draws = prof.fp_frac > 0.0 && prof.fp_frac < 1.0;

    // --- block-pipeline thresholds ----------------------------------------
    tables->mem_m_bound = ceilScaled(prof.mem_ratio);
    tables->branch_m_bound = ceilScaled(tables->mem_plus_branch);
    for (const auto &cum : tables->cum_weights) {
        auto &bounds = tables->pick_bounds.emplace_back();
        for (const double c : cum)
            bounds.push_back(std::uint64_t(std::floor(c * 0x1.0p53)));
    }
    tables->fixed_layout = tables->fp_draws && prof.store_frac > 0.0 &&
                           prof.store_frac < 1.0;

    tables_ = std::move(tables);
    syncPhase();

    // --- data layout -------------------------------------------------------
    Addr next_base = data_base;
    kernels_.reserve(prof.kernels.size());
    pc_cursor_.assign(prof.kernels.size(), 0);
    for (std::size_t k = 0; k < prof.kernels.size(); ++k) {
        const auto &spec = prof.kernels[k];
        kernels_.push_back(makeKernel(spec, next_base,
                                      prof.seed * 1315423911u + k));
        std::uint64_t fp = spec.ws;
        if (spec.kind == KernelSpec::Kind::HotCold && !spec.interleaved)
            fp += spec.cold;
        // Page-align with one guard page so kernels never share pages;
        // only HotColdKernel deliberately mixes localities in a page.
        next_base += roundUp<Addr>(fp, page_size) + page_size;
    }
}

SyntheticTrace::SyntheticTrace(const SyntheticTrace &other)
    : profile_(other.profile_),
      tables_(other.tables_),
      pc_cursor_(other.pc_cursor_),
      rng_(other.rng_),
      pos_(other.pos_),
      in_cycle_(other.in_cycle_),
      phase_idx_(other.phase_idx_),
      code_cursor_(other.code_cursor_),
      func_pos_(other.func_pos_)
{
    kernels_.reserve(other.kernels_.size());
    for (const auto &k : other.kernels_)
        kernels_.push_back(k->clone());
}

std::unique_ptr<TraceSource>
SyntheticTrace::clone() const
{
    return std::unique_ptr<TraceSource>(new SyntheticTrace(*this));
}

void
SyntheticTrace::reset()
{
    rng_ = Rng(profile_->seed);
    pos_ = 0;
    in_cycle_ = 0;
    phase_idx_ = 0;
    syncPhase();
    code_cursor_ = 0;
    func_pos_ = 0;
    pc_cursor_.assign(kernels_.size(), 0);
    for (auto &k : kernels_)
        k->reset();
}

Addr
SyntheticTrace::kernelBase(std::size_t idx) const
{
    panic_if(idx >= kernels_.size(), "kernelBase: index out of range");
    return kernels_[idx]->base();
}

std::size_t
SyntheticTrace::pickKernel(double u) const
{
    const auto &cum = tables_->cum_weights[weightSet()];
    // Branchless form of "first i with u <= cum[i]": cum is
    // non-decreasing, so that index equals the count of entries below
    // u. u is always <= cum.back() (== 1.0 exactly after
    // normalization, while u < 1.0), but clamp anyway so a degenerate
    // table cannot index out of bounds. The early-exit scan this
    // replaces mispredicted on nearly every draw.
    std::size_t idx = 0;
    for (const double c : cum)
        idx += c < u;
    return std::min(idx, cum.size() - 1);
}

namespace
{

/** The [0, 1) double of Rng::nextDouble() for raw draw @p r. */
inline double
unitDouble(std::uint64_t r)
{
    return (r >> 11) * 0x1.0p-53;
}

/** Rng::chance(p) on a generic draw source. */
template <class Draws>
bool
chance(Draws &draws, double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return unitDouble(draws.next()) < p;
}

/** Rng::nextBounded(fd) on a generic draw source. */
template <class Draws>
std::uint64_t
bounded(Draws &draws, const FastDiv &fd)
{
    for (;;) {
        const std::uint64_t r = draws.next();
        if (r >= fd.negMod())
            return fd.mod(r);
    }
}

/**
 * Call @p fn with @p k as its concrete kernel type instead of going
 * through the vtable: the kinds are fixed at construction, the
 * classes are final, and the nextAddr bodies are header-inline, so a
 * loop inside @p fn compiles to straight-line code per kind.
 * makeKernel guarantees the kind <-> concrete-type mapping this
 * relies on.
 */
template <class Fn>
inline void
visitKernel(KernelSpec::Kind kind, AccessKernel &k, Fn &&fn)
{
    switch (kind) {
      case KernelSpec::Kind::Stream:
        return fn(static_cast<StreamKernel &>(k));
      case KernelSpec::Kind::Stride:
        return fn(static_cast<StrideKernel &>(k));
      case KernelSpec::Kind::Random:
        return fn(static_cast<RandomKernel &>(k));
      case KernelSpec::Kind::Chase:
        return fn(static_cast<ChaseKernel &>(k));
      case KernelSpec::Kind::Block:
        return fn(static_cast<BlockKernel &>(k));
      case KernelSpec::Kind::HotCold:
        return fn(static_cast<HotColdKernel &>(k));
      case KernelSpec::Kind::Epoch:
        return fn(static_cast<EpochKernel &>(k));
    }
    fn(k);
}

/**
 * Replays the block pipeline's buffered draws — the next values of the
 * main stream — then continues the stream itself, so step() consumes
 * exactly the values next() would have drawn.
 */
struct BufferedDraws
{
    const std::uint64_t *cur;
    const std::uint64_t *end;
    Rng &rng;

    std::uint64_t next() { return cur != end ? *cur++ : rng.next(); }
};

/** Instructions the block pipeline classifies per block. */
constexpr std::size_t block_insts = 512;

/** Main-stream draws of every fixed-layout, non-rare instruction. */
constexpr std::size_t draws_per_inst = 3;

} // namespace

template <class Draws>
Instruction
SyntheticTrace::step(Draws &draws)
{
    const auto &prof = *profile_;
    const auto &t = *tables_;
    Instruction out;

    const double u = unitDouble(draws.next());

    if (u < prof.mem_ratio) {
        const std::size_t k = pickKernel(unitDouble(draws.next()));
        const bool store = chance(draws, prof.store_frac);
        const KernelSpec::Kind kind = prof.kernels[k].kind;
        visitKernel(kind, *kernels_[k],
                    [&](auto &kernel) { out.addr = kernel.nextAddr(); });
        out.type = store ? InstType::Store : InstType::Load;
        // Pointer-chase loads carry a value dependence on the previous
        // load (the next pointer), which the timing model serializes.
        out.dep_load = !store && kind == KernelSpec::Kind::Chase;
        const auto &pcs = t.mem_pcs[k];
        // A kernel's PCs stand for distinct loops: stay on one PC for a
        // stretch of iterations rather than round-robin per access —
        // per-access rotation would give every PC an artificial large
        // stride and mislead the limited-associativity model.
        out.pc = pcs[t.pc_divs[k].mod(pc_cursor_[k] / 64)];
        ++pc_cursor_[k];
        advanceBy(1);
        return out;
    }

    // Non-memory instruction. Both arms draw the same *pattern* —
    // one raw value, a rarely-taken slow-path check, then (usually)
    // one more raw value — so the unpredictable branch/other split is
    // resolved with conditional selects instead of a mispredicting
    // branch around each arm's draws. Draw-for-draw this is:
    //
    //   branch:  r = nextBounded(branches.size())   [rejection loop]
    //            taken = chance(taken_bias)         [bias in (0,1):
    //                                                always draws]
    //   other:   if (chance(0.001)) { call path }   [rare]
    //            fp = chance(fp_frac)               [draws iff
    //                                                fp_frac in (0,1)]
    //
    // nextBounded's first draw is rejected iff r < threshold;
    // chance(0.001)'s draw triggers the call path iff
    // (r >> 11) < call_m_bound. Both are one compare on the first raw
    // value, so one selected (key, bound) pair covers them.
    const bool is_branch = u < t.mem_plus_branch;
    const std::uint64_t n1 = draws.next();
    const std::uint64_t rare_key = is_branch ? n1 : n1 >> 11;
    const std::uint64_t rare_bound =
        is_branch ? t.branch_div.negMod() : t.call_m_bound;
    std::uint64_t r1 = n1;
    if (rare_key < rare_bound) [[unlikely]] {
        if (is_branch) {
            // Rejected first draw: continue the rejection loop.
            do {
                r1 = draws.next();
            } while (r1 < t.branch_div.negMod());
        } else {
            // Call/return to a different function; mostly hot code.
            // Execution stays inside a small "function" window, jumps
            // mostly between a few hot functions (covered by the 30 k
            // detailed warming), and only occasionally visits cold
            // code. A linear sweep would LRU-thrash the L1-I, which
            // real code does not.
            const std::uint64_t f = chance(draws, 0.98)
                                        ? bounded(draws, t.hot_funcs_div)
                                        : bounded(draws, t.n_funcs_div);
            code_cursor_ = f * step_func_slots;
            func_pos_ = 0;
        }
    }
    std::uint64_t n2 = 0;
    if (is_branch | t.fp_draws)
        n2 = draws.next();
    if (is_branch) {
        const auto &br = t.branches[t.branch_div.mod(r1)];
        out.type = InstType::Branch;
        out.pc = br.pc;
        out.target = br.target;
        out.taken = unitDouble(n2) < br.taken_bias;
    } else {
        const bool fp = t.fp_draws ? unitDouble(n2) < prof.fp_frac
                                   : prof.fp_frac >= 1.0;
        out.type = InstType::Other;
        out.pc =
            code_base + t.code_slots_div.mod(code_cursor_ + func_pos_) * 4;
        out.latency = fp ? std::uint8_t(4) : std::uint8_t(1);
    }
    // func_pos_ stays below step_func_slots, so adding 0 and masking
    // is the identity: a select, not a branch.
    func_pos_ = (func_pos_ + (is_branch ? 0 : 1)) & (step_func_slots - 1);

    advanceBy(1);
    return out;
}

template <bool Lines>
InstCount
SyntheticTrace::advance(InstCount n, Addr *lines)
{
    const auto &t = *tables_;
    InstCount m = 0;
    const auto reference = [&](auto &draws) {
        const Instruction inst = step(draws);
        if constexpr (Lines) {
            if (inst.isMem())
                lines[m++] = inst.line();
        }
    };
    if (!t.fixed_layout) {
        for (; n > 0; --n)
            reference(rng_);
        return m;
    }

    const std::size_t n_kernels = kernels_.size();
    const std::uint64_t branch_neg_mod = t.branch_div.negMod();
    std::array<std::uint64_t, block_insts * draws_per_inst> draws;
    std::array<std::uint64_t, block_insts> pick_draw;
    std::array<std::uint8_t, block_insts> kidx;
    std::size_t c = 0;
    std::size_t end = 0;
    while (n > 0) {
        // (1) Draws. Refill once fewer than one instruction's draws
        // are left, keeping those: never more than the remaining n
        // instructions are certain to consume, so the buffer is empty
        // when n reaches 0 and rng_ stands exactly where n x next()
        // would leave it.
        if (end - c < draws_per_inst) {
            const std::size_t left = end - c;
            std::copy(draws.begin() + c, draws.begin() + end,
                      draws.begin());
            const std::size_t want = std::size_t(std::min<InstCount>(
                draws.size(), draws_per_inst * n));
            rng_.fill(draws.data() + left, want - left);
            c = 0;
            end = want;
        }

        // (2) Classify one block within the active phase, stopping
        // before a rare instruction. Branch-free except for that exit:
        // each instruction writes its kernel-pick draw, and only a
        // memory access keeps it.
        const InstCount span = std::min<InstCount>(
            {n, InstCount(block_insts), untilPhaseEnd()});
        const std::uint64_t *pick = t.pick_bounds[weightSet()].data();
        std::size_t i = 0;
        std::size_t nm = 0;
        std::uint64_t n_other = 0;
        bool hit_rare = false;
        for (; i < span && c + draws_per_inst <= end;
             ++i, c += draws_per_inst) {
            const std::uint64_t d1 = draws[c + 1];
            const std::uint64_t m0 = draws[c] >> 11;
            const std::uint64_t m1 = d1 >> 11;
            const bool is_mem = m0 < t.mem_m_bound;
            const bool mem_or_branch = m0 < t.branch_m_bound;
            // step()'s (key, bound) selection, as two predicates whose
            // bitwise or compilers keep branch-free (a select on the
            // unpredictable branch/other split became a branch).
            const bool rare =
                (mem_or_branch & !is_mem & (d1 < branch_neg_mod)) |
                (!mem_or_branch & (m1 < t.call_m_bound));
            if (rare) [[unlikely]] {
                hit_rare = true;
                break;
            }
            pick_draw[nm] = m1;
            nm += is_mem;
            n_other += !mem_or_branch;
        }

        // Kernel picks of the memory accesses. The last bound is
        // 2^53 > m1, so counting the others is pickKernel's clamped
        // count.
        std::array<std::uint32_t, BenchmarkProfile::max_kernels> count{};
        for (std::size_t a = 0; a < nm; ++a) {
            std::size_t k = 0;
            for (std::size_t j = 0; j + 1 < n_kernels; ++j)
                k += pick[j] < pick_draw[a];
            kidx[a] = std::uint8_t(k);
            ++count[k];
        }

        // (3) Kernels: step each kernel through its accesses with the
        // kind switch outside the loop; memLines() generates each
        // kernel's lines contiguously, then gathers them back into
        // stream order.
        std::array<Addr, block_insts> kernel_lines;
        std::array<std::uint32_t, BenchmarkProfile::max_kernels> next_line;
        std::size_t off = 0;
        for (std::size_t k = 0; k < n_kernels && off < nm; ++k) {
            if constexpr (Lines)
                next_line[k] = std::uint32_t(off);
            const std::uint32_t n_k = count[k];
            if (n_k == 0)
                continue;
            pc_cursor_[k] += n_k;
            visitKernel(profile_->kernels[k].kind, *kernels_[k],
                        [&](auto &kernel) {
                            for (std::uint32_t j = 0; j < n_k; ++j) {
                                const Addr a = kernel.nextAddr();
                                if constexpr (Lines)
                                    kernel_lines[off + j] = lineOf(a);
                            }
                        });
            off += n_k;
        }
        if constexpr (Lines) {
            for (std::size_t j = 0; j < nm; ++j)
                lines[m + j] = kernel_lines[next_line[kidx[j]]++];
            m += nm;
        }
        func_pos_ = (func_pos_ + n_other) & (step_func_slots - 1);
        advanceBy(i);
        n -= i;

        if (hit_rare) {
            BufferedDraws buffered{draws.data() + c, draws.data() + end,
                                   rng_};
            reference(buffered);
            c = std::size_t(buffered.cur - draws.data());
            --n;
        }
    }
    panic_if(c != end, "SyntheticTrace: %zu block draws left unconsumed",
             end - c);
    return m;
}

Instruction
SyntheticTrace::next()
{
    return step(rng_);
}

void
SyntheticTrace::skip(InstCount n)
{
    (void)advance<false>(n, nullptr);
}

InstCount
SyntheticTrace::memLines(Addr *lines, InstCount n)
{
    return advance<true>(n, lines);
}

} // namespace delorean::workload
