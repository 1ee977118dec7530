/**
 * @file
 * Tests for the workload substrate: kernels, trace generation,
 * checkpointing, and the SPEC-like profiles.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "base/random.hh"
#include "workload/benchmark_profile.hh"
#include "workload/kernels.hh"
#include "workload/spec_profiles.hh"
#include "workload/synthetic_trace.hh"

namespace
{

using namespace delorean;
using namespace delorean::workload;

// --------------------------------------------------------------- kernels

TEST(StreamKernel, SweepsAndWraps)
{
    StreamKernel k(0x1000, 256, 64);
    EXPECT_EQ(k.nextAddr(), 0x1000u);
    EXPECT_EQ(k.nextAddr(), 0x1040u);
    EXPECT_EQ(k.nextAddr(), 0x1080u);
    EXPECT_EQ(k.nextAddr(), 0x10c0u);
    EXPECT_EQ(k.nextAddr(), 0x1000u); // wrap
}

TEST(StreamKernel, SubLineStrideRepeatsLines)
{
    StreamKernel k(0, 1024, 8);
    std::map<Addr, int> per_line;
    for (int i = 0; i < 128; ++i)
        ++per_line[lineOf(k.nextAddr())];
    // 8-byte stride: 8 accesses per 64-byte line.
    for (const auto &[line, n] : per_line)
        EXPECT_EQ(n, 8) << line;
}

TEST(ChaseKernel, FullPeriodPermutation)
{
    ChaseKernel k(0, 64 * line_size, 7);
    std::set<Addr> seen;
    for (std::uint64_t i = 0; i < k.cycleLength(); ++i)
        seen.insert(k.nextAddr());
    EXPECT_EQ(seen.size(), k.cycleLength()); // every line exactly once
}

TEST(ChaseKernel, ExactCyclicReuse)
{
    ChaseKernel k(0, 32 * line_size, 3);
    std::vector<Addr> first_cycle;
    for (std::uint64_t i = 0; i < k.cycleLength(); ++i)
        first_cycle.push_back(k.nextAddr());
    for (std::uint64_t i = 0; i < k.cycleLength(); ++i)
        EXPECT_EQ(k.nextAddr(), first_cycle[i]);
}

TEST(BlockKernel, RepeatsBlockThenAdvances)
{
    // 2 blocks of 2 lines, 2 repeats.
    BlockKernel k(0, 256, 128, 2);
    std::vector<Addr> seq;
    for (int i = 0; i < 8; ++i)
        seq.push_back(k.nextAddr());
    // Block 0 twice: 0,64,0,64, then block 1 twice: 128,192,128,192.
    const std::vector<Addr> expect = {0, 64, 0, 64, 128, 192, 128, 192};
    EXPECT_EQ(seq, expect);
}

TEST(RandomKernel, StaysInWorkingSet)
{
    RandomKernel k(0x10000, 64 * KiB, 5);
    for (int i = 0; i < 1000; ++i) {
        const Addr a = k.nextAddr();
        EXPECT_GE(a, 0x10000u);
        EXPECT_LT(a, 0x10000u + 64 * KiB);
    }
}

TEST(HotColdKernel, InterleavedColdSharesHotPages)
{
    HotColdKernel k(0, 64 * KiB, 0, 0.9, true, 11);
    std::unordered_set<Addr> cold_pages, hot_pages;
    for (int i = 0; i < 50000; ++i) {
        const Addr a = k.nextAddr();
        const Addr off = a % page_size;
        if (off == 0)
            cold_pages.insert(pageOf(a));
        else
            hot_pages.insert(pageOf(a));
    }
    EXPECT_FALSE(cold_pages.empty());
    // Every cold page is also a hot page: the povray pathology.
    for (const Addr p : cold_pages)
        EXPECT_TRUE(hot_pages.count(p)) << p;
}

TEST(EpochKernel, RotatesSubRegions)
{
    EpochKernel k(0, 4 * 64 * line_size, 4, 10, 3);
    const std::uint64_t region_bytes = 64 * line_size;
    for (unsigned epoch = 0; epoch < 4; ++epoch) {
        for (int i = 0; i < 10; ++i) {
            const Addr a = k.nextAddr();
            EXPECT_EQ(a / region_bytes, epoch) << i;
        }
    }
    // Wraps back to sub-region 0.
    EXPECT_EQ(k.nextAddr() / region_bytes, 0u);
}

TEST(Kernels, CloneContinuesIdentically)
{
    const std::vector<std::unique_ptr<AccessKernel>> kernels = [] {
        std::vector<std::unique_ptr<AccessKernel>> v;
        v.push_back(std::make_unique<StreamKernel>(0, 4096, 8));
        v.push_back(std::make_unique<RandomKernel>(0, 64 * KiB, 1));
        v.push_back(std::make_unique<ChaseKernel>(0, 64 * 64, 2));
        v.push_back(std::make_unique<BlockKernel>(0, 4096, 1024, 3));
        v.push_back(
            std::make_unique<HotColdKernel>(0, 8192, 4096, 0.9, false, 4));
        v.push_back(std::make_unique<EpochKernel>(0, 8192, 2, 5, 5));
        return v;
    }();

    for (const auto &k : kernels) {
        auto warm = k->clone();
        for (int i = 0; i < 100; ++i)
            (void)warm->nextAddr();
        auto snap = warm->clone();
        std::vector<Addr> a, b;
        for (int i = 0; i < 200; ++i)
            a.push_back(warm->nextAddr());
        for (int i = 0; i < 200; ++i)
            b.push_back(snap->nextAddr());
        EXPECT_EQ(a, b);
    }
}

TEST(Kernels, ResetRestartsStream)
{
    RandomKernel k(0, 64 * KiB, 9);
    std::vector<Addr> first;
    for (int i = 0; i < 50; ++i)
        first.push_back(k.nextAddr());
    k.reset();
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(k.nextAddr(), first[std::size_t(i)]);
}

// ---------------------------------------------------------------- trace

BenchmarkProfile
tinyProfile()
{
    BenchmarkProfile p;
    p.name = "tiny";
    p.mem_ratio = 0.4;
    p.branch_ratio = 0.1;
    p.kernels = {KernelSpec{.kind = KernelSpec::Kind::Random,
                            .ws = 64 * KiB,
                            .weight = 1.0,
                            .num_pcs = 4}};
    p.seed = 42;
    return p;
}

TEST(SyntheticTrace, Deterministic)
{
    SyntheticTrace a(tinyProfile()), b(tinyProfile());
    for (int i = 0; i < 10000; ++i) {
        const auto x = a.next();
        const auto y = b.next();
        ASSERT_EQ(x.type, y.type);
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(x.addr, y.addr);
        ASSERT_EQ(x.taken, y.taken);
    }
}

TEST(SyntheticTrace, CloneProducesIdenticalSuffix)
{
    SyntheticTrace t(tinyProfile());
    t.skip(5000);
    auto snap = t.clone();
    EXPECT_EQ(snap->position(), t.position());
    for (int i = 0; i < 5000; ++i) {
        const auto x = t.next();
        const auto y = snap->next();
        ASSERT_EQ(x.addr, y.addr);
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(x.type, y.type);
    }
}

TEST(SyntheticTrace, SkipMatchesNext)
{
    SyntheticTrace a(tinyProfile()), b(tinyProfile());
    a.skip(1234);
    for (int i = 0; i < 1234; ++i)
        (void)b.next();
    EXPECT_EQ(a.position(), b.position());
    EXPECT_EQ(a.next().addr, b.next().addr);
}

TEST(SyntheticTrace, ResetRestartsFromZero)
{
    SyntheticTrace t(tinyProfile());
    const auto first = t.next();
    t.skip(100);
    t.reset();
    EXPECT_EQ(t.position(), 0u);
    const auto again = t.next();
    EXPECT_EQ(first.addr, again.addr);
    EXPECT_EQ(first.pc, again.pc);
}

TEST(SyntheticTrace, MixRatiosApproximatelyRespected)
{
    auto p = tinyProfile();
    p.mem_ratio = 0.35;
    p.branch_ratio = 0.15;
    SyntheticTrace t(p);
    int mem = 0, br = 0, n = 100000;
    for (int i = 0; i < n; ++i) {
        const auto inst = t.next();
        mem += inst.isMem();
        br += inst.isBranch();
    }
    EXPECT_NEAR(double(mem) / n, 0.35, 0.01);
    EXPECT_NEAR(double(br) / n, 0.15, 0.01);
}

TEST(SyntheticTrace, ChaseLoadsAreDependent)
{
    auto p = tinyProfile();
    p.kernels = {KernelSpec{.kind = KernelSpec::Kind::Chase,
                            .ws = 64 * 64,
                            .weight = 1.0,
                            .num_pcs = 2}};
    SyntheticTrace t(p);
    bool saw_dep = false;
    for (int i = 0; i < 1000; ++i) {
        const auto inst = t.next();
        if (inst.isLoad()) {
            EXPECT_TRUE(inst.dep_load);
            saw_dep = true;
        }
        if (inst.isStore()) {
            EXPECT_FALSE(inst.dep_load);
        }
    }
    EXPECT_TRUE(saw_dep);
}

TEST(SyntheticTrace, PhasesSwitchKernelWeights)
{
    auto p = tinyProfile();
    p.kernels = {KernelSpec{.kind = KernelSpec::Kind::Random,
                            .ws = 4 * KiB,
                            .weight = 1.0,
                            .num_pcs = 2},
                 KernelSpec{.kind = KernelSpec::Kind::Random,
                            .ws = 4 * KiB,
                            .weight = 1.0,
                            .num_pcs = 2}};
    p.phases = {{10000, {1.0, 0.0}}, {10000, {0.0, 1.0}}};
    SyntheticTrace t(p);
    const Addr base0 = t.kernelBase(0);
    const Addr base1 = t.kernelBase(1);

    int in0 = 0, in1 = 0;
    for (int i = 0; i < 10000; ++i) {
        const auto inst = t.next();
        if (!inst.isMem())
            continue;
        if (inst.addr >= base1)
            ++in1;
        else if (inst.addr >= base0)
            ++in0;
    }
    EXPECT_GT(in0, 0);
    EXPECT_EQ(in1, 0); // phase 1 exclusively uses kernel 0

    in0 = in1 = 0;
    for (int i = 0; i < 10000; ++i) {
        const auto inst = t.next();
        if (!inst.isMem())
            continue;
        if (inst.addr >= base1)
            ++in1;
        else if (inst.addr >= base0)
            ++in0;
    }
    EXPECT_EQ(in0, 0); // phase 2 exclusively uses kernel 1
    EXPECT_GT(in1, 0);
}

TEST(SyntheticTrace, KernelsGetDisjointRegions)
{
    auto p = tinyProfile();
    p.kernels = {KernelSpec{.kind = KernelSpec::Kind::Random,
                            .ws = 64 * KiB,
                            .weight = 1.0,
                            .num_pcs = 2},
                 KernelSpec{.kind = KernelSpec::Kind::Random,
                            .ws = 64 * KiB,
                            .weight = 1.0,
                            .num_pcs = 2}};
    SyntheticTrace t(p);
    EXPECT_GE(t.kernelBase(1), t.kernelBase(0) + 64 * KiB);
}

// --------------------------------------------------------- spec profiles

TEST(SpecProfiles, TwentyFourBenchmarksInPaperOrder)
{
    const auto &names = specBenchmarkNames();
    ASSERT_EQ(names.size(), 24u);
    EXPECT_EQ(names.front(), "perlbench");
    EXPECT_EQ(names.back(), "xalancbmk");
    // Spot-check the paper's highlighted benchmarks exist.
    for (const char *n :
         {"bwaves", "mcf", "povray", "calculix", "GemsFDTD", "lbm"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), n), names.end())
            << n;
    }
}

TEST(SpecProfiles, AllValidateAndBuild)
{
    for (const auto &name : specBenchmarkNames()) {
        const auto p = specProfile(name);
        EXPECT_EQ(p.name, name);
        auto trace = makeSpecTrace(name);
        ASSERT_NE(trace, nullptr);
        for (int i = 0; i < 1000; ++i)
            (void)trace->next();
        EXPECT_EQ(trace->position(), 1000u);
    }
}

// Branches drawn from an empty branch table would index it out of
// bounds on the first branch next(); validate() refuses the profile.
TEST(BenchmarkProfileDeathTest, BranchesWithoutBranchPcsAreRejected)
{
    BenchmarkProfile p = specProfile("bzip2");
    ASSERT_GT(p.branch_ratio, 0.0);
    p.num_branch_pcs = 0;
    EXPECT_DEATH(p.validate(), "num_branch_pcs");
    // Without branches there is no table to index.
    p.branch_ratio = 0.0;
    p.validate();
}

TEST(SpecProfiles, DistinctSeedsProduceDistinctStreams)
{
    auto a = makeSpecTrace("perlbench");
    auto b = makeSpecTrace("bzip2");
    bool differ = false;
    for (int i = 0; i < 100 && !differ; ++i)
        differ = a->next().addr != b->next().addr;
    EXPECT_TRUE(differ);
}

// The generator's step path replaces Rng::chance(step_call_prob) —
// "(r >> 11) * 2^-53 < p" — with the integer comparison
// "(r >> 11) < ceil(p * 2^53)" (synthetic_trace.cc, call_m_bound).
// Pin the equivalence for every draw: the left side of the double
// predicate is an integer < 2^53 scaled by an exact power of two, so
// the two predicates must agree at the threshold and everywhere else.
TEST(SyntheticTrace, CallChanceIntegerBoundMatchesDoublePredicate)
{
    const auto agree = [](double p, std::uint64_t r) {
        const std::uint64_t hi = r >> 11;
        const std::uint64_t m = std::uint64_t(std::ceil(p * 0x1.0p53));
        const bool as_double = double(hi) * 0x1.0p-53 < p;
        const bool as_int = hi < m;
        ASSERT_EQ(as_double, as_int)
            << "p=" << p << " r=" << r << " hi=" << hi << " m=" << m;
    };
    // step_call_prob plus probabilities exactly on / off a 2^-53 grid
    // point, at every threshold-adjacent draw and a random sweep.
    const double probs[] = {0.001, 0.5, 0x1.0p-53, 3 * 0x1.0p-53,
                            0.3333333333333333, 1.0 - 0x1.0p-53};
    delorean::Rng rng(0xca11);
    for (const double p : probs) {
        const std::uint64_t m = std::uint64_t(std::ceil(p * 0x1.0p53));
        for (const std::uint64_t hi :
             {std::uint64_t(0), m - 1, m, m + 1,
              (std::uint64_t(1) << 53) - 1}) {
            if (hi >= (std::uint64_t(1) << 53))
                continue;
            agree(p, hi << 11);
        }
        for (int i = 0; i < 5000; ++i)
            agree(p, rng.next());
    }
}

class SpecProfileDeterminism
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SpecProfileDeterminism, CloneAfterSkipIsExact)
{
    auto t = makeSpecTrace(GetParam());
    t->skip(50000);
    auto snap = t->clone();
    for (int i = 0; i < 2000; ++i) {
        const auto x = t->next();
        const auto y = snap->next();
        ASSERT_EQ(x.addr, y.addr);
        ASSERT_EQ(x.pc, y.pc);
    }
}

// SyntheticTrace overrides skip() with a record-free fast path; it must
// stay state-equivalent to n x next() in every field, on every profile.
TEST_P(SpecProfileDeterminism, SkipIsStateEquivalentToNext)
{
    auto skipped = makeSpecTrace(GetParam());
    auto stepped = makeSpecTrace(GetParam());
    skipped->skip(12345);
    for (int i = 0; i < 12345; ++i)
        (void)stepped->next();
    ASSERT_EQ(skipped->position(), stepped->position());
    for (int i = 0; i < 2000; ++i) {
        // Defaulted Instruction::operator==: every field, including
        // ones added later.
        ASSERT_TRUE(skipped->next() == stepped->next()) << i;
    }
}

TEST_P(SpecProfileDeterminism, ResetReproducesPrefix)
{
    auto t = makeSpecTrace(GetParam());
    std::vector<Instruction> prefix;
    for (int i = 0; i < 2000; ++i)
        prefix.push_back(t->next());
    t->skip(10000);
    t->reset();
    EXPECT_EQ(t->position(), 0u);
    for (const auto &expect : prefix) {
        const auto got = t->next();
        ASSERT_EQ(got.pc, expect.pc);
        ASSERT_EQ(got.addr, expect.addr);
        ASSERT_EQ(got.type, expect.type);
        ASSERT_EQ(got.taken, expect.taken);
    }
}

// ------------------------------------------ block pipeline vs next()
//
// SyntheticTrace::skip() and memLines() are a separate implementation
// (a block pipeline) from next(); these checks pin them to next() at
// scale: long enough to cross the 512-instruction block at every
// alignment and to hit call-path instructions, which leave the block
// fast loop.

using TraceFactory = std::function<std::unique_ptr<TraceSource>()>;

/** Instructions each equivalence check covers. */
constexpr InstCount scale_insts = 250'000;

/** Call sizes, cycled: single instructions, every alignment around
 *  a block, Explorer-sized chunks and long fast-forwards. */
constexpr InstCount call_sizes[] = {1,    2,    3,      511, 512,
                                    513,  1000, 4096, 65'537, 7};

/** Both sources stand at the same position and continue identically. */
void
expectSameContinuation(TraceSource &a, TraceSource &b, const char *what)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(a.position(), b.position());
    for (int i = 0; i < 2000; ++i)
        ASSERT_TRUE(a.next() == b.next()) << "at " << a.position();
}

/**
 * From position @p start (reached by skip()), over scale_insts
 * instructions: memLines() in mixed call sizes yields exactly next()'s
 * memory lines; skip() in the same mixed sizes and skip() in one call
 * leave the state n x next() does (so split calls equal one call);
 * skip(0) is a no-op.
 */
void
expectBlockPipelineMatchesNext(const TraceFactory &make,
                               InstCount start = 0)
{
    auto ref = make();
    ref->skip(start);
    auto lines = ref->clone();
    auto split = ref->clone();
    auto whole = ref->clone();

    std::vector<Addr> got;
    std::size_t call = 0;
    for (InstCount done = 0; done < scale_insts; ++call) {
        const InstCount n = std::min(
            call_sizes[call % std::size(call_sizes)], scale_insts - done);
        got.assign(std::size_t(n), 0);
        const InstCount m = lines->memLines(got.data(), n);
        split->skip(n);
        InstCount j = 0;
        for (InstCount i = 0; i < n; ++i) {
            const auto inst = ref->next();
            if (!inst.isMem())
                continue;
            ASSERT_LT(j, m) << "call " << call << " at " << done + i;
            ASSERT_EQ(got[std::size_t(j)], inst.line())
                << "call " << call << " at " << done + i;
            ++j;
        }
        ASSERT_EQ(j, m) << "call " << call;
        done += n;
    }
    whole->skip(0);
    whole->skip(scale_insts);
    auto ref_split = ref->clone();
    auto ref_whole = ref->clone();
    ASSERT_NO_FATAL_FAILURE(expectSameContinuation(*lines, *ref,
                                                   "memLines"));
    ASSERT_NO_FATAL_FAILURE(expectSameContinuation(*split, *ref_split,
                                                   "split skip"));
    expectSameContinuation(*whole, *ref_whole, "one skip");
}

/**
 * A start from which scale_insts instructions straddle the profile's
 * first phase boundary (0 when stationary or when the first phase is
 * too short to start inside it).
 */
InstCount
straddlingStart(const std::string &name)
{
    const auto phases = specProfile(name).phases;
    if (phases.empty() || phases[0].length < scale_insts / 2)
        return 0;
    return phases[0].length - scale_insts / 2;
}

TEST_P(SpecProfileDeterminism, BlockPipelineMatchesNextAtScale)
{
    expectBlockPipelineMatchesNext(
        [&] { return makeSpecTrace(GetParam()); },
        straddlingStart(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SpecProfileDeterminism,
                         ::testing::ValuesIn(specBenchmarkNames()),
                         [](const auto &info) { return info.param; });

/**
 * Every kernel kind with a working set small enough to wrap many
 * times within scale_insts (Stream every 64 accesses, Stride every 16,
 * Block every 512, the separate HotCold cold set every 256, a full
 * Epoch rotation every 400), including both HotCold layouts.
 */
BenchmarkProfile
allKindsProfile()
{
    using K = KernelSpec::Kind;
    BenchmarkProfile p;
    p.name = "all-kinds";
    p.mem_ratio = 0.45;
    p.branch_ratio = 0.15;
    p.store_frac = 0.3;
    p.fp_frac = 0.2;
    p.num_branch_pcs = 37;
    p.kernels = {
        KernelSpec{.kind = K::Stream, .ws = 4 * KiB, .stride = 64},
        KernelSpec{.kind = K::Stride, .ws = 64 * KiB, .stride = 4 * KiB},
        KernelSpec{.kind = K::Random, .ws = 8 * KiB},
        KernelSpec{.kind = K::Chase, .ws = 64 * line_size},
        KernelSpec{.kind = K::Block,
                   .ws = 16 * KiB,
                   .block = 4 * KiB,
                   .repeats = 2},
        KernelSpec{.kind = K::HotCold,
                   .ws = 16 * KiB,
                   .cold = 0,
                   .hot_frac = 0.7,
                   .interleaved = true},
        KernelSpec{.kind = K::HotCold,
                   .ws = 8 * KiB,
                   .cold = 16 * KiB,
                   .hot_frac = 0.5},
        KernelSpec{.kind = K::Epoch,
                   .ws = 64 * KiB,
                   .regions = 4,
                   .epoch_len = 100},
    };
    p.seed = 77;
    return p;
}

/**
 * allKindsProfile() with phases of awkward lengths: a one-instruction
 * leading phase (validate() rejects zero-length phases), phases shorter
 * than a block and ones straddling block ends, and zero weights.
 */
BenchmarkProfile
phasedProfile()
{
    auto p = allKindsProfile();
    p.name = "phased";
    p.phases = {
        {1, {1, 0, 0, 0, 0, 0, 0, 0}},
        {3, {0, 1, 0, 0, 0, 0, 0, 1}},
        {511, {1, 1, 1, 1, 1, 1, 1, 1}},
        {513, {0, 0, 0, 2, 0, 0, 1, 0}},
        {1000, {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}},
        {65'536, {0, 0, 5, 0, 1, 1, 0, 0}},
    };
    return p;
}

/**
 * Profiles for the block pipeline: both fixed-layout ones above, and
 * the draw layouts that are not fixed (a store or FP draw that never
 * happens) on top of the phased one.
 */
BenchmarkProfile
blockPipelineProfile(const std::string &name)
{
    if (name == "all_kinds")
        return allKindsProfile();
    auto p = phasedProfile();
    if (name == "store_frac_0")
        p.store_frac = 0.0;
    else if (name == "store_frac_1")
        p.store_frac = 1.0;
    else if (name == "fp_frac_0")
        p.fp_frac = 0.0;
    else if (name == "fp_frac_1")
        p.fp_frac = 1.0;
    return p;
}

class BlockPipelineLayouts : public ::testing::TestWithParam<std::string>
{
  protected:
    TraceFactory
    factory() const
    {
        const auto profile = blockPipelineProfile(GetParam());
        return [profile] {
            return std::make_unique<SyntheticTrace>(profile);
        };
    }
};

TEST_P(BlockPipelineLayouts, MatchesNext)
{
    expectBlockPipelineMatchesNext(factory());
}

INSTANTIATE_TEST_SUITE_P(HandBuilt, BlockPipelineLayouts,
                         ::testing::Values("all_kinds", "phased",
                                           "store_frac_0", "store_frac_1",
                                           "fp_frac_0", "fp_frac_1"),
                         [](const auto &info) { return info.param; });

// ------------------------------------------------------ stream goldens
//
// Pins the generated streams themselves, not just their agreement:
// per spec profile, the count and an FNV-1a digest of the memLines()
// lines over the first 500 k instructions (in Explorer-sized 4096
// chunks), and a digest of every field of 20 k next() records after
// skip(500 k). Computed before the block pipeline replaced the
// per-instruction skip()/memLines() loops; any change to a profile,
// a kernel, the RNG or the generator's draw order shows here.

std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

struct StreamGolden
{
    const char *name;
    InstCount mem_lines;
    std::uint64_t lines_digest;
    std::uint64_t next_digest;
};

constexpr StreamGolden stream_goldens[] = {
    {"perlbench", 190253, 0x08005e72eb1498feull, 0xed9c219b7af42d33ull},
    {"bzip2", 180185, 0xc3d6d05ee9cfc385ull, 0xf2d9f7ff3f9a357eull},
    {"bwaves", 200438, 0xe7b9daae8e3505d8ull, 0x951c47186b6146daull},
    {"gamess", 125019, 0x3d4e00c119e94b75ull, 0x7479d4c3ac7226cdull},
    {"mcf", 209615, 0x574e544bdb712f1dull, 0xfbe2848498b7dfa1ull},
    {"zeusmp", 199554, 0x81e60ea869ee259aull, 0xfaefcb2ffeaeaeddull},
    {"gromacs", 164781, 0x8983016c9e36a7c7ull, 0x5148ed72b57a9a02ull},
    {"cactusADM", 205151, 0xc14960feee52b469ull, 0x458b00d0c472e567ull},
    {"leslie3d", 209876, 0x214e5aec8804bdb9ull, 0x60d452f8fdcf1622ull},
    {"namd", 119962, 0x51b7934081ec5924ull, 0x406e4a1d0324fee1ull},
    {"gobmk", 160032, 0x8bb8bb91b24c2ac8ull, 0xd0f902cecb5b8941ull},
    {"soplex", 195189, 0xa24a4cc8ee520e84ull, 0xbea18c66597c62d2ull},
    {"povray", 169818, 0xa188fc4d5e727f32ull, 0x72c51bcacf6a8364ull},
    {"calculix", 174816, 0x7cf69e2df127fbfdull, 0x2be13e0451a175feull},
    {"hmmer", 225044, 0x7f6ef7accec7ca4bull, 0xf3bda0c55f223f4cull},
    {"sjeng", 150077, 0xb8232181e64911c4ull, 0xd783fdb83a3f0eb4ull},
    {"GemsFDTD", 209868, 0x6da0592784dd33c1ull, 0xf589c8a6563fe42bull},
    {"libquantum", 149734, 0x1591c593e7af6e9full, 0x5fa034a00841bd94ull},
    {"h264ref", 184636, 0xc2e0e8b330f9f000ull, 0x5a92e188284e76cbull},
    {"tonto", 164650, 0xd79b1d7821eac51aull, 0x89b48a9acd0c9ca9ull},
    {"lbm", 225484, 0x99f4fa54d4e03c12ull, 0x26a823b1ba4ffd35ull},
    {"omnetpp", 200153, 0xd5c5f3644b412fa3ull, 0x098a4946febb959eull},
    {"astar", 189896, 0xa88d4b02afa8c51dull, 0x58217a212fe4fcdbull},
    {"xalancbmk", 194906, 0xa3444f649d61d52eull, 0xf890f225bbba41f6ull},
};

TEST(SyntheticTraceGolden, SpecStreamsMatchPinnedDigests)
{
    constexpr InstCount prefix = 500'000;
    ASSERT_EQ(std::size(stream_goldens), specBenchmarkNames().size());
    for (const auto &g : stream_goldens) {
        SCOPED_TRACE(g.name);
        auto t = makeSpecTrace(g.name);
        std::vector<Addr> lines(4096);
        std::uint64_t lines_digest = 0xcbf29ce484222325ull;
        InstCount count = 0;
        for (InstCount done = 0; done < prefix;) {
            const InstCount n = std::min<InstCount>(4096, prefix - done);
            const InstCount m = t->memLines(lines.data(), n);
            for (InstCount i = 0; i < m; ++i)
                lines_digest = fnvMix(lines_digest, lines[std::size_t(i)]);
            count += m;
            done += n;
        }
        EXPECT_EQ(count, g.mem_lines);
        EXPECT_EQ(lines_digest, g.lines_digest);

        auto s = makeSpecTrace(g.name);
        s->skip(prefix);
        std::uint64_t next_digest = 0xcbf29ce484222325ull;
        for (int i = 0; i < 20'000; ++i) {
            const auto x = s->next();
            next_digest = fnvMix(next_digest,
                                 std::uint64_t(x.type) |
                                     std::uint64_t(x.taken) << 8 |
                                     std::uint64_t(x.dep_load) << 16 |
                                     std::uint64_t(x.latency) << 24);
            next_digest = fnvMix(next_digest, x.pc);
            next_digest = fnvMix(next_digest, x.addr);
            next_digest = fnvMix(next_digest, x.target);
        }
        EXPECT_EQ(next_digest, g.next_digest);
    }
}

} // namespace
