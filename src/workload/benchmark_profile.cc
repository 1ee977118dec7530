#include "workload/benchmark_profile.hh"

#include "base/logging.hh"

namespace delorean::workload
{

void
BenchmarkProfile::validate() const
{
    fatal_if(kernels.empty(),
             "profile '%s': at least one kernel is required", name.c_str());
    fatal_if(kernels.size() > max_kernels,
             "profile '%s': %zu kernels, at most %zu are supported",
             name.c_str(), kernels.size(), max_kernels);
    fatal_if(mem_ratio <= 0.0 || mem_ratio >= 1.0,
             "profile '%s': mem_ratio %f out of (0,1)", name.c_str(),
             mem_ratio);
    fatal_if(branch_ratio < 0.0 || mem_ratio + branch_ratio >= 1.0,
             "profile '%s': mem_ratio + branch_ratio must be < 1",
             name.c_str());
    fatal_if(branch_ratio > 0.0 && num_branch_pcs == 0,
             "profile '%s': branch_ratio %f needs num_branch_pcs > 0",
             name.c_str(), branch_ratio);
    fatal_if(store_frac < 0.0 || store_frac > 1.0,
             "profile '%s': store_frac %f out of [0,1]", name.c_str(),
             store_frac);
    fatal_if(code_footprint < page_size,
             "profile '%s': code footprint below one page", name.c_str());

    double total = 0.0;
    for (const auto &k : kernels) {
        fatal_if(k.weight < 0.0, "profile '%s': negative kernel weight",
                 name.c_str());
        fatal_if(k.num_pcs == 0, "profile '%s': kernel with zero PCs",
                 name.c_str());
        total += k.weight;
    }
    fatal_if(total <= 0.0, "profile '%s': kernel weights sum to zero",
             name.c_str());

    for (const auto &p : phases) {
        fatal_if(p.length == 0, "profile '%s': zero-length phase",
                 name.c_str());
        fatal_if(p.weights.size() != kernels.size(),
                 "profile '%s': phase weight count %zu != kernel count %zu",
                 name.c_str(), p.weights.size(), kernels.size());
        double phase_total = 0.0;
        for (double w : p.weights)
            phase_total += w;
        fatal_if(phase_total <= 0.0,
                 "profile '%s': phase weights sum to zero", name.c_str());
    }
}

std::uint64_t
BenchmarkProfile::dataFootprint() const
{
    std::uint64_t total = 0;
    for (const auto &k : kernels) {
        std::uint64_t fp = k.ws;
        if (k.kind == KernelSpec::Kind::HotCold && !k.interleaved)
            fp += k.cold;
        total += fp;
    }
    return total;
}

std::unique_ptr<AccessKernel>
makeKernel(const KernelSpec &spec, Addr base, std::uint64_t seed)
{
    using Kind = KernelSpec::Kind;
    switch (spec.kind) {
      case Kind::Stream:
        return std::make_unique<StreamKernel>(base, spec.ws, spec.stride);
      case Kind::Stride:
        return std::make_unique<StrideKernel>(base, spec.ws, spec.stride);
      case Kind::Random:
        return std::make_unique<RandomKernel>(base, spec.ws, seed);
      case Kind::Chase:
        return std::make_unique<ChaseKernel>(base, spec.ws, seed);
      case Kind::Block:
        return std::make_unique<BlockKernel>(base, spec.ws, spec.block,
                                             spec.repeats);
      case Kind::HotCold:
        return std::make_unique<HotColdKernel>(base, spec.ws, spec.cold,
                                               spec.hot_frac,
                                               spec.interleaved, seed);
      case Kind::Epoch:
        return std::make_unique<EpochKernel>(base, spec.ws, spec.regions,
                                             spec.epoch_len, seed);
    }
    panic("makeKernel: unknown kernel kind %d", int(spec.kind));
    return nullptr;
}

} // namespace delorean::workload
